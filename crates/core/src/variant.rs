//! The LEMP variants evaluated in the paper (Sec. 6.1) and per-bucket
//! method resolution.
//!
//! "We ran seven 'pure' versions of LEMP, in which only one method was used
//! within a bucket … We also ran the two mixed versions LEMP-LC (LENGTH and
//! COORD) and LEMP-LI (LENGTH and INCR), in which the appropriate retrieval
//! method is chosen as described in Sec. 4.4."

/// Which bucket method(s) a LEMP run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LempVariant {
    /// LEMP-L: pure LENGTH.
    L,
    /// LEMP-C: pure COORD.
    C,
    /// LEMP-I: pure INCR.
    I,
    /// LEMP-LC: LENGTH below the tuned `t_b`, COORD above.
    LC,
    /// LEMP-LI: LENGTH below the tuned `t_b`, INCR above — the paper's
    /// overall winner.
    LI,
    /// LEMP-TA: Fagin's threshold algorithm per bucket.
    Ta,
    /// LEMP-Tree: a cover tree per bucket.
    Tree,
    /// LEMP-L2AP: an L2AP index per bucket.
    L2ap,
    /// LEMP-BLSH: BayesLSH-Lite signature pruning (approximate).
    Blsh,
}

impl LempVariant {
    /// All nine variants, in the order of the paper's Tables 5–6.
    pub fn all() -> [LempVariant; 9] {
        [
            LempVariant::L,
            LempVariant::LI,
            LempVariant::LC,
            LempVariant::I,
            LempVariant::C,
            LempVariant::Ta,
            LempVariant::Tree,
            LempVariant::L2ap,
            LempVariant::Blsh,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            LempVariant::L => "LEMP-L",
            LempVariant::C => "LEMP-C",
            LempVariant::I => "LEMP-I",
            LempVariant::LC => "LEMP-LC",
            LempVariant::LI => "LEMP-LI",
            LempVariant::Ta => "LEMP-TA",
            LempVariant::Tree => "LEMP-Tree",
            LempVariant::L2ap => "LEMP-L2AP",
            LempVariant::Blsh => "LEMP-BLSH",
        }
    }

    /// `true` for the variants whose results may miss an ε fraction of true
    /// entries (only BLSH).
    pub fn is_approximate(&self) -> bool {
        matches!(self, LempVariant::Blsh)
    }

    /// Does the variant use a coordinate method whose φ must be tuned?
    pub(crate) fn needs_phi(&self) -> bool {
        matches!(self, LempVariant::C | LempVariant::I | LempVariant::LC | LempVariant::LI)
    }

    /// Does the variant mix LENGTH with a coordinate method via `t_b`?
    pub(crate) fn needs_tb(&self) -> bool {
        matches!(self, LempVariant::LC | LempVariant::LI)
    }

    /// Is the coordinate method INCR (vs COORD)?
    pub(crate) fn coord_is_incr(&self) -> bool {
        matches!(self, LempVariant::I | LempVariant::LI)
    }
}

/// Per-bucket tuned parameters (Sec. 4.4): the LENGTH/coordinate switch
/// threshold `t_b` and the number of sorted lists to scan `φ_b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedParams {
    /// Use LENGTH whenever `θ_b(q) < t_b`.
    pub tb: f64,
    /// Focus-set size for COORD/INCR.
    pub phi: usize,
    /// Run the quantized LUT scan for this bucket instead of the variant's
    /// method (set by the tuner when the engine was built with
    /// `quantize=<bits>` and the compressed scan priced no dearer).
    pub quant: bool,
}

impl Default for TunedParams {
    fn default() -> Self {
        // Untuned fallback: always the coordinate method, two lists.
        Self { tb: 0.0, phi: 2, quant: false }
    }
}

/// The method actually executed for one (query, bucket) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedMethod {
    Length,
    Coord(usize),
    Incr(usize),
    Ta,
    Tree,
    L2ap,
    Blsh,
    /// The quantized LUT scan over packed codes (candidates re-verified
    /// against full-precision vectors by the shared verification step).
    Quant,
}

/// Resolves the variant + tuned parameters + local threshold into a method.
/// Appendix A: "we use COORD instead of INCR whenever φ_b = 1" (identical
/// candidates, cheaper scan). A bucket the tuner marked `quant` always runs
/// the quantized LUT scan — its candidates are a verified superset of any
/// exact method's answers, so the override is safe for every variant.
pub(crate) fn resolve(variant: LempVariant, tuned: &TunedParams, theta_b: f64) -> ResolvedMethod {
    if tuned.quant {
        return ResolvedMethod::Quant;
    }
    let coord_method = |phi: usize, incr: bool| {
        if incr && phi > 1 {
            ResolvedMethod::Incr(phi)
        } else {
            ResolvedMethod::Coord(phi.max(1))
        }
    };
    match variant {
        LempVariant::L => ResolvedMethod::Length,
        LempVariant::C => coord_method(tuned.phi, false),
        LempVariant::I => coord_method(tuned.phi, true),
        LempVariant::LC => {
            if theta_b < tuned.tb {
                ResolvedMethod::Length
            } else {
                coord_method(tuned.phi, false)
            }
        }
        LempVariant::LI => {
            if theta_b < tuned.tb {
                ResolvedMethod::Length
            } else {
                coord_method(tuned.phi, true)
            }
        }
        LempVariant::Ta => ResolvedMethod::Ta,
        LempVariant::Tree => ResolvedMethod::Tree,
        LempVariant::L2ap => ResolvedMethod::L2ap,
        LempVariant::Blsh => ResolvedMethod::Blsh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_paper_styled() {
        let names: Vec<&str> = LempVariant::all().iter().map(|v| v.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 9);
        assert!(names.iter().all(|n| n.starts_with("LEMP-")));
    }

    #[test]
    fn hybrid_resolution_switches_on_tb() {
        let tuned = TunedParams { tb: 0.5, phi: 3, quant: false };
        assert_eq!(resolve(LempVariant::LI, &tuned, 0.4), ResolvedMethod::Length);
        assert_eq!(resolve(LempVariant::LI, &tuned, 0.6), ResolvedMethod::Incr(3));
        assert_eq!(resolve(LempVariant::LC, &tuned, 0.4), ResolvedMethod::Length);
        assert_eq!(resolve(LempVariant::LC, &tuned, 0.6), ResolvedMethod::Coord(3));
    }

    #[test]
    fn incr_with_phi_one_degrades_to_coord() {
        let tuned = TunedParams { tb: 0.0, phi: 1, quant: false };
        assert_eq!(resolve(LempVariant::I, &tuned, 0.9), ResolvedMethod::Coord(1));
        assert_eq!(resolve(LempVariant::LI, &tuned, 0.9), ResolvedMethod::Coord(1));
    }

    #[test]
    fn pure_variants_ignore_tb() {
        let tuned = TunedParams { tb: 0.99, phi: 2, quant: false };
        assert_eq!(resolve(LempVariant::C, &tuned, 0.01), ResolvedMethod::Coord(2));
        assert_eq!(resolve(LempVariant::L, &tuned, 0.99), ResolvedMethod::Length);
        assert_eq!(resolve(LempVariant::Ta, &tuned, 0.5), ResolvedMethod::Ta);
    }

    #[test]
    fn quant_flag_overrides_every_variant() {
        let tuned = TunedParams { tb: 0.5, phi: 3, quant: true };
        for v in LempVariant::all() {
            assert_eq!(resolve(v, &tuned, 0.9), ResolvedMethod::Quant);
            assert_eq!(resolve(v, &tuned, 0.1), ResolvedMethod::Quant);
        }
    }

    #[test]
    fn only_blsh_is_approximate() {
        for v in LempVariant::all() {
            assert_eq!(v.is_approximate(), matches!(v, LempVariant::Blsh));
        }
    }
}
