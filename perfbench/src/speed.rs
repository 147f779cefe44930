//! Host-speed normalization.
//!
//! On a shared host the same code runs at speeds up to 2x apart, in spells
//! that last from seconds to longer than a whole run (measured on a 2-vCPU
//! x86-64 guest: one pass over `topk-netflix` took 1.09 s to 2.08 s within
//! one minute). A simple in-cache arithmetic loop slows by only 1.3x over
//! the same spells, but a scan that streams the workload's own probe
//! matrix slows with the engine: the ratio of engine time to scan time
//! stayed within ±7% while the engine's own time moved by 1.9x.
//!
//! So the benchmark times a [`Reference`] scan next to the work, and
//! reports every time as *nominal* time: the measured time scaled by how
//! much slower the reference ran than it runs at the nominal speed. The
//! scan is the benchmark's own code, so a change to the program does not
//! move it.

use std::hint::black_box;
use std::time::Instant;

use lemp_linalg::VectorStore;

/// Multiply-adds one reference measurement performs (about 1 ms).
const REF_MACS: usize = 1 << 21;
/// Nanoseconds per multiply-add of the reference scan at the nominal
/// speed (the fast spell of the 2-vCPU x86-64 guest the bounds were set on).
const NOMINAL_NS_PER_MAC: f64 = 0.45;

/// Probes the reference scans at most: with 50 dimensions, 0.8 MB, inside
/// a 2 MB L2, so the scan measures the core and not the shared LLC.
const REF_PROBES: usize = 2048;

/// A naive scan of whole query rows against the first probes.
pub struct Reference<'a> {
    probes: Vec<&'a [f64]>,
    rows: Vec<&'a [f64]>,
}

impl<'a> Reference<'a> {
    /// Scans as many rows of `queries` as make about [`REF_MACS`]
    /// multiply-adds (at least one row).
    pub fn new(probes: &'a VectorStore, queries: &'a VectorStore) -> Self {
        let probes: Vec<&[f64]> =
            (0..probes.len().min(REF_PROBES)).map(|i| probes.vector(i)).collect();
        let per_row = probes.iter().map(|p| p.len()).sum::<usize>().max(1);
        let rows = (REF_MACS / per_row).clamp(1, queries.len());
        Self { probes, rows: (0..rows).map(|i| queries.vector(i)).collect() }
    }

    /// Times one scan and returns the factor that converts a time measured
    /// now into nominal time (below 1 while the host runs slow).
    pub fn scale(&self) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0;
        let mut macs = 0;
        for row in &self.rows {
            for p in &self.probes {
                acc += row.iter().zip(*p).map(|(a, b)| a * b).sum::<f64>();
                macs += p.len();
            }
        }
        black_box(acc);
        let ns = start.elapsed().as_nanos().max(1) as f64;
        macs as f64 * NOMINAL_NS_PER_MAC / ns
    }
}

impl Reference<'_> {
    /// [`Reference::scale`] timed on `threads` threads at once, averaged:
    /// for work that keeps several cores busy, whose speed a one-thread
    /// scan misses when only another core is slowed.
    pub fn scale_on(&self, threads: usize) -> f64 {
        let scales: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| self.scale())).collect();
            handles.into_iter().map(|h| h.join().expect("reference thread panicked")).collect()
        });
        scales.iter().sum::<f64>() / scales.len().max(1) as f64
    }
}

/// Scales timings in windows: a window's times are scaled by the mean of
/// the reference factors measured just before and just after it.
pub struct Windows<'r, 'a, T> {
    reference: &'r Reference<'a>,
    /// Raw time a window collects before it is closed, seconds.
    window_s: f64,
    before: f64,
    pending: Vec<(T, f64)>,
    pending_s: f64,
    done: Vec<(T, f64)>,
}

impl<'r, 'a, T> Windows<'r, 'a, T> {
    pub fn new(reference: &'r Reference<'a>, window_s: f64) -> Self {
        let before = reference.scale();
        Self { reference, window_s, before, pending: Vec::new(), pending_s: 0.0, done: Vec::new() }
    }

    /// Records one raw timing (seconds) under `key`.
    pub fn push(&mut self, key: T, seconds: f64) {
        self.pending.push((key, seconds));
        self.pending_s += seconds;
        if self.pending_s >= self.window_s {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let after = self.reference.scale();
        let scale = (self.before + after) / 2.0;
        self.done.extend(self.pending.drain(..).map(|(k, s)| (k, s * scale)));
        self.pending_s = 0.0;
        self.before = after;
    }

    /// Every timing, in nominal seconds, in the order recorded.
    pub fn finish(mut self) -> Vec<(T, f64)> {
        self.close();
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scan_uses_at_least_one_row_and_scales_positively() {
        let probes = VectorStore::from_flat(vec![1.0; 4 * 8], 4).expect("well-shaped");
        let queries = VectorStore::from_flat(vec![0.5; 4 * 3], 4).expect("well-shaped");
        let r = Reference::new(&probes, &queries);
        assert_eq!(r.rows.len(), 3);
        assert!(r.scale() > 0.0);
        let mut w = Windows::new(&r, 1.0);
        w.push("a", 0.25);
        w.push("b", 2.0);
        w.push("c", 0.5);
        let out = w.finish();
        assert_eq!(out.iter().map(|(k, _)| *k).collect::<Vec<_>>(), ["a", "b", "c"]);
        // "a" and "b" share a window, so they share a scale.
        assert!((out[1].1 / out[0].1 - 8.0).abs() < 1e-9);
    }
}
