//! Benchmark-side spans: one span around every call the benchmark makes
//! into a layer of the program (`core`, `linalg`, `store`, `serve`).
//!
//! A [`Tracer`] belongs to one thread. Spans are kept in memory and written
//! out when the run ends. A span's *self time* is its duration minus the
//! part of its interval covered by its child spans; a layer's self time is
//! the sum over its spans (the layer is the span name up to the first `.`).
//! Whatever the root spans do not cover is the *residual* — the
//! benchmark's own work between calls. For one thread's spans, layer self
//! times plus the residual add up to the traced wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.execute`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation (chunk, request) the span belongs to.
    pub request: u64,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-thread span recorder; a disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (nested under the innermost open
    /// span of this tracer).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// (`thread name start_ns end_ns parent request`).
    pub fn write_tsv(&self, thread: usize, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Where one thread's traced wall time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// The traced wall time the breakdown accounts for.
    pub total_ns: u64,
    /// Self time per layer.
    pub layers: BTreeMap<&'static str, u64>,
    /// Self time and call count per span name.
    pub calls: BTreeMap<&'static str, (u64, u64)>,
    /// Time inside `[0, total_ns]` that no root span covers.
    pub residual_ns: u64,
}

impl Breakdown {
    /// Accounts `total_ns` of one tracer's timeline.
    pub fn of(spans: &[Span], total_ns: u64) -> Self {
        let mut out = Breakdown { total_ns, ..Default::default() };
        for (s, own) in spans.iter().zip(self_times(spans)) {
            *out.layers.entry(s.layer()).or_default() += own;
            let call = out.calls.entry(s.name).or_default();
            call.0 += own;
            call.1 += 1;
        }
        let roots = spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.start_ns, s.end_ns));
        out.residual_ns = total_ns - covered(roots.collect(), 0, total_ns);
        out
    }

    /// Adds another thread's breakdown.
    pub fn merge(&mut self, other: &Breakdown) {
        self.total_ns += other.total_ns;
        self.residual_ns += other.residual_ns;
        for (layer, ns) in &other.layers {
            *self.layers.entry(layer).or_default() += ns;
        }
        for (name, (ns, n)) in &other.calls {
            let call = self.calls.entry(name).or_default();
            call.0 += ns;
            call.1 += n;
        }
    }

    /// Self time of one layer, seconds.
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Mean self time per call of one span name, microseconds (0 when the
    /// name never occurred).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&(ns, n)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Layer self times plus the residual (equals `total_ns` when no two
    /// sibling spans overlap).
    pub fn accounted_ns(&self) -> u64 {
        self.layers.values().sum::<u64>() + self.residual_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // serve.request [0,100) > core.execute [10,70) > linalg.dot [20,30)
        let spans = vec![
            span("serve.request", 0, 100, None),
            span("core.execute", 10, 70, Some(0)),
            span("linalg.dot", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 50, 10]);
        let b = Breakdown::of(&spans, 100);
        assert_eq!(b.layers["serve"], 40);
        assert_eq!(b.layers["core"], 50);
        assert_eq!(b.layers["linalg"], 10);
        assert_eq!(b.residual_ns, 0);
        assert_eq!(b.accounted_ns(), 100);
    }

    #[test]
    fn several_children_are_each_subtracted() {
        let spans = vec![
            span("serve.request", 0, 100, None),
            span("serve.json_parse", 5, 15, Some(0)),
            span("core.execute", 20, 60, Some(0)),
            span("serve.json_render", 60, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 40, 20]);
        let b = Breakdown::of(&spans, 100);
        assert_eq!(b.layers["serve"], 60);
        assert_eq!(b.calls["serve.json_parse"], (10, 1));
        assert_eq!(b.accounted_ns(), 100);
    }

    #[test]
    fn residual_is_the_time_no_root_covers() {
        let spans = vec![
            span("core.execute", 10, 30, None),
            span("core.execute", 50, 60, None),
            span("linalg.select", 52, 55, Some(1)),
        ];
        let b = Breakdown::of(&spans, 100);
        assert_eq!(b.residual_ns, 70);
        assert_eq!(b.layers["core"], 27);
        assert_eq!(b.layers["linalg"], 3);
        assert_eq!(b.calls["core.execute"], (27, 2));
        assert!((b.mean_us("core.execute") - 0.0135).abs() < 1e-12);
        assert_eq!(b.accounted_ns(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("serve.request", 0, 100, None),
            span("core.a", 10, 50, Some(0)),
            span("core.b", 40, 120, Some(0)),
        ];
        // Children cover [10, 100) of the parent once, clipped at its end.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let mut t = Tracer::new(true);
        let v = t.span("core.execute", 7, |t| t.span("linalg.select", 7, |_| 3));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let total = t.now_ns();
        let mut merged = Breakdown::of(spans, total);
        merged.merge(&Breakdown::of(spans, total));
        assert_eq!(merged.total_ns, 2 * total);
        assert_eq!(merged.accounted_ns(), merged.total_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("core.execute", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
