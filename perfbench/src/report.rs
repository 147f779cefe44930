//! Summary statistics, the human-readable report lines, and the final JSON
//! result line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Self { name: name.into(), value, unit, samples }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (chunks, requests, checked answers).
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong answer.
    pub failed: u64,
    /// The gated end-to-end metrics (reported on every workload).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Workload-specific end-to-end metrics printed by name but not gated,
    /// because they are not defined on every workload.
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank `q` quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Sorts in place and returns `(p50, p99)`.
pub fn p50_p99(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    (percentile(values, 0.5), percentile(values, 0.99))
}

/// `(max − min) / median` of `values`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / med * 100.0
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
    .expect("write to String");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

/// One human-readable report line per metric.
pub fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{kind:<10} {:<38} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((spread_pct(&[9.0, 10.0, 11.0]) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let outcome = Outcome { attempted: 4, failed: 0, ..Default::default() };
        let line = result_line(&outcome, &[Metric::new("setup_s", 0.5, "s", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
