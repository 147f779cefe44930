//! The repository benchmark: seeded workloads run against the library's
//! public API, with every answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <topk-netflix|above-iesvd|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable report lines come first; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones, from spans recorded around every
//! call the benchmark makes into a layer (see `trace.rs`). See README.md for
//! the workloads, the metrics and why they were chosen.

mod inproc;
mod report;
mod serve;
mod speed;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use lemp_core::{MethodMix, RunStats};

use report::{Metric, Outcome};
use trace::{Breakdown, Tracer};

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = raw.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        raw.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload: value("--workload")?.to_string(), seed: number("--seed")?, seconds, trace })
}

/// What the per-layer metrics are computed from, besides the spans.
pub struct LayerInputs {
    /// Tuner time of the traced set-up (`WarmReport::tune_ns`).
    pub tune_ns: u64,
    /// Index build time of the traced set-up (`WarmReport::build_ns`).
    pub index_build_ns: u64,
    /// Engine statistics of the traced phase.
    pub stats: RunStats,
    pub dim: usize,
    /// Engine statistics on a fixed query subset under each set-up's own
    /// tuning: how far wall-clock tuning alone moves the counts.
    pub tuned: Vec<RunStats>,
    /// Untraced over traced throughput, minus one, in percent.
    pub overhead_pct: f64,
    /// Serve- and store-layer figures (`serve-mixed` only).
    pub serve: Option<serve::ServeLayers>,
}

/// Every per-layer metric, in a fixed order. Layers a workload does not
/// cross report 0.
pub fn layer_metrics(inputs: &LayerInputs, trace: &Breakdown) -> Vec<Metric> {
    let c = &inputs.stats.counters;
    let mix = &inputs.stats.method_mix;
    let q = c.queries.max(1) as f64;
    let per_q = |n: u64| n as f64 / q;
    let pairs =
        mix.length + mix.coord + mix.incr + mix.ta + mix.tree + mix.l2ap + mix.blsh + mix.quant;
    let plans =
        ["core.plan", "core.refresh_plan"].map(|n| trace.calls.get(n).copied().unwrap_or((0, 0)));
    let plan_us = match plans[0].1 + plans[1].1 {
        0 => 0.0,
        n => (plans[0].0 + plans[1].0) as f64 / n as f64 / 1e3,
    };
    let s = inputs.serve.clone().unwrap_or_default();
    let execute_s = trace.calls.get("core.execute").map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    let build_s = trace.calls.get("core.build").map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    let n = c.queries;
    let setups = inputs.tuned.len() as u64;
    let tuned_cpq: Vec<f64> =
        inputs.tuned.iter().map(|t| t.counters.candidates_per_query()).collect();
    let method = |pick: fn(&MethodMix) -> u64| -> Vec<f64> {
        inputs
            .tuned
            .iter()
            .map(|t| pick(&t.method_mix) as f64 / t.counters.queries.max(1) as f64)
            .collect()
    };
    // The widest spread of any method's pairs per query across set-ups.
    let method_spread =
        [method(|m| m.length), method(|m| m.coord), method(|m| m.incr), method(|m| m.quant)]
            .iter()
            .map(|v| report::spread_pct(v))
            .fold(0.0, f64::max);
    vec![
        Metric::new("core.build_s", build_s, "s", 1),
        Metric::new("core.tune_s", inputs.tune_ns as f64 / 1e9, "s", 1),
        Metric::new("core.index_build_s", inputs.index_build_ns as f64 / 1e9, "s", 1),
        Metric::new("core.plan_us", plan_us, "us", plans[0].1 + plans[1].1),
        Metric::new("core.execute_s", execute_s, "s", n),
        Metric::new("core.candidates_per_query", c.candidates_per_query(), "count", n),
        Metric::new("core.candidates_spread_pct", report::spread_pct(&tuned_cpq), "%", setups),
        Metric::new("core.method_pairs_spread_pct", method_spread, "%", setups),
        Metric::new("core.bucket_pairs_per_query", per_q(pairs), "count", n),
        Metric::new("core.verify_yield", c.results as f64 / c.candidates.max(1) as f64, "ratio", n),
        Metric::new("core.method_pairs.length", per_q(mix.length), "count", n),
        Metric::new("core.method_pairs.coord", per_q(mix.coord), "count", n),
        Metric::new("core.method_pairs.incr", per_q(mix.incr), "count", n),
        Metric::new("core.method_pairs.quant", per_q(mix.quant), "count", n),
        Metric::new("linalg.full_dots", per_q(c.candidates), "count", n),
        Metric::new("linalg.verify_bytes", per_q(c.candidates) * (inputs.dim * 8) as f64, "B", n),
        Metric::new("store.insert_us", trace.mean_us("store.insert"), "us", s.inserts),
        Metric::new("store.fsyncs_per_write", s.fsyncs_per_write, "count", s.writes),
        Metric::new("store.wal_bytes_per_user_byte", s.wal_bytes_per_user_byte, "ratio", s.inserts),
        Metric::new("serve.server_ms.top-k", s.server_ms_topk, "ms", s.reads),
        Metric::new("serve.server_ms.probes", s.server_ms_probes, "ms", s.writes),
        Metric::new("serve.net_queue_ms", s.net_queue_ms, "ms", s.reads),
        Metric::new("serve.json_parse_us", trace.mean_us("serve.json_parse"), "us", s.replayed),
        Metric::new("serve.json_render_us", trace.mean_us("serve.json_render"), "us", s.replayed),
        Metric::new("serve.batch_fold", s.batch_fold, "count", s.reads),
        Metric::new("serve.plan_cache_hit_ratio", s.plan_cache_hit_ratio, "ratio", s.reads),
        Metric::new("gen.lag_p99_ms", s.lag_p99_ms, "ms", s.reads + s.writes),
        Metric::new("trace.overhead_pct", inputs.overhead_pct, "%", 1),
        Metric::new("trace.total_s", trace.total_ns as f64 / 1e9, "s", 1),
        Metric::new("trace.residual_s", trace.residual_ns as f64 / 1e9, "s", 1),
        Metric::new("core.self_s", trace.layer_s("core"), "s", 1),
        Metric::new("linalg.self_s", trace.layer_s("linalg"), "s", 1),
        Metric::new("store.self_s", trace.layer_s("store"), "s", 1),
        Metric::new("serve.self_s", trace.layer_s("serve"), "s", 1),
    ]
}

/// Fills in the per-layer metrics of a traced run, and checks that the
/// layer self times plus the residual account for the traced wall time.
pub fn finish_trace(inputs: &LayerInputs, breakdown: &Breakdown, outcome: &mut Outcome) {
    let accounted = breakdown.accounted_ns();
    println!(
        "trace accounting: layer self times {:.6} s + residual {:.6} s = {:.6} s of {:.6} s traced",
        (accounted - breakdown.residual_ns) as f64 / 1e9,
        breakdown.residual_ns as f64 / 1e9,
        accounted as f64 / 1e9,
        breakdown.total_ns as f64 / 1e9
    );
    outcome.attempted += 1;
    if accounted != breakdown.total_ns {
        outcome.failed += 1;
    }
    outcome.per_layer = layer_metrics(inputs, breakdown);
}

/// Writes every tracer's spans to `.perfbench_out/trace-<label>.tsv`
/// (best effort: a trace file that cannot be written does not fail the run).
pub fn write_trace(label: &str, tracers: &[&Tracer]) {
    let path = Path::new(TRACE_DIR).join(format!("trace-{label}.tsv"));
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (thread, t) in tracers.iter().enumerate() {
            t.write_tsv(thread, &mut out)?;
        }
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <topk-netflix|above-iesvd|serve-mixed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let label = format!("{}-seed{}", args.workload, args.seed);
    println!(
        "workload {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "topk-netflix" => {
            inproc::run(&inproc::TOPK_NETFLIX, args.seed, args.seconds, args.trace, &label)
        }
        "above-iesvd" => {
            inproc::run(&inproc::ABOVE_IESVD, args.seed, args.seconds, args.trace, &label)
        }
        "serve-mixed" => match serve::run(args.seed, args.seconds, args.trace, &label) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: serve-mixed run invalid: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    report::print_metrics("end-to-end", &outcome.end_to_end);
    report::print_metrics("end-to-end", &outcome.extra);
    if args.trace {
        report::print_metrics("per-layer", &outcome.per_layer);
    }
    println!(
        "attempted {} failed {} error_rate {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.error_rate()
    );
    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    println!("{}", report::result_line(&outcome, metrics));
    ExitCode::SUCCESS
}
