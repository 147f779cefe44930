//! The in-process workloads: a static [`Lemp`] driven through
//! `Engine::plan` → `Engine::execute` in fixed-size query chunks, with
//! answers checked against the naive full product.

use std::time::{Duration, Instant};

use lemp_baselines::types::{topk_equivalent, Entry};
use lemp_baselines::Naive;
use lemp_core::{
    Engine, Lemp, LempVariant, QueryPlan, QueryRequest, QueryRows, RunStats, Scratch, WarmGoal,
};
use lemp_data::rng::seeded;
use lemp_data::{calibrate, Dataset};
use lemp_linalg::VectorStore;
use rand::Rng;

use crate::report::{self, Metric, Outcome};
use crate::speed::{Reference, Windows};
use crate::trace::{Breakdown, Tracer};
use crate::LayerInputs;

/// What the in-process workload retrieves.
#[derive(Debug, Clone, Copy)]
pub enum Problem {
    /// Row-Top-k at this `k`.
    TopK(usize),
    /// Above-θ with θ calibrated so about this share of the product's
    /// entries qualify.
    Above(f64),
}

/// One in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub dataset: Dataset,
    pub scale: f64,
    pub problem: Problem,
    /// Generator seed of the query and probe matrices (and of θ's
    /// calibration sample) when they must not follow the run seed; the run
    /// seed still picks the tuning sample, which rows form each chunk and
    /// the chunk order.
    pub data_seed: Option<u64>,
    /// Query rows per `execute` call.
    pub chunk: usize,
    /// Query rows whose answers are checked against the naive product.
    pub checked_rows: usize,
}

/// `topk-netflix`: low length skew, so pruning barely helps and time goes
/// into the bucket scans and full-precision verification.
pub const TOPK_NETFLIX: Spec = Spec {
    dataset: Dataset::Netflix,
    scale: 0.1,
    problem: Problem::TopK(10),
    data_seed: None,
    chunk: 32,
    checked_rows: 8192,
};

/// `above-iesvd`: heavy probe length skew, so bucket pruning, the LENGTH
/// method and result materialization dominate.
pub const ABOVE_IESVD: Spec = Spec {
    dataset: Dataset::IeSvd,
    scale: 0.2,
    problem: Problem::Above(1e-4),
    // The work of one IE-SVD draw differs from another's by up to ±15%
    // (lengths follow CoV 1.51 and 4.44 tails, and a few of the longest
    // vectors carry most of the results), more than the host's own noise.
    data_seed: Some(2015),
    chunk: 128,
    checked_rows: 1024,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Rows of the seeded tuning sample handed to `warm_up`.
const WARM_SAMPLE: usize = 1024;
/// Chunks each set-up's engine answers to measure how far its tuning
/// moved the candidate counts.
const TUNING_PROBE_CHUNKS: usize = 8;

struct Workload {
    probes: VectorStore,
    chunks: Vec<VectorStore>,
    /// Order in which the timed loop visits the chunks.
    order: Vec<usize>,
    request: QueryRequest,
    sample: VectorStore,
}

fn generate(spec: &Spec, seed: u64) -> Workload {
    let data_seed = spec.data_seed.unwrap_or(seed);
    let (queries, probes) = spec.dataset.spec().scaled(spec.scale).generate(data_seed);
    let request = match spec.problem {
        Problem::TopK(k) => QueryRequest::top_k(k),
        Problem::Above(share) => {
            let target = (share * queries.len() as f64 * probes.len() as f64).round() as usize;
            let theta =
                calibrate::sampled_theta(&queries, &probes, target, 1 << 22, data_seed ^ 0x7e7a)
                    .expect("non-empty sides and an in-range target");
            QueryRequest::above_theta(theta)
        }
    };
    let mut rng = seeded(seed ^ 0x5a3b1e);
    let picks: Vec<usize> = (0..WARM_SAMPLE).map(|_| rng.random_range(0..queries.len())).collect();
    let sample = queries.select(&picks);
    let rows = shuffled(queries.len(), &mut rng);
    let chunks: Vec<VectorStore> =
        rows.chunks(spec.chunk).map(|rows| queries.select(rows)).collect();
    let order = shuffled(chunks.len(), &mut rng);
    Workload { probes, chunks, order, request, sample }
}

/// `0..n` in a seeded random order.
fn shuffled(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
    v
}

/// One set-up: build, warm, plan — inputs in memory to first answerable
/// query.
struct Setup {
    engine: Lemp,
    plan: QueryPlan,
    /// Nominal seconds.
    seconds: f64,
    tune_ns: u64,
    index_build_ns: u64,
}

fn set_up(w: &Workload, reference: &Reference, tracer: &mut Tracer) -> Setup {
    let before = reference.scale();
    let start = Instant::now();
    let mut engine = tracer.span("core.build", 0, |_| {
        Lemp::builder().variant(LempVariant::LI).threads(1).build(&w.probes)
    });
    let goal: WarmGoal = w.request.kind.warm_goal();
    let warm = tracer.span("core.warm_up", 0, |_| engine.warm_up(&w.sample, goal));
    let plan = tracer.span("core.plan", 0, |_| engine.plan(&w.request));
    let seconds = start.elapsed().as_secs_f64();
    Setup {
        seconds: seconds * (before + reference.scale()) / 2.0,
        engine,
        plan,
        tune_ns: warm.tune_ns,
        index_build_ns: warm.build_ns,
    }
}

/// Structural checks every chunk's answer must pass.
fn well_formed(
    rows: &QueryRows,
    request: &QueryRequest,
    chunk: &VectorStore,
    probes: usize,
) -> bool {
    match (rows, request.kind) {
        (QueryRows::Lists(lists), lemp_core::QueryKind::TopK { k }) => {
            lists.len() == chunk.len() && lists.iter().all(|l| l.len() == k.min(probes))
        }
        (QueryRows::Entries(entries), lemp_core::QueryKind::AboveTheta { theta }) => {
            entries.iter().all(|e| {
                e.value >= theta && (e.query as usize) < chunk.len() && (e.probe as usize) < probes
            })
        }
        _ => false,
    }
}

/// Compares an Above-θ answer with the naive one: the same (query, probe)
/// set and values within a relative 1e-9. Entries within that tolerance of
/// θ may be present on one side only.
fn above_matches(got: &[Entry], want: &[Entry], theta: f64) -> bool {
    let tol = |v: f64| 1e-9 * v.abs().max(1.0);
    let key = |e: &Entry| (e.query, e.probe);
    let mut got: Vec<&Entry> = got.iter().collect();
    let mut want: Vec<&Entry> = want.iter().collect();
    got.sort_by_key(|e| key(e));
    want.sort_by_key(|e| key(e));
    let (mut i, mut j) = (0, 0);
    while i < got.len() || j < want.len() {
        match (got.get(i), want.get(j)) {
            (Some(g), Some(w)) if key(g) == key(w) => {
                if (g.value - w.value).abs() > tol(w.value) {
                    return false;
                }
                i += 1;
                j += 1;
            }
            (Some(g), w) if w.is_none_or(|w| key(g) < key(w)) => {
                if g.value - theta > tol(theta) {
                    return false;
                }
                i += 1;
            }
            (_, Some(w)) => {
                if w.value - theta > tol(theta) {
                    return false;
                }
                j += 1;
            }
            _ => unreachable!("loop runs while either side has entries"),
        }
    }
    true
}

fn naive_matches(
    rows: &QueryRows,
    request: &QueryRequest,
    chunk: &VectorStore,
    probes: &VectorStore,
) -> bool {
    match (rows, request.kind) {
        (QueryRows::Lists(lists), lemp_core::QueryKind::TopK { k }) => {
            let (want, _) = Naive.row_top_k(chunk, probes, k);
            topk_equivalent(lists, &want, 1e-9)
        }
        (QueryRows::Entries(entries), lemp_core::QueryKind::AboveTheta { theta }) => {
            let (want, _) = Naive.above_theta(chunk, probes, theta);
            above_matches(entries, &want, theta)
        }
        _ => false,
    }
}

/// One timed phase: passes over the chunks in the workload's order.
#[derive(Default)]
struct Phase {
    /// Nominal seconds of every execution, by chunk.
    times: Vec<Vec<f64>>,
    /// Chunk executions.
    executions: u64,
    /// Query rows answered.
    queries: u64,
    /// Wall-clock seconds the executions took.
    wall_s: f64,
    stats: Option<RunStats>,
    malformed: u64,
    /// Answers kept for the naive comparison: (chunk index, rows).
    kept: Vec<(usize, QueryRows)>,
}

impl Phase {
    /// The lower quartile of each reached chunk's nominal times, with its
    /// row count. The host's slow spells slow the engine somewhat more than
    /// the reference scan, so nominal times still drift with them; the
    /// lower quartile over passes takes the chunk's time outside those
    /// spells when the run had any, and drops one-off stalls.
    fn chunk_times(&self, w: &Workload) -> Vec<(f64, usize)> {
        self.times
            .iter()
            .zip(&w.chunks)
            .filter(|(t, _)| !t.is_empty())
            .map(|(t, c)| (report::quantile(t, 0.25), c.len()))
            .collect()
    }

    /// Queries per nominal second, each chunk at its time.
    fn qps(&self, w: &Workload) -> f64 {
        let (rows, s) = self.chunk_times(w).iter().fold((0, 0.0), |(r, s), (t, n)| (r + n, s + t));
        rows as f64 / s
    }
}

/// Raw time a speed window collects before the reference is timed again.
const WINDOW_S: f64 = 0.05;

/// Runs passes over the chunks until `budget` has passed, timing every
/// execution in nominal time (see `speed.rs`). Every answer must be well
/// formed, and a chunk answered again must give the same result count as
/// its first answer (`results`, by chunk, shared across phases): exact
/// retrieval repeats its counts however the tuner chose.
#[allow(clippy::too_many_arguments)]
fn timed_phase(
    w: &Workload,
    setup: &Setup,
    reference: &Reference,
    scratch: &mut Scratch,
    results: &mut [Option<u64>],
    budget: Duration,
    keep_rows: usize,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase { times: vec![Vec::new(); w.chunks.len()], ..Default::default() };
    let mut windows = Windows::new(reference, WINDOW_S);
    let mut kept_rows = 0;
    let start = Instant::now();
    let mut step = 0usize;
    while start.elapsed() < budget {
        let idx = w.order[step % w.order.len()];
        let chunk = &w.chunks[idx];
        let t0 = Instant::now();
        let response = tracer.span("core.execute", step as u64, |_| {
            setup.engine.execute(&setup.plan, chunk, scratch)
        });
        let seconds = t0.elapsed().as_secs_f64();
        windows.push(idx, seconds);
        phase.wall_s += seconds;
        phase.executions += 1;
        phase.queries += chunk.len() as u64;
        let count = response.stats.counters.results;
        let repeats = *results[idx].get_or_insert(count) == count;
        if !repeats || !well_formed(&response.rows, &w.request, chunk, w.probes.len()) {
            phase.malformed += 1;
        }
        match &mut phase.stats {
            Some(stats) => stats.merge(&response.stats),
            None => phase.stats = Some(response.stats),
        }
        if kept_rows < keep_rows && step < w.order.len() {
            kept_rows += chunk.len();
            phase.kept.push((idx, response.rows));
        }
        step += 1;
    }
    for (idx, nominal) in windows.finish() {
        phase.times[idx].push(nominal);
    }
    phase
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool, label: &str) -> Outcome {
    let w = generate(spec, seed);
    let reference = Reference::new(&w.probes, &w.sample);
    println!(
        "inputs: {} queries in {} chunks of {}, {} probes, dim {}, request {:?}",
        w.chunks.iter().map(VectorStore::len).sum::<usize>(),
        w.chunks.len(),
        spec.chunk,
        w.probes.len(),
        w.probes.dim(),
        w.request.kind
    );

    // Set up several times; the median is `setup_s`, and each set-up's
    // own tuning shows how far tuning alone moves the candidate counts.
    // The last set-up is the traced one.
    let mut setup_tracer = Tracer::new(false);
    let mut setup_total_ns = 0;
    let mut setup_s = Vec::new();
    let mut tuned = Vec::new();
    let mut setup = None;
    for i in 0..SETUPS {
        setup_tracer = Tracer::new(trace && i + 1 == SETUPS);
        let s = set_up(&w, &reference, &mut setup_tracer);
        setup_total_ns = setup_tracer.now_ns();
        setup_s.push(s.seconds);
        let mut scratch = s.engine.query_scratch();
        let mut stats = RunStats::default();
        for &idx in w.order.iter().take(TUNING_PROBE_CHUNKS) {
            stats.merge(&s.engine.execute(&s.plan, &w.chunks[idx], &mut scratch).stats);
        }
        tuned.push(stats);
        setup = Some(s);
    }
    let setup = setup.expect("SETUPS > 0");
    let mut scratch = setup.engine.query_scratch();

    let budget = Duration::from_secs(seconds);
    let untraced_budget = if trace { budget / 2 } else { budget };
    let mut results = vec![None; w.chunks.len()];
    let mut quiet = Tracer::new(false);
    let main = timed_phase(
        &w,
        &setup,
        &reference,
        &mut scratch,
        &mut results,
        untraced_budget,
        spec.checked_rows,
        &mut quiet,
    );
    let mut tracer = Tracer::new(trace);
    let traced = trace.then(|| {
        timed_phase(&w, &setup, &reference, &mut scratch, &mut results, budget / 2, 0, &mut tracer)
    });
    let traced_end = tracer.now_ns();

    let mut outcome = Outcome::default();
    let phases = [Some(&main), traced.as_ref()];
    for p in phases.into_iter().flatten() {
        outcome.attempted += p.executions;
        outcome.failed += p.malformed;
    }
    let check_start = Instant::now();
    let mut checked = 0;
    for (idx, rows) in &main.kept {
        outcome.attempted += 1;
        checked += w.chunks[*idx].len();
        if !naive_matches(rows, &w.request, &w.chunks[*idx], &w.probes) {
            outcome.failed += 1;
        }
    }
    println!(
        "checked {checked} query rows against the naive product in {:.2}s",
        check_start.elapsed().as_secs_f64()
    );

    let mut chunk_ms: Vec<f64> = main.chunk_times(&w).iter().map(|(s, _)| s * 1e3).collect();
    let (p50, p99) = report::p50_p99(&mut chunk_ms);
    let n = main.executions;
    let qps = main.qps(&w);
    let setup_med = report::median(&setup_s);
    let rss = report::peak_rss_mb();
    println!(
        "{n} executions of {} chunks ({:.1} passes); wall-clock {:.1} queries/s, nominal {qps:.1} queries/s",
        chunk_ms.len(),
        n as f64 / w.chunks.len() as f64,
        main.queries as f64 / main.wall_s,
    );
    if let Some(stats) = &main.stats {
        let c = &stats.counters;
        println!(
            "work: {:.1} candidates and {:.3} results per query",
            c.candidates_per_query(),
            c.results as f64 / c.queries.max(1) as f64
        );
    }
    outcome.end_to_end = vec![
        Metric::new("setup_s", setup_med, "s", SETUPS as u64),
        Metric::new("throughput_qps", qps, "1/s", n),
        Metric::new("latency_p50_ms", p50, "ms", n),
        Metric::new("latency_p99_ms", p99, "ms", n),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    outcome.extra = vec![
        Metric::new("query_throughput_qps", qps, "1/s", n),
        Metric::new("chunk_p50_ms", p50, "ms", n),
        Metric::new("chunk_p99_ms", p99, "ms", n),
        Metric::new("error_rate", outcome.error_rate(), "ratio", outcome.attempted),
    ];

    if let Some(traced) = traced {
        let mut breakdown = Breakdown::of(setup_tracer.spans(), setup_total_ns);
        breakdown.merge(&Breakdown::of(tracer.spans(), traced_end));
        let inputs = LayerInputs {
            tune_ns: setup.tune_ns,
            index_build_ns: setup.index_build_ns,
            stats: traced.stats.clone().unwrap_or_default(),
            dim: w.probes.dim(),
            tuned,
            overhead_pct: (qps / traced.qps(&w) - 1.0) * 100.0,
            serve: None,
        };
        crate::finish_trace(&inputs, &breakdown, &mut outcome);
        crate::write_trace(label, &[&setup_tracer, &tracer]);
    }
    outcome
}
