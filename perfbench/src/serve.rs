//! `serve-mixed`: a live `lemp-serve` server in this process on loopback,
//! backed by a `DurableEngine` (fsync per record, 8-bit quantized buckets
//! forced onto the LUT scan), driven by a mix of `/top-k` reads and small
//! `/probes` inserts from two sender threads: first an open loop at a fixed
//! offered rate, then a closed loop of reads that finds the highest read
//! rate the server sustains.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lemp_baselines::types::topk_equivalent;
use lemp_baselines::Naive;
use lemp_core::{
    BucketPolicy, DynamicLemp, Engine, LempVariant, QueryPlan, QueryRequest, QueryRows, RunConfig,
    RunStats, WarmGoal,
};
use lemp_data::rng::seeded;
use lemp_data::{Dataset, DatasetSpec, GeneratorConfig};
use lemp_linalg::{ScoredItem, VectorStore};
use lemp_serve::json::{num_arr, obj, Json};
use lemp_serve::{ServeConfig, Server, ServerHandle};
use lemp_store::{DurableEngine, StoreOptions, SyncPolicy};
use rand::Rng;

use crate::report::{self, Metric, Outcome};
use crate::speed::Reference;
use crate::trace::{Breakdown, Tracer};
use crate::LayerInputs;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Read-query pool drawn from the Netflix query side.
const QUERY_POOL: usize = 4096;
const K: usize = 10;
/// One request in this many is a `/probes` insert (5%), at a fixed slot
/// of each block so that every run of a given length writes equally often.
const WRITE_EVERY: usize = 20;
/// Vectors per insert request. Each inserted vector re-warms (re-tunes
/// and re-trains the codebook of) the bucket it lands in under the engine
/// write lock, so larger batches would let writes dominate read latency.
const INSERT_BATCH: usize = 1;
const WORKERS: usize = 2;
/// Sender threads, each with at most one request in flight.
const SENDERS: usize = 2;
/// Offered rate of the open-loop phase, requests per second. An insert
/// holds the engine write lock for 0.05 s to 0.2 s (it re-encodes its
/// bucket), so at this rate the lock is held a tenth to a third of the
/// time: the median read finds it free, and the p99 read waits behind an
/// insert. At 60 requests/s and above, slow spells of the host pushed the
/// median read behind the lock in some runs and not in others.
pub const OFFERED_RPS: f64 = 40.0;
/// Share of an untraced run spent in the open-loop phase; the rest is the
/// closed-loop phase that measures `max_read_rate_rps`.
const OPEN_SHARE: f64 = 0.7;
/// Requests the closed-loop phase draws its reads from.
const CLOSED_POOL: usize = 512;
/// Length of one load window, between two timings of the reference scan.
const WINDOW_S: f64 = 1.0;
/// An open-loop phase whose generator sent later than this (p99, beyond
/// any wait for its previous response) is invalid and is run again.
pub const GEN_LAG_LIMIT_MS: f64 = 10.0;
/// Attempts at a valid open-loop phase before the run is invalid.
const PHASE_ATTEMPTS: usize = 3;
/// Reads checked against the naive product after the load.
const VERIFY_READS: usize = 64;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Scratch stores live here, relative to the working directory.
const STORE_ROOT: &str = ".perfbench_tmp";

/// Serve- and store-layer figures handed to [`crate::layer_metrics`].
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    pub inserts: u64,
    pub writes: u64,
    pub reads: u64,
    pub replayed: u64,
    pub fsyncs_per_write: f64,
    pub wal_bytes_per_user_byte: f64,
    pub server_ms_topk: f64,
    pub server_ms_probes: f64,
    pub net_queue_ms: f64,
    pub batch_fold: f64,
    pub plan_cache_hit_ratio: f64,
    pub lag_p99_ms: f64,
}

/// One scheduled request.
enum Op {
    /// A `/top-k` read of one pool query.
    Read,
    /// A `/probes` insert of these vectors.
    Write(Vec<Vec<f64>>),
}

struct Scheduled {
    op: Op,
    body: String,
}

struct Inputs {
    probes: VectorStore,
    queries: VectorStore,
    sample: VectorStore,
    /// The request stream; phases draw consecutive ranges of it.
    ops: Vec<Scheduled>,
}

fn generate(seed: u64, ops: usize) -> Inputs {
    let netflix = Dataset::Netflix.spec();
    let (queries, probes) = DatasetSpec { m: QUERY_POOL, ..netflix.clone() }.generate(seed);
    let mut rng = seeded(seed ^ 0x0b5e);
    let picks: Vec<usize> = (0..1024).map(|_| rng.random_range(0..queries.len())).collect();
    let sample = queries.select(&picks);
    let fresh = GeneratorConfig::gaussian(ops * INSERT_BATCH, netflix.dim, netflix.probe_cov)
        .generate(seed ^ 0x1175);
    let mut next_fresh = 0;
    let ops = (0..ops)
        .map(|i| {
            if i % WRITE_EVERY == WRITE_EVERY / 2 {
                let rows: Vec<Vec<f64>> = (next_fresh..next_fresh + INSERT_BATCH)
                    .map(|i| fresh.vector(i).to_vec())
                    .collect();
                next_fresh += INSERT_BATCH;
                let body = obj(vec![(
                    "insert",
                    Json::Arr(rows.iter().map(|r| num_arr(r.iter().copied())).collect()),
                )]);
                Scheduled { body: body.render(), op: Op::Write(rows) }
            } else {
                let q = rng.random_range(0..queries.len());
                Scheduled { body: read_body(queries.vector(q)), op: Op::Read }
            }
        })
        .collect();
    Inputs { probes, queries, sample, ops }
}

fn read_body(query: &[f64]) -> String {
    obj(vec![
        ("queries", Json::Arr(vec![num_arr(query.iter().copied())])),
        ("k", Json::Num(K as f64)),
    ])
    .render()
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response). Returns the status and body bytes.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let invalid = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(invalid)?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(invalid)?;
    Ok((status, raw[split + 4..].to_vec()))
}

fn parse_body(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}

/// The top-k lists of a `/top-k` response.
fn lists_of(body: &[u8]) -> Option<Vec<Vec<ScoredItem>>> {
    let json = parse_body(body)?;
    json.get("lists")?
        .as_arr()?
        .iter()
        .map(|list| {
            list.as_arr()?
                .iter()
                .map(|item| {
                    Some(ScoredItem {
                        id: item.get("id")?.as_u64()? as usize,
                        score: item.get("score")?.as_f64()?,
                    })
                })
                .collect()
        })
        .collect()
}

/// Prometheus text exposition → `series → value`.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    match call(addr, "GET", "/metrics", "") {
        Ok((200, body)) => Ok(String::from_utf8_lossy(&body)
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect()),
        Ok((status, _)) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("cannot scrape /metrics: {e}")),
    }
}

/// Counter growth between two scrapes.
struct Delta<'a>(&'a BTreeMap<String, f64>, &'a BTreeMap<String, f64>);

impl Delta<'_> {
    fn of(&self, series: &str) -> f64 {
        self.1.get(series).copied().unwrap_or(0.0) - self.0.get(series).copied().unwrap_or(0.0)
    }
}

/// What one sender saw of one request.
struct Sample {
    write: bool,
    /// Completion minus due time (the send time in the closed loop).
    latency_ms: f64,
    /// Completion minus actual send time.
    service_ms: f64,
    /// Actual send minus the later of its due time and the sender's
    /// previous completion: the generator's own lateness.
    lag_ms: f64,
    ok: bool,
    /// Inserted (id, op index, row) triples of an acknowledged write.
    acked: Vec<(u32, usize, usize)>,
}

/// One phase of load over a range of the scheduled requests.
#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    /// Scheduled requests never sent because the phase overran its
    /// deadline (the system fell far behind the offered rate).
    unsent: u64,
    seconds: f64,
    /// Read p50 of each window, nominal milliseconds.
    window_read_p50_ms: Vec<f64>,
    /// Completed requests per nominal second of each window.
    window_rps: Vec<f64>,
}

fn check_read(body: &[u8]) -> bool {
    lists_of(body).is_some_and(|lists| {
        lists.len() == 1
            && lists[0].len() == K
            && lists[0].windows(2).all(|w| w[0].score >= w[1].score)
    })
}

fn check_write(body: &[u8], op: usize) -> Option<Vec<(u32, usize, usize)>> {
    let ids = parse_body(body)?.get("inserted")?.as_arr()?.to_vec();
    if ids.len() != INSERT_BATCH {
        return None;
    }
    ids.iter().enumerate().map(|(row, id)| Some((id.as_u64()? as u32, op, row))).collect()
}

/// Sends request `i`, timed from `due`; `prev_done` is the sender's
/// previous completion.
fn send(
    addr: SocketAddr,
    inputs: &Inputs,
    i: usize,
    due: Instant,
    prev_done: Instant,
    tracer: &mut Tracer,
) -> Sample {
    let sent = Instant::now();
    let write = matches!(inputs.ops[i].op, Op::Write(_));
    let (name, path) =
        if write { ("serve.http_probes", "/probes") } else { ("serve.http_top_k", "/top-k") };
    let reply = tracer.span(name, i as u64, |_| call(addr, "POST", path, &inputs.ops[i].body));
    let done = Instant::now();
    let mut acked = Vec::new();
    let ok = match &reply {
        Ok((200, body)) if write => check_write(body, i).map(|ids| acked = ids).is_some(),
        Ok((200, body)) => check_read(body),
        _ => false,
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Sample {
        write,
        latency_ms: ms(done.saturating_duration_since(due)),
        service_ms: ms(done - sent),
        lag_ms: ms(sent.saturating_duration_since(due.max(prev_done))),
        ok,
        acked,
    }
}

/// Runs one sender loop per tracer over the requests of `range` whose
/// position is that sender's modulo [`SENDERS`], and gathers the samples
/// in schedule order.
fn senders(
    range: Range<usize>,
    tracers: &mut [Tracer],
    each: impl Fn(&mut dyn Iterator<Item = (usize, usize)>, &mut Tracer) -> Vec<(usize, Option<Sample>)>
        + Sync,
) -> (Vec<Sample>, u64) {
    let per_sender: Vec<Vec<(usize, Option<Sample>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(sender, tracer)| {
                let range = range.clone();
                let each = &each;
                s.spawn(move || {
                    let mut mine = range.enumerate().filter(|(j, _)| j % SENDERS == sender);
                    each(&mut mine, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    let mut all: Vec<(usize, Option<Sample>)> = per_sender.into_iter().flatten().collect();
    all.sort_by_key(|(j, _)| *j);
    let unsent = all.iter().filter(|(_, s)| s.is_none()).count() as u64;
    (all.into_iter().filter_map(|(_, s)| s).collect(), unsent)
}

/// Open loop: request `j` of the range is due `j / rate` seconds after
/// the start, whether or not earlier requests were answered.
fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    range: Range<usize>,
    rate: f64,
    tracers: &mut [Tracer],
) -> Load {
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_secs_f64(range.len() as f64 / rate * 1.5 + 1.0);
    let (samples, unsent) = senders(range, tracers, |mine, tracer| {
        let mut out = Vec::new();
        let mut prev_done = start;
        for (j, i) in mine {
            let now = Instant::now();
            if now > deadline {
                out.push((j, None));
                continue;
            }
            let due = start + Duration::from_secs_f64(j as f64 / rate);
            if due > now {
                std::thread::sleep(due - now);
            }
            let sample = send(addr, inputs, i, due, prev_done, tracer);
            prev_done = Instant::now();
            out.push((j, Some(sample)));
        }
        out
    });
    Load { samples, unsent, seconds: start.elapsed().as_secs_f64(), ..Default::default() }
}

/// Closed loop over `reads` (request indexes, reused in turn): each sender
/// sends its next read as soon as the previous one is answered, until
/// `duration` has passed. Writes are left out: one insert holds the write
/// lock for about as long as a hundred reads take, so in a mixed closed
/// loop the rate would measure little but insert time, which
/// `write_p50_ms` already reports.
fn closed_loop(addr: SocketAddr, inputs: &Inputs, reads: &[usize], duration: Duration) -> Load {
    let start = Instant::now();
    let deadline = start + duration;
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|sender| {
                s.spawn(move || {
                    let mut quiet = Tracer::new(false);
                    let mut out = Vec::new();
                    for &i in reads.iter().skip(sender).step_by(SENDERS).cycle() {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        out.push(send(addr, inputs, i, now, now, &mut quiet));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sender thread panicked")).collect()
    });
    Load { samples, seconds: start.elapsed().as_secs_f64(), ..Default::default() }
}

/// Runs `phase` once per window and scales each window's latencies and
/// duration to nominal time (see `speed.rs`) by the mean of the reference
/// factors measured, with the server idle, just before and just after it,
/// on as many threads as the server has workers.
/// Service times stay wall-clock, to compare with the server's own.
fn windowed(reference: &Reference, windows: usize, mut phase: impl FnMut() -> Load) -> Load {
    let mut before = reference.scale_on(WORKERS);
    let mut all = Load::default();
    for _ in 0..windows {
        let mut load = phase();
        let after = reference.scale_on(WORKERS);
        let scale = (before + after) / 2.0;
        for s in &mut load.samples {
            s.latency_ms *= scale;
        }
        all.window_read_p50_ms.push(load.read_p50_ms());
        all.window_rps.push(load.samples.len() as f64 / (load.seconds * scale));
        all.samples.append(&mut load.samples);
        all.unsent += load.unsent;
        all.seconds += load.seconds * scale;
        before = after;
    }
    all
}

impl Load {
    fn latencies(&self, write: bool) -> Vec<f64> {
        self.samples.iter().filter(|s| s.write == write && s.ok).map(|s| s.latency_ms).collect()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64 + self.unsent
    }

    fn lag_p99_ms(&self) -> f64 {
        let mut lag: Vec<f64> = self.samples.iter().map(|s| s.lag_ms).collect();
        report::p50_p99(&mut lag).1
    }

    fn read_p50_ms(&self) -> f64 {
        report::p50_p99(&mut self.latencies(false)).0
    }
}

fn engine_config() -> RunConfig {
    RunConfig {
        variant: LempVariant::LI,
        quantize_bits: 8,
        quantize_force: true,
        threads: 1,
        ..Default::default()
    }
}

/// A created, warmed durable store over the seed probes.
fn durable_store(
    dir: &Path,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<(DurableEngine, u64, u64), String> {
    let engine = tracer.span("core.build", 0, |_| {
        DynamicLemp::new(&inputs.probes, BucketPolicy::default(), engine_config())
    });
    let options = StoreOptions { sync: SyncPolicy::Always, ..Default::default() };
    let mut store = tracer
        .span("store.create", 0, |_| DurableEngine::create(dir, engine, options))
        .map_err(|e| format!("cannot create store {}: {e}", dir.display()))?;
    let warm = tracer.span("core.warm_up", 0, |_| store.warm_up(&inputs.sample, WarmGoal::TopK(K)));
    Ok((store, warm.tune_ns, warm.build_ns))
}

/// Engine statistics of this store's own tuning over the first pool
/// queries.
fn tuned_stats(store: &DurableEngine, inputs: &Inputs) -> RunStats {
    let plan = store.plan(&QueryRequest::top_k(K));
    let head: Vec<usize> = (0..256).collect();
    let response = store.execute(&plan, &inputs.queries.select(&head), &mut store.query_scratch());
    response.stats
}

struct Live {
    handle: ServerHandle,
    setup_s: f64,
    tune_ns: u64,
    index_build_ns: u64,
}

/// Inputs in memory → store created, engine warmed, server bound, first
/// `/top-k` answered. Returns the server and the statistics of its tuning.
fn set_up(dir: &Path, inputs: &Inputs, tracer: &mut Tracer) -> Result<(Live, RunStats), String> {
    let start = Instant::now();
    let (store, tune_ns, index_build_ns) = durable_store(dir, inputs, tracer)?;
    let paused = Instant::now();
    let tuned = tuned_stats(&store, inputs);
    let excluded = paused.elapsed();
    let cfg = ServeConfig { workers: WORKERS, ..Default::default() };
    let handle = tracer
        .span("serve.start", 0, |_| Server::bind("127.0.0.1:0", store, cfg).and_then(Server::start))
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let first = tracer.span("serve.http_top_k", 0, |_| {
        call(handle.addr(), "POST", "/top-k", &read_body(inputs.queries.vector(0)))
    });
    let setup_s = (start.elapsed() - excluded).as_secs_f64();
    match first {
        Ok((200, body)) if check_read(&body) => {
            Ok((Live { handle, setup_s, tune_ns, index_build_ns }, tuned))
        }
        other => {
            handle.shutdown();
            Err(format!("first /top-k failed: {:?}", other.map(|(status, _)| status)))
        }
    }
}

/// The JSON a server renders for top-k lists.
fn render_lists(rows: &QueryRows) -> String {
    let QueryRows::Lists(lists) = rows else { return String::new() };
    let item =
        |s: &ScoredItem| obj(vec![("id", Json::Num(s.id as f64)), ("score", Json::Num(s.score))]);
    obj(vec![(
        "lists",
        Json::Arr(lists.iter().map(|l| Json::Arr(l.iter().map(item).collect())).collect()),
    )])
    .render()
}

/// Replays `ops` in this thread through the calls a server makes for them
/// — JSON parse, plan or plan refresh, execute, JSON render, durable
/// insert — against a scratch store, so each layer gets its own spans.
fn replay(
    dir: &Path,
    inputs: &Inputs,
    ops: &[Scheduled],
    tracer: &mut Tracer,
) -> Result<u64, String> {
    let (mut store, _, _) = durable_store(dir, inputs, &mut Tracer::new(false))?;
    let request = QueryRequest::top_k(K);
    let mut scratch = store.query_scratch();
    let mut plan: Option<QueryPlan> = None;
    let dim = inputs.probes.dim();
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        let body = tracer
            .span("serve.json_parse", id, |_| Json::parse(&op.body))
            .map_err(|e| format!("replay: request {i} does not parse: {e}"))?;
        match &op.op {
            Op::Read => {
                let flat: Vec<f64> = body
                    .get("queries")
                    .and_then(Json::as_arr)
                    .and_then(|rows| rows.first())
                    .and_then(Json::as_arr)
                    .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
                let queries = tracer
                    .span("linalg.from_flat", id, |_| VectorStore::from_flat(flat, dim))
                    .map_err(|e| format!("replay: request {i}: {e}"))?;
                let current = match plan.take() {
                    Some(p) => tracer.span("core.refresh_plan", id, |_| store.refresh_plan(&p)),
                    None => tracer.span("core.plan", id, |_| store.plan(&request)),
                };
                let response = tracer
                    .span("core.execute", id, |_| store.execute(&current, &queries, &mut scratch));
                plan = Some(current);
                tracer.span("serve.json_render", id, |_| render_lists(&response.rows));
            }
            Op::Write(rows) => {
                let mut ids = Vec::with_capacity(rows.len());
                for row in rows {
                    let id = tracer
                        .span("store.insert", id, |_| store.insert(row))
                        .map_err(|e| format!("replay: insert of request {i} failed: {e}"))?;
                    ids.push(Json::Num(f64::from(id)));
                }
                tracer.span("serve.json_render", id, |_| {
                    obj(vec![("inserted", Json::Arr(ids))]).render()
                });
            }
        }
    }
    Ok(ops.len() as u64)
}

/// After the load: ids are dense and the live probe count equals the seed
/// probes plus every acknowledged insert, the WAL holds exactly one record
/// per acknowledged vector, and a seeded sample of reads matches the naive
/// product over exactly those probes. Returns (checks, failures).
fn verify(
    addr: SocketAddr,
    inputs: &Inputs,
    acked: &[(u32, usize, usize)],
    wal_records: f64,
    seed: u64,
) -> (u64, u64) {
    let mut failed = 0;
    let n = inputs.probes.len();
    let mut acked = acked.to_vec();
    acked.sort_unstable();
    let mut all = inputs.probes.clone();
    let mut ids_dense = true;
    for (k, &(id, op, row)) in acked.iter().enumerate() {
        ids_dense &= id as usize == n + k;
        if let Op::Write(rows) = &inputs.ops[op].op {
            all.push(&rows[row]).expect("generated rows are finite and well-shaped");
        }
    }
    let live = call(addr, "GET", "/healthz", "")
        .ok()
        .and_then(|(_, body)| parse_body(&body))
        .and_then(|j| j.get("probes").and_then(Json::as_u64));
    if !ids_dense || live != Some(all.len() as u64) {
        println!("probe count check failed: live {live:?}, expected {}", all.len());
        failed += 1;
    }
    if wal_records != acked.len() as f64 {
        println!(
            "WAL check failed: {wal_records} records appended for {} acknowledged vectors",
            acked.len()
        );
        failed += 1;
    }
    let mut rng = seeded(seed ^ 0xc4ec);
    for _ in 0..VERIFY_READS {
        let q = rng.random_range(0..inputs.queries.len());
        let want = Naive.row_top_k(&inputs.queries.select(&[q]), &all, K).0;
        let got = call(addr, "POST", "/top-k", &read_body(inputs.queries.vector(q)))
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| lists_of(&body));
        if !got.is_some_and(|got| topk_equivalent(&got, &want, 1e-9)) {
            failed += 1;
        }
    }
    (VERIFY_READS as u64 + 2, failed)
}

/// Removes the scratch stores even when the run fails.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Stops the server even when the run fails.
struct Running(Option<ServerHandle>);

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
        }
    }
}

/// The request stream, handed out in consecutive ranges.
struct Cursor(usize);

impl Cursor {
    fn take(&mut self, n: usize) -> Range<usize> {
        self.0 += n;
        self.0 - n..self.0
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, label: &str) -> Result<Outcome, String> {
    let total = Duration::from_secs(seconds);
    // Untraced: an open-loop phase, then the closed-loop phase. Traced: an
    // untraced and a traced open-loop phase of equal length.
    let open = if trace { total / 2 } else { total.mul_f64(OPEN_SHARE) };
    let closed = if trace { Duration::ZERO } else { total - open };
    let open_windows = (open.as_secs_f64() / WINDOW_S).round().max(1.0) as usize;
    let closed_windows = (closed.as_secs_f64() / WINDOW_S).round() as usize;
    let per_open_window = (OFFERED_RPS * WINDOW_S).round() as usize;
    let phases = if trace { 2 } else { 1 };
    let inputs = generate(
        seed,
        per_open_window * open_windows * (phases + PHASE_ATTEMPTS - 1) + CLOSED_POOL,
    );
    let reference = Reference::new(&inputs.probes, &inputs.sample);
    println!(
        "inputs: {} probes, dim {}, {} scheduled requests (1 in {WRITE_EVERY} an insert of {INSERT_BATCH} \
         vector), {WORKERS} workers, {SENDERS} senders, open loop at {OFFERED_RPS} rps",
        inputs.probes.len(),
        inputs.probes.dim(),
        inputs.ops.len(),
    );
    let root = ScratchDir(Path::new(STORE_ROOT).join(format!("{label}-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&root.0);

    // Set up several times; the median is `setup_s`. The last set-up is
    // the traced one and keeps serving.
    let mut setup_tracer = Tracer::new(false);
    let mut setup_total_ns = 0;
    let mut setup_s = Vec::new();
    let mut tuned = Vec::new();
    let mut server = Running(None);
    let mut live = None;
    for i in 0..SETUPS {
        setup_tracer = Tracer::new(trace && i + 1 == SETUPS);
        let before = reference.scale();
        let (l, stats) = set_up(&root.0.join(format!("store-{i}")), &inputs, &mut setup_tracer)?;
        setup_total_ns = setup_tracer.now_ns();
        setup_s.push(l.setup_s * (before + reference.scale()) / 2.0);
        tuned.push(stats);
        drop(std::mem::replace(&mut server, Running(Some(l.handle))));
        live = Some((l.tune_ns, l.index_build_ns));
    }
    let (tune_ns, index_build_ns) = live.expect("SETUPS > 0");
    let addr = server.0.as_ref().expect("a server is running").addr();
    let start_metrics = scrape(addr)?;

    let mut cursor = Cursor(0);
    let mut loads = Vec::new();
    // The open-loop phase, run again while its generator lags.
    let mut valid_phase =
        |tracers: &mut [Tracer], loads: &mut Vec<Load>| -> Result<usize, String> {
            for _ in 0..PHASE_ATTEMPTS {
                let load = windowed(&reference, open_windows, || {
                    open_loop(addr, &inputs, cursor.take(per_open_window), OFFERED_RPS, tracers)
                });
                let lag = load.lag_p99_ms();
                loads.push(load);
                if lag <= GEN_LAG_LIMIT_MS {
                    return Ok(loads.len() - 1);
                }
                println!(
                "open-loop phase invalid: generator lag p99 {lag:.3} ms > {GEN_LAG_LIMIT_MS} ms"
            );
            }
            Err(format!("the generator fell behind its schedule in {PHASE_ATTEMPTS} attempts"))
        };
    let main = valid_phase(&mut [Tracer::new(false), Tracer::new(false)], &mut loads)?;
    let mut tracers = [Tracer::new(trace), Tracer::new(trace)];
    let traced = if trace {
        let before = scrape(addr)?;
        let first = loads.len();
        let at = valid_phase(&mut tracers, &mut loads)?;
        Some((first, at, before, scrape(addr)?))
    } else {
        None
    };
    let traced_ends = tracers.each_ref().map(Tracer::now_ns);
    let reads: Vec<usize> =
        cursor.take(CLOSED_POOL).filter(|&i| matches!(inputs.ops[i].op, Op::Read)).collect();
    let saturated = (!trace).then(|| {
        windowed(&reference, closed_windows, || {
            closed_loop(addr, &inputs, &reads, Duration::from_secs_f64(WINDOW_S))
        })
    });

    let mut outcome = Outcome::default();
    let mut acked = Vec::new();
    for load in loads.iter().chain(&saturated) {
        outcome.attempted += load.samples.len() as u64 + load.unsent;
        outcome.failed += load.failed();
        acked.extend(load.samples.iter().flat_map(|s| s.acked.iter().copied()));
    }
    let end_metrics = scrape(addr)?;
    let wal_records = Delta(&start_metrics, &end_metrics).of("lemp_wal_records_appended");
    let (checks, wrong) = verify(addr, &inputs, &acked, wal_records, seed);
    outcome.attempted += checks;
    outcome.failed += wrong;
    drop(server);
    println!(
        "verified ids, live probe count, {wal_records} WAL records and {VERIFY_READS} reads against the naive \
         product ({wrong} wrong)"
    );

    let main = &loads[main];
    let mut reads = main.latencies(false);
    let mut writes = main.latencies(true);
    let read_p99 = report::p50_p99(&mut reads).1;
    let (write_p50, write_p99) = report::p50_p99(&mut writes);
    let write_p90 = report::percentile(&writes, 0.9);
    let (n_reads, n_writes) = (reads.len() as u64, writes.len() as u64);
    let setup_med = report::median(&setup_s);
    let rss = report::peak_rss_mb();
    let lag_p99 = main.lag_p99_ms();
    // Lower quartile of window read p50s and upper quartile of window
    // rates: like an in-process chunk's time, the figure outside the host's
    // slow spells when the run had any.
    let read_p50 = report::quantile(&main.window_read_p50_ms, 0.25);
    let max_rate = saturated.as_ref().map_or(0.0, |l| report::quantile(&l.window_rps, 0.75));
    let n_max_rate = saturated.as_ref().map_or(0, |l| l.samples.len() as u64);
    outcome.end_to_end = vec![
        Metric::new("setup_s", setup_med, "s", SETUPS as u64),
        Metric::new("throughput_qps", max_rate, "1/s", n_max_rate),
        Metric::new("latency_p50_ms", read_p50, "ms", n_reads),
        Metric::new("latency_p99_ms", read_p99, "ms", n_reads),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    outcome.extra = vec![
        Metric::new("read_p50_ms", read_p50, "ms", n_reads),
        Metric::new("read_p99_ms", read_p99, "ms", n_reads),
        Metric::new("write_p50_ms", write_p50, "ms", n_writes),
        Metric::new("write_p90_ms", write_p90, "ms", n_writes),
        Metric::new("write_p99_ms", write_p99, "ms", n_writes),
        Metric::new("max_read_rate_rps", max_rate, "1/s", n_max_rate),
        Metric::new("gen.lag_p99_ms", lag_p99, "ms", main.samples.len() as u64),
        Metric::new("error_rate", outcome.error_rate(), "ratio", outcome.attempted),
    ];

    if let Some((first, at, before, after)) = traced {
        let traced = &loads[at];
        let d = Delta(&before, &after);
        let reads_n = d.of("lemp_http_request_duration_seconds_count{path=\"/top-k\"}");
        let writes_n = d.of("lemp_http_request_duration_seconds_count{path=\"/probes\"}");
        let server_ms = |path: &str, n: f64| {
            d.of(&format!("lemp_http_request_duration_seconds_sum{{path=\"{path}\"}}")) / n.max(1.0)
                * 1e3
        };
        // The counter deltas span every attempt at the traced phase.
        let inserted: u64 =
            loads[first..].iter().flat_map(|l| &l.samples).map(|s| s.acked.len() as u64).sum();
        let client_read_ms: Vec<f64> =
            traced.samples.iter().filter(|s| !s.write && s.ok).map(|s| s.service_ms).collect();
        let mean_client_read_ms =
            client_read_ms.iter().sum::<f64>() / client_read_ms.len().max(1) as f64;
        let plan_lookups = d.of("lemp_plan_cache_hits_total")
            + d.of("lemp_plan_cache_misses_total")
            + d.of("lemp_plan_refreshes_total");
        let pairs =
            |algo: &str| d.of(&format!("lemp_engine_method_pairs_total{{algo=\"{algo}\"}}")) as u64;
        let mut stats = RunStats::default();
        stats.counters.queries = d.of("lemp_engine_queries_total") as u64;
        stats.counters.candidates = d.of("lemp_engine_candidates_total") as u64;
        stats.counters.results = d.of("lemp_engine_results_total") as u64;
        stats.method_mix.length = pairs("LENGTH");
        stats.method_mix.coord = pairs("COORD");
        stats.method_mix.incr = pairs("INCR");
        stats.method_mix.quant = pairs("QUANT");

        // The traced phase's request stream, replayed in-process.
        let replay_ops = &inputs.ops[..traced.samples.len().min(inputs.ops.len())];
        let mut replay_tracer = Tracer::new(true);
        let replayed = replay(&root.0.join("replay"), &inputs, replay_ops, &mut replay_tracer)?;
        let replay_total = replay_tracer.now_ns();

        let mut breakdown = Breakdown::of(setup_tracer.spans(), setup_total_ns);
        for (t, &end) in tracers.iter().zip(&traced_ends) {
            breakdown.merge(&Breakdown::of(t.spans(), end));
        }
        breakdown.merge(&Breakdown::of(replay_tracer.spans(), replay_total));
        let layers = ServeLayers {
            inserts: inserted,
            writes: writes_n as u64,
            reads: reads_n as u64,
            replayed,
            fsyncs_per_write: d.of("lemp_wal_fsyncs") / writes_n.max(1.0),
            wal_bytes_per_user_byte: d.of("lemp_wal_bytes_appended")
                / (inserted as f64 * inputs.probes.dim() as f64 * 8.0).max(1.0),
            server_ms_topk: server_ms("/top-k", reads_n),
            server_ms_probes: server_ms("/probes", writes_n),
            net_queue_ms: mean_client_read_ms - server_ms("/top-k", reads_n),
            batch_fold: reads_n / d.of("lemp_batches_total").max(1.0),
            plan_cache_hit_ratio: d.of("lemp_plan_cache_hits_total") / plan_lookups.max(1.0),
            lag_p99_ms: lag_p99.max(traced.lag_p99_ms()),
        };
        let layer_inputs = LayerInputs {
            tune_ns,
            index_build_ns,
            stats,
            dim: inputs.probes.dim(),
            tuned,
            overhead_pct: (report::quantile(&traced.window_read_p50_ms, 0.25) / read_p50 - 1.0)
                * 100.0,
            serve: Some(layers),
        };
        crate::finish_trace(&layer_inputs, &breakdown, &mut outcome);
        let mut all: Vec<&Tracer> = vec![&setup_tracer];
        all.extend(tracers.iter());
        all.push(&replay_tracer);
        crate::write_trace(label, &all);
    }
    Ok(outcome)
}
