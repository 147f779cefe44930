//! `lemp-serve` — a concurrent query service over one shared LEMP engine.
//!
//! The LEMP retrieval phase is embarrassingly parallel across queries
//! (the paper runs single-threaded only as an experimental control,
//! Sec. 6), and after [`DynamicLemp::warm`] the hot path needs only
//! `&self`. This crate turns that into a service: one warmed engine behind
//! an `RwLock` whose read side is taken by query workers and whose write
//! side is taken only by probe edits, a fixed worker-thread pool, a
//! **bounded accept queue** that sheds overload with `503` instead of
//! stalling, and **micro-batching** — a worker that wakes up drains
//! compatible queued query requests and answers them with a *single*
//! engine call, amortizing per-call batch preprocessing.
//!
//! Everything is `std`-only: HTTP/1.1 and JSON are hand-rolled (see
//! [`http`] and [`json`]) because the build environment has no crates.io
//! access — the same constraint behind the workspace's `vendor/` stand-ins.
//!
//! # Endpoints
//!
//! | method & path | body | response |
//! |---|---|---|
//! | `POST /top-k` | `{"queries": [[f64; dim], …], "k": n, "floor"?: f}` | `{"lists": [[{"id", "score"}, …], …]}` |
//! | `POST /above-theta` | `{"queries": [[f64; dim], …], "theta": f}` | `{"entries": [{"query", "probe", "value"}, …], "count": n}` |
//! | `POST /probes` | `{"insert"?: [[f64; dim], …], "remove"?: [id, …]}` | `{"inserted": [id, …], "shards": [s, …], "removed": [bool, …], "probes": n}` |
//! | `GET /healthz` | — | `{"ok": true, "probes": n, "dim": d, "warm": true}` |
//! | `GET /stats` | — | `{"uptime_seconds": s, "counters": {…}, "engine": {…}}` |
//! | `GET /metrics` | — | Prometheus text exposition (`text/plain; version=0.0.4`) |
//! | `POST /promote` | — | `{"promoted": true, "fence_epoch": e, "next_lsn": l, "probes": n}` (followers only; `409 {"code": "already_fenced"}` on a second promote) |
//!
//! `query` indices in `/above-theta` responses are row indices *within the
//! request*; `id`/`probe` are the engine's stable probe ids. `POST
//! /probes` works against **every** backend — single or sharded, volatile
//! or durable; the response's `shards` array reports the shard each insert
//! was routed to (always `0` on a single engine), so load generators can
//! observe the placement distribution. Errors come back as
//! `{"error": "message"}` with a 4xx/5xx status. When the accept queue is
//! full the server answers `503 {"error": "overloaded"}` immediately —
//! load shedding, never head-of-line blocking. A shed thread writes the
//! answer and drains the unread request before closing, so the close
//! can't reset the connection under the client's read.
//!
//! # Durable mode
//!
//! With a [`DurableEngine`] backend (`lemp serve … durable=<dir>`) every
//! `POST /probes` edit is appended to the store's `LEMPWAL1` write-ahead
//! log **before** it mutates the engine, under the same write lock — a
//! SIGKILLed server recovers its full probe set with `lemp recover <dir>`
//! ([`lemp_store::recover`]). `/stats` then carries a `wal` object
//! (`records_appended`/`records_durable`/`bytes_appended`/`fsyncs`/
//! `segments_created`/`active_segment_bytes`) and `engine.durable: true`.
//!
//! Durability composes with sharding: a [`ShardedDurableEngine`] backend
//! (`lemp serve … shards=N durable=<dir>`) routes each edit to the owning
//! shard's log-then-apply path ([`lemp_store::recover_sharded`] reassembles
//! the full engine after a crash). `/stats` then reports the live
//! per-shard probe counts (`engine.shard_probes`), the aggregate `wal`
//! object, and a per-shard `wal_shards` array.
//!
//! # Replication
//!
//! A durable single-store server can be a replication **leader**
//! ([`Server::enable_leader`]): a second listener streams its checkpoint
//! snapshot and WAL batches (the `lemp-store` `LEMPSNP2`/`LEMPREP2` wire
//! framing — see [`lemp_store::replication`]) to followers via
//! `GET /repl/snapshot` and long-polled `GET /repl/wal?from=<lsn>`.
//! A **follower** ([`Server::replicate_from`]) tail-follows a leader from
//! its own durable watermark, applying records under the engine write
//! lock through the same self-verifying replay crash recovery uses; it
//! serves reads through the unchanged `&self` query path, answers `409`
//! to `POST /probes`, and `POST /promote` fences the store with a fresh
//! epoch and flips it read-write (the tail loop stops before the promote
//! is acknowledged, and the fencing epoch shuts the old leader out of
//! every replication path). `/stats` carries a `replication` object:
//! `role`, `lag_lsn`, `fence_epoch`, `leader`/`promoted` on a follower,
//! per-follower progress counters on a leader.
//!
//! With [`ServeConfig::sync_replicas]` set to `n > 0`, acknowledgments
//! turn **semi-synchronous**: a leader holds each `POST /probes` response
//! until `n` followers' durable watermarks cover the edit's last LSN
//! (their long-poll `from` *is* the ack), bounded by
//! [`ServeConfig::quorum_timeout`]. On timeout the server answers a
//! structured `503` with `code: "quorum_timeout"` — the edit **is**
//! durable locally and stays queued for followers; the client learns
//! replication lagged, not that data was lost.
//!
//! # Observability: `/stats` vs `/metrics`
//!
//! The two read-only introspection endpoints carry the same counters but
//! serve different consumers, and the split is a contract:
//!
//! * `GET /stats` is the **JSON snapshot for humans and test harnesses** —
//!   nested objects (`counters`, `engine`, `wal`, `replication`), natural
//!   names, exact shapes asserted by the e2e suite. Its schema may grow
//!   fields but existing ones keep their meaning.
//! * `GET /metrics` is the **Prometheus text exposition for scrapers**
//!   (see [`metrics`]): flat `lemp_*` families with `# HELP`/`# TYPE`
//!   headers, per-endpoint latency/body-size histograms, engine query
//!   telemetry fed through [`lemp_core::TelemetrySink`] (candidates,
//!   pruned pairs, per-algorithm method mix incl. QUANT, plan-cache
//!   hits/misses/refreshes), and scrape-time gauges (uptime, memory
//!   residency, WAL watermarks, replication role/lag/followers). Metric
//!   names and label sets are append-only: dashboards must never break on
//!   an upgrade.
//!
//! Anything exposed by `/metrics` as a point-in-time gauge is derived from
//! the same sources `/stats` reads (and both share the edit-keyed shape
//! cache), so the two views never disagree about the engine. With
//! `slow-query-ms=<n>` (`ServeConfig::slow_query`) the server additionally
//! emits one structured JSON line to stderr for every query request at or
//! above the threshold — kind, parameters, batch fold, latency, and the
//! run's [`lemp_core::RunStats`] — so tail-latency offenders are
//! attributable without a debugger.
//!
//! # Query dispatch
//!
//! Every query request is parsed into a [`lemp_core::QueryRequest`] and
//! answered through the [`Engine`] trait (`plan` → `execute`): the server
//! contains **no per-engine query dispatch** — pointing it at a different
//! [`Engine`] backend requires no handler changes. Micro-batching
//! coalesces queued requests whose `QueryRequest`s are equal into one
//! engine call.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
mod replication;
pub mod stats;

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lemp_core::{
    DynamicLemp, Engine, QueryKind, QueryPlan, QueryRequest, QueryRows, RunStats, Scratch,
    ShardedLemp, WarmGoal,
};
use lemp_linalg::VectorStore;
use lemp_store::{DurableEngine, ShardedDurableEngine, StoreError, WalStats};

use http::{HttpError, Request};
use json::{obj, Json};
use stats::ServerStats;

/// Tuning knobs of one server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads answering requests. `0` is allowed (nothing drains
    /// the queue — only useful in shedding tests).
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this the acceptor
    /// sheds with `503`.
    pub queue_cap: usize,
    /// Most query requests folded into one engine call per worker wakeup.
    pub batch_max: usize,
    /// Per-socket read *and* write timeout (a client that stalls sending
    /// its request or draining its response cannot pin a worker).
    pub io_timeout: Option<Duration>,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Followers whose durable watermark must cover an edit before the
    /// leader acknowledges it (`0` = asynchronous, the default). Only
    /// meaningful on a replication leader.
    pub sync_replicas: usize,
    /// How long a `POST /probes` response may wait for the
    /// `sync_replicas` quorum before answering `503 quorum_timeout`.
    pub quorum_timeout: Duration,
    /// A follower that has not polled within this window is expired from
    /// the progress table: its stale watermark can neither satisfy nor
    /// block a quorum, and `/stats` stops listing it.
    pub follower_ttl: Duration,
    /// Slow-query threshold (`slow-query-ms=<n>` on the CLI): a query
    /// request whose wall latency reaches it is logged as one structured
    /// JSON line on stderr — kind, parameters, batch fold, latency, and
    /// its [`RunStats`]. `None` (the default) disables the log.
    pub slow_query: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: 64,
            batch_max: 8,
            io_timeout: Some(Duration::from_secs(5)),
            max_body: 16 << 20,
            sync_replicas: 0,
            quorum_timeout: Duration::from_secs(2),
            follower_ttl: Duration::from_secs(10),
            slow_query: None,
        }
    }
}

/// The bounded accept queue: `try_push` never blocks (overflow = shed).
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    items: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues, or hands the stream back when full/closed (shed it).
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.cap {
            return Err(stream);
        }
        state.items.push_back(stream);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking pop (micro-batching drains opportunistically).
    fn try_pop(&self) -> Option<TcpStream> {
        self.lock().items.pop_front()
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// The engine behind a server: sharding and durability compose freely —
/// every variant takes probe edits through `POST /probes`. **All query
/// traffic flows through the [`Engine`] trait**
/// ([`ServeEngine::as_engine`]) — the variants exist only for the *edit*
/// path (`POST /probes`) and the `/stats` shard map; the handlers never
/// match on the engine kind to answer a query.
pub enum ServeEngine {
    /// One [`DynamicLemp`] — the PR-2 serving mode, `POST /probes` works
    /// but edits live only in memory.
    Dynamic(DynamicLemp),
    /// A [`DurableEngine`] — like `Dynamic`, but every probe edit is
    /// appended to the store's write-ahead log *before* it is applied
    /// (under the engine write lock), so a crashed server recovers its
    /// probe set with `lemp recover`/[`lemp_store::recover`]. `/stats`
    /// additionally reports the WAL counters.
    Durable(Box<DurableEngine>),
    /// A [`ShardedLemp`] — shard-parallel queries; probe edits are routed
    /// to the owning shard ([`ShardedLemp::insert`]/
    /// [`ShardedLemp::owner_of`]) but live only in memory.
    Sharded(ShardedLemp),
    /// A [`ShardedDurableEngine`] — shard-parallel queries *and* durable
    /// routed edits: each edit is appended to the owning shard's
    /// write-ahead log before it is applied, so a crashed server recovers
    /// every shard with `lemp recover`/[`lemp_store::recover_sharded`].
    ShardedDurable(Box<ShardedDurableEngine>),
}

impl From<DynamicLemp> for ServeEngine {
    fn from(engine: DynamicLemp) -> Self {
        ServeEngine::Dynamic(engine)
    }
}

impl From<DurableEngine> for ServeEngine {
    fn from(engine: DurableEngine) -> Self {
        ServeEngine::Durable(Box::new(engine))
    }
}

impl From<ShardedLemp> for ServeEngine {
    fn from(engine: ShardedLemp) -> Self {
        ServeEngine::Sharded(engine)
    }
}

impl From<ShardedDurableEngine> for ServeEngine {
    fn from(engine: ShardedDurableEngine) -> Self {
        ServeEngine::ShardedDurable(Box::new(engine))
    }
}

impl ServeEngine {
    /// The unified query handle: every request is planned and executed
    /// through this trait object, whatever the backend.
    pub fn as_engine(&self) -> &dyn Engine {
        match self {
            ServeEngine::Dynamic(e) => e,
            ServeEngine::Durable(e) => e.as_ref(),
            ServeEngine::Sharded(e) => e,
            ServeEngine::ShardedDurable(e) => e.as_ref(),
        }
    }

    /// Live probe count.
    pub fn len(&self) -> usize {
        self.as_engine().probes()
    }

    /// `true` if no probes are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.as_engine().dim()
    }

    /// Whether the engine is warm (the shared query path is usable).
    pub fn is_warm(&self) -> bool {
        self.as_engine().is_warm()
    }

    /// Total bucket count (summed across shards when sharded).
    pub fn bucket_count(&self) -> usize {
        match self {
            ServeEngine::Dynamic(e) => e.bucket_count(),
            ServeEngine::Durable(e) => e.engine().bucket_count(),
            ServeEngine::Sharded(e) => e.bucket_count(),
            ServeEngine::ShardedDurable(e) => e.engine().bucket_count(),
        }
    }

    /// Whether edits are write-ahead logged.
    pub fn is_durable(&self) -> bool {
        matches!(self, ServeEngine::Durable(_) | ServeEngine::ShardedDurable(_))
    }

    /// The durable single-store backend, when that is what serves —
    /// replication works against exactly this shape (one store, one log).
    pub fn durable_store(&self) -> Option<&DurableEngine> {
        match self {
            ServeEngine::Durable(e) => Some(e),
            _ => None,
        }
    }

    fn durable_store_mut(&mut self) -> Option<&mut DurableEngine> {
        match self {
            ServeEngine::Durable(e) => Some(e),
            _ => None,
        }
    }

    /// WAL counters when the backend is durable (summed across shards for
    /// a sharded store), `None` otherwise.
    pub fn wal_stats(&self) -> Option<WalStats> {
        match self {
            ServeEngine::Durable(e) => Some(e.wal_stats()),
            ServeEngine::ShardedDurable(e) => {
                Some(e.wal_stats().into_iter().fold(WalStats::default(), |mut sum, s| {
                    sum.records_appended += s.records_appended;
                    sum.records_durable += s.records_durable;
                    sum.bytes_appended += s.bytes_appended;
                    sum.fsyncs += s.fsyncs;
                    sum.segments_created += s.segments_created;
                    sum.active_segment_bytes += s.active_segment_bytes;
                    sum
                }))
            }
            _ => None,
        }
    }

    /// Per-shard WAL counters when the backend is sharded *and* durable,
    /// `None` otherwise.
    pub fn shard_wal_stats(&self) -> Option<Vec<WalStats>> {
        match self {
            ServeEngine::ShardedDurable(e) => Some(e.wal_stats()),
            _ => None,
        }
    }

    /// Number of shards (1 for the dynamic engine).
    pub fn shard_count(&self) -> usize {
        self.as_engine().shard_count()
    }

    /// Live probe count per shard (a one-element vector for the dynamic
    /// engine) — the `/stats` shard map. Computed from the engine on every
    /// call, so routed edits show up immediately.
    pub fn shard_sizes(&self) -> Vec<usize> {
        match self {
            ServeEngine::Dynamic(e) => vec![e.len()],
            ServeEngine::Durable(e) => vec![e.engine().len()],
            ServeEngine::Sharded(e) => e.shard_sizes(),
            ServeEngine::ShardedDurable(e) => e.engine().shard_sizes(),
        }
    }

    /// Probe residency per shard (a one-element vector for the dynamic
    /// engine): full-precision direction bytes vs quantized code+codebook
    /// bytes — the `/stats` `engine.memory` map.
    pub fn memory_usage(&self) -> Vec<lemp_core::MemoryUsage> {
        match self {
            ServeEngine::Dynamic(e) => vec![e.memory_usage()],
            ServeEngine::Durable(e) => vec![e.engine().memory_usage()],
            ServeEngine::Sharded(e) => e.memory_usage(),
            ServeEngine::ShardedDurable(e) => e.engine().memory_usage(),
        }
    }

    /// Warms an engine that arrived cold, on a strided self-sample of its
    /// own probe vectors (covers the length spectrum either way).
    fn warm_on_self_sample(&mut self) {
        // live_vectors() returns ascending ids, whose lengths are
        // arbitrary, so a strided subset samples the length spectrum
        // rather than one end of it.
        let strided = |live: &VectorStore| {
            let rows = live.len().min(256);
            let stride = (live.len() / rows.max(1)).max(1);
            let picks: Vec<usize> = (0..rows).map(|i| i * stride).collect();
            live.select(&picks)
        };
        match self {
            ServeEngine::Dynamic(engine) => {
                let (_, live) = engine.live_vectors();
                engine.warm(&strided(&live), WarmGoal::TopK(10));
            }
            ServeEngine::Durable(engine) => {
                let (_, live) = engine.engine().live_vectors();
                engine.warm(&strided(&live), WarmGoal::TopK(10));
            }
            ServeEngine::Sharded(engine) => {
                let sample = engine.sample_vectors(256);
                engine.warm(&sample, WarmGoal::TopK(10));
            }
            ServeEngine::ShardedDurable(engine) => {
                let sample = engine.engine().sample_vectors(256);
                engine.warm(&sample, WarmGoal::TopK(10));
            }
        }
    }
}

/// State shared by the acceptor and every worker.
struct Shared {
    engine: RwLock<ServeEngine>,
    /// Vector dimensionality (immutable for the engine's lifetime; lets
    /// request validation run without touching the lock).
    dim: usize,
    stats: ServerStats,
    /// The `/metrics` registry: latency/body histograms, plan-cache and
    /// engine-telemetry counters (the engine reports into it through
    /// [`lemp_core::TelemetrySink`]).
    metrics: metrics::Metrics,
    /// Server start time (`uptime_seconds` in `/stats` and `/metrics`).
    start: Instant,
    queue: ConnQueue,
    /// Shed connections awaiting their `503` from the shed thread
    /// ([`shed_loop`]).
    shed_queue: ConnQueue,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    /// Bumped (under the engine write lock) by every applied probe edit;
    /// workers key their cached query plans on it, so a cached plan is
    /// reused only while the engine it was compiled from is unchanged.
    edits: AtomicU64,
    /// The engine-shape cache behind `/stats` and `/metrics`, keyed on
    /// [`Shared::edits`] exactly like the worker plan caches: per-shard
    /// probe counts and memory residency walk every shard, so they are
    /// recomputed only after an edit actually changed the engine.
    shape: Mutex<Option<ShapeCache>>,
    /// Replication role and progress (inert unless this server is a
    /// leader or follower).
    repl: replication::ReplState,
}

/// One cached engine shape (see [`Shared::shape`]).
struct ShapeCache {
    edits: u64,
    shard_sizes: Vec<usize>,
    memory: Vec<lemp_core::MemoryUsage>,
}

/// Shed connections the shed thread may hold; past it, connections are
/// answered on the spot without draining.
const SHED_BACKLOG: usize = 64;
/// How long the shed thread keeps draining one connection after its `503`.
const SHED_LINGER: Duration = Duration::from_millis(500);
/// How many unread request bytes the shed thread drains per connection.
const SHED_DRAIN_BYTES: usize = 64 << 10;

fn overloaded_body() -> String {
    obj(vec![("error", Json::Str("overloaded".into()))]).render()
}

impl Shared {
    /// Sheds an overflow connection with `503 {"error": "overloaded"}`,
    /// handing it to the shed thread; when that thread is backed up too,
    /// answers here without draining. Never blocks.
    fn shed(&self, stream: TcpStream) {
        ServerStats::bump(&self.stats.shed);
        if let Err(mut stream) = self.shed_queue.try_push(stream) {
            let _ = stream.set_nonblocking(true);
            let _ = http::write_response(&mut stream, 503, &overloaded_body());
        }
    }

    fn read_engine(&self) -> std::sync::RwLockReadGuard<'_, ServeEngine> {
        self.engine.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_engine(&self) -> std::sync::RwLockWriteGuard<'_, ServeEngine> {
        self.engine.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Per-shard probe counts and memory residency, served from the
    /// edit-keyed cache. The caller holds the engine read lock (`engine`
    /// is borrowed from its guard), so the edit counter it reads is
    /// consistent with the engine state: edits bump the counter under the
    /// write lock, and a cached shape is reused only while no edit has
    /// been applied since it was computed.
    fn engine_shape(&self, engine: &ServeEngine) -> (Vec<usize>, Vec<lemp_core::MemoryUsage>) {
        let edits = self.edits.load(Ordering::Acquire);
        let mut cache = self.shape.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cached) = cache.as_ref() {
            if cached.edits == edits {
                return (cached.shard_sizes.clone(), cached.memory.clone());
            }
        }
        let shard_sizes = engine.shard_sizes();
        let memory = engine.memory_usage();
        *cache =
            Some(ShapeCache { edits, shard_sizes: shard_sizes.clone(), memory: memory.clone() });
        (shard_sizes, memory)
    }
}

/// A bound-but-not-yet-serving server (inspect [`Server::local_addr`],
/// then [`Server::start`] or [`Server::run`]).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// The replication acceptor (leader) or tail loop (follower), when a
    /// role was configured before [`Server::start`].
    repl_threads: Vec<JoinHandle<()>>,
}

/// Handle to a running server: address, shutdown, join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    shedder: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    repl_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) over the given
    /// engine — a [`DynamicLemp`], a [`ShardedLemp`], or a prebuilt
    /// [`ServeEngine`]. An engine that is not yet warm is warmed here with
    /// a sample of its own probe vectors — a service must never run the
    /// lazy `&mut` path, so warmth is an invariant from the first request
    /// on.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: impl Into<ServeEngine>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let mut engine = engine.into();
        if !engine.is_warm() {
            engine.warm_on_self_sample();
        }
        let listener = TcpListener::bind(addr)?;
        let dim = engine.dim();
        let shared = Arc::new(Shared {
            engine: RwLock::new(engine),
            dim,
            stats: ServerStats::default(),
            metrics: metrics::Metrics::default(),
            start: Instant::now(),
            queue: ConnQueue::new(cfg.queue_cap.max(1)),
            shed_queue: ConnQueue::new(SHED_BACKLOG),
            cfg,
            shutdown: AtomicBool::new(false),
            edits: AtomicU64::new(0),
            shape: Mutex::new(None),
            repl: replication::ReplState::default(),
        });
        Ok(Server { listener, shared, repl_threads: Vec::new() })
    }

    /// Makes this server a replication **leader**: binds a second
    /// listener on `addr` (port `0` for ephemeral) that streams the
    /// durable store's checkpoint snapshot and WAL batches to followers.
    /// Returns the bound replication address.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] unless the backend is a durable
    /// single store; socket errors from the bind.
    pub fn enable_leader(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let (bound, handle) = replication::start_leader(&self.shared, addr)?;
        self.repl_threads.push(handle);
        Ok(bound)
    }

    /// Makes this server a replication **follower** of the leader's
    /// replication listener at `leader`: spawns the tail loop, which
    /// long-polls from the store's durable watermark and applies batches
    /// under the engine write lock. The server answers `409` to
    /// `POST /probes` until `POST /promote`.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] unless the backend is a durable
    /// single store.
    pub fn replicate_from(&mut self, leader: String) -> io::Result<()> {
        let id = self
            .listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| format!("pid-{}", std::process::id()));
        let handle = replication::start_follower(&self.shared, leader, id)?;
        self.repl_threads.push(handle);
        Ok(())
    }

    /// The bound address (with the real port when `0` was requested).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the worker pool and the acceptor thread; returns immediately.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let workers: Vec<JoinHandle<()>> = (0..self.shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("lemp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let shared = Arc::clone(&self.shared);
        let shedder = std::thread::Builder::new()
            .name("lemp-serve-shedder".to_string())
            .spawn(move || shed_loop(&shared))
            .expect("spawn shedder");
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let acceptor = std::thread::Builder::new()
            .name("lemp-serve-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn acceptor");
        Ok(ServerHandle {
            addr,
            shared: self.shared,
            acceptor,
            shedder,
            workers,
            repl_threads: self.repl_threads,
        })
    }

    /// Serves until the process dies (the CLI entry point).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn run(self) -> io::Result<()> {
        self.start()?.join();
        Ok(())
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server threads exit — effectively forever, since
    /// only [`ServerHandle::shutdown`] stops them (the CLI's serve loop).
    pub fn join(self) {
        self.acceptor.join().ok();
        self.shedder.join().ok();
        for w in self.workers {
            w.join().ok();
        }
        for t in self.repl_threads {
            t.join().ok();
        }
    }

    /// Stops accepting, drains the queue, and joins all threads (the
    /// replication acceptor or tail loop included). Queued but unanswered
    /// connections are dropped (clients see EOF).
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Same for the replication acceptor, when one is listening.
        if let Some(addr) =
            *self.shared.repl.listener_addr.lock().unwrap_or_else(|e| e.into_inner())
        {
            let _ = TcpStream::connect(addr);
        }
        self.shared.queue.close();
        self.shared.shed_queue.close();
        self.acceptor.join().ok();
        self.shedder.join().ok();
        for w in self.workers {
            w.join().ok();
        }
        for t in self.repl_threads {
            t.join().ok();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if let Err(stream) = shared.queue.try_push(stream) {
            // Bounded queue full: shed immediately instead of stalling.
            shared.shed(stream);
        }
    }
}

/// Answers shed connections: writes the `503`, half-closes, then reads and
/// discards the client's unread request until the client closes — for at
/// most [`SHED_LINGER`] and [`SHED_DRAIN_BYTES`]. Closing a socket with
/// unread input makes the kernel send a reset, which can reach the client
/// before it reads the `503` and turn the answer into a connection error.
/// On its own thread, a slow client delays only other sheds (and those
/// only up to [`SHED_BACKLOG`]), never the acceptor.
fn shed_loop(shared: &Shared) {
    let body = overloaded_body();
    let mut buf = [0u8; 4096];
    while let Some(mut stream) = shared.shed_queue.pop() {
        if shared.shutdown.load(Ordering::SeqCst) {
            continue;
        }
        let deadline = Instant::now() + SHED_LINGER;
        let _ = stream.set_write_timeout(Some(SHED_LINGER));
        if http::write_response(&mut stream, 503, &body).is_err()
            || stream.shutdown(Shutdown::Write).is_err()
        {
            continue;
        }
        let mut drained = 0;
        while drained < SHED_DRAIN_BYTES {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                break;
            }
            match stream.read(&mut buf) {
                Ok(n) if n > 0 => drained += n,
                _ => break,
            }
        }
    }
}

/// Per-worker query state: the engine scratch plus a one-slot plan cache.
/// Serving traffic is typically homogeneous (the same `QueryRequest` over
/// and over), so caching the last compiled plan removes the per-request
/// planning allocation from the hot path; the cache is keyed on the
/// request *and* the edit counter, so probe edits invalidate it before a
/// stale plan could ever reach `execute`.
struct WorkerState {
    scratch: Scratch,
    plan: Option<(QueryRequest, u64, QueryPlan)>,
}

fn worker_loop(shared: &Shared) {
    let mut worker =
        WorkerState { scratch: shared.read_engine().as_engine().query_scratch(), plan: None };
    while let Some(stream) = shared.queue.pop() {
        // Contain panics (engine asserts on pathological inputs, future
        // bugs): one bad request must cost one connection, not a worker.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(stream, shared, &mut worker, true);
        }));
        if outcome.is_err() {
            ServerStats::bump(&shared.stats.server_errors);
        }
    }
}

/// One parsed query request awaiting its batched engine call.
struct QueryJob {
    stream: TcpStream,
    rows: usize,
}

fn respond(mut stream: TcpStream, status: u16, body: &Json) {
    let _ = http::write_response(&mut stream, status, &body.render());
}

fn respond_error(shared: &Shared, stream: TcpStream, status: u16, message: String) {
    if status >= 500 {
        ServerStats::bump(&shared.stats.server_errors);
    } else {
        ServerStats::bump(&shared.stats.client_errors);
    }
    respond(stream, status, &obj(vec![("error", Json::Str(message))]));
}

fn respond_http_error(shared: &Shared, stream: TcpStream, err: HttpError) {
    match err {
        // Socket-level failure (e.g. read timeout): nothing to say to the
        // peer reliably; drop the connection.
        HttpError::Io(_) => ServerStats::bump(&shared.stats.client_errors),
        HttpError::Bad { status, message } => respond_error(shared, stream, status, message),
    }
}

/// Reads, routes and answers one connection. `allow_batch` is true only
/// for the queue wakeup path — requests drained *during* batching are
/// handled here with `allow_batch = false` so batching never recurses.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    worker: &mut WorkerState,
    allow_batch: bool,
) {
    let _ = stream.set_read_timeout(shared.cfg.io_timeout);
    let _ = stream.set_write_timeout(shared.cfg.io_timeout);
    let _ = stream.set_nodelay(true);
    let request = match http::read_request(&mut stream, shared.cfg.max_body) {
        Ok(r) => r,
        Err(e) => return respond_http_error(shared, stream, e),
    };
    ServerStats::bump(&shared.stats.requests);
    dispatch(stream, request, shared, worker, allow_batch);
}

fn dispatch(
    stream: TcpStream,
    request: Request,
    shared: &Shared,
    worker: &mut WorkerState,
    allow_batch: bool,
) {
    // Every routed request is observed into the per-endpoint latency and
    // body-size histograms — including the incompatible drained requests
    // that `handle_query` hands back through a recursive dispatch.
    // Requests *joined* into a batch never come back here; `handle_query`
    // observes those itself, so `_count{path="/top-k"}` equals the number
    // of requests clients sent, not the number of engine calls.
    let start = Instant::now();
    let endpoint = metrics::Endpoint::of(&request.path);
    let body_len = request.body.len();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let engine = shared.read_engine();
            let body = obj(vec![
                ("ok", Json::Bool(true)),
                ("probes", Json::Num(engine.len() as f64)),
                ("dim", Json::Num(engine.dim() as f64)),
                ("warm", Json::Bool(engine.is_warm())),
            ]);
            drop(engine);
            respond(stream, 200, &body);
        }
        ("GET", "/stats") => {
            let engine = shared.read_engine();
            // Per-shard probe counts and memory residency walk every shard;
            // both come from the edit-keyed shape cache so an idle server
            // computes them once, not per scrape.
            let (shard_sizes, usage) = shared.engine_shape(&engine);
            let shard_probes: Vec<Json> =
                shard_sizes.into_iter().map(|n| Json::Num(n as f64)).collect();
            // Probe residency: full-precision direction bytes vs quantized
            // code+codebook bytes, totalled and per shard — how much memory
            // the probe representation costs and how much quantization
            // saves on each shard.
            let render_usage = |u: &lemp_core::MemoryUsage| {
                obj(vec![
                    ("full_bytes", Json::Num(u.full_bytes as f64)),
                    ("quantized_bytes", Json::Num(u.quantized_bytes as f64)),
                ])
            };
            let memory = obj(vec![
                ("full_bytes", Json::Num(usage.iter().map(|u| u.full_bytes).sum::<u64>() as f64)),
                (
                    "quantized_bytes",
                    Json::Num(usage.iter().map(|u| u.quantized_bytes).sum::<u64>() as f64),
                ),
                ("shards", Json::Arr(usage.iter().map(render_usage).collect())),
            ]);
            let engine_info = obj(vec![
                ("probes", Json::Num(engine.len() as f64)),
                ("buckets", Json::Num(engine.bucket_count() as f64)),
                ("dim", Json::Num(engine.dim() as f64)),
                ("warm", Json::Bool(engine.is_warm())),
                ("shards", Json::Num(engine.shard_count() as f64)),
                ("shard_probes", Json::Arr(shard_probes)),
                ("memory", memory),
                ("durable", Json::Bool(engine.is_durable())),
            ]);
            let wal = engine.wal_stats();
            let wal_shards = engine.shard_wal_stats();
            let fence_epoch = engine.durable_store().map(|s| s.fence_epoch());
            drop(engine);
            let render_wal = |wal: &WalStats| {
                obj(vec![
                    ("records_appended", Json::Num(wal.records_appended as f64)),
                    ("records_durable", Json::Num(wal.records_durable as f64)),
                    ("bytes_appended", Json::Num(wal.bytes_appended as f64)),
                    ("fsyncs", Json::Num(wal.fsyncs as f64)),
                    ("segments_created", Json::Num(wal.segments_created as f64)),
                    ("active_segment_bytes", Json::Num(wal.active_segment_bytes as f64)),
                ])
            };
            let mut fields = vec![
                ("uptime_seconds", Json::Num(shared.start.elapsed().as_secs_f64())),
                ("counters", shared.stats.snapshot()),
                ("engine", engine_info),
            ];
            if let Some(replication) = shared.repl.stats_json(shared.cfg.follower_ttl, fence_epoch)
            {
                fields.push(("replication", replication));
            }
            if let Some(wal) = wal {
                // The durability counters: how much log exists, how much of
                // it is fsync-durable, and what the fsync cadence costs —
                // summed across shards for a sharded store.
                fields.push(("wal", render_wal(&wal)));
            }
            if let Some(shards) = wal_shards {
                fields.push(("wal_shards", Json::Arr(shards.iter().map(render_wal).collect())));
            }
            respond(stream, 200, &obj(fields));
        }
        ("GET", "/metrics") => {
            // Cumulative series live in the registry; point-in-time gauges
            // are sampled here under the read lock and rendered together.
            let engine = shared.read_engine();
            let (_, usage) = shared.engine_shape(&engine);
            let gauges = metrics::ScrapeGauges {
                uptime_seconds: shared.start.elapsed().as_secs_f64(),
                probes: engine.len() as u64,
                buckets: engine.bucket_count() as u64,
                shards: engine.shard_count() as u64,
                memory_full_bytes: usage.iter().map(|u| u.full_bytes).sum(),
                memory_quantized_bytes: usage.iter().map(|u| u.quantized_bytes).sum(),
                wal: engine.wal_stats(),
                replication: shared.repl.gauges(
                    shared.cfg.follower_ttl,
                    engine.durable_store().map(|s| s.fence_epoch()),
                ),
            };
            drop(engine);
            let text = shared.metrics.render(&shared.stats, &gauges);
            let mut stream = stream;
            let _ = http::write_response_bytes(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                text.as_bytes(),
            );
        }
        ("POST", "/probes") => {
            if shared.repl.is_read_only() {
                let leader = shared.repl.leader.lock().unwrap_or_else(|e| e.into_inner()).clone();
                respond_error(
                    shared,
                    stream,
                    409,
                    format!(
                        "read-only follower replicating from {leader}; POST /promote to accept edits"
                    ),
                );
            } else {
                handle_probes(stream, &request, shared);
            }
        }
        ("POST", "/promote") => replication::handle_promote(stream, shared),
        ("POST", "/top-k") | ("POST", "/above-theta") => {
            handle_query(stream, request, shared, worker, allow_batch)
        }
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/probes" | "/promote" | "/top-k" | "/above-theta",
        ) => {
            respond_error(shared, stream, 405, format!("method {} not allowed", request.method));
        }
        (_, path) => respond_error(shared, stream, 404, format!("unknown path {path:?}")),
    }
    shared.metrics.observe_request(endpoint, start.elapsed().as_secs_f64(), body_len);
}

/// Parses a query request body into a core [`QueryRequest`] and the query
/// rows (flat). The wire protocol maps directly onto the engine's unified
/// query surface: `/top-k` builds [`QueryRequest::top_k`] (or the floored
/// variant), `/above-theta` builds [`QueryRequest::above_theta`].
fn parse_query(request: &Request, dim: usize) -> Result<(QueryRequest, Vec<f64>), (u16, String)> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| (400, "body is not valid UTF-8".to_string()))?;
    let body = Json::parse(text).map_err(|e| (400, format!("invalid JSON: {e}")))?;
    let kind = match request.path.as_str() {
        "/top-k" => {
            let k = body
                .get("k")
                .and_then(Json::as_u64)
                .ok_or((400, "missing or invalid \"k\"".to_string()))?;
            // A 64-bit k is accepted as-is: the engine clamps it to the
            // live probe count, so a hostile value cannot size a heap.
            match body.get("floor") {
                None => QueryRequest::top_k(k as usize),
                Some(v) => {
                    let floor = v.as_f64().ok_or((400, "invalid \"floor\"".to_string()))?;
                    QueryRequest::top_k_with_floor(k as usize, floor)
                }
            }
        }
        _ => {
            let theta = body
                .get("theta")
                .and_then(Json::as_f64)
                .ok_or((400, "missing or invalid \"theta\"".to_string()))?;
            QueryRequest::above_theta(theta)
        }
    };
    let rows = body
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or((400, "missing or invalid \"queries\"".to_string()))?;
    let mut flat = Vec::with_capacity(rows.len() * dim);
    for (i, row) in rows.iter().enumerate() {
        let row = row.as_arr().ok_or_else(|| (400, format!("query {i} is not an array")))?;
        if row.len() != dim {
            return Err((
                400,
                format!("query {i} has {} coordinates, engine dim is {dim}", row.len()),
            ));
        }
        for x in row {
            flat.push(x.as_f64().ok_or_else(|| (400, format!("query {i} holds a non-number")))?);
        }
    }
    Ok((kind, flat))
}

/// Answers a query request, micro-batching compatible queued requests into
/// the same engine call when `allow_batch` is set.
fn handle_query(
    stream: TcpStream,
    request: Request,
    shared: &Shared,
    worker: &mut WorkerState,
    allow_batch: bool,
) {
    let start = Instant::now();
    let endpoint = metrics::Endpoint::of(&request.path);
    let (query, mut flat) = match parse_query(&request, shared.dim) {
        Ok(parsed) => parsed,
        Err((status, message)) => return respond_error(shared, stream, status, message),
    };
    let mut jobs = vec![QueryJob { stream, rows: flat.len() / shared.dim }];
    // Body sizes of requests that join this batch: they skip the dispatch
    // wrapper, so their histogram samples are recorded here instead.
    let mut joined_bodies: Vec<usize> = Vec::new();

    // Micro-batching: one worker wakeup drains every *compatible* queued
    // query request (same endpoint, same parameters) and answers them all
    // with a single engine call. Incompatible requests are answered
    // individually, in arrival order, before the batch runs. Only
    // connections whose request bytes have already arrived join the batch
    // (a quick `peek` probe decides): a silent peer goes back to the queue
    // for ordinary handling instead of stalling the already-parsed request
    // behind its read timeout.
    if allow_batch {
        while jobs.len() < shared.cfg.batch_max.max(1) {
            let Some(mut next) = shared.queue.try_pop() else { break };
            let _ = next.set_read_timeout(Some(Duration::from_millis(1)));
            let mut probe = [0u8; 1];
            if !matches!(next.peek(&mut probe), Ok(n) if n > 0) {
                // No bytes in flight (or peer already gone): requeue and
                // stop draining. If the queue refilled meanwhile, shed —
                // exactly what the acceptor would have done.
                if let Err(next) = shared.queue.try_push(next) {
                    shared.shed(next);
                }
                break;
            }
            let _ = next.set_read_timeout(shared.cfg.io_timeout);
            let _ = next.set_write_timeout(shared.cfg.io_timeout);
            let _ = next.set_nodelay(true);
            let next_request = match http::read_request(&mut next, shared.cfg.max_body) {
                Ok(r) => r,
                Err(e) => {
                    respond_http_error(shared, next, e);
                    continue;
                }
            };
            ServerStats::bump(&shared.stats.requests);
            if next_request.method == "POST" && next_request.path == request.path {
                match parse_query(&next_request, shared.dim) {
                    Ok((next_query, next_flat)) if next_query == query => {
                        joined_bodies.push(next_request.body.len());
                        jobs.push(QueryJob { stream: next, rows: next_flat.len() / shared.dim });
                        flat.extend_from_slice(&next_flat);
                    }
                    Ok(_) => {
                        // Same endpoint, different parameters: its own call.
                        dispatch(next, next_request, shared, worker, false);
                    }
                    Err((status, message)) => respond_error(shared, next, status, message),
                }
            } else {
                dispatch(next, next_request, shared, worker, false);
            }
        }
    }

    let store = match VectorStore::from_flat(flat, shared.dim) {
        Ok(store) => store,
        Err(e) => {
            // Non-finite coordinates and the like: reject the whole batch
            // (every member contributed finite JSON numbers, so in practice
            // this is unreachable; stay defensive anyway).
            for job in jobs {
                respond_error(shared, job.stream, 400, format!("invalid queries: {e}"));
            }
            return;
        }
    };

    ServerStats::bump(&shared.stats.batches);
    if jobs.len() > 1 {
        ServerStats::add(&shared.stats.batched_requests, jobs.len() as u64);
    }
    ServerStats::add(&shared.stats.queries, store.len() as u64);
    if query.kind.is_above() {
        ServerStats::add(&shared.stats.above_requests, jobs.len() as u64);
    } else {
        ServerStats::add(&shared.stats.topk_requests, jobs.len() as u64);
    }

    // The unified dispatch: every query request — whatever the backend —
    // is planned and executed through the `Engine` trait. No per-engine
    // match arms anywhere on the query path; hostile parameters (huge k)
    // are clamped by the engine itself. The plan is cached per worker:
    // the edit counter is read *under the read lock* (edits bump it while
    // holding the write lock), so a cached (request, edits) pair can never
    // be stale for the engine state the lock protects.
    let engine = shared.read_engine();
    let edits = shared.edits.load(Ordering::Acquire);
    let cached = worker.plan.as_ref().is_some_and(|(req, at, _)| *req == query && *at == edits);
    if cached {
        ServerStats::bump(&shared.metrics.plan_cache_hits);
    } else {
        // Same request, newer engine: refresh instead of recompiling from
        // scratch — a sharded engine re-plans only the segments of shards
        // an edit actually touched ([`Engine::refresh_plan`]).
        let plan = match worker.plan.take() {
            Some((req, _, plan)) if req == query => {
                ServerStats::bump(&shared.metrics.plan_refreshes);
                engine.as_engine().refresh_plan(&plan)
            }
            _ => {
                ServerStats::bump(&shared.metrics.plan_cache_misses);
                engine.as_engine().plan(&query)
            }
        };
        worker.plan = Some((query, edits, plan));
    }
    let (_, _, plan) = worker.plan.as_ref().expect("plan cached above");
    // `execute_observed` routes the run's `RunStats` into the `/metrics`
    // registry (candidates, pruned pairs, method mix, per-kind counts).
    let response =
        engine.as_engine().execute_observed(plan, &store, &mut worker.scratch, &shared.metrics);
    drop(engine);

    let folded = jobs.len();
    let run_stats = response.stats.clone();
    match response.rows {
        QueryRows::Lists(lists) => {
            let mut offset = 0usize;
            for job in jobs {
                let rendered: Vec<Json> = lists[offset..offset + job.rows]
                    .iter()
                    .map(|list| {
                        Json::Arr(
                            list.iter()
                                .map(|item| {
                                    obj(vec![
                                        ("id", Json::Num(item.id as f64)),
                                        ("score", Json::Num(item.score)),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect();
                offset += job.rows;
                respond(job.stream, 200, &obj(vec![("lists", Json::Arr(rendered))]));
            }
        }
        QueryRows::Entries(entries) => {
            // Split the (unordered) entries back per job by query-row range.
            let mut per_job: Vec<Vec<Json>> = jobs.iter().map(|_| Vec::new()).collect();
            let mut bounds = Vec::with_capacity(jobs.len() + 1);
            bounds.push(0usize);
            for job in &jobs {
                bounds.push(bounds.last().unwrap() + job.rows);
            }
            for e in &entries {
                let q = e.query as usize;
                let j = bounds.partition_point(|&b| b <= q) - 1;
                per_job[j].push(obj(vec![
                    ("query", Json::Num((q - bounds[j]) as f64)),
                    ("probe", Json::Num(e.probe as f64)),
                    ("value", Json::Num(e.value)),
                ]));
            }
            for (job, entries) in jobs.into_iter().zip(per_job) {
                let count = entries.len();
                respond(
                    job.stream,
                    200,
                    &obj(vec![("entries", Json::Arr(entries)), ("count", Json::Num(count as f64))]),
                );
            }
        }
    }

    // Batch-joined requests share the batch's wall latency (they waited on
    // the same engine call); the first request is observed by dispatch.
    let elapsed = start.elapsed();
    for body_len in joined_bodies {
        shared.metrics.observe_request(endpoint, elapsed.as_secs_f64(), body_len);
    }
    if shared.cfg.slow_query.is_some_and(|threshold| elapsed >= threshold) {
        ServerStats::bump(&shared.metrics.slow_queries);
        if let Some((req, _, _)) = worker.plan.as_ref() {
            eprintln!("{}", slow_query_line(req, folded, elapsed, &run_stats).render());
        }
    }
}

/// The structured slow-query log line: one JSON object per offending
/// engine call (a batch logs once, with its fold count), written to
/// stderr by `handle_query` when [`ServeConfig::slow_query`] is set.
fn slow_query_line(
    req: &QueryRequest,
    requests: usize,
    elapsed: Duration,
    stats: &RunStats,
) -> Json {
    let mut fields =
        vec![("slow_query", Json::Bool(true)), ("kind", Json::Str(req.kind.name().into()))];
    match req.kind {
        QueryKind::TopK { k } => fields.push(("k", Json::Num(k as f64))),
        QueryKind::TopKWithFloor { k, floor } => {
            fields.push(("k", Json::Num(k as f64)));
            fields.push(("floor", Json::Num(floor)));
        }
        QueryKind::AboveTheta { theta } | QueryKind::AbsAboveTheta { theta } => {
            fields.push(("theta", Json::Num(theta)));
        }
    }
    let c = &stats.counters;
    let mix = &stats.method_mix;
    fields.extend([
        ("latency_ms", Json::Num(elapsed.as_secs_f64() * 1e3)),
        ("requests", Json::Num(requests as f64)),
        ("queries", Json::Num(c.queries as f64)),
        ("candidates", Json::Num(c.candidates as f64)),
        ("results", Json::Num(c.results as f64)),
        ("retrieval_ms", Json::Num(c.retrieval_ns as f64 / 1e6)),
        ("buckets", Json::Num(stats.bucket_count as f64)),
        (
            "method_mix",
            obj(metrics::ALGO_LABELS
                .iter()
                .zip([
                    mix.length, mix.coord, mix.incr, mix.ta, mix.tree, mix.l2ap, mix.blsh,
                    mix.quant,
                ])
                .filter(|(_, n)| *n > 0)
                .map(|(&algo, n)| (algo, Json::Num(n as f64)))
                .collect()),
        ),
    ]);
    obj(fields)
}

/// One validated edit of a `POST /probes` request.
enum Edit<'a> {
    Insert(&'a [f64]),
    Remove(u32),
}

/// Applies a request's edits through one backend closure (chosen once per
/// request), collecting the response arrays in request order; stops at the
/// first failure.
fn run_edits(
    inserts: &[Vec<f64>],
    removals: &[u32],
    mut apply: impl FnMut(Edit<'_>) -> Result<Json, (u16, String)>,
) -> (Vec<Json>, Vec<Json>, Option<(u16, String)>) {
    let mut inserted = Vec::with_capacity(inserts.len());
    let mut removed = Vec::with_capacity(removals.len());
    for v in inserts {
        match apply(Edit::Insert(v)) {
            Ok(id) => inserted.push(id),
            Err(failure) => return (inserted, removed, Some(failure)),
        }
    }
    for &id in removals {
        match apply(Edit::Remove(id)) {
            Ok(was_live) => removed.push(was_live),
            Err(failure) => return (inserted, removed, Some(failure)),
        }
    }
    (inserted, removed, None)
}

/// `POST /probes`: inserts/removals behind the write lock, routed to the
/// owning shard on a sharded backend. All vectors are validated *before*
/// the lock is taken, so the engine never sees a partial edit.
fn handle_probes(stream: TcpStream, request: &Request, shared: &Shared) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return respond_error(shared, stream, 400, "body is not valid UTF-8".into()),
    };
    let body = match Json::parse(text) {
        Ok(b) => b,
        Err(e) => return respond_error(shared, stream, 400, format!("invalid JSON: {e}")),
    };
    let mut inserts: Vec<Vec<f64>> = Vec::new();
    if let Some(rows) = body.get("insert") {
        let Some(rows) = rows.as_arr() else {
            return respond_error(shared, stream, 400, "\"insert\" is not an array".into());
        };
        for (i, row) in rows.iter().enumerate() {
            let Some(row) = row.as_arr() else {
                return respond_error(shared, stream, 400, format!("insert {i} is not an array"));
            };
            if row.len() != shared.dim {
                return respond_error(
                    shared,
                    stream,
                    400,
                    format!(
                        "insert {i} has {} coordinates, engine dim is {}",
                        row.len(),
                        shared.dim
                    ),
                );
            }
            let mut v = Vec::with_capacity(row.len());
            for x in row {
                match x.as_f64() {
                    Some(x) => v.push(x),
                    None => {
                        return respond_error(
                            shared,
                            stream,
                            400,
                            format!("insert {i} holds a non-number"),
                        )
                    }
                }
            }
            inserts.push(v);
        }
    }
    let mut removals: Vec<u32> = Vec::new();
    if let Some(ids) = body.get("remove") {
        let Some(ids) = ids.as_arr() else {
            return respond_error(shared, stream, 400, "\"remove\" is not an array".into());
        };
        for (i, id) in ids.iter().enumerate() {
            match id.as_u64() {
                Some(id) if id <= u32::MAX as u64 => removals.push(id as u32),
                _ => {
                    return respond_error(
                        shared,
                        stream,
                        400,
                        format!("remove {i} is not a probe id"),
                    )
                }
            }
        }
    }

    ServerStats::bump(&shared.stats.probe_requests);
    let mut guard = shared.write_engine();
    let pre_lsn = guard.durable_store().map(|s| s.next_lsn());
    // Every backend runs the same loop (the engine kind is dispatched once
    // per request, not per record); the durable ones append each edit to
    // the owning WAL *before* applying it (log-then-apply), still under
    // this write lock. A failure aborts the request: earlier edits of the
    // request have applied (and are logged), later ones are not attempted —
    // the engine and its log never diverge. Each successful insert also
    // records the shard it was routed to (always 0 on a single engine).
    let mut shards: Vec<Json> = Vec::with_capacity(inserts.len());
    let (inserted, removed, failure) = match &mut *guard {
        ServeEngine::Dynamic(engine) => run_edits(&inserts, &removals, |edit| match edit {
            // Validated above; only pathological inputs can land here.
            Edit::Insert(v) => engine
                .insert(v)
                .map(|id| {
                    shards.push(Json::Num(0.0));
                    Json::Num(id as f64)
                })
                .map_err(|e| (400, format!("insert rejected: {e}"))),
            Edit::Remove(id) => Ok(Json::Bool(engine.remove(id))),
        }),
        ServeEngine::Durable(engine) => run_edits(&inserts, &removals, |edit| match edit {
            Edit::Insert(v) => engine
                .insert(v)
                .map(|id| {
                    shards.push(Json::Num(0.0));
                    Json::Num(id as f64)
                })
                .map_err(|e| match e {
                    StoreError::Invalid(msg) => (400, format!("insert rejected: {msg}")),
                    other => (500, format!("wal append failed: {other}")),
                }),
            Edit::Remove(id) => engine
                .remove(id)
                .map(Json::Bool)
                .map_err(|e| (500, format!("wal append failed: {e}"))),
        }),
        ServeEngine::Sharded(engine) => run_edits(&inserts, &removals, |edit| match edit {
            Edit::Insert(v) => engine
                .insert(v)
                .map(|id| {
                    let owner = engine.owner_of(id).expect("freshly inserted id is live");
                    shards.push(Json::Num(owner as f64));
                    Json::Num(id as f64)
                })
                .map_err(|e| (400, format!("insert rejected: {e}"))),
            Edit::Remove(id) => Ok(Json::Bool(engine.remove(id))),
        }),
        ServeEngine::ShardedDurable(engine) => run_edits(&inserts, &removals, |edit| match edit {
            Edit::Insert(v) => engine
                .insert(v)
                .map(|(id, shard)| {
                    shards.push(Json::Num(shard as f64));
                    Json::Num(id as f64)
                })
                .map_err(|e| match e {
                    StoreError::Invalid(msg) => (400, format!("insert rejected: {msg}")),
                    other => (500, format!("wal append failed: {other}")),
                }),
            Edit::Remove(id) => engine
                .remove(id)
                .map(|owner| Json::Bool(owner.is_some()))
                .map_err(|e| (500, format!("wal append failed: {e}"))),
        }),
    };
    let live = guard.len();
    let post_lsn = guard.durable_store().map(|s| s.next_lsn());
    // Invalidate worker plan caches *while still holding the write lock*:
    // a reader that observes the old counter is ordered before this edit
    // and executes against the pre-edit engine, never a stale mix. This
    // runs on the failure path too — partial edits may have applied.
    shared.edits.fetch_add(1, Ordering::Release);
    drop(guard);
    if let Some((status, message)) = failure {
        return respond_error(shared, stream, status, message);
    }
    // Semi-synchronous mode: hold the acknowledgment (outside the engine
    // lock — queries and followers keep flowing) until `sync_replicas`
    // fresh followers' durable watermarks cover this request's last LSN.
    // On timeout the edit is NOT rolled back: it is fsynced locally and
    // stays queued for every follower, so the structured 503 reports
    // delayed replication, never lost data.
    if shared.cfg.sync_replicas > 0
        && shared.repl.role.load(Ordering::SeqCst) == replication::ROLE_LEADER
    {
        if let (Some(pre), Some(post)) = (pre_lsn, post_lsn) {
            if post > pre {
                if let Err(acked) = shared.repl.await_quorum(
                    shared.cfg.sync_replicas,
                    post,
                    shared.cfg.quorum_timeout,
                    shared.cfg.follower_ttl,
                ) {
                    ServerStats::bump(&shared.stats.quorum_timeouts);
                    return respond(
                        stream,
                        503,
                        &obj(vec![
                            (
                                "error",
                                Json::Str(format!(
                                    "quorum not reached: {acked} of {} required followers \
                                     acknowledged LSN {post} within {}ms; the edit is durable \
                                     locally and queued for followers",
                                    shared.cfg.sync_replicas,
                                    shared.cfg.quorum_timeout.as_millis()
                                )),
                            ),
                            ("code", Json::Str("quorum_timeout".into())),
                            ("required", Json::Num(shared.cfg.sync_replicas as f64)),
                            ("acked", Json::Num(acked as f64)),
                            ("lsn", Json::Num(post as f64)),
                        ]),
                    );
                }
            }
        }
    }
    respond(
        stream,
        200,
        &obj(vec![
            ("inserted", Json::Arr(inserted)),
            ("shards", Json::Arr(shards)),
            ("removed", Json::Arr(removed)),
            ("probes", Json::Num(live as f64)),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_sheds_on_overflow_and_drains_fifo() {
        let queue = ConnQueue::new(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mk = || TcpStream::connect(addr).unwrap();
        assert!(queue.try_push(mk()).is_ok());
        assert!(queue.try_push(mk()).is_ok());
        assert!(queue.try_push(mk()).is_err(), "third push must overflow");
        assert!(queue.try_pop().is_some());
        assert!(queue.try_push(mk()).is_ok(), "freed slot accepts again");
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        assert!(queue.try_pop().is_none());
        queue.close();
        assert!(queue.pop().is_none(), "closed + empty unblocks pop");
        assert!(queue.try_push(mk()).is_err(), "closed queue rejects");
    }

    #[test]
    fn slow_query_line_renders_a_structured_json_record() {
        use lemp_core::{MethodMix, RetrievalCounters};
        let stats = RunStats {
            counters: RetrievalCounters {
                queries: 4,
                candidates: 120,
                results: 20,
                retrieval_ns: 2_500_000,
                ..Default::default()
            },
            method_mix: MethodMix { incr: 3, quant: 1, ..Default::default() },
            bucket_count: 7,
            ..Default::default()
        };
        let line = slow_query_line(
            &QueryRequest::top_k_with_floor(5, 0.25),
            3,
            Duration::from_millis(12),
            &stats,
        );
        assert_eq!(line.get("slow_query"), Some(&Json::Bool(true)));
        assert_eq!(line.get("kind").and_then(Json::as_str), Some("top-k-with-floor"));
        assert_eq!(line.get("k").and_then(Json::as_f64), Some(5.0));
        assert_eq!(line.get("floor").and_then(Json::as_f64), Some(0.25));
        assert_eq!(line.get("latency_ms").and_then(Json::as_f64), Some(12.0));
        assert_eq!(line.get("requests").and_then(Json::as_u64), Some(3));
        assert_eq!(line.get("queries").and_then(Json::as_u64), Some(4));
        assert_eq!(line.get("candidates").and_then(Json::as_u64), Some(120));
        assert_eq!(line.get("retrieval_ms").and_then(Json::as_f64), Some(2.5));
        let mix = line.get("method_mix").expect("method_mix object");
        assert_eq!(mix.get("INCR").and_then(Json::as_u64), Some(3));
        assert_eq!(mix.get("QUANT").and_then(Json::as_u64), Some(1));
        assert_eq!(mix.get("LENGTH"), None, "zero counts are elided");
        // The rendered line is one self-contained JSON object.
        let rendered = line.render();
        assert!(rendered.starts_with('{') && rendered.ends_with('}'), "{rendered}");
        assert!(!rendered.contains('\n'), "log lines must be single-line");
    }

    #[test]
    fn query_request_batch_compatibility() {
        let a = QueryRequest::top_k(5);
        let b = QueryRequest::top_k(5);
        let c = QueryRequest::top_k(6);
        let d = QueryRequest::above_theta(1.0);
        let e = QueryRequest::top_k_with_floor(5, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e);
    }

    #[test]
    fn parse_query_validates_shape() {
        let req = |path: &str, body: &str| Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
        };
        let (query, flat) =
            parse_query(&req("/top-k", r#"{"queries":[[1,2],[3,4]],"k":3}"#), 2).unwrap();
        assert_eq!(query, QueryRequest::top_k(3));
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
        let (query, _) =
            parse_query(&req("/top-k", r#"{"queries":[[1,2]],"k":3,"floor":0.5}"#), 2).unwrap();
        assert_eq!(query, QueryRequest::top_k_with_floor(3, 0.5));
        let (query, _) =
            parse_query(&req("/above-theta", r#"{"queries":[],"theta":0.5}"#), 2).unwrap();
        assert_eq!(query, QueryRequest::above_theta(0.5));
        for (path, body) in [
            ("/top-k", r#"{"queries":[[1,2]]}"#),         // missing k
            ("/top-k", r#"{"queries":[[1,2]],"k":-1}"#),  // bad k
            ("/top-k", r#"{"queries":[[1]],"k":1}"#),     // wrong dim
            ("/top-k", r#"{"queries":[["x",2]],"k":1}"#), // non-number
            ("/top-k", r#"{"k":1}"#),                     // missing queries
            ("/above-theta", r#"{"queries":[[1,2]]}"#),   // missing theta
            ("/top-k", "not json"),
        ] {
            assert!(parse_query(&req(path, body), 2).is_err(), "{body} should fail");
        }
    }
}
