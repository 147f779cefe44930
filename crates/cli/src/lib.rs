//! `lemp-cli` — run LEMP and its baselines on factor matrices from files.
//!
//! Subcommands (see [`USAGE`] for the full syntax):
//!
//! * `above` / `topk` — exact retrieval (Above-θ / Row-Top-k) with any
//!   LEMP variant, optional multi-threading and chunked execution;
//! * `approx-topk` — the approximate methods of `lemp-approx` (SRP-LSH,
//!   PCA-tree, query centroids) with optional recall verification;
//! * `generate` — write Table-1-calibrated synthetic factor matrices;
//! * `convert` — translate between the binary, CSV and Matrix Market
//!   formats;
//! * `stats` — length statistics and a bucketization preview of a matrix;
//! * `tune-report` — the Sec. 4.4 tuner's per-bucket decisions for a
//!   workload;
//! * `recover` / `compact` — crash recovery and snapshot compaction of a
//!   durable store directory (`lemp-store`), single or sharded (the two
//!   layouts are told apart on disk); `serve durable=<dir>` boots the
//!   service in write-ahead-logged mode, and composes with `shards=<n>`
//!   into one WAL + snapshot directory per shard.
//!
//! Matrix files are selected by extension: `.bin` (the workspace binary
//! format), `.mtx` (Matrix Market array or coordinate), anything else CSV.

#![warn(missing_docs)]

use std::io::Write;
use std::path::{Path, PathBuf};

use lemp_approx::{centroid_row_top_k, CentroidConfig, PcaTree, PcaTreeConfig, SrpConfig, SrpLsh};
use lemp_baselines::export;
use lemp_baselines::types::TopKLists;
use lemp_baselines::Naive;
use lemp_core::shard::{is_sharded_image, ShardPolicy};
use lemp_core::{
    AdaptiveConfig, BanditPolicy, Engine, Lemp, LempVariant, QueryKind, QueryRequest, QueryRows,
    ShardedLemp, WarmGoal,
};
use lemp_data::datasets::Dataset;
use lemp_data::{io as mio, mm};
use lemp_linalg::{stats, VectorStore};

/// Usage text printed on argument errors.
pub const USAGE: &str = "usage:
  lemp-cli above       <queries> <probes> theta=<f> [out=<path>] [variant=<L|C|I|LC|LI|TA|Tree|L2AP|BLSH>] [threads=<n>] [chunk=<n>] [abs=<bool>] [adaptive=<ucb1|eps-greedy>] [shards=<n>] [shard-policy=<rr|banded>] [quantize=<bits|off>] [quantize-force=<bool>] [explain=<bool>]
  lemp-cli topk        <queries> <probes> k=<n>     [out=<path>] [variant=...] [threads=<n>] [chunk=<n>] [floor=<f>] [adaptive=<ucb1|eps-greedy>] [shards=<n>] [shard-policy=<rr|banded>] [quantize=<bits|off>] [quantize-force=<bool>] [explain=<bool>]
  lemp-cli approx-topk <queries> <probes> k=<n> method=<srp|pca|centroid> [budget=<n>] [clusters=<n>] [expand=<n>] [seed=<u>] [verify=<bool>] [out=<path>]
  lemp-cli generate    <ie-nmf|ie-svd|netflix|kdd> <queries-out> <probes-out> [scale=<f>] [seed=<u>]
  lemp-cli convert     <in> <out> [mm-layout=<array|coordinate>]
  lemp-cli stats       <matrix>
  lemp-cli tune-report <queries> <probes> (theta=<f> | k=<n>) [variant=...]
  lemp-cli topn        <queries> <probes> n=<n> [chunk=<n>] [out=<path>]
  lemp-cli index       <probes> <engine-out> [variant=...] [shards=<n>] [shard-policy=<rr|banded>] [quantize=<bits|off>]
  lemp-cli self-join   <matrix> t=<f> [out=<path>]
  lemp-cli serve       <probes|engine.eng> [addr=127.0.0.1:0] [workers=<n>] [queue=<n>] [batch=<n>] [variant=...] [sample=<matrix>] [warm-k=<n>] [shards=<n>] [shard-policy=<rr|banded>] [quantize=<bits|off>] [quantize-force=<bool>] [durable=<dir>] [sync=<always|never|N>] [replication=<addr>] [sync-replicas=<n>] [quorum-timeout-ms=<n>] [replicate-from=<addr>] [slow-query-ms=<n>]
  lemp-cli promote     <addr>
  lemp-cli recover     <store-dir> [verify=<bool>] [out=<engine.eng>]
  lemp-cli compact     <store-dir>

matrix files by extension: .bin (lemp binary), .mtx (Matrix Market), otherwise CSV;
`above`/`topk`/`serve` accept a prebuilt engine image (from `index`) as the <probes>
argument when its extension is .eng — single-shard (LEMPENG1) and sharded (LEMPSHD1)
images are told apart by magic, so both kinds just work;
`above`/`topk` build one QueryRequest and run it through the unified engine surface,
so abs/floor/chunk/adaptive/shards compose freely (all combinations are exact);
shards=<n> (n >= 1) partitions the probes across n shard engines (exact results,
shard-parallel execution); shard-policy picks round-robin (rr) or length-banded
partitioning and requires shards= or a sharded image; quantize=<bits> (1..=16)
trains per-bucket subspace codebooks at warm-up and lets the tuner pick the
quantized LUT scan per bucket — every candidate is re-verified against the
full-precision vectors, so answers stay exact; quantize-force=true skips the
tuner's LUT-vs-exact pricing and always routes codebooked
buckets through the LUT scan (QUANT usage for benchmarks); explain=true prints the
compiled per-bucket plan summary to stderr (a quantized bucket names its bits,
codebook size and distortion bound);
durable=<dir> write-ahead logs every POST /probes edit into <dir> before applying
it (first boot seeds the store from <probes>, later boots recover from the store
and ignore <probes>); durable= composes with shards=: each edit is logged by the
owning shard (one WAL + snapshot directory per shard under <dir>, plus a root
MANIFEST), and a second boot reassembles the sharded engine from the store alone;
sync= picks the fsync cadence (default always); `recover` rebuilds the engine
from the latest snapshot + WAL tail of a single or sharded store (verify=true
gates its answers against Naive, out= saves the recovered engine image);
`compact` folds the log(s) into fresh snapshots and prunes covered segments;
replication=<addr> (leader) serves the store's snapshot + WAL to followers on a
second listener; sync-replicas=<n> makes the leader semi-synchronous — each
POST /probes acknowledgment waits until n followers' durable watermarks cover
the edit (bounded by quorum-timeout-ms, default 2000; on timeout the server
answers a structured 503 with code quorum_timeout and the edit stays durable
locally); replicate-from=<addr> (follower) bootstraps an empty durable=
store from that leader and tails its WAL, serving reads only (POST /probes is
409) until `promote` fences the store with a fresh epoch and flips it to a
standalone leader (a second promote is rejected with code already_fenced);
both require durable= with a single (non-sharded) store;
serve exposes Prometheus text metrics on GET /metrics (latency histograms,
engine telemetry, WAL/replication gauges); slow-query-ms=<n> logs one JSON
line to stderr for every query request at or above n milliseconds";

/// Entry point shared by the binary and the tests. `args` excludes the
/// program name.
///
/// # Errors
/// A human-readable message describing the argument or IO problem.
pub fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "above" => retrieve(args, true),
        "topk" => retrieve(args, false),
        "approx-topk" => approx_topk(args),
        "generate" => generate(args),
        "convert" => convert(args),
        "stats" => matrix_stats(args),
        "tune-report" => tune_report(args),
        "topn" => global_top_n(args),
        "index" => index(args),
        "self-join" => self_join(args),
        "serve" => serve(args),
        "promote" => promote_cmd(args),
        "recover" => recover_cmd(args),
        "compact" => compact_cmd(args),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// `key=value` lookup over the free arguments.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(&format!("{key}=")))
}

/// Parses `key=value` with a default, reporting parse failures by key name.
fn opt_parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad {key}: {raw:?}")),
    }
}

/// Parses a required `key=value`.
fn opt_require<T: std::str::FromStr>(args: &[String], key: &str) -> Result<T, String> {
    let raw = opt(args, key).ok_or_else(|| format!("missing required {key}=<value>"))?;
    raw.parse().map_err(|_| format!("bad {key}: {raw:?}"))
}

fn positional(args: &[String], idx: usize) -> Result<&str, String> {
    args.iter()
        .skip(1) // subcommand
        .filter(|a| !a.contains('='))
        .nth(idx)
        .map(String::as_str)
        .ok_or_else(|| format!("missing positional argument #{}", idx + 1))
}

/// File kind by extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Binary,
    MatrixMarket,
    Csv,
}

fn format_of(path: &Path) -> Format {
    match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => Format::Binary,
        Some("mtx") => Format::MatrixMarket,
        _ => Format::Csv,
    }
}

fn load(path: &str) -> Result<VectorStore, String> {
    let p = Path::new(path);
    let result = match format_of(p) {
        Format::Binary => mio::read_binary(p),
        Format::MatrixMarket => mm::read_mm(p),
        Format::Csv => mio::read_csv(p),
    };
    result.map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_store(store: &VectorStore, path: &Path, mm_layout: &str) -> Result<(), String> {
    let result = match format_of(path) {
        Format::Binary => mio::write_binary(store, path),
        Format::MatrixMarket => match mm_layout {
            "array" => mm::write_mm_array(store, path),
            "coordinate" => mm::write_mm_coordinate(store, path),
            other => return Err(format!("bad mm-layout: {other:?} (array|coordinate)")),
        },
        Format::Csv => mio::write_csv(store, path),
    };
    result.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn parse_variant(name: &str) -> Result<LempVariant, String> {
    let v = match name.to_ascii_uppercase().as_str() {
        "L" => LempVariant::L,
        "C" => LempVariant::C,
        "I" => LempVariant::I,
        "LC" => LempVariant::LC,
        "LI" => LempVariant::LI,
        "TA" => LempVariant::Ta,
        "TREE" => LempVariant::Tree,
        "L2AP" => LempVariant::L2ap,
        "BLSH" => LempVariant::Blsh,
        other => return Err(format!("unknown variant {other:?}")),
    };
    Ok(v)
}

/// Output sink: a file or stdout.
fn sink(args: &[String]) -> Result<Box<dyn Write>, String> {
    match opt(args, "out") {
        Some(path) => {
            let f =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Ok(Box::new(std::io::BufWriter::new(f)))
        }
        None => Ok(Box::new(std::io::BufWriter::new(std::io::stdout()))),
    }
}

fn load_pair(args: &[String]) -> Result<(VectorStore, VectorStore), String> {
    let queries = load(positional(args, 0)?)?;
    let probes = load(positional(args, 1)?)?;
    if queries.dim() != probes.dim() {
        return Err(format!(
            "dimensionality mismatch: queries r={}, probes r={}",
            queries.dim(),
            probes.dim()
        ));
    }
    Ok((queries, probes))
}

/// Parses the `adaptive=<policy>` option into a driver configuration.
fn adaptive_cfg(args: &[String]) -> Result<Option<AdaptiveConfig>, String> {
    match opt(args, "adaptive") {
        None => Ok(None),
        Some("ucb1") => Ok(Some(AdaptiveConfig::default())),
        Some("eps-greedy") => {
            let seed: u64 = opt_parse(args, "seed", 42)?;
            Ok(Some(AdaptiveConfig {
                policy: BanditPolicy::EpsilonGreedy { epsilon: 0.1, seed },
                ..Default::default()
            }))
        }
        Some(other) => Err(format!("unknown adaptive policy {other:?} (ucb1|eps-greedy)")),
    }
}

/// Parses `quantize=<bits|off>`: a per-subspace code width in `1..=16`,
/// or `off`/absent for full precision. `0`, widths beyond 16 and garbage
/// are structured errors, never panics.
fn parse_quantize(args: &[String]) -> Result<u8, String> {
    match opt(args, "quantize") {
        None | Some("off") => Ok(0),
        Some(raw) => match raw.parse::<u8>() {
            Ok(bits) if (1..=16).contains(&bits) => Ok(bits),
            _ => Err(format!("bad quantize: {raw:?} (a bit width in 1..=16, or off)")),
        },
    }
}

/// Parses `quantize-force=<bool>`: route every bucket with trained
/// codebooks through the quantized LUT scan instead of letting the tuner
/// time LUT vs exact (which varies with machine load). Requires
/// `quantize=<bits>`.
fn parse_quantize_force(args: &[String], bits: u8) -> Result<bool, String> {
    let force: bool = opt_parse(args, "quantize-force", false)?;
    if force && bits == 0 {
        return Err("quantize-force=true requires quantize=<bits>".into());
    }
    Ok(force)
}

/// Rejects a `quantize=` on a prebuilt engine image, whose quantization
/// is baked in — silently ignoring the option would lie about what runs.
fn reject_quantize_on_image(args: &[String], path: &str) -> Result<(), String> {
    if opt(args, "quantize").is_some() {
        return Err(format!(
            "{path} already encodes its quantization; rebuild with \
             `lemp index <probes> <out.eng> quantize=<bits>`"
        ));
    }
    Ok(())
}

/// Parses `shard-policy=<rr|banded>` (default round-robin).
fn parse_shard_policy(args: &[String]) -> Result<ShardPolicy, String> {
    match opt(args, "shard-policy").unwrap_or("rr") {
        "rr" => Ok(ShardPolicy::RoundRobin),
        "banded" => Ok(ShardPolicy::LengthBanded),
        other => Err(format!("unknown shard-policy {other:?} (rr|banded)")),
    }
}

/// Parses `shards=<n>`: `Some(n ≥ 1)` when given (a 1-shard engine is
/// legitimate), `None` when absent, an error for `shards=0` or garbage.
fn shard_request(args: &[String]) -> Result<Option<usize>, String> {
    match opt(args, "shards") {
        None => Ok(None),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("bad shards: {raw:?} (must be a count of at least 1)")),
        },
    }
}

/// Rejects a `shard-policy=` that would be silently ignored because no
/// sharded path is taken (no `shards=`, input not a sharded manifest).
fn reject_dangling_shard_policy(args: &[String]) -> Result<(), String> {
    if opt(args, "shard-policy").is_some() {
        return Err("shard-policy= requires shards=<n> (or a sharded engine image)".into());
    }
    Ok(())
}

/// Whether `path` names a sharded (`LEMPSHD1`) engine manifest.
fn sharded_image(path: &str) -> Result<bool, String> {
    if !path.ends_with(".eng") {
        return Ok(false);
    }
    is_sharded_image(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Loads or builds the sharded engine for `above`/`topk`/`serve`: a
/// sharded `.eng` manifest as-is, or a matrix partitioned into `shards`
/// (`shards == 0` means "not requested on the command line"). A manifest's
/// partitioning is baked in, so conflicting `shards=`/`shard-policy=`
/// options are rejected rather than silently ignored.
fn load_sharded(args: &[String], probes_path: &str, shards: usize) -> Result<ShardedLemp, String> {
    if sharded_image(probes_path)? {
        reject_quantize_on_image(args, probes_path)?;
        let engine = ShardedLemp::load(Path::new(probes_path))
            .map_err(|e| format!("cannot load sharded engine {probes_path}: {e}"))?;
        if shards > 0 && shards != engine.shard_count() {
            return Err(format!(
                "{probes_path} is a sharded manifest with {} shards; shards={shards} cannot \
                 repartition it — rebuild with `lemp index <probes> <out.eng> shards={shards}`",
                engine.shard_count()
            ));
        }
        if opt(args, "shard-policy").is_some() {
            return Err(format!(
                "{probes_path} already encodes its partitioning; shard-policy= only applies \
                 when building from a matrix"
            ));
        }
        return Ok(engine);
    }
    if probes_path.ends_with(".eng") {
        return Err(format!(
            "{probes_path} is a single-shard image; build a sharded one with \
             `lemp index <probes> <out.eng> shards={shards}`"
        ));
    }
    let probes = load(probes_path)?;
    let variant = parse_variant(opt(args, "variant").unwrap_or("LI"))?;
    let quantize = parse_quantize(args)?;
    Ok(ShardedLemp::builder()
        .shards(shards)
        .policy(parse_shard_policy(args)?)
        .variant(variant)
        .quantize(quantize)
        .quantize_force(parse_quantize_force(args, quantize)?)
        .build(&probes))
}

/// `above`/`topk`: one [`QueryRequest`], one engine handle, one execution
/// path. The backend (fresh single engine, loaded image, sharded build or
/// manifest) is chosen from the arguments and boxed behind `dyn Engine`;
/// the request then runs through `plan` → `execute` with **no per-engine
/// query dispatch** — abs/floor/chunk/adaptive/shards compose freely, and
/// every combination is exact.
fn retrieve(args: &[String], above: bool) -> Result<(), String> {
    let queries = load(positional(args, 0)?)?;
    let probes_path = positional(args, 1)?;
    let threads: usize = opt_parse(args, "threads", 0)?; // 0 = backend default
    let explain: bool = opt_parse(args, "explain", false)?;

    // The request: what to retrieve plus how to execute it.
    let kind = if above {
        let theta: f64 = opt_require(args, "theta")?;
        if opt_parse(args, "abs", false)? {
            QueryKind::AbsAboveTheta { theta }
        } else {
            QueryKind::AboveTheta { theta }
        }
    } else {
        let k: usize = opt_require(args, "k")?;
        let floor: f64 = opt_parse(args, "floor", f64::NEG_INFINITY)?;
        if floor > f64::NEG_INFINITY {
            QueryKind::TopKWithFloor { k, floor }
        } else {
            QueryKind::TopK { k }
        }
    };
    let mut request = QueryRequest::new(kind);
    if let Some(acfg) = adaptive_cfg(args)? {
        request = request.adaptive(acfg);
    }
    let chunk: usize = opt_parse(args, "chunk", 0)?; // 0 = monolithic
    if chunk > 0 {
        request = request.chunked(chunk);
    }

    // The engine handle: sharded (built or loaded) or single (built or
    // loaded), behind one trait object either way.
    let shards = shard_request(args)?;
    let mut engine: Box<dyn Engine> = if shards.is_some() || sharded_image(probes_path)? {
        let mut engine = load_sharded(args, probes_path, shards.unwrap_or(0))?;
        engine.set_threads(if threads > 0 { threads } else { engine.shard_count() });
        Box::new(engine)
    } else {
        reject_dangling_shard_policy(args)?;
        let engine = if probes_path.ends_with(".eng") {
            reject_quantize_on_image(args, probes_path)?;
            let mut loaded = Lemp::load(Path::new(probes_path))
                .map_err(|e| format!("cannot load engine {probes_path}: {e}"))?;
            if threads > 0 {
                loaded.set_threads(threads);
            }
            loaded
        } else {
            let probes = load(probes_path)?;
            let variant = parse_variant(opt(args, "variant").unwrap_or("LI"))?;
            let quantize = parse_quantize(args)?;
            Lemp::builder()
                .variant(variant)
                .threads(threads.max(1))
                .quantize(quantize)
                .quantize_force(parse_quantize_force(args, quantize)?)
                .build(&probes)
        };
        Box::new(engine)
    };
    if engine.dim() != queries.dim() {
        return Err(format!(
            "dimensionality mismatch: queries r={}, probes r={}",
            queries.dim(),
            engine.dim()
        ));
    }

    // Warm for the workload, compile, execute.
    engine.warm_up(&queries, kind.warm_goal());
    let plan = engine.plan(&request);
    if explain {
        eprintln!("plan: {}", plan.describe());
        // Per-bucket assignments, parameters included — a quantized bucket
        // names its code width, codebook size and distortion bound, e.g.
        // `QUANT(bits=8, k=256, eps=1.2e-2)`.
        for (s, segment) in plan.segments().iter().enumerate() {
            for (b, algo) in segment.algos().iter().enumerate() {
                eprintln!("  shard {s} bucket {b}: {}", algo.detail());
            }
        }
    }
    let mut scratch = engine.query_scratch();
    let response = engine.execute(&plan, &queries, &mut scratch);

    let mut out = sink(args)?;
    let stats = &response.stats;
    match response.rows {
        QueryRows::Entries(mut entries) => {
            entries.sort_by_key(|e| (e.query, e.probe));
            export::write_entries_csv(&mut out, &entries).map_err(|e| e.to_string())?;
            let (sign, theta) = match kind {
                QueryKind::AbsAboveTheta { theta } => ("|·| ≥", theta),
                QueryKind::AboveTheta { theta } => ("≥", theta),
                _ => unreachable!("entry rows imply an Above-θ kind"),
            };
            eprintln!(
                "{} entries {sign} {theta} | {} queries, {:.1} candidates/query, {} buckets over {} shard(s), total {:.3}s",
                entries.len(),
                stats.counters.queries,
                stats.counters.candidates_per_query(),
                stats.bucket_count,
                engine.shard_count(),
                stats.counters.total_seconds()
            );
        }
        QueryRows::Lists(lists) => {
            export::write_topk_csv(&mut out, &lists).map_err(|e| e.to_string())?;
            let k = match kind {
                QueryKind::TopK { k } | QueryKind::TopKWithFloor { k, .. } => k,
                _ => unreachable!("list rows imply a Row-Top-k kind"),
            };
            eprintln!(
                "top-{k} for {} queries | {:.1} candidates/query, {} buckets over {} shard(s), total {:.3}s",
                stats.counters.queries,
                stats.counters.candidates_per_query(),
                stats.bucket_count,
                engine.shard_count(),
                stats.counters.total_seconds()
            );
        }
    }
    Ok(())
}

fn approx_topk(args: &[String]) -> Result<(), String> {
    let (queries, probes) = load_pair(args)?;
    let k: usize = opt_require(args, "k")?;
    let method: String = opt_require(args, "method")?;
    let seed: u64 = opt_parse(args, "seed", 42)?;
    let verify: bool = opt_parse(args, "verify", false)?;
    let started = std::time::Instant::now();

    let lists: TopKLists = match method.as_str() {
        "srp" => {
            let budget: usize = opt_parse(args, "budget", 8 * k.max(1))?;
            let index = SrpLsh::build(&probes, &SrpConfig { bits: 128, seed })
                .map_err(|e| e.to_string())?;
            index.row_top_k(&queries, k, budget)
        }
        "pca" => {
            let tree = PcaTree::build(&probes, &PcaTreeConfig { seed, ..Default::default() })
                .map_err(|e| e.to_string())?;
            let budget: usize = opt_parse(args, "budget", (tree.leaves() / 4).max(1))?;
            tree.row_top_k(&queries, k, budget)
        }
        "centroid" => {
            let clusters: usize = opt_parse(args, "clusters", 64)?;
            let expand: usize = opt_parse(args, "expand", 4)?;
            let cfg = CentroidConfig { clusters, expand, seed, ..Default::default() };
            centroid_row_top_k(&queries, &probes, k, &cfg).map_err(|e| e.to_string())?.lists
        }
        other => return Err(format!("unknown method {other:?} (srp|pca|centroid)")),
    };
    let elapsed = started.elapsed().as_secs_f64();

    let mut out = sink(args)?;
    export::write_topk_csv(&mut out, &lists).map_err(|e| e.to_string())?;

    if verify {
        let (truth, _) = Naive.row_top_k(&queries, &probes, k);
        let recall = lemp_approx::recall::topk_recall(&truth, &lists, 1e-9);
        eprintln!(
            "approx {method} top-{k}: {} queries in {elapsed:.3}s, recall {recall:.4}",
            queries.len()
        );
    } else {
        eprintln!("approx {method} top-{k}: {} queries in {elapsed:.3}s", queries.len());
    }
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    let name = positional(args, 0)?;
    let dataset = parse_dataset(name)?;
    let q_out = PathBuf::from(positional(args, 1)?);
    let p_out = PathBuf::from(positional(args, 2)?);
    let scale: f64 = opt_parse(args, "scale", 0.01)?;
    let seed: u64 = opt_parse(args, "seed", 42)?;
    let spec = dataset.spec().scaled(scale);
    let (q, p) = spec.generate(seed);
    write_store(&q, &q_out, "array")?;
    write_store(&p, &p_out, "array")?;
    eprintln!(
        "{}: wrote {} queries to {} and {} probes to {} (r = {})",
        spec.name,
        q.len(),
        q_out.display(),
        p.len(),
        p_out.display(),
        spec.dim
    );
    Ok(())
}

fn parse_dataset(name: &str) -> Result<Dataset, String> {
    match name.to_ascii_lowercase().as_str() {
        "ie-nmf" => Ok(Dataset::IeNmf),
        "ie-svd" => Ok(Dataset::IeSvd),
        "netflix" => Ok(Dataset::Netflix),
        "kdd" => Ok(Dataset::Kdd),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

fn convert(args: &[String]) -> Result<(), String> {
    let input = positional(args, 0)?;
    let output = positional(args, 1)?;
    let mm_layout = opt(args, "mm-layout").unwrap_or("array");
    let store = load(input)?;
    write_store(&store, Path::new(output), mm_layout)?;
    eprintln!("converted {input} -> {output} ({} vectors, r = {})", store.len(), store.dim());
    Ok(())
}

fn matrix_stats(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0)?;
    let store = load(path)?;
    let lengths = store.lengths();
    println!("{path}:");
    println!("  vectors        {}", store.len());
    println!("  dimensionality {}", store.dim());
    println!("  length mean    {:.4}", stats::mean(&lengths));
    println!("  length CoV     {:.4}", stats::cov(&lengths));
    println!(
        "  length p50/p99 {:.4} / {:.4}",
        stats::quantile(&lengths, 0.5),
        stats::quantile(&lengths, 0.99)
    );
    println!("  non-zero       {:.1}%", 100.0 * stats::nonzero_fraction(store.as_flat()));
    // Bucketization preview under the default policy: how LEMP would cut
    // this matrix as the probe side.
    let engine = Lemp::builder().build(&store);
    let buckets = engine.buckets();
    println!("  buckets        {} (default policy)", buckets.bucket_count());
    if let (Some(first), Some(last)) = (buckets.buckets().first(), buckets.buckets().last()) {
        println!(
            "  bucket lengths {:.4} (longest) .. {:.4} (shortest)",
            first.max_len, last.min_len
        );
        let largest = buckets.buckets().iter().map(|b| b.len()).max().unwrap_or(0);
        println!("  largest bucket {largest} vectors");
    }
    Ok(())
}

fn tune_report(args: &[String]) -> Result<(), String> {
    let (queries, probes) = load_pair(args)?;
    let variant = parse_variant(opt(args, "variant").unwrap_or("LI"))?;
    let mut engine = Lemp::builder().variant(variant).build(&probes);
    let params = match (opt(args, "theta"), opt(args, "k")) {
        (Some(raw), None) => {
            let theta: f64 = raw.parse().map_err(|_| format!("bad theta: {raw:?}"))?;
            engine.tune_above(&queries, theta)
        }
        (None, Some(raw)) => {
            let k: usize = raw.parse().map_err(|_| format!("bad k: {raw:?}"))?;
            engine.tune_top_k(&queries, k)
        }
        _ => return Err("tune-report needs exactly one of theta=<f> or k=<n>".into()),
    };
    println!("bucket,size,max_len,min_len,t_b,phi_b");
    for (b, (bucket, p)) in engine.buckets().buckets().iter().zip(&params).enumerate() {
        println!(
            "{b},{},{:.6},{:.6},{:.3},{}",
            bucket.len(),
            bucket.max_len,
            bucket.min_len,
            p.tb,
            p.phi
        );
    }
    Ok(())
}

fn global_top_n(args: &[String]) -> Result<(), String> {
    let (queries, probes) = load_pair(args)?;
    let n: usize = opt_require(args, "n")?;
    let chunk: usize = opt_parse(args, "chunk", 256)?;
    if chunk == 0 {
        return Err("chunk must be positive".into());
    }
    let started = std::time::Instant::now();
    let mut engine = Lemp::builder().build(&probes);
    let entries = engine.global_top_n(&queries, n, chunk);
    let elapsed = started.elapsed().as_secs_f64();
    let mut out = sink(args)?;
    export::write_entries_csv(&mut out, &entries).map_err(|e| e.to_string())?;
    if let Some(last) = entries.last() {
        eprintln!(
            "top-{} of the whole product in {elapsed:.3}s; recall-level θ = {:?}",
            entries.len(),
            last.value
        );
    } else {
        eprintln!("empty product: no entries");
    }
    Ok(())
}

fn index(args: &[String]) -> Result<(), String> {
    let probes = load(positional(args, 0)?)?;
    let out = positional(args, 1)?;
    if !out.ends_with(".eng") {
        return Err(format!("engine images use the .eng extension, got {out:?}"));
    }
    let variant = parse_variant(opt(args, "variant").unwrap_or("LI"))?;
    let quantize = parse_quantize(args)?;
    if let Some(shards) = shard_request(args)? {
        let engine = ShardedLemp::builder()
            .shards(shards)
            .policy(parse_shard_policy(args)?)
            .variant(variant)
            .quantize(quantize)
            .build(&probes);
        engine.save(Path::new(out)).map_err(|e| format!("cannot write engine {out}: {e}"))?;
        eprintln!(
            "indexed {} probes into {} shards ({} buckets) -> {out}",
            engine.len(),
            engine.shard_count(),
            engine.bucket_count()
        );
        return Ok(());
    }
    reject_dangling_shard_policy(args)?;
    let engine = Lemp::builder().variant(variant).quantize(quantize).build(&probes);
    engine.save(Path::new(out)).map_err(|e| format!("cannot write engine {out}: {e}"))?;
    eprintln!(
        "indexed {} probes into {} buckets -> {out}",
        engine.buckets().total(),
        engine.buckets().bucket_count()
    );
    Ok(())
}

/// `serve`: boot the `lemp-serve` HTTP service over a probe matrix or a
/// persisted engine image (the intended production input — `lemp index`
/// once, then `lemp serve engine.eng` on every restart without repeating
/// preprocessing). Single-shard and sharded images are told apart by
/// magic; `shards=<n>` on a matrix builds a sharded engine in place. The
/// engine is warmed before the socket starts accepting, so the first
/// request already runs the shared `&self` path.
fn serve(args: &[String]) -> Result<(), String> {
    use lemp_core::{BucketPolicy, DynamicLemp, RunConfig};
    use lemp_serve::{ServeConfig, ServeEngine, Server};

    let probes_path = positional(args, 0)?;
    let addr = opt(args, "addr").unwrap_or("127.0.0.1:0");
    let workers: usize = opt_parse(args, "workers", 4)?;
    let queue: usize = opt_parse(args, "queue", 64)?;
    let batch: usize = opt_parse(args, "batch", 8)?;
    let warm_k: usize = opt_parse(args, "warm-k", 10)?;
    // Validated up front so hostile quantize= inputs fail before any store
    // is opened or seeded, whatever branch serves.
    let quantize = parse_quantize(args)?;
    let shards = shard_request(args)?;
    let durable_dir = opt(args, "durable");
    let sync = lemp_store::SyncPolicy::parse(opt(args, "sync").unwrap_or("always"))?;
    if opt(args, "sync").is_some() && durable_dir.is_none() {
        return Err("sync= requires durable=<dir>".into());
    }
    // A durable directory that already holds a sharded store forces the
    // sharded branch even without shards= on the command line — the store
    // is the source of truth from the second boot on.
    let sharded_store = durable_dir.is_some_and(|d| lemp_store::is_sharded_store(Path::new(d)));

    let replication = opt(args, "replication");
    let replicate_from = opt(args, "replicate-from");
    if replication.is_some() && replicate_from.is_some() {
        return Err(
            "replication= (leader) and replicate-from= (follower) are mutually exclusive".into()
        );
    }
    if (replication.is_some() || replicate_from.is_some()) && durable_dir.is_none() {
        return Err("replication requires durable=<dir> (the log is what is replicated)".into());
    }
    if (replication.is_some() || replicate_from.is_some()) && (sharded_store || shards.is_some()) {
        return Err("replication requires a single durable store (drop shards=)".into());
    }
    let sync_replicas: usize = opt_parse(args, "sync-replicas", 0)?;
    let quorum_timeout_ms: u64 = opt_parse(args, "quorum-timeout-ms", 2_000)?;
    // 0 = disabled: every threshold crossing is a stderr line, so an
    // accidental slow-query-ms=0 would log every single request.
    let slow_query_ms: u64 = opt_parse(args, "slow-query-ms", 0)?;
    if (sync_replicas > 0 || opt(args, "quorum-timeout-ms").is_some()) && replication.is_none() {
        return Err(
            "sync-replicas=/quorum-timeout-ms= require replication=<addr> (a leader)".into()
        );
    }

    // Warm-up sample: an explicit file, or (None) the engine's own probe
    // vectors — drawn from the same latent space, a reasonable tuning
    // stand-in.
    let explicit_sample = |dim: usize| -> Result<Option<VectorStore>, String> {
        match opt(args, "sample") {
            None => Ok(None),
            Some(path) => {
                let sample = load(path)?;
                if sample.dim() != dim {
                    return Err(format!(
                        "sample dimensionality {} does not match engine dimensionality {dim}",
                        sample.dim()
                    ));
                }
                Ok(Some(sample))
            }
        }
    };

    let engine: ServeEngine = if sharded_store || shards.is_some() || sharded_image(probes_path)? {
        use lemp_store::{ShardedDurableEngine, StoreOptions};
        let fresh = || -> Result<ShardedLemp, String> {
            let engine = load_sharded(args, probes_path, shards.unwrap_or(0))?;
            if engine.is_empty() {
                return Err(format!("{probes_path} holds no probe vectors"));
            }
            Ok(engine)
        };
        let mut engine: ServeEngine = match durable_dir {
            Some(dir) => {
                let dir = Path::new(dir);
                let options = StoreOptions { sync, ..Default::default() };
                let store = if lemp_store::is_sharded_store(dir) {
                    // The store is the source of truth from the second
                    // boot on: the <probes> argument only seeds a fresh
                    // directory.
                    let (store, report) =
                        ShardedDurableEngine::open(dir, options).map_err(|e| {
                            format!("cannot recover sharded store {}: {e}", dir.display())
                        })?;
                    if let Some(n) = shards {
                        if n != store.engine().shard_count() {
                            return Err(format!(
                                "store {} holds {} shards; shards={n} cannot repartition it",
                                dir.display(),
                                store.engine().shard_count()
                            ));
                        }
                    }
                    eprintln!(
                        "recovered {} probes across {} shards from {} ({} records replayed); \
                         ignoring {probes_path}",
                        report.live_probes(),
                        report.shards.len(),
                        dir.display(),
                        report.records_replayed(),
                    );
                    for (shard, detail) in report.torn_tails() {
                        eprintln!("shard {shard}: torn WAL tail truncated: {detail}");
                    }
                    store
                } else {
                    let store =
                        ShardedDurableEngine::create(dir, fresh()?, options).map_err(|e| {
                            format!("cannot create sharded store {}: {e}", dir.display())
                        })?;
                    eprintln!(
                        "created sharded store {} ({} shards, sync: {sync}) seeded from \
                         {probes_path}",
                        dir.display(),
                        store.engine().shard_count()
                    );
                    store
                };
                if store.engine().is_empty() {
                    return Err(format!("store {} holds no probe vectors", dir.display()));
                }
                ServeEngine::ShardedDurable(Box::new(store))
            }
            None => ServeEngine::Sharded(fresh()?),
        };
        // Every request fans out across shards, and the worker pool runs
        // requests concurrently on top — divide the cores between the two
        // so the combination never oversubscribes (the dynamic branch's
        // set_threads(1) with the worker pool as the only parallelism is
        // the same principle).
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let sample = {
            let inner = match &engine {
                ServeEngine::Sharded(e) => e,
                ServeEngine::ShardedDurable(e) => e.engine(),
                _ => unreachable!("this branch builds sharded engines"),
            };
            match explicit_sample(inner.dim())? {
                Some(sample) => sample,
                None => inner.sample_vectors(1024),
            }
        };
        let goal = WarmGoal::TopK(warm_k.max(1));
        let (report, shard_count) = match &mut engine {
            ServeEngine::Sharded(e) => {
                e.set_threads((cores / workers.max(1)).clamp(1, e.shard_count()));
                (e.warm(&sample, goal), e.shard_count())
            }
            ServeEngine::ShardedDurable(e) => {
                let count = e.engine().shard_count();
                e.set_threads((cores / workers.max(1)).clamp(1, count));
                (e.warm(&sample, goal), count)
            }
            _ => unreachable!("this branch builds sharded engines"),
        };
        eprintln!(
            "warmed {} probes in {} shards ({} buckets): {} indexes built in {:.3}s (tuning {:.3}s)",
            engine.len(),
            shard_count,
            engine.bucket_count(),
            report.indexes_built,
            report.build_ns as f64 / 1e9,
            report.tune_ns as f64 / 1e9,
        );
        engine
    } else {
        use lemp_store::{DurableEngine, StoreOptions};
        reject_dangling_shard_policy(args)?;
        let build = || -> Result<DynamicLemp, String> {
            let engine = if probes_path.ends_with(".eng") {
                reject_quantize_on_image(args, probes_path)?;
                let loaded = Lemp::load(Path::new(probes_path))
                    .map_err(|e| format!("cannot load engine {probes_path}: {e}"))?;
                DynamicLemp::from_engine(loaded, BucketPolicy::default())
            } else {
                let probes = load(probes_path)?;
                let variant = parse_variant(opt(args, "variant").unwrap_or("LI"))?;
                let config = RunConfig {
                    variant,
                    quantize_bits: quantize,
                    quantize_force: parse_quantize_force(args, quantize)?,
                    ..Default::default()
                };
                DynamicLemp::new(&probes, BucketPolicy::default(), config)
            };
            if engine.is_empty() {
                return Err(format!("{probes_path} holds no probe vectors"));
            }
            Ok(engine)
        };
        let mut engine: ServeEngine = match durable_dir {
            Some(dir) => {
                let dir = Path::new(dir);
                let options = StoreOptions { sync, ..Default::default() };
                let store = if DurableEngine::exists(dir) {
                    // The store is the source of truth from the second
                    // boot on: the <probes> argument only seeds a fresh
                    // directory.
                    let (store, report) = DurableEngine::open(dir, options)
                        .map_err(|e| format!("cannot recover store {}: {e}", dir.display()))?;
                    eprintln!(
                        "recovered {} probes from {} (snapshot LSN {}, {} records replayed \
                         across {} segments); ignoring {probes_path}",
                        report.live_probes,
                        dir.display(),
                        report.snapshot_lsn,
                        report.records_replayed,
                        report.segments_scanned,
                    );
                    if let Some(detail) = report.torn_tail {
                        eprintln!("torn WAL tail truncated: {detail}");
                    }
                    store
                } else if let Some(leader) = replicate_from {
                    // A fresh follower bootstraps over the wire instead of
                    // seeding from <probes>: the leader's snapshot is the
                    // truth the tail loop then extends.
                    let (status, payload) = lemp_serve::client::request_bytes(
                        leader,
                        "GET",
                        "/repl/snapshot",
                        Some(std::time::Duration::from_secs(30)),
                    )
                    .map_err(|e| format!("cannot fetch a snapshot from {leader}: {e}"))?;
                    if status != 200 {
                        return Err(format!("leader {leader} answered {status} to /repl/snapshot"));
                    }
                    let (store, report) = lemp_store::replication::bootstrap(
                        dir, &payload, options,
                    )
                    .map_err(|e| format!("cannot bootstrap store {}: {e}", dir.display()))?;
                    eprintln!(
                        "bootstrapped follower store {} from {leader} (snapshot LSN {}, {} live \
                         probes); ignoring {probes_path}",
                        dir.display(),
                        report.snapshot_lsn,
                        report.live_probes,
                    );
                    store
                } else {
                    let store = DurableEngine::create(dir, build()?, options)
                        .map_err(|e| format!("cannot create store {}: {e}", dir.display()))?;
                    eprintln!(
                        "created store {} (sync: {sync}) seeded from {probes_path}",
                        dir.display()
                    );
                    store
                };
                if store.engine().is_empty() {
                    return Err(format!("store {} holds no probe vectors", dir.display()));
                }
                ServeEngine::Durable(Box::new(store))
            }
            None => ServeEngine::Dynamic(build()?),
        };
        // The warm-up recipe, once: request-level parallelism comes from
        // the worker pool (per-call threading would oversubscribe the
        // cores), the sample is the explicit one or the engine's own live
        // vectors, the goal follows warm-k. The match arms below only
        // bridge the two backends' accessors onto this shared recipe.
        let goal = WarmGoal::TopK(warm_k.max(1));
        let sample = {
            let inner = match &engine {
                ServeEngine::Dynamic(e) => e,
                ServeEngine::Durable(e) => e.engine(),
                ServeEngine::Sharded(_) | ServeEngine::ShardedDurable(_) => {
                    unreachable!("sharded engines take the other branch")
                }
            };
            match explicit_sample(inner.dim())? {
                Some(sample) => sample,
                None => inner.live_vectors().1,
            }
        };
        let report = match &mut engine {
            ServeEngine::Dynamic(e) => {
                e.set_threads(1);
                e.warm(&sample, goal)
            }
            ServeEngine::Durable(e) => {
                e.set_threads(1);
                e.warm(&sample, goal)
            }
            ServeEngine::Sharded(_) | ServeEngine::ShardedDurable(_) => {
                unreachable!("sharded engines take the other branch")
            }
        };
        eprintln!(
            "warmed {} probes in {} buckets: {} indexes built in {:.3}s (tuning {:.3}s)",
            engine.len(),
            engine.bucket_count(),
            report.indexes_built,
            report.build_ns as f64 / 1e9,
            report.tune_ns as f64 / 1e9,
        );
        engine
    };

    let cfg = ServeConfig {
        workers: workers.max(1),
        queue_cap: queue.max(1),
        batch_max: batch.max(1),
        sync_replicas,
        quorum_timeout: std::time::Duration::from_millis(quorum_timeout_ms),
        slow_query: (slow_query_ms > 0).then(|| std::time::Duration::from_millis(slow_query_ms)),
        ..Default::default()
    };
    let mut server =
        Server::bind(addr, engine, cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(repl_addr) = replication {
        let bound = server
            .enable_leader(repl_addr)
            .map_err(|e| format!("cannot start the replication listener on {repl_addr}: {e}"))?;
        // Scripts parse this line too — keep it distinct from the
        // "listening on" line below.
        println!("lemp-serve replication on {bound}");
    }
    if let Some(leader) = replicate_from {
        server
            .replicate_from(leader.to_string())
            .map_err(|e| format!("cannot replicate from {leader}: {e}"))?;
        eprintln!("replicating from {leader} (read-only until POST /promote)");
    }
    // Scripts parse this line to discover the ephemeral port; flush so it
    // is visible before the accept loop blocks.
    println!("lemp-serve listening on {local}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// `promote <addr>` — asks a read-only follower to start accepting edits.
fn promote_cmd(args: &[String]) -> Result<(), String> {
    let addr = positional(args, 0)?;
    let (status, body) = lemp_serve::client::post(addr, "/promote", &lemp_serve::json::obj(vec![]))
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if status != 200 {
        let detail = body.get("error").and_then(|e| e.as_str()).unwrap_or("").to_string();
        return Err(format!("{addr} answered {status} to /promote: {detail}"));
    }
    let next_lsn = body.get("next_lsn").and_then(|v| v.as_u64()).unwrap_or(0);
    let probes = body.get("probes").and_then(|v| v.as_u64()).unwrap_or(0);
    let epoch = body.get("fence_epoch").and_then(|v| v.as_u64()).unwrap_or(0);
    println!(
        "promoted {addr}: fence epoch {epoch}, accepting edits at LSN {next_lsn}, \
         {probes} probes live"
    );
    Ok(())
}

/// `recover`: rebuild a [`lemp_core::DynamicLemp`] from a durable store
/// directory (latest snapshot + WAL tail replay), report what happened,
/// optionally save the recovered engine image and gate its answers
/// against the naive baseline.
fn recover_cmd(args: &[String]) -> Result<(), String> {
    let dir = Path::new(positional(args, 0)?);
    if lemp_store::is_sharded_store(dir) {
        return recover_sharded_cmd(dir, args);
    }
    let verify: bool = opt_parse(args, "verify", false)?;
    let started = std::time::Instant::now();
    let (mut engine, report) =
        lemp_store::recover(dir).map_err(|e| format!("cannot recover {}: {e}", dir.display()))?;
    let elapsed = started.elapsed().as_secs_f64();
    eprintln!(
        "recovered {} live probes (dim {}) in {elapsed:.3}s: snapshot LSN {}, {} records \
         replayed across {} segments, next LSN {}",
        report.live_probes,
        engine.dim(),
        report.snapshot_lsn,
        report.records_replayed,
        report.segments_scanned,
        report.next_lsn,
    );
    if let Some(detail) = &report.torn_tail {
        eprintln!("torn WAL tail ignored: {detail}");
    }
    if let Some(out) = opt(args, "out") {
        if !out.ends_with(".eng") {
            return Err(format!("engine images use the .eng extension, got {out:?}"));
        }
        engine.save(Path::new(out)).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("saved recovered engine -> {out}");
    }
    if verify {
        let (ids, live) = engine.live_vectors();
        verify_recovered(&mut engine, &ids, &live)?;
    }
    Ok(())
}

/// `recover` on a sharded store directory: recover every shard and
/// reassemble the full [`ShardedLemp`], report per-shard detail,
/// optionally save the reassembled image and gate its answers against
/// the naive baseline.
fn recover_sharded_cmd(dir: &Path, args: &[String]) -> Result<(), String> {
    let verify: bool = opt_parse(args, "verify", false)?;
    let started = std::time::Instant::now();
    let (mut engine, report) = lemp_store::recover_sharded(dir)
        .map_err(|e| format!("cannot recover {}: {e}", dir.display()))?;
    let elapsed = started.elapsed().as_secs_f64();
    eprintln!(
        "recovered {} live probes (dim {}) across {} shards in {elapsed:.3}s: {} records \
         replayed, policy {:?}",
        report.live_probes(),
        engine.dim(),
        report.shards.len(),
        report.records_replayed(),
        engine.policy_kind(),
    );
    for (i, shard) in report.shards.iter().enumerate() {
        eprintln!(
            "  shard {i}: {} live probes, snapshot LSN {}, {} records replayed across {} \
             segments, next LSN {}",
            shard.live_probes,
            shard.snapshot_lsn,
            shard.records_replayed,
            shard.segments_scanned,
            shard.next_lsn,
        );
        if let Some(detail) = &shard.torn_tail {
            eprintln!("  shard {i}: torn WAL tail ignored: {detail}");
        }
    }
    if let Some(out) = opt(args, "out") {
        if !out.ends_with(".eng") {
            return Err(format!("engine images use the .eng extension, got {out:?}"));
        }
        engine.save(Path::new(out)).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("saved recovered sharded engine -> {out}");
    }
    if verify {
        let (ids, live) = engine.live_vectors();
        verify_recovered(&mut engine, &ids, &live)?;
    }
    Ok(())
}

/// The `recover verify=true` gate: the recovered engine's Row-Top-k and
/// Above-θ answers must match the naive baseline over its own live
/// vectors — the CI crash drills run this after SIGKILLing a durable
/// server. Generic over the backend via [`Engine`], so the single and
/// sharded recovery paths share one gate; `ids[i]` is the global id of
/// row `i` in `live`.
fn verify_recovered(
    engine: &mut dyn Engine,
    ids: &[u32],
    live: &VectorStore,
) -> Result<(), String> {
    use lemp_baselines::types::{canonical_pairs, topk_equivalent};
    use lemp_linalg::ScoredItem;
    if live.is_empty() {
        eprintln!("verify: store is empty, nothing to check");
        return Ok(());
    }
    // Queries: a strided sample of the live vectors themselves (same
    // latent space, covers the length spectrum).
    let rows = live.len().min(48);
    let stride = (live.len() / rows).max(1);
    let picks: Vec<usize> = (0..rows).map(|i| (i * stride) % live.len()).collect();
    let queries = live.select(&picks);
    let k = 10.min(live.len());
    let (naive, _) = Naive.row_top_k(&queries, live, k);
    let mapped: Vec<Vec<ScoredItem>> = naive
        .iter()
        .map(|l| {
            l.iter().map(|it| ScoredItem { id: ids[it.id] as usize, score: it.score }).collect()
        })
        .collect();
    let topk = QueryKind::TopK { k };
    engine.warm_up(&queries, topk.warm_goal());
    let plan = engine.plan(&QueryRequest::new(topk));
    let mut scratch = engine.query_scratch();
    let out = match engine.execute(&plan, &queries, &mut scratch).rows {
        QueryRows::Lists(lists) => lists,
        QueryRows::Entries(_) => unreachable!("top-k plans yield lists"),
    };
    if !topk_equivalent(&out, &mapped, 1e-9) {
        return Err("verify: recovered Row-Top-k answers diverge from the naive baseline".into());
    }
    // Above-θ at a threshold that bites: the median top-1 score.
    let mut tops: Vec<f64> = naive.iter().filter_map(|l| l.first().map(|it| it.score)).collect();
    tops.sort_by(f64::total_cmp);
    let theta = tops[tops.len() / 2];
    let (expect, _) = Naive.above_theta(&queries, live, theta);
    let mut expect: Vec<(u32, u32)> =
        expect.iter().map(|e| (e.query, ids[e.probe as usize])).collect();
    expect.sort_unstable();
    let above = QueryKind::AboveTheta { theta };
    engine.warm_up(&queries, above.warm_goal());
    let plan = engine.plan(&QueryRequest::new(above));
    let got = match engine.execute(&plan, &queries, &mut scratch).rows {
        QueryRows::Entries(entries) => entries,
        QueryRows::Lists(_) => unreachable!("above-θ plans yield entries"),
    };
    if canonical_pairs(&got) != expect {
        return Err("verify: recovered Above-θ answers diverge from the naive baseline".into());
    }
    eprintln!(
        "verify: {} queries checked against Naive (top-{k} and Above-θ at {theta:.4}) — exact",
        queries.len()
    );
    Ok(())
}

/// `compact`: fold a store's WAL into a fresh snapshot and prune the
/// segments (and older snapshots) the new checkpoint covers. A sharded
/// store compacts shard by shard (each shard's snapshot + marker + prune
/// sequence is independently crash-safe).
fn compact_cmd(args: &[String]) -> Result<(), String> {
    use lemp_store::{DurableEngine, ShardedDurableEngine, StoreOptions};
    let dir = Path::new(positional(args, 0)?);
    let started = std::time::Instant::now();
    if lemp_store::is_sharded_store(dir) {
        let (mut store, report) = ShardedDurableEngine::open(dir, StoreOptions::default())
            .map_err(|e| format!("cannot open sharded store {}: {e}", dir.display()))?;
        eprintln!(
            "opened sharded store {}: {} live probes across {} shards, {} records replayed",
            dir.display(),
            report.live_probes(),
            report.shards.len(),
            report.records_replayed(),
        );
        let reports = store.compact().map_err(|e| format!("compaction failed: {e}"))?;
        let elapsed = started.elapsed().as_secs_f64();
        for (i, c) in reports.iter().enumerate() {
            eprintln!(
                "  shard {i}: compacted at LSN {} ({} segments and {} snapshots pruned, {} \
                 bytes reclaimed)",
                c.lsn, c.segments_pruned, c.snapshots_pruned, c.bytes_reclaimed,
            );
        }
        let reclaimed: u64 = reports.iter().map(|c| c.bytes_reclaimed).sum();
        eprintln!(
            "compacted {} shards in {elapsed:.3}s ({reclaimed} bytes reclaimed)",
            reports.len()
        );
        return Ok(());
    }
    let (mut store, report) = DurableEngine::open(dir, StoreOptions::default())
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    eprintln!(
        "opened store {}: {} live probes, {} records replayed, next LSN {}",
        dir.display(),
        report.live_probes,
        report.records_replayed,
        report.next_lsn,
    );
    let compaction = store.compact().map_err(|e| format!("compaction failed: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    eprintln!(
        "compacted at LSN {} in {elapsed:.3}s: pruned {} segments and {} snapshots \
         ({} bytes reclaimed)",
        compaction.lsn,
        compaction.segments_pruned,
        compaction.snapshots_pruned,
        compaction.bytes_reclaimed,
    );
    Ok(())
}

fn self_join(args: &[String]) -> Result<(), String> {
    let vectors = load(positional(args, 0)?)?;
    let t: f64 = opt_require(args, "t")?;
    if !(0.0 < t && t <= 1.0) {
        return Err(format!("self-join threshold must lie in (0, 1], got {t}"));
    }
    let started = std::time::Instant::now();
    let result = lemp_apss::cosine_self_join(&vectors, t);
    let elapsed = started.elapsed().as_secs_f64();
    let mut out = sink(args)?;
    writeln!(out, "i,j,cosine").map_err(|e| e.to_string())?;
    for &(i, j, sim) in &result.pairs {
        writeln!(out, "{i},{j},{sim:?}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "{} pairs with cosine ≥ {t} among {} vectors ({} candidates verified, {elapsed:.3}s)",
        result.pairs.len(),
        vectors.len(),
        result.candidates
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    fn temp(tag: &str, ext: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lemp-cli-test-{tag}-{}.{ext}", std::process::id()));
        p
    }

    fn write_csv_matrix(path: &Path, rows: &[&str]) {
        std::fs::write(path, rows.join("\n")).unwrap();
    }

    #[test]
    fn opt_and_positional_parsing() {
        let args = s(&["topk", "q.csv", "p.csv", "k=5", "out=res.csv"]);
        assert_eq!(opt(&args, "k"), Some("5"));
        assert_eq!(opt(&args, "out"), Some("res.csv"));
        assert_eq!(opt(&args, "missing"), None);
        assert_eq!(positional(&args, 0).unwrap(), "q.csv");
        assert_eq!(positional(&args, 1).unwrap(), "p.csv");
        assert!(positional(&args, 2).is_err());
    }

    #[test]
    fn opt_parse_defaults_and_errors() {
        let args = s(&["above", "threads=3"]);
        assert_eq!(opt_parse(&args, "threads", 1usize).unwrap(), 3);
        assert_eq!(opt_parse(&args, "chunk", 7usize).unwrap(), 7);
        let bad = s(&["above", "threads=lots"]);
        assert!(opt_parse(&bad, "threads", 1usize).unwrap_err().contains("bad threads"));
        assert!(opt_require::<usize>(&bad, "k").unwrap_err().contains("missing required"));
    }

    #[test]
    fn variant_names_parse_case_insensitively() {
        assert_eq!(parse_variant("li").unwrap().name(), "LEMP-LI");
        assert_eq!(parse_variant("TREE").unwrap().name(), "LEMP-Tree");
        assert!(parse_variant("nope").is_err());
    }

    #[test]
    fn format_detection_by_extension() {
        assert_eq!(format_of(Path::new("a.bin")), Format::Binary);
        assert_eq!(format_of(Path::new("a.mtx")), Format::MatrixMarket);
        assert_eq!(format_of(Path::new("a.csv")), Format::Csv);
        assert_eq!(format_of(Path::new("a")), Format::Csv);
    }

    #[test]
    fn unknown_subcommand_and_missing_args() {
        assert!(run(&s(&["frobnicate"])).unwrap_err().contains("unknown subcommand"));
        assert!(run(&[]).unwrap_err().contains("missing subcommand"));
        assert!(run(&s(&["above"])).unwrap_err().contains("positional"));
    }

    #[test]
    fn end_to_end_topk_on_csv_files() {
        let q = temp("e2e-q", "csv");
        let p = temp("e2e-p", "csv");
        let out = temp("e2e-out", "csv");
        write_csv_matrix(&q, &["1,0", "0,1"]);
        write_csv_matrix(&p, &["2,0", "0,3", "1,1"]);
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=1",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let lists = export::read_topk_csv(std::fs::File::open(&out).unwrap()).unwrap();
        assert_eq!(lists[0][0].id, 0); // q0=(1,0): best probe (2,0)
        assert_eq!(lists[1][0].id, 1); // q1=(0,1): best probe (0,3)
        for f in [&q, &p, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn end_to_end_above_with_chunking_matches_monolithic() {
        let q = temp("chunk-q", "csv");
        let p = temp("chunk-p", "csv");
        let out1 = temp("chunk-out1", "csv");
        let out2 = temp("chunk-out2", "csv");
        write_csv_matrix(&q, &["1,0", "0,1", "2,2"]);
        write_csv_matrix(&p, &["2,0", "0,3", "1,1"]);
        let base = ["above", q.to_str().unwrap(), p.to_str().unwrap(), "theta=1.5"];
        run(&s(&[&base[..], &[&format!("out={}", out1.display())]].concat())).unwrap();
        run(&s(&[&base[..], &[&format!("out={}", out2.display()), "chunk=1"]].concat())).unwrap();
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap()
        );
        for f in [&q, &p, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn convert_roundtrips_through_all_formats() {
        let csv = temp("conv", "csv");
        let bin = temp("conv", "bin");
        let mtx = temp("conv", "mtx");
        let back = temp("conv-back", "csv");
        write_csv_matrix(&csv, &["1,2.5", "-3,0"]);
        run(&s(&["convert", csv.to_str().unwrap(), bin.to_str().unwrap()])).unwrap();
        run(&s(&["convert", bin.to_str().unwrap(), mtx.to_str().unwrap()])).unwrap();
        run(&s(&["convert", mtx.to_str().unwrap(), back.to_str().unwrap()])).unwrap();
        let a = mio::read_csv(&csv).unwrap();
        let b = mio::read_csv(&back).unwrap();
        assert_eq!(a, b);
        // coordinate layout as well
        run(&s(&["convert", csv.to_str().unwrap(), mtx.to_str().unwrap(), "mm-layout=coordinate"]))
            .unwrap();
        assert_eq!(mm::read_mm(&mtx).unwrap(), a);
        assert!(run(&s(&[
            "convert",
            csv.to_str().unwrap(),
            mtx.to_str().unwrap(),
            "mm-layout=banana",
        ]))
        .is_err());
        for f in [&csv, &bin, &mtx, &back] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn generate_then_stats_and_tune_report() {
        let q = temp("gen-q", "bin");
        let p = temp("gen-p", "bin");
        run(&s(&[
            "generate",
            "netflix",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "scale=0.002",
            "seed=7",
        ]))
        .unwrap();
        run(&s(&["stats", p.to_str().unwrap()])).unwrap();
        run(&s(&["tune-report", q.to_str().unwrap(), p.to_str().unwrap(), "k=3"])).unwrap();
        // exactly one of theta/k
        assert!(run(&s(&["tune-report", q.to_str().unwrap(), p.to_str().unwrap(),])).is_err());
        assert!(run(&s(&[
            "tune-report",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "theta=1.0",
            "k=3",
        ]))
        .is_err());
        for f in [&q, &p] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn approx_topk_all_methods_run() {
        let q = temp("ax-q", "csv");
        let p = temp("ax-p", "csv");
        let out = temp("ax-out", "csv");
        let qrows: Vec<String> =
            (0..8).map(|i| format!("{},{}", 1.0 + i as f64 * 0.1, i as f64 * 0.2)).collect();
        let prows: Vec<String> =
            (0..30).map(|i| format!("{},{}", (i % 5) as f64, (i % 7) as f64 * 0.5)).collect();
        std::fs::write(&q, qrows.join("\n")).unwrap();
        std::fs::write(&p, prows.join("\n")).unwrap();
        for method in ["srp", "pca", "centroid"] {
            run(&s(&[
                "approx-topk",
                q.to_str().unwrap(),
                p.to_str().unwrap(),
                "k=2",
                &format!("method={method}"),
                "verify=true",
                &format!("out={}", out.display()),
            ]))
            .unwrap();
            let lists = export::read_topk_csv(std::fs::File::open(&out).unwrap()).unwrap();
            assert!(!lists.is_empty(), "{method} produced no output");
        }
        assert!(run(&s(&[
            "approx-topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=2",
            "method=magic",
        ]))
        .is_err());
        for f in [&q, &p, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn abs_above_reports_both_signs() {
        let q = temp("abs-q", "csv");
        let p = temp("abs-p", "csv");
        let out = temp("abs-out", "csv");
        write_csv_matrix(&q, &["1,0"]);
        write_csv_matrix(&p, &["2,0", "-2,0", "0,1"]);
        run(&s(&[
            "above",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "theta=1.5",
            "abs=true",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let entries = export::read_entries_csv(std::fs::File::open(&out).unwrap()).unwrap();
        let mut values: Vec<f64> = entries.iter().map(|e| e.value).collect();
        values.sort_by(f64::total_cmp);
        assert_eq!(values, vec![-2.0, 2.0]);
        // abs composes with chunked and adaptive execution (all exact):
        // the unified QueryRequest path answers identically.
        let expect = std::fs::read_to_string(&out).unwrap();
        let base = ["above", q.to_str().unwrap(), p.to_str().unwrap(), "theta=1.5", "abs=true"];
        for extra in [["chunk=1"], ["adaptive=ucb1"]] {
            run(&s(&[&base[..], &[extra[0], &format!("out={}", out.display())]].concat())).unwrap();
            assert_eq!(std::fs::read_to_string(&out).unwrap(), expect, "{extra:?} diverges");
        }
        for f in [&q, &p, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn topk_floor_truncates_lists() {
        let q = temp("floor-q", "csv");
        let p = temp("floor-p", "csv");
        let out = temp("floor-out", "csv");
        write_csv_matrix(&q, &["1,0"]);
        write_csv_matrix(&p, &["3,0", "2,0", "1,0"]);
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=3",
            "floor=1.5",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let lists = export::read_topk_csv(std::fs::File::open(&out).unwrap()).unwrap();
        assert_eq!(lists[0].len(), 2, "only values 3 and 2 reach the floor");
        assert!(lists[0].iter().all(|i| i.score >= 1.5));
        // floor composes with chunked and adaptive execution, exactly.
        let expect = std::fs::read_to_string(&out).unwrap();
        let base = ["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=3", "floor=1.5"];
        for extra in [["chunk=1"], ["adaptive=ucb1"]] {
            run(&s(&[&base[..], &[extra[0], &format!("out={}", out.display())]].concat())).unwrap();
            assert_eq!(std::fs::read_to_string(&out).unwrap(), expect, "{extra:?} diverges");
        }
        for f in [&q, &p, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn adaptive_policies_match_tuned_results() {
        let q = temp("adapt-q", "csv");
        let p = temp("adapt-p", "csv");
        let out1 = temp("adapt-out1", "csv");
        let out2 = temp("adapt-out2", "csv");
        let qrows: Vec<String> =
            (0..6).map(|i| format!("{},{}", 1.0 + i as f64 * 0.3, 2.0 - i as f64 * 0.2)).collect();
        // Distinct values everywhere so the top-k boundary has no ties (tied
        // boundaries may legally differ between drivers).
        let prows: Vec<String> = (0..40)
            .map(|i| format!("{},{}", 0.5 + i as f64 * 0.13, ((i * 7) % 11) as f64 * 0.4))
            .collect();
        std::fs::write(&q, qrows.join("\n")).unwrap();
        std::fs::write(&p, prows.join("\n")).unwrap();
        let base = ["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=2"];
        run(&s(&[&base[..], &[&format!("out={}", out1.display())]].concat())).unwrap();
        for policy in ["ucb1", "eps-greedy"] {
            run(&s(&[
                &base[..],
                &[&format!("adaptive={policy}"), &format!("out={}", out2.display())],
            ]
            .concat()))
            .unwrap();
            assert_eq!(
                std::fs::read_to_string(&out1).unwrap(),
                std::fs::read_to_string(&out2).unwrap(),
                "{policy} must return the tuned result"
            );
        }
        assert!(run(&s(&[&base[..], &["adaptive=magic"]].concat())).is_err());
        // adaptive + chunked compose through the unified path, exactly.
        run(&s(&[&base[..], &["adaptive=ucb1", "chunk=2", &format!("out={}", out2.display())]]
            .concat()))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap(),
            "adaptive+chunked must return the tuned result"
        );
        for f in [&q, &p, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn topk_k_edge_cases_are_clamped() {
        let q = temp("kedge-q", "csv");
        let p = temp("kedge-p", "csv");
        let out = temp("kedge-out", "csv");
        write_csv_matrix(&q, &["1,0", "0,1"]);
        write_csv_matrix(&p, &["2,0", "0,3", "1,1"]);
        // k beyond the probe count returns every probe, no panic.
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=100",
            "explain=true",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let lists = export::read_topk_csv(std::fs::File::open(&out).unwrap()).unwrap();
        assert!(lists.iter().all(|l| l.len() == 3), "k > n must return every probe");
        // k = 0 returns empty lists, no panic.
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=0",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let lists = export::read_topk_csv(std::fs::File::open(&out).unwrap()).unwrap();
        assert!(lists.iter().all(Vec::is_empty));
        for f in [&q, &p, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let q = temp("dim-q", "csv");
        let p = temp("dim-p", "csv");
        write_csv_matrix(&q, &["1,2,3"]);
        write_csv_matrix(&p, &["1,2"]);
        let err = run(&s(&["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=1"])).unwrap_err();
        assert!(err.contains("dimensionality mismatch"));
        for f in [&q, &p] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn index_then_query_from_engine_image() {
        let q = temp("eng-q", "csv");
        let p = temp("eng-p", "csv");
        let eng = temp("eng", "eng");
        let out1 = temp("eng-out1", "csv");
        let out2 = temp("eng-out2", "csv");
        write_csv_matrix(&q, &["1,0", "0,1"]);
        write_csv_matrix(&p, &["2,0", "0,3", "1,1"]);
        run(&s(&["index", p.to_str().unwrap(), eng.to_str().unwrap()])).unwrap();
        // engine image and fresh build must answer identically
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=2",
            &format!("out={}", out1.display()),
        ]))
        .unwrap();
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            eng.to_str().unwrap(),
            "k=2",
            &format!("out={}", out2.display()),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap()
        );
        // wrong extension is rejected
        assert!(run(&s(&["index", p.to_str().unwrap(), "probes.bin"]))
            .unwrap_err()
            .contains(".eng"));
        for f in [&q, &p, &eng, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn sharded_runs_match_unsharded_runs() {
        let q = temp("shard-q", "csv");
        let p = temp("shard-p", "csv");
        let out1 = temp("shard-out1", "csv");
        let out2 = temp("shard-out2", "csv");
        let qrows: Vec<String> =
            (0..6).map(|i| format!("{},{}", 1.0 + i as f64 * 0.3, 2.0 - i as f64 * 0.2)).collect();
        // Distinct values everywhere so the top-k boundary has no ties.
        let prows: Vec<String> = (0..40)
            .map(|i| format!("{},{}", 0.5 + i as f64 * 0.13, ((i * 7) % 11) as f64 * 0.4))
            .collect();
        std::fs::write(&q, qrows.join("\n")).unwrap();
        std::fs::write(&p, prows.join("\n")).unwrap();
        for (base, sharded_extra) in [
            (vec!["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=3"], "shards=3"),
            (vec!["above", q.to_str().unwrap(), p.to_str().unwrap(), "theta=1.5"], "shards=2"),
        ] {
            run(&s(&[&base[..], &[&format!("out={}", out1.display())]].concat())).unwrap();
            for policy in ["rr", "banded"] {
                run(&s(&[
                    &base[..],
                    &[
                        sharded_extra,
                        &format!("shard-policy={policy}"),
                        &format!("out={}", out2.display()),
                    ],
                ]
                .concat()))
                .unwrap();
                assert_eq!(
                    std::fs::read_to_string(&out1).unwrap(),
                    std::fs::read_to_string(&out2).unwrap(),
                    "sharded {base:?} ({policy}) diverges from unsharded"
                );
            }
        }
        // shards=1 is a legitimate (single-shard) sharded run, not a no-op.
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=3",
            &format!("out={}", out1.display()),
        ]))
        .unwrap();
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=3",
            "shards=1",
            &format!("out={}", out2.display()),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap(),
            "S=1 sharded topk diverges from unsharded"
        );
        // Sharded execution composes with chunked and adaptive runs too —
        // same unified path, same exact answers.
        let base = ["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=3"];
        run(&s(&[&base[..], &[&format!("out={}", out1.display())]].concat())).unwrap();
        for extra in [["chunk=2"], ["adaptive=ucb1"]] {
            run(&s(
                &[&base[..], &["shards=2", extra[0], &format!("out={}", out2.display())]].concat()
            ))
            .unwrap();
            assert_eq!(
                std::fs::read_to_string(&out1).unwrap(),
                std::fs::read_to_string(&out2).unwrap(),
                "sharded {extra:?} diverges from unsharded"
            );
        }
        // Nonsense options are still rejected, not silently ignored.
        let base = ["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=3", "shards=2"];
        assert!(run(&s(&[&base[..], &["shard-policy=magic"]].concat())).is_err());
        // shards=0 and a shard-policy that would be silently dropped error.
        let plain = ["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=3"];
        assert!(run(&s(&[&plain[..], &["shards=0"]].concat())).is_err());
        let err = run(&s(&[&plain[..], &["shard-policy=banded"]].concat())).unwrap_err();
        assert!(err.contains("requires shards"), "{err}");
        for f in [&q, &p, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn sharded_index_then_query_from_manifest() {
        let q = temp("shardeng-q", "csv");
        let p = temp("shardeng-p", "csv");
        let eng = temp("shardeng", "eng");
        let out1 = temp("shardeng-out1", "csv");
        let out2 = temp("shardeng-out2", "csv");
        write_csv_matrix(&q, &["1,0", "0,1"]);
        // All scores distinct for both queries: no k-boundary ties, so the
        // sharded and unsharded id choices must coincide exactly.
        write_csv_matrix(&p, &["2,0", "0,3", "1,1", "0.5,0.5", "3,0.2"]);
        run(&s(&["index", p.to_str().unwrap(), eng.to_str().unwrap(), "shards=2"])).unwrap();
        // The sharded manifest answers identically to a fresh matrix run —
        // no shards= needed at query time, the magic decides.
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=2",
            &format!("out={}", out1.display()),
        ]))
        .unwrap();
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            eng.to_str().unwrap(),
            "k=2",
            &format!("out={}", out2.display()),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap()
        );
        // A manifest's partitioning is baked in: a conflicting shards= or
        // any shard-policy= is rejected, never silently ignored.
        let err = run(&s(&["topk", q.to_str().unwrap(), eng.to_str().unwrap(), "k=2", "shards=3"]))
            .unwrap_err();
        assert!(err.contains("cannot repartition"), "{err}");
        let err = run(&s(&[
            "topk",
            q.to_str().unwrap(),
            eng.to_str().unwrap(),
            "k=2",
            "shard-policy=banded",
        ]))
        .unwrap_err();
        assert!(err.contains("already encodes"), "{err}");
        // ...while the matching shards= is accepted.
        run(&s(&["topk", q.to_str().unwrap(), eng.to_str().unwrap(), "k=2", "shards=2"])).unwrap();
        // shards= on a *single-shard* image cannot repartition either.
        run(&s(&["index", p.to_str().unwrap(), eng.to_str().unwrap()])).unwrap();
        let err = run(&s(&["topk", q.to_str().unwrap(), eng.to_str().unwrap(), "k=2", "shards=2"]))
            .unwrap_err();
        assert!(err.contains("single-shard"), "{err}");
        for f in [&q, &p, &eng, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn recover_and_compact_roundtrip_a_store() {
        use lemp_core::{BucketPolicy, DynamicLemp, RunConfig};
        use lemp_store::{DurableEngine, StoreOptions};
        let dir = std::env::temp_dir().join(format!("lemp-cli-test-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = temp("recovered", "eng");

        // Seed a store and push edits through the durable engine.
        let probes = lemp_data::synthetic::GeneratorConfig::gaussian(40, 4, 1.0).generate(31);
        let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
        let config = RunConfig { sample_size: 4, ..Default::default() };
        let engine = DynamicLemp::new(&probes, policy, config);
        let mut store = DurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
        for i in 0..10 {
            store.insert(&[0.5 + 0.1 * i as f64; 4]).unwrap();
        }
        store.remove(2).unwrap();
        store.remove(5).unwrap();
        drop(store); // simulate an abrupt exit (sync=always: all durable)

        // recover: replays the log, verifies against Naive, saves an image.
        run(&s(&[
            "recover",
            dir.to_str().unwrap(),
            "verify=true",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let recovered = DynamicLemp::load(&out).unwrap();
        assert_eq!(recovered.len(), 48);
        assert!(!recovered.contains(2) && recovered.contains(40));

        // compact, then recover again: same engine, no replay needed.
        run(&s(&["compact", dir.to_str().unwrap()])).unwrap();
        let (post, report) = lemp_store::recover(&dir).unwrap();
        assert_eq!(report.records_replayed, 0, "compaction folded the log away");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        recovered.write_to(&mut a).unwrap();
        post.write_to(&mut b).unwrap();
        assert_eq!(a, b, "compaction changed the recovered engine");
        run(&s(&["recover", dir.to_str().unwrap(), "verify=true"])).unwrap();

        // Structured errors: missing store, bad out extension.
        let nowhere = std::env::temp_dir().join("lemp-cli-no-such-store");
        assert!(run(&s(&["recover", nowhere.to_str().unwrap()])).is_err());
        assert!(run(&s(&["recover", dir.to_str().unwrap(), "out=foo.bin"]))
            .unwrap_err()
            .contains(".eng"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn serve_rejects_conflicting_durability_options() {
        let p = temp("durable-p", "csv");
        write_csv_matrix(&p, &["2,0", "0,3", "1,1"]);
        let dir = std::env::temp_dir().join("lemp-cli-durable-opts");
        let durable = format!("durable={}", dir.display());
        let err = run(&s(&["serve", p.to_str().unwrap(), "sync=always"])).unwrap_err();
        assert!(err.contains("requires durable"), "{err}");
        let err = run(&s(&["serve", p.to_str().unwrap(), &durable, "sync=sometimes"])).unwrap_err();
        assert!(err.contains("sync policy"), "{err}");
        // Quorum knobs are leader-only: they demand replication=<addr>.
        let err =
            run(&s(&["serve", p.to_str().unwrap(), &durable, "sync-replicas=1"])).unwrap_err();
        assert!(err.contains("require replication="), "{err}");
        let err = run(&s(&["serve", p.to_str().unwrap(), &durable, "quorum-timeout-ms=500"]))
            .unwrap_err();
        assert!(err.contains("require replication="), "{err}");
        let err = run(&s(&["serve", p.to_str().unwrap(), "replication=127.0.0.1:0"])).unwrap_err();
        assert!(err.contains("requires durable"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn recover_and_compact_roundtrip_a_sharded_store() {
        use lemp_store::{ShardedDurableEngine, StoreOptions};
        let dir = std::env::temp_dir().join(format!("lemp-cli-shd-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = temp("recovered-shd", "eng");

        // Seed a 3-shard store and route edits through it.
        let probes = lemp_data::synthetic::GeneratorConfig::gaussian(42, 4, 1.0).generate(33);
        let engine =
            ShardedLemp::builder().shards(3).policy(ShardPolicy::RoundRobin).build(&probes);
        let mut store =
            ShardedDurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
        for i in 0..10 {
            store.insert(&[0.5 + 0.1 * i as f64; 4]).unwrap();
        }
        store.remove(2).unwrap();
        store.remove(7).unwrap();
        drop(store); // simulate an abrupt exit (sync=always: all durable)

        // recover dispatches on the sharded layout: replays every shard,
        // verifies against Naive, saves a sharded image.
        run(&s(&[
            "recover",
            dir.to_str().unwrap(),
            "verify=true",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let recovered = ShardedLemp::load(&out).unwrap();
        assert_eq!(recovered.shard_count(), 3);
        assert_eq!(recovered.len(), 50);
        assert!(!recovered.contains(2) && recovered.contains(45));

        // compact folds every shard's log away; a fresh recovery replays
        // nothing and reproduces the same engine bit for bit.
        run(&s(&["compact", dir.to_str().unwrap()])).unwrap();
        let (post, report) = lemp_store::recover_sharded(&dir).unwrap();
        assert_eq!(report.records_replayed(), 0, "compaction folded the logs away");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        recovered.write_to(&mut a).unwrap();
        post.write_to(&mut b).unwrap();
        assert_eq!(a, b, "compaction changed the recovered engine");
        run(&s(&["recover", dir.to_str().unwrap(), "verify=true"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn quantized_runs_match_full_precision_exactly() {
        let q = temp("quant-q", "csv");
        let p = temp("quant-p", "csv");
        let eng = temp("quant", "eng");
        let out1 = temp("quant-out1", "csv");
        let out2 = temp("quant-out2", "csv");
        let qrows: Vec<String> =
            (0..6).map(|i| format!("{},{}", 1.0 + i as f64 * 0.3, 2.0 - i as f64 * 0.2)).collect();
        // Distinct values everywhere so the top-k boundary has no ties.
        let prows: Vec<String> = (0..40)
            .map(|i| format!("{},{}", 0.5 + i as f64 * 0.13, ((i * 7) % 11) as f64 * 0.4))
            .collect();
        std::fs::write(&q, qrows.join("\n")).unwrap();
        std::fs::write(&p, prows.join("\n")).unwrap();
        // Quantized runs re-verify every candidate: bit-identical output,
        // with and without sharding, for both problems.
        for base in [
            vec!["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=3"],
            vec!["above", q.to_str().unwrap(), p.to_str().unwrap(), "theta=1.5"],
        ] {
            run(&s(&[&base[..], &[&format!("out={}", out1.display())]].concat())).unwrap();
            for extra in [vec!["quantize=8"], vec!["quantize=8", "shards=2"]] {
                let mut argv: Vec<&str> = base.clone();
                argv.extend(extra.iter().copied());
                let out = format!("out={}", out2.display());
                argv.push(&out);
                run(&s(&argv)).unwrap();
                assert_eq!(
                    std::fs::read_to_string(&out1).unwrap(),
                    std::fs::read_to_string(&out2).unwrap(),
                    "quantized {base:?} {extra:?} diverges from full precision"
                );
            }
        }
        // quantize=off is the explicit default.
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=3",
            "quantize=off",
            &format!("out={}", out2.display()),
        ]))
        .unwrap();
        // A quantized image persists its codebooks and answers identically.
        run(&s(&["index", p.to_str().unwrap(), eng.to_str().unwrap(), "quantize=8"])).unwrap();
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "k=3",
            &format!("out={}", out1.display()),
        ]))
        .unwrap();
        run(&s(&[
            "topk",
            q.to_str().unwrap(),
            eng.to_str().unwrap(),
            "k=3",
            &format!("out={}", out2.display()),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&out1).unwrap(),
            std::fs::read_to_string(&out2).unwrap(),
            "quantized image diverges from a fresh full-precision run"
        );
        // Hostile inputs are structured errors, never panics.
        let base = ["topk", q.to_str().unwrap(), p.to_str().unwrap(), "k=3"];
        for bad in ["quantize=0", "quantize=17", "quantize=256", "quantize=-8", "quantize=lots"] {
            let err = run(&s(&[&base[..], &[bad]].concat())).unwrap_err();
            assert!(err.contains("bad quantize"), "{bad}: {err}");
        }
        // quantize= on a prebuilt image is rejected, not silently dropped.
        let err =
            run(&s(&["topk", q.to_str().unwrap(), eng.to_str().unwrap(), "k=3", "quantize=8"]))
                .unwrap_err();
        assert!(err.contains("already encodes"), "{err}");
        for f in [&q, &p, &eng, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn self_join_finds_parallel_vectors() {
        let m = temp("sj", "csv");
        let out = temp("sj-out", "csv");
        write_csv_matrix(&m, &["1,0", "2,0", "0,1", "1,1"]);
        run(&s(&["self-join", m.to_str().unwrap(), "t=0.99", &format!("out={}", out.display())]))
            .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "i,j,cosine");
        assert_eq!(lines.len(), 2, "only the two parallel vectors match: {text}");
        assert!(lines[1].starts_with("0,1,"));
        // threshold validation
        assert!(run(&s(&["self-join", m.to_str().unwrap(), "t=0"])).is_err());
        assert!(run(&s(&["self-join", m.to_str().unwrap(), "t=1.5"])).is_err());
        for f in [&m, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn topn_returns_global_largest_entries() {
        let q = temp("topn-q", "csv");
        let p = temp("topn-p", "csv");
        let out = temp("topn-out", "csv");
        write_csv_matrix(&q, &["1,0", "0,2"]);
        write_csv_matrix(&p, &["3,0", "0,1", "1,1"]);
        run(&s(&[
            "topn",
            q.to_str().unwrap(),
            p.to_str().unwrap(),
            "n=2",
            &format!("out={}", out.display()),
        ]))
        .unwrap();
        let entries = export::read_entries_csv(std::fs::File::open(&out).unwrap()).unwrap();
        assert_eq!(entries.len(), 2);
        // largest product entries: q0·p0 = 3, q1·p1 = 2 (and q1·p2 = 2 ties)
        assert_eq!(entries[0].value, 3.0);
        assert_eq!(entries[1].value, 2.0);
        for f in [&q, &p, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn dataset_names_parse() {
        assert!(parse_dataset("IE-NMF").is_ok());
        assert!(parse_dataset("ie-svd").is_ok());
        assert!(parse_dataset("netflix").is_ok());
        assert!(parse_dataset("kdd").is_ok());
        assert!(parse_dataset("movielens").is_err());
    }
}
