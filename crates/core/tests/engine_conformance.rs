//! Engine-trait conformance: every [`QueryKind`] × [`ExecOptions`]
//! combination, through `dyn Engine`, for all three engine backends —
//! asserted bit-identical to the classic (pre-refactor) entry points and
//! consistent with the naive baseline.
//!
//! This is the differential gate of the unified query surface: the planned
//! `request → plan → execute` path must return exactly what the direct
//! `above_theta_shared` / `row_top_k_shared` / floor / abs / adaptive
//! methods return, for [`Lemp`], [`DynamicLemp`] and [`ShardedLemp`]
//! alike. Above-θ entry values are compared bit-for-bit; Row-Top-k scores
//! are compared with tolerance 0.0 (bit-exact scores; at a tied k-boundary
//! the retained *ids* may legally differ between exact runs, never the
//! scores).

use lemp_baselines::types::{topk_equivalent, Entry, TopKLists};
use lemp_baselines::Naive;
use lemp_core::shard::ShardPolicy;
use lemp_core::{
    AdaptiveConfig, DynamicLemp, Engine, ExecOptions, Lemp, QueryKind, QueryRequest, QueryRows,
    ShardedLemp, WarmGoal,
};
use lemp_core::{BucketPolicy, RunConfig};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::VectorStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;
const K: usize = 4;
const THETA: f64 = 1.0;

fn fixture() -> (VectorStore, VectorStore) {
    let q = GeneratorConfig::gaussian(30, DIM, 1.0).generate(9000);
    let p = GeneratorConfig::gaussian(220, DIM, 1.2).generate(9001);
    (q, p)
}

/// A floor that bites: the median 3rd-best value, nudged off the exact
/// score so the comparison is insensitive to one-ulp formula differences.
fn biting_floor(q: &VectorStore, p: &VectorStore) -> f64 {
    let (full, _) = Naive.row_top_k(q, p, 3);
    let mut thirds: Vec<f64> = full.iter().filter(|l| l.len() >= 3).map(|l| l[2].score).collect();
    thirds.sort_by(f64::total_cmp);
    thirds[thirds.len() / 2] + 1e-7
}

/// The three warmed backends behind one trait-object handle each.
fn engines(q: &VectorStore, p: &VectorStore) -> Vec<(&'static str, Box<dyn Engine>)> {
    let mut single = Lemp::builder().sample_size(8).build(p);
    single.warm(q, WarmGoal::TopK(K));

    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(p, BucketPolicy::default(), config);
    dynamic.warm(q, WarmGoal::TopK(K));

    let mut sharded =
        ShardedLemp::builder().shards(3).policy(ShardPolicy::LengthBanded).sample_size(8).build(p);
    sharded.warm(q, WarmGoal::TopK(K));

    vec![
        ("Lemp", Box::new(single) as Box<dyn Engine>),
        ("DynamicLemp", Box::new(dynamic)),
        ("ShardedLemp", Box::new(sharded)),
    ]
}

fn kinds(floor: f64) -> Vec<QueryKind> {
    vec![
        QueryKind::AboveTheta { theta: THETA },
        QueryKind::AbsAboveTheta { theta: THETA },
        QueryKind::TopK { k: K },
        QueryKind::TopKWithFloor { k: K, floor },
    ]
}

fn option_sets() -> Vec<(&'static str, ExecOptions)> {
    let adaptive = AdaptiveConfig::default();
    vec![
        ("tuned", ExecOptions::default()),
        ("chunked", ExecOptions { chunk: Some(7), ..Default::default() }),
        ("adaptive", ExecOptions { adaptive: Some(adaptive), ..Default::default() }),
        ("adaptive+chunked", ExecOptions { adaptive: Some(adaptive), chunk: Some(5) }),
    ]
}

/// Canonical, bit-comparable form of an entry set.
fn canon(entries: &[Entry]) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> =
        entries.iter().map(|e| (e.query, e.probe, e.value.to_bits())).collect();
    v.sort_unstable();
    v
}

/// Classic entry-point results for all kinds, per engine, computed on the
/// concrete types before they disappear behind `dyn Engine`.
struct Classic {
    above: Vec<(u32, u32, u64)>,
    abs: Vec<(u32, u32, u64)>,
    topk: TopKLists,
    floored: TopKLists,
}

fn classic_for_single(engine: &Lemp, q: &VectorStore, floor: f64) -> Classic {
    let mut scratch = engine.make_scratch();
    Classic {
        above: canon(&engine.above_theta_shared(q, THETA, &mut scratch).entries),
        abs: canon(&engine.abs_above_theta_shared(q, THETA, &mut scratch).entries),
        topk: engine.row_top_k_shared(q, K, &mut scratch).lists,
        floored: engine.row_top_k_with_floor_shared(q, K, floor, &mut scratch).lists,
    }
}

fn classic_for_dynamic(engine: &DynamicLemp, q: &VectorStore, floor: f64) -> Classic {
    let mut scratch = engine.make_scratch();
    Classic {
        above: canon(&engine.above_theta_shared(q, THETA, &mut scratch).entries),
        abs: canon(&engine.abs_above_theta_shared(q, THETA, &mut scratch).entries),
        topk: engine.row_top_k_shared(q, K, &mut scratch).lists,
        floored: engine.row_top_k_with_floor_shared(q, K, floor, &mut scratch).lists,
    }
}

fn classic_for_sharded(engine: &ShardedLemp, q: &VectorStore, floor: f64) -> Classic {
    let mut scratch = engine.make_scratch();
    Classic {
        above: canon(&engine.above_theta_shared(q, THETA, &mut scratch).entries),
        abs: canon(&engine.abs_above_theta_shared(q, THETA, &mut scratch).entries),
        topk: engine.row_top_k_shared(q, K, &mut scratch).lists,
        floored: engine.row_top_k_with_floor_shared(q, K, floor, &mut scratch).lists,
    }
}

#[test]
fn every_kind_and_option_matches_the_classic_entry_points() {
    let (q, p) = fixture();
    let floor = biting_floor(&q, &p);

    // Naive ground truth, shared by every engine.
    let (naive_above, _) = Naive.above_theta(&q, &p, THETA);
    let naive_above = canon(&naive_above);
    let (naive_topk, _) = Naive.row_top_k(&q, &p, K);
    assert!(!naive_above.is_empty(), "fixture must produce entries");

    // Each backend is built once; the classic (pre-refactor) entry points
    // run on the concrete type, then the *same instance* answers through
    // the trait object — any divergence is a planned-path defect, not a
    // tuning difference.
    let mut single = Lemp::builder().sample_size(8).build(&p);
    single.warm(&q, WarmGoal::TopK(K));
    let classic_single = classic_for_single(&single, &q, floor);

    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    dynamic.warm(&q, WarmGoal::TopK(K));
    let classic_dynamic = classic_for_dynamic(&dynamic, &q, floor);

    let mut sharded =
        ShardedLemp::builder().shards(3).policy(ShardPolicy::LengthBanded).sample_size(8).build(&p);
    sharded.warm(&q, WarmGoal::TopK(K));
    let classic_sharded = classic_for_sharded(&sharded, &q, floor);

    let backends: Vec<(&str, Box<dyn Engine>, Classic)> = vec![
        ("Lemp", Box::new(single), classic_single),
        ("DynamicLemp", Box::new(dynamic), classic_dynamic),
        ("ShardedLemp", Box::new(sharded), classic_sharded),
    ];

    for (name, boxed, classic) in backends {
        // The classic results themselves must match Naive (sanity).
        assert_eq!(
            classic.above.iter().map(|&(a, b, _)| (a, b)).collect::<Vec<_>>(),
            naive_above.iter().map(|&(a, b, _)| (a, b)).collect::<Vec<_>>(),
            "{name}: classic Above-θ diverges from Naive"
        );
        assert!(
            topk_equivalent(&classic.topk, &naive_topk, 1e-9),
            "{name}: classic Row-Top-k diverges from Naive"
        );

        let engine: &dyn Engine = boxed.as_ref();
        let mut scratch = engine.query_scratch();
        for kind in kinds(floor) {
            for (opt_name, options) in option_sets() {
                let request = QueryRequest { kind, options };
                let plan = engine.plan(&request);
                let response = engine.execute(&plan, &q, &mut scratch);
                let label = format!("{name} / {} / {opt_name}", kind.name());
                match (&response.rows, &kind) {
                    (QueryRows::Entries(entries), QueryKind::AboveTheta { .. }) => {
                        assert_eq!(canon(entries), classic.above, "{label}");
                    }
                    (QueryRows::Entries(entries), QueryKind::AbsAboveTheta { .. }) => {
                        assert_eq!(canon(entries), classic.abs, "{label}");
                    }
                    (QueryRows::Lists(lists), QueryKind::TopK { .. }) => {
                        assert!(topk_equivalent(lists, &classic.topk, 0.0), "{label}");
                    }
                    (QueryRows::Lists(lists), QueryKind::TopKWithFloor { .. }) => {
                        assert!(topk_equivalent(lists, &classic.floored, 0.0), "{label}");
                    }
                    _ => panic!("{label}: response shape does not match the kind"),
                }
                // Uniform statistics: every response reports its work.
                assert_eq!(response.stats.counters.queries, q.len() as u64, "{label}");
                assert!(response.stats.method_mix.total() > 0, "{label}: empty method mix");
            }
        }
    }
}

#[test]
fn quantized_engines_answer_bit_identically_for_every_kind_and_backend() {
    // The quantized differential suite: engines carrying 8-bit probe codes
    // must answer every QueryKind × ExecOptions combination **bit-for-bit**
    // like their full-precision twins, on all three backends. The QUANT
    // scan only prunes with the distortion-lifted bound; verification
    // against the full-precision vectors restores exactness — any
    // divergence here is a broken bound, not a tolerance issue.
    let (q, p) = fixture();
    let floor = biting_floor(&q, &p);

    let mut single = Lemp::builder().sample_size(8).build(&p);
    single.warm(&q, WarmGoal::TopK(K));
    let exact_single = classic_for_single(&single, &q, floor);

    let mut quant_single = Lemp::builder().sample_size(8).quantize(8).build(&p);
    quant_single.warm(&q, WarmGoal::TopK(K));
    assert!(
        quant_single.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
        "warm must train every bucket's codebooks"
    );

    let config = RunConfig { sample_size: 8, quantize_bits: 8, ..Default::default() };
    let mut quant_dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    quant_dynamic.warm(&q, WarmGoal::TopK(K));

    let mut quant_sharded = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .quantize(8)
        .build(&p);
    quant_sharded.warm(&q, WarmGoal::TopK(K));

    let backends: Vec<(&str, Box<dyn Engine>)> = vec![
        ("Lemp+quant", Box::new(quant_single)),
        ("DynamicLemp+quant", Box::new(quant_dynamic)),
        ("ShardedLemp+quant", Box::new(quant_sharded)),
    ];
    for (name, boxed) in backends {
        assert_every_answer_matches(name, boxed.as_ref(), &q, floor, &exact_single);
    }
}

/// Asserts that every [`QueryKind`] × [`ExecOptions`] answer of `engine`
/// is bit-identical to `expect`.
fn assert_every_answer_matches(
    name: &str,
    engine: &dyn Engine,
    q: &VectorStore,
    floor: f64,
    expect: &Classic,
) {
    let mut scratch = engine.query_scratch();
    for kind in kinds(floor) {
        for (opt_name, options) in option_sets() {
            let request = QueryRequest { kind, options };
            let plan = engine.plan(&request);
            let response = engine.execute(&plan, q, &mut scratch);
            let label = format!("{name} / {} / {opt_name}", kind.name());
            match (&response.rows, &kind) {
                (QueryRows::Entries(entries), QueryKind::AboveTheta { .. }) => {
                    assert_eq!(canon(entries), expect.above, "{label}");
                }
                (QueryRows::Entries(entries), QueryKind::AbsAboveTheta { .. }) => {
                    assert_eq!(canon(entries), expect.abs, "{label}");
                }
                (QueryRows::Lists(lists), QueryKind::TopK { .. }) => {
                    assert!(topk_equivalent(lists, &expect.topk, 0.0), "{label}");
                }
                (QueryRows::Lists(lists), QueryKind::TopKWithFloor { .. }) => {
                    assert!(topk_equivalent(lists, &expect.floored, 0.0), "{label}");
                }
                _ => panic!("{label}: response shape does not match the kind"),
            }
        }
    }
}

/// One step of a churn script.
enum Edit {
    Insert(Vec<f64>),
    Remove(u32),
}

/// A seeded insert/remove script over the ids of `p` (inserts take ids
/// from `p.len()` on). Inserted vectors lie far outside the Gaussian
/// fixture the codebooks trained on — signed axes, sparse non-negative
/// rows, 40× longer copies — or carry exact ties (duplicates, constant
/// rows) and ±0.0 coordinates. Most are long enough to enter the answers,
/// so a bound that is too tight for them shows as a missing result.
fn churn_script(p: &VectorStore, seed: u64) -> Vec<Edit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sparse = GeneratorConfig::sparse(60, DIM, 1.0, 0.3).generate(seed);
    let mut live: Vec<u32> = (0..p.len() as u32).collect();
    let mut next = p.len() as u32;
    let mut script = Vec::new();
    for step in 0..180 {
        if step % 3 == 2 {
            let id = live.swap_remove(rng.random_range(0..live.len()));
            script.push(Edit::Remove(id));
            continue;
        }
        let base = p.vector(rng.random_range(0..p.len()));
        let sign = if rng.random_range(0..2) == 0 { 1.0 } else { -1.0 };
        let scale = rng.random_range(1.0..4.0);
        let v: Vec<f64> = match rng.random_range(0..6) {
            0 => {
                let mut axis = vec![0.0; DIM];
                axis[rng.random_range(0..DIM)] = sign * scale;
                axis
            }
            1 => {
                sparse.vector(rng.random_range(0..sparse.len())).iter().map(|x| scale * x).collect()
            }
            2 => base.iter().map(|x| 40.0 * x).collect(),
            3 => base.to_vec(),
            4 => vec![sign * 0.3 * scale; DIM],
            _ => base
                .iter()
                .enumerate()
                .map(|(f, &x)| match f % 3 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => scale * x,
                })
                .collect(),
        };
        script.push(Edit::Insert(v));
        live.push(next);
        next += 1;
    }
    script
}

/// Applies a churn script through an engine's `insert`/`remove`. Both
/// backends allocate ids sequentially, so every engine given the same
/// script holds the same stable ids.
macro_rules! apply {
    ($script:expr, $engine:expr) => {
        for edit in $script {
            match edit {
                Edit::Insert(v) => drop($engine.insert(v).unwrap()),
                Edit::Remove(id) => assert!($engine.remove(*id), "remove {id}"),
            }
        }
    };
}

#[test]
fn quantized_engines_stay_bit_identical_through_churn() {
    // Warm trains the engine's codebook on a sample of the Gaussian
    // fixture; the churn then encodes far-off, tied and ±0.0 directions
    // into it without training, also where an edit opens, splits or drains
    // a bucket. The per-probe distortion bounds must keep every answer
    // exact. QUANT is forced so every reachable bucket scans through the
    // codes.
    let (q, p) = fixture();
    let script = churn_script(&p, 77);

    let config =
        RunConfig { sample_size: 8, quantize_bits: 8, quantize_force: true, ..Default::default() };
    let mut quant_dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    quant_dynamic.warm(&q, WarmGoal::TopK(K));
    apply!(&script, quant_dynamic);

    let mut quant_sharded = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .quantize(8)
        .quantize_force(true)
        .build(&p);
    quant_sharded.warm(&q, WarmGoal::TopK(K));
    apply!(&script, quant_sharded);

    // The exact reference: an unquantized engine over the same live probes
    // (same script, so the same stable ids), itself checked against Naive.
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut exact = DynamicLemp::new(&p, BucketPolicy::default(), config);
    apply!(&script, exact);
    exact.warm(&q, WarmGoal::TopK(K));
    let (ids, live) = exact.live_vectors();
    let floor = biting_floor(&q, &live);
    let expect = classic_for_dynamic(&exact, &q, floor);
    let (naive_above, _) = Naive.above_theta(&q, &live, THETA);
    let naive: Vec<(u32, u32, u64)> = canon(
        &naive_above
            .iter()
            .map(|e| Entry { probe: ids[e.probe as usize], ..*e })
            .collect::<Vec<_>>(),
    );
    assert!(!naive.is_empty(), "fixture must produce entries");
    assert_eq!(expect.above, naive, "exact reference diverges from Naive");

    for (name, engine) in [
        ("DynamicLemp+quant", &quant_dynamic as &dyn Engine),
        ("ShardedLemp+quant", &quant_sharded),
    ] {
        let mut scratch = engine.query_scratch();
        let response = engine.run(&QueryRequest::top_k(K), &q, &mut scratch);
        assert!(response.stats.method_mix.quant > 0, "{name}: QUANT never ran");
        assert_every_answer_matches(name, engine, &q, floor, &expect);
    }
}

#[test]
fn forced_quantization_survives_a_rebuild() {
    // A rebuild trains a fresh codebook and encodes every bucket of the
    // compacted layout. Under `quantize_force` the engine must keep
    // scanning those buckets through QUANT with no re-warm, as the forced
    // tuner routes them, and every answer must stay exact.
    let (q, p) = fixture();
    let script = churn_script(&p, 79);
    let config =
        RunConfig { sample_size: 8, quantize_bits: 8, quantize_force: true, ..Default::default() };
    let mut quant_dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    quant_dynamic.warm(&q, WarmGoal::TopK(K));
    apply!(&script, quant_dynamic);
    quant_dynamic.rebuild();

    let mut quant_sharded = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .quantize(8)
        .quantize_force(true)
        .build(&p);
    quant_sharded.warm(&q, WarmGoal::TopK(K));
    apply!(&script, quant_sharded);
    quant_sharded.rebuild();

    // Unforced, the tuned picks reset as documented: no QUANT until the
    // next warm re-tunes.
    let config = RunConfig { sample_size: 8, quantize_bits: 8, ..Default::default() };
    let mut unforced = DynamicLemp::new(&p, BucketPolicy::default(), config);
    unforced.warm(&q, WarmGoal::TopK(K));
    unforced.rebuild();
    let mut scratch = unforced.query_scratch();
    let response = unforced.run(&QueryRequest::top_k(K), &q, &mut scratch);
    assert_eq!(response.stats.method_mix.quant, 0, "unforced picks reset on rebuild");

    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut exact = DynamicLemp::new(&p, BucketPolicy::default(), config);
    apply!(&script, exact);
    exact.warm(&q, WarmGoal::TopK(K));
    let (_, live) = exact.live_vectors();
    let floor = biting_floor(&q, &live);
    let expect = classic_for_dynamic(&exact, &q, floor);
    for (name, engine) in [
        ("DynamicLemp+quant", &quant_dynamic as &dyn Engine),
        ("ShardedLemp+quant", &quant_sharded),
    ] {
        let mut scratch = engine.query_scratch();
        let response = engine.run(&QueryRequest::top_k(K), &q, &mut scratch);
        assert!(response.stats.method_mix.quant > 0, "{name}: QUANT stopped after the rebuild");
        assert_every_answer_matches(name, engine, &q, floor, &expect);
    }
}

/// One-row query stores, so consecutive calls on different engines see
/// the same query direction back to back.
fn rows(q: &VectorStore) -> Vec<VectorStore> {
    q.iter().map(|row| VectorStore::from_rows(&[row.to_vec()]).unwrap()).collect()
}

/// An exact (unquantized) engine over `e`'s live probes, plus the map from
/// its row ids back to `e`'s stable ids.
fn exact_twin(e: &DynamicLemp, q: &VectorStore) -> (Vec<u32>, Lemp) {
    let (ids, live) = e.live_vectors();
    let mut twin = Lemp::builder().sample_size(8).build(&live);
    twin.warm(q, WarmGoal::TopK(K));
    (ids, twin)
}

/// Asserts `got` answers the one-row query `row` bit-identically to the
/// exact twin (Row-Top-k lists and Above-θ entries, ids mapped back).
fn assert_matches_twin(
    label: &str,
    got: (TopKLists, Vec<Entry>),
    twin: &(Vec<u32>, Lemp),
    row: &VectorStore,
) {
    let (ids, engine) = twin;
    let mut scratch = engine.make_scratch();
    let mut lists = engine.row_top_k_shared(row, K, &mut scratch).lists;
    for item in lists.iter_mut().flatten() {
        item.id = ids[item.id] as usize;
    }
    assert!(topk_equivalent(&got.0, &lists, 0.0), "{label}: top-k");
    let entries: Vec<Entry> = engine
        .above_theta_shared(row, THETA, &mut scratch)
        .entries
        .iter()
        .map(|e| Entry { probe: ids[e.probe as usize], ..*e })
        .collect();
    assert_eq!(canon(&got.1), canon(&entries), "{label}: above-θ");
}

/// Row-Top-k and Above-θ answers of `engine` for `row` through `scratch`,
/// plus the QUANT pairs the top-k run scanned.
fn answer(
    engine: &dyn Engine,
    row: &VectorStore,
    scratch: &mut lemp_core::Scratch,
) -> ((TopKLists, Vec<Entry>), u64) {
    let top = engine.run(&QueryRequest::top_k(K), row, scratch);
    let quant = top.stats.method_mix.quant;
    let above = engine.run(&QueryRequest::above_theta(THETA), row, scratch);
    ((top.into_top_k().lists, above.into_above().entries), quant)
}

#[test]
fn quantized_lookup_tables_never_go_stale_across_engines() {
    // One scratch carries its cached lookup table from engine A to engine
    // B (another catalogue, so another codebook) on the very same query
    // direction, and back to A after edits and a rebuild retrained A's
    // codebook. A table reused across codebooks would score B's codes with
    // A's centroids; every answer must instead equal an exact engine's.
    let (q, p) = fixture();
    // As many probes as the fixture, so both codebooks hold the same
    // number of centroids and a stale table would fit B's codes.
    let other = GeneratorConfig::sparse(p.len(), DIM, 1.0, 0.4).generate(9002);
    let config =
        RunConfig { sample_size: 8, quantize_bits: 8, quantize_force: true, ..Default::default() };
    let mut a = DynamicLemp::new(&p, BucketPolicy::default(), config);
    a.warm(&q, WarmGoal::TopK(K));
    let mut b = DynamicLemp::new(&other, BucketPolicy::default(), config);
    b.warm(&q, WarmGoal::TopK(K));
    let stamp = |e: &DynamicLemp| e.buckets().codebook().unwrap().stamp();
    let mut scratch = a.query_scratch();
    let mut quant_pairs = 0;
    for round in 0..2 {
        let (twin_a, twin_b) = (exact_twin(&a, &q), exact_twin(&b, &q));
        for (i, row) in rows(&q).iter().enumerate() {
            for (name, engine, twin) in [("A", &a, &twin_a), ("B", &b, &twin_b), ("A", &a, &twin_a)]
            {
                let (got, quant) = answer(engine, row, &mut scratch);
                quant_pairs += quant;
                assert_matches_twin(&format!("round {round} query {i} {name}"), got, twin, row);
            }
        }
        if round == 0 {
            let before = stamp(&a);
            apply!(&churn_script(&p, 78)[..60], a);
            a.rebuild();
            a.warm(&q, WarmGoal::TopK(K)); // re-tunes: QUANT is forced again
            assert_ne!(stamp(&a), before, "a rebuild trains a new codebook");
        }
    }
    assert!(quant_pairs > 0, "QUANT never ran");

    // Sharded: each shard holds its own codebook. One method scratch
    // visits every shard in turn, and the sharded engine answers through
    // its own per-shard scratches.
    let mut sharded = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .quantize(8)
        .quantize_force(true)
        .build(&p);
    sharded.warm(&q, WarmGoal::TopK(K));
    let twins: Vec<_> = sharded.shards().iter().map(|s| exact_twin(s, &q)).collect();
    let mut exact = Lemp::builder().sample_size(8).build(&p);
    exact.warm(&q, WarmGoal::TopK(K));
    let all = ((0..p.len() as u32).collect(), exact);
    let mut one = sharded.shards()[0].query_scratch();
    let mut own = sharded.query_scratch();
    for (i, row) in rows(&q).iter().enumerate() {
        for (s, (shard, twin)) in sharded.shards().iter().zip(&twins).enumerate() {
            let (got, _) = answer(shard, row, &mut one);
            assert_matches_twin(&format!("query {i} shard {s}"), got, twin, row);
        }
        let (got, _) = answer(&sharded, row, &mut own);
        assert_matches_twin(&format!("query {i} sharded"), got, &all, row);
    }
}

#[test]
fn k_edge_cases_are_clamped_identically_across_engines() {
    let (q, p) = fixture();
    let n = p.len();
    for (name, engine) in engines(&q, &p) {
        let mut scratch = engine.query_scratch();
        // k = 0: empty lists, no panic.
        let zero = engine.run(&QueryRequest::top_k(0), &q, &mut scratch);
        assert!(
            zero.lists().unwrap().iter().all(Vec::is_empty),
            "{name}: k = 0 must return empty lists"
        );
        // k beyond the probe count (and a hostile k that would overflow a
        // heap allocation without the clamp): every probe comes back.
        for k in [n + 100, usize::MAX] {
            let all = engine.run(&QueryRequest::top_k(k), &q, &mut scratch);
            for (qi, list) in all.lists().unwrap().iter().enumerate() {
                assert_eq!(list.len(), n, "{name}: k = {k}, query {qi}");
            }
        }
    }
    // The classic entry points clamp the same way (unified semantics).
    let mut lazy = Lemp::builder().sample_size(8).build(&p);
    let out = lazy.row_top_k(&q, usize::MAX);
    assert!(out.lists.iter().all(|l| l.len() == n));
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    let out = dynamic.row_top_k(&q, usize::MAX);
    assert!(out.lists.iter().all(|l| l.len() == n));
}

#[test]
fn dyn_handles_share_one_call_site() {
    // The acceptance property of the refactor, in miniature: one loop, no
    // per-engine match arms, three backends.
    let (q, p) = fixture();
    let request = QueryRequest::top_k(K);
    let mut lists: Vec<TopKLists> = Vec::new();
    for (_, engine) in engines(&q, &p) {
        let mut scratch = engine.query_scratch();
        lists.push(engine.run(&request, &q, &mut scratch).into_top_k().lists);
    }
    // All three backends agree bit-for-bit on the scores.
    assert!(topk_equivalent(&lists[0], &lists[1], 0.0), "Lemp vs DynamicLemp");
    assert!(topk_equivalent(&lists[0], &lists[2], 0.0), "Lemp vs ShardedLemp");
}

#[test]
fn plans_describe_the_tuned_assignment() {
    let (q, p) = fixture();
    for (name, engine) in engines(&q, &p) {
        let plan = engine.plan(&QueryRequest::above_theta(THETA));
        assert_eq!(plan.segments().len(), engine.shard_count(), "{name}");
        let buckets: usize = plan.segments().iter().map(|s| s.bucket_count()).sum();
        assert!(buckets > 0, "{name}: plan covers no buckets");
        let summary = plan.describe();
        assert!(summary.contains("above-theta"), "{name}: {summary}");
    }
}

#[test]
#[should_panic(expected = "scratch was made for a")]
fn scratch_from_another_engine_kind_is_rejected() {
    let (q, p) = fixture();
    let mut single = Lemp::builder().sample_size(8).build(&p);
    single.warm(&q, WarmGoal::TopK(K));
    let mut sharded = ShardedLemp::builder().shards(2).sample_size(8).build(&p);
    sharded.warm(&q, WarmGoal::TopK(K));
    let mut wrong = (&sharded as &dyn Engine).query_scratch();
    let single: &dyn Engine = &single;
    let _ = single.run(&QueryRequest::top_k(1), &q, &mut wrong);
}

#[test]
fn chunked_execution_matches_the_streaming_shims() {
    // The chunked ExecOption must agree with the pre-existing chunked
    // streaming entry points (which remain for sink-style consumers).
    let (q, p) = fixture();
    let mut engine = Lemp::builder().sample_size(8).build(&p);
    engine.warm(&q, WarmGoal::Above(THETA));
    let mut scratch = engine.make_scratch();
    let mut streamed: Vec<Entry> = Vec::new();
    engine.above_theta_chunked_shared(&q, THETA, 7, &mut scratch, |es| {
        streamed.extend_from_slice(es)
    });
    let planned = {
        let engine: &dyn Engine = &engine;
        let mut scratch = engine.query_scratch();
        engine.run(&QueryRequest::above_theta(THETA).chunked(7), &q, &mut scratch).into_above()
    };
    assert_eq!(canon(&planned.entries), canon(&streamed));
}
