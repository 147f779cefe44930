//! End-to-end tests: boot the server on an ephemeral port, drive it over
//! real sockets, and check every answer against the naive baseline.

use std::time::Duration;

use lemp_baselines::types::topk_equivalent;
use lemp_baselines::Naive;
use lemp_core::shard::ShardPolicy;
use lemp_core::{BucketPolicy, DynamicLemp, RunConfig, ShardedLemp, WarmGoal};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::{ScoredItem, VectorStore};
use lemp_serve::client;
use lemp_serve::json::{obj, Json};
use lemp_serve::{ServeConfig, Server, ServerHandle};

const DIM: usize = 8;

fn fixture(n: usize, seed: u64) -> VectorStore {
    GeneratorConfig::gaussian(n, DIM, 1.0).generate(seed)
}

fn boot(probes: &VectorStore, cfg: ServeConfig) -> ServerHandle {
    let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut engine = DynamicLemp::new(probes, policy, config);
    let sample = fixture(16, 777);
    engine.warm(&sample, WarmGoal::TopK(5));
    let server = Server::bind("127.0.0.1:0", engine, cfg).expect("bind ephemeral port");
    server.start().expect("start server")
}

fn queries_json(store: &VectorStore, lo: usize, hi: usize) -> Json {
    Json::Arr(
        (lo..hi)
            .map(|i| Json::Arr(store.vector(i).iter().map(|&x| Json::Num(x)).collect()))
            .collect(),
    )
}

fn parse_lists(body: &Json) -> Vec<Vec<ScoredItem>> {
    body.get("lists")
        .and_then(Json::as_arr)
        .expect("lists")
        .iter()
        .map(|list| {
            list.as_arr()
                .expect("list")
                .iter()
                .map(|item| ScoredItem {
                    id: item.get("id").and_then(Json::as_u64).expect("id") as usize,
                    score: item.get("score").and_then(Json::as_f64).expect("score"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn concurrent_topk_matches_naive_baseline() {
    let probes = fixture(300, 1);
    let queries = fixture(48, 2);
    let k = 5;
    let (expect, _) = Naive.row_top_k(&queries, &probes, k);

    let handle = boot(&probes, ServeConfig::default());
    let addr = handle.addr();

    // ≥ 4 client threads, each owning a disjoint slice of the query set,
    // hammering POST /top-k concurrently.
    const THREADS: usize = 6;
    let per = queries.len() / THREADS;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (queries, expect) = (&queries, &expect);
            scope.spawn(move || {
                let lo = t * per;
                let hi = if t == THREADS - 1 { queries.len() } else { lo + per };
                // Several rounds so requests interleave heavily.
                for _ in 0..3 {
                    for chunk_lo in (lo..hi).step_by(4) {
                        let chunk_hi = (chunk_lo + 4).min(hi);
                        let body = obj(vec![
                            ("queries", queries_json(queries, chunk_lo, chunk_hi)),
                            ("k", Json::Num(k as f64)),
                        ]);
                        let (status, reply) = client::post(addr, "/top-k", &body).expect("request");
                        assert_eq!(status, 200, "{reply:?}");
                        let lists = parse_lists(&reply);
                        assert!(
                            topk_equivalent(&lists, &expect[chunk_lo..chunk_hi].to_vec(), 1e-9),
                            "rows {chunk_lo}..{chunk_hi} diverge from naive"
                        );
                    }
                }
            });
        }
    });

    // /stats must report the request and batch counters.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let counters = stats.get("counters").expect("counters");
    let topk = counters.get("topk_requests").and_then(Json::as_u64).unwrap();
    let batches = counters.get("batches").and_then(Json::as_u64).unwrap();
    assert!(topk >= (THREADS * 3) as u64, "served {topk} top-k requests");
    assert!(batches >= 1 && batches <= counters.get("requests").and_then(Json::as_u64).unwrap());
    assert!(counters.get("queries").and_then(Json::as_u64).unwrap() >= queries.len() as u64);
    handle.shutdown();
}

#[test]
fn quantized_server_answers_exactly_and_reports_memory() {
    let probes = fixture(300, 21);
    let queries = fixture(24, 22);
    let k = 5;
    let (expect, _) = Naive.row_top_k(&queries, &probes, k);

    let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
    let config = RunConfig { sample_size: 8, quantize_bits: 8, ..Default::default() };
    let mut engine = DynamicLemp::new(&probes, policy, config);
    engine.warm(&fixture(16, 777), WarmGoal::TopK(k));
    let server = Server::bind("127.0.0.1:0", engine, ServeConfig::default()).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // Quantized-verified answers stay exact over the wire.
    let body = obj(vec![
        ("queries", queries_json(&queries, 0, queries.len())),
        ("k", Json::Num(k as f64)),
    ]);
    let (status, reply) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    assert!(topk_equivalent(&parse_lists(&reply), &expect, 1e-9));

    // /stats pins engine.memory: full-precision vs quantized residency,
    // totalled and per shard.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let memory = stats.get("engine").and_then(|e| e.get("memory")).expect("engine.memory");
    let full = memory.get("full_bytes").and_then(Json::as_u64).unwrap();
    let quant = memory.get("quantized_bytes").and_then(Json::as_u64).unwrap();
    assert!(full >= (probes.len() * DIM * 8) as u64, "full residency covers every direction");
    assert!(quant > 0, "a warm quantized engine reports code residency");
    assert!(quant < full, "8-bit codes must undercut f64 directions");
    let shards = memory.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shards.len(), 1);
    assert_eq!(shards[0].get("full_bytes").and_then(Json::as_u64), Some(full));
    assert_eq!(shards[0].get("quantized_bytes").and_then(Json::as_u64), Some(quant));
    handle.shutdown();

    // An unquantized server reports zero quantized residency.
    let handle = boot(&probes, ServeConfig::default());
    let (_, stats) = client::get(handle.addr(), "/stats").unwrap();
    let memory = stats.get("engine").and_then(|e| e.get("memory")).expect("engine.memory");
    assert_eq!(memory.get("quantized_bytes").and_then(Json::as_u64), Some(0));
    handle.shutdown();
}

#[test]
fn sharded_server_answers_exactly_and_reports_shard_counters() {
    let probes = fixture(360, 11);
    let queries = fixture(40, 12);
    let k = 5;
    let theta = 1.0;
    let (expect_topk, _) = Naive.row_top_k(&queries, &probes, k);
    let (expect_above, _) = Naive.above_theta(&queries, &probes, theta);
    let mut expect_above: Vec<(u32, u32)> =
        expect_above.iter().map(|e| (e.query, e.probe)).collect();
    expect_above.sort_unstable();
    assert!(!expect_above.is_empty(), "fixture must produce entries");

    const SHARDS: usize = 3;
    let mut engine = ShardedLemp::builder()
        .shards(SHARDS)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .threads(2)
        .build(&probes);
    engine.warm(&fixture(16, 777), WarmGoal::TopK(k));
    let server = Server::bind("127.0.0.1:0", engine, ServeConfig::default()).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // Concurrent top-k clients over the sharded engine.
    const THREADS: usize = 4;
    let per = queries.len() / THREADS;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (queries, expect_topk) = (&queries, &expect_topk);
            scope.spawn(move || {
                let lo = t * per;
                let hi = if t == THREADS - 1 { queries.len() } else { lo + per };
                let body = obj(vec![
                    ("queries", queries_json(queries, lo, hi)),
                    ("k", Json::Num(k as f64)),
                ]);
                let (status, reply) = client::post(addr, "/top-k", &body).expect("request");
                assert_eq!(status, 200, "{reply:?}");
                let lists = parse_lists(&reply);
                assert!(
                    topk_equivalent(&lists, &expect_topk[lo..hi].to_vec(), 1e-9),
                    "rows {lo}..{hi} diverge from naive on the sharded server"
                );
            });
        }
    });

    // Above-θ through the same endpoint and wire shape.
    let body = obj(vec![
        ("queries", queries_json(&queries, 0, queries.len())),
        ("theta", Json::Num(theta)),
    ]);
    let (status, reply) = client::post(addr, "/above-theta", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let mut got: Vec<(u32, u32)> = reply
        .get("entries")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| {
            (
                e.get("query").and_then(Json::as_u64).unwrap() as u32,
                e.get("probe").and_then(Json::as_u64).unwrap() as u32,
            )
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect_above);

    // /stats exposes the shard counters: shard count and the shard map.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let engine_info = stats.get("engine").expect("engine info");
    assert_eq!(engine_info.get("shards").and_then(Json::as_u64), Some(SHARDS as u64));
    let shard_probes = engine_info.get("shard_probes").and_then(Json::as_arr).unwrap();
    assert_eq!(shard_probes.len(), SHARDS);
    let total: u64 = shard_probes.iter().map(|n| n.as_u64().unwrap()).sum();
    assert_eq!(total, probes.len() as u64, "shard map must cover every probe");
    assert_eq!(engine_info.get("probes").and_then(Json::as_u64), Some(probes.len() as u64));

    // Probe edits are routed to the owning shard; the response names it,
    // and `/stats.shard_probes` reflects the edit immediately (it is read
    // from the live engine, not a boot-time snapshot).
    let edit = obj(vec![(
        "insert",
        Json::Arr(vec![Json::Arr((0..DIM).map(|_| Json::Num(1.0)).collect())]),
    )]);
    let (status, reply) = client::post(addr, "/probes", &edit).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let id = reply.get("inserted").and_then(Json::as_arr).unwrap()[0].as_u64().unwrap();
    assert_eq!(id, probes.len() as u64, "global watermark allocates the next id");
    let routed = reply.get("shards").and_then(Json::as_arr).unwrap()[0].as_u64().unwrap();
    assert!((routed as usize) < SHARDS);
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let engine_info = stats.get("engine").expect("engine info");
    let shard_probes = engine_info.get("shard_probes").and_then(Json::as_arr).unwrap();
    let total: u64 = shard_probes.iter().map(|n| n.as_u64().unwrap()).sum();
    assert_eq!(total, probes.len() as u64 + 1, "shard map must be live after the edit");
    // Queries keep answering exactly over the edited probe set.
    let body = obj(vec![("queries", queries_json(&queries, 0, 4)), ("k", Json::Num(k as f64))]);
    let (status, _) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200);

    // /healthz is unchanged.
    let (status, health) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("warm"), Some(&Json::Bool(true)));
    handle.shutdown();
}

#[test]
fn above_theta_endpoint_matches_naive() {
    let probes = fixture(250, 3);
    let queries = fixture(30, 4);
    let theta = 1.0;
    let (expect_entries, _) = Naive.above_theta(&queries, &probes, theta);
    let mut expect: Vec<(u32, u32)> = expect_entries.iter().map(|e| (e.query, e.probe)).collect();
    expect.sort_unstable();
    assert!(!expect.is_empty(), "fixture must produce entries");

    let handle = boot(&probes, ServeConfig::default());
    let body = obj(vec![
        ("queries", queries_json(&queries, 0, queries.len())),
        ("theta", Json::Num(theta)),
    ]);
    let (status, reply) = client::post(handle.addr(), "/above-theta", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let mut got: Vec<(u32, u32)> = reply
        .get("entries")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| {
            let q = e.get("query").and_then(Json::as_u64).unwrap() as u32;
            let p = e.get("probe").and_then(Json::as_u64).unwrap() as u32;
            let v = e.get("value").and_then(Json::as_f64).unwrap();
            let real = queries.dot_between(q as usize, &probes, p as usize);
            assert!((v - real).abs() <= 1e-9 * real.abs().max(1.0));
            (q, p)
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect);
    assert_eq!(reply.get("count").and_then(Json::as_u64).unwrap() as usize, expect.len());
    handle.shutdown();
}

#[test]
fn probe_edits_change_subsequent_answers() {
    let probes = fixture(120, 5);
    let handle = boot(&probes, ServeConfig::default());
    let addr = handle.addr();

    // Insert a probe that dominates a known query direction.
    let spike: Vec<f64> = (0..DIM).map(|i| if i == 0 { 100.0 } else { 0.0 }).collect();
    let body = obj(vec![(
        "insert",
        Json::Arr(vec![Json::Arr(spike.iter().map(|&x| Json::Num(x)).collect())]),
    )]);
    let (status, reply) = client::post(addr, "/probes", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let inserted = reply.get("inserted").and_then(Json::as_arr).unwrap();
    assert_eq!(inserted.len(), 1);
    let new_id = inserted[0].as_u64().unwrap();
    assert_eq!(new_id, 120);
    assert_eq!(reply.get("probes").and_then(Json::as_u64), Some(121));

    // The inserted probe must now win top-1 for an aligned query.
    let probe_query = obj(vec![
        (
            "queries",
            Json::Arr(vec![Json::Arr(
                (0..DIM).map(|i| Json::Num(if i == 0 { 1.0 } else { 0.0 })).collect(),
            )]),
        ),
        ("k", Json::Num(1.0)),
    ]);
    let (status, reply) = client::post(addr, "/top-k", &probe_query).unwrap();
    assert_eq!(status, 200);
    let lists = parse_lists(&reply);
    assert_eq!(lists[0][0].id as u64, new_id);
    assert!((lists[0][0].score - 100.0).abs() < 1e-9);

    // Remove it again: a repeat answer must not mention it; removing twice
    // reports false.
    let body = obj(vec![("remove", Json::Arr(vec![Json::Num(new_id as f64)]))]);
    let (status, reply) = client::post(addr, "/probes", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(reply.get("removed").and_then(Json::as_arr).unwrap()[0], Json::Bool(true));
    let (_, reply) = client::post(addr, "/probes", &body).unwrap();
    assert_eq!(reply.get("removed").and_then(Json::as_arr).unwrap()[0], Json::Bool(false));
    let (_, reply) = client::post(addr, "/top-k", &probe_query).unwrap();
    let lists = parse_lists(&reply);
    assert_ne!(lists[0][0].id as u64, new_id);

    // healthz reflects the live count.
    let (status, health) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(health.get("probes").and_then(Json::as_u64), Some(120));
    assert_eq!(health.get("dim").and_then(Json::as_u64), Some(DIM as u64));
    assert_eq!(health.get("warm"), Some(&Json::Bool(true)));
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_503() {
    // No workers: nothing drains the accept queue, so connection number
    // cap+1 must be shed with 503 instead of waiting forever.
    let probes = fixture(60, 6);
    let cfg = ServeConfig { workers: 0, queue_cap: 2, ..Default::default() };
    let handle = boot(&probes, cfg);
    let addr = handle.addr();

    // Fill the queue with idle connections (accepted, never answered).
    let _idle1 = std::net::TcpStream::connect(addr).unwrap();
    let _idle2 = std::net::TcpStream::connect(addr).unwrap();
    // Shedding is immediate, so a short client timeout suffices.
    let mut shed_seen = false;
    for _ in 0..20 {
        match client::request(addr, "GET", "/healthz", None, Some(Duration::from_secs(2))) {
            Ok((503, body)) => {
                assert_eq!(body.get("error").and_then(Json::as_str), Some("overloaded"));
                shed_seen = true;
                break;
            }
            Ok((status, body)) => panic!("expected 503, got {status} {body:?}"),
            // The acceptor may not have enqueued the idle sockets yet.
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    assert!(shed_seen, "overflow connection was never shed");
    handle.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_a_hang() {
    let probes = fixture(80, 7);
    let handle = boot(&probes, ServeConfig::default());
    let addr = handle.addr();

    let cases: Vec<(&str, &str, Option<Json>, u16)> = vec![
        ("GET", "/nope", None, 404),
        ("DELETE", "/top-k", None, 405),
        ("POST", "/top-k", Some(Json::Str("not an object".into())), 400),
        // dimensionality mismatch
        (
            "POST",
            "/top-k",
            Some(obj(vec![
                ("queries", Json::Arr(vec![Json::Arr(vec![Json::Num(1.0)])])),
                ("k", Json::Num(1.0)),
            ])),
            400,
        ),
        // missing parameter
        ("POST", "/above-theta", Some(obj(vec![("queries", Json::Arr(vec![]))])), 400),
        // bad probe id type
        ("POST", "/probes", Some(obj(vec![("remove", Json::Arr(vec![Json::Num(-3.0)]))])), 400),
    ];
    for (method, path, body, want) in cases {
        let (status, reply) =
            client::request(addr, method, path, body.as_ref(), Some(Duration::from_secs(5)))
                .unwrap();
        assert_eq!(status, want, "{method} {path}: {reply:?}");
        assert!(reply.get("error").is_some(), "{method} {path} must explain itself");
    }

    // Raw garbage on the socket also gets a clean 400.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");

    // The server is still healthy afterwards.
    let (status, _) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let (_, stats) = client::get(addr, "/stats").unwrap();
    let errors =
        stats.get("counters").unwrap().get("client_errors").and_then(Json::as_u64).unwrap();
    assert!(errors >= 6, "client errors counted: {errors}");
    handle.shutdown();
}

#[test]
fn empty_query_set_answers_immediately() {
    let probes = fixture(50, 8);
    let handle = boot(&probes, ServeConfig::default());
    let body = obj(vec![("queries", Json::Arr(vec![])), ("k", Json::Num(3.0))]);
    let (status, reply) = client::post(handle.addr(), "/top-k", &body).unwrap();
    assert_eq!(status, 200);
    assert!(reply.get("lists").and_then(Json::as_arr).unwrap().is_empty());
    handle.shutdown();
}

#[test]
fn single_worker_micro_batches_concurrent_requests() {
    // One worker + a burst of parallel requests: the worker's wakeup must
    // fold queued compatible requests into shared engine calls. The exact
    // fold count is timing-dependent, so retry bursts until batching is
    // observed (correctness of batched answers is asserted every time).
    let probes = fixture(200, 9);
    let queries = fixture(32, 10);
    let k = 3;
    let (expect, _) = Naive.row_top_k(&queries, &probes, k);
    let cfg = ServeConfig { workers: 1, queue_cap: 64, batch_max: 8, ..Default::default() };
    let handle = boot(&probes, cfg);
    let addr = handle.addr();

    let mut batched = 0u64;
    for _attempt in 0..25 {
        std::thread::scope(|scope| {
            for q in 0..queries.len() {
                let (queries, expect) = (&queries, &expect);
                scope.spawn(move || {
                    let body = obj(vec![
                        ("queries", queries_json(queries, q, q + 1)),
                        ("k", Json::Num(k as f64)),
                    ]);
                    let (status, reply) = client::post(addr, "/top-k", &body).unwrap();
                    assert_eq!(status, 200);
                    let lists = parse_lists(&reply);
                    assert!(
                        topk_equivalent(&lists, &expect[q..q + 1].to_vec(), 1e-9),
                        "query {q} diverges from naive under batching"
                    );
                });
            }
        });
        let (_, stats) = client::get(addr, "/stats").unwrap();
        batched =
            stats.get("counters").unwrap().get("batched_requests").and_then(Json::as_u64).unwrap();
        if batched > 0 {
            break;
        }
    }
    assert!(batched > 0, "micro-batching never engaged across 25 bursts");
    handle.shutdown();
}

#[test]
fn sharded_durable_server_routes_edits_and_recovers() {
    // `shards=` and `durable=` compose: a server over a
    // `ShardedDurableEngine` routes every wire edit to the owning shard's
    // log-then-apply path, reports per-shard WAL counters, and a recovery
    // of the store directory reassembles the exact post-edit probe set.
    use lemp_store::{recover_sharded, ShardedDurableEngine, StoreOptions};

    let dir = std::env::temp_dir().join(format!("lemp-e2e-shdur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let probes = fixture(120, 20);
    const SHARDS: usize = 3;
    let mut engine = ShardedLemp::builder()
        .shards(SHARDS)
        .policy(ShardPolicy::RoundRobin)
        .sample_size(8)
        .build(&probes);
    engine.warm(&fixture(16, 777), WarmGoal::TopK(3));
    let durable = ShardedDurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
    let server = Server::bind("127.0.0.1:0", durable, ServeConfig::default()).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // Insert a batch and remove two seeds; the reply names the owning
    // shard of every insert, and round-robin routing makes it predictable.
    let extra = fixture(6, 22);
    let rows: Vec<Json> = (0..extra.len())
        .map(|i| queries_json(&extra, i, i + 1).as_arr().unwrap()[0].clone())
        .collect();
    let body = obj(vec![
        ("insert", Json::Arr(rows)),
        ("remove", Json::Arr(vec![Json::Num(3.0), Json::Num(77.0)])),
    ]);
    let (status, reply) = client::post(addr, "/probes", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let inserted = reply.get("inserted").and_then(Json::as_arr).unwrap();
    let shards = reply.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(inserted.len(), 6);
    assert_eq!(shards.len(), 6);
    for (id, shard) in inserted.iter().zip(shards) {
        let (id, shard) = (id.as_u64().unwrap(), shard.as_u64().unwrap());
        assert_eq!(shard, id % SHARDS as u64, "round-robin owner of id {id}");
    }
    assert_eq!(reply.get("probes").and_then(Json::as_u64), Some(124));
    let removed = reply.get("removed").and_then(Json::as_arr).unwrap();
    assert_eq!(removed, &[Json::Bool(true), Json::Bool(true)]);

    // /stats: live per-shard probe counts, the aggregate WAL counters, and
    // the per-shard breakdown (8 records total, all durable under Always).
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let engine_info = stats.get("engine").expect("engine info");
    assert_eq!(engine_info.get("durable"), Some(&Json::Bool(true)));
    assert_eq!(engine_info.get("shards").and_then(Json::as_u64), Some(SHARDS as u64));
    let shard_probes = engine_info.get("shard_probes").and_then(Json::as_arr).unwrap();
    let total: u64 = shard_probes.iter().map(|n| n.as_u64().unwrap()).sum();
    assert_eq!(total, 124, "shard map is live after the edits");
    let wal = stats.get("wal").expect("aggregate wal counters");
    assert_eq!(wal.get("records_appended").and_then(Json::as_u64), Some(8));
    assert_eq!(wal.get("records_durable").and_then(Json::as_u64), Some(8));
    let per_shard = stats.get("wal_shards").and_then(Json::as_arr).unwrap();
    assert_eq!(per_shard.len(), SHARDS);
    let split: u64 =
        per_shard.iter().map(|w| w.get("records_appended").and_then(Json::as_u64).unwrap()).sum();
    assert_eq!(split, 8, "per-shard counters partition the aggregate");

    // Queries still answer, and answers reflect the edits.
    let body = obj(vec![("queries", queries_json(&probes, 0, 2)), ("k", Json::Num(3.0))]);
    let (status, _) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200);

    // "Crash" the server; recovery reassembles the full sharded engine.
    handle.shutdown();
    let (recovered, report) = recover_sharded(&dir).unwrap();
    assert_eq!(report.shards.len(), SHARDS);
    assert_eq!(recovered.len(), 124);
    assert!(!recovered.contains(3) && !recovered.contains(77));
    for id in inserted {
        assert!(recovered.contains(id.as_u64().unwrap() as u32));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_k_is_clamped_not_fatal() {
    // k far beyond the probe count (large enough to overflow a heap
    // allocation without the engine-side clamp) returns every probe; the
    // same clamped semantics hold for k = 0. This is pinned here because
    // the server no longer clamps — the engines do, uniformly.
    let probes = fixture(60, 21);
    let queries = fixture(4, 22);
    let handle = boot(&probes, ServeConfig::default());
    let addr = handle.addr();

    let body = obj(vec![("queries", queries_json(&queries, 0, 4)), ("k", Json::Num(1e15))]);
    let (status, reply) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let lists = parse_lists(&reply);
    assert!(lists.iter().all(|l| l.len() == probes.len()), "k > n must return every probe");

    let body = obj(vec![("queries", queries_json(&queries, 0, 4)), ("k", Json::Num(0.0))]);
    let (status, reply) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let lists = parse_lists(&reply);
    assert!(lists.iter().all(Vec::is_empty), "k = 0 must return empty lists");
    handle.shutdown();
}

#[test]
fn durable_server_survives_a_crash_and_recovery_matches() {
    use lemp_store::{recover, DurableEngine, StoreOptions};

    let dir = std::env::temp_dir().join(format!("lemp-e2e-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let probes = fixture(120, 21);
    let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let engine = DynamicLemp::new(&probes, policy, config);
    let durable = DurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
    let server =
        Server::bind("127.0.0.1:0", durable, ServeConfig::default()).expect("bind ephemeral port");
    let handle = server.start().expect("start server");
    let addr = handle.addr();

    // Edit over the wire: insert a batch (one dominating spike among them)
    // and remove a couple of seed probes.
    let spike: Vec<f64> = (0..DIM).map(|i| if i == 0 { 100.0 } else { 0.0 }).collect();
    let extra = fixture(5, 22);
    let mut rows: Vec<Json> = (0..extra.len())
        .map(|i| queries_json(&extra, i, i + 1).as_arr().unwrap()[0].clone())
        .collect();
    rows.push(Json::Arr(spike.iter().map(|&x| Json::Num(x)).collect()));
    let body = obj(vec![
        ("insert", Json::Arr(rows)),
        ("remove", Json::Arr(vec![Json::Num(3.0), Json::Num(77.0)])),
    ]);
    let (status, reply) = client::post(addr, "/probes", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(reply.get("inserted").and_then(Json::as_arr).unwrap().len(), 6);
    let spike_id = reply.get("inserted").and_then(Json::as_arr).unwrap()[5].as_u64().unwrap();
    assert_eq!(reply.get("probes").and_then(Json::as_u64), Some(124));

    // Query answers reflect the edits while the server is up.
    let probe_query = obj(vec![
        (
            "queries",
            Json::Arr(vec![Json::Arr(
                (0..DIM).map(|i| Json::Num(if i == 0 { 1.0 } else { 0.0 })).collect(),
            )]),
        ),
        ("k", Json::Num(1.0)),
    ]);
    let (_, reply) = client::post(addr, "/top-k", &probe_query).unwrap();
    assert_eq!(parse_lists(&reply)[0][0].id as u64, spike_id);

    // /stats carries the WAL counters: 8 edits logged, all durable under
    // the default (Always) sync policy.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("engine").and_then(|e| e.get("durable")),
        Some(&Json::Bool(true)),
        "{stats:?}"
    );
    let wal = stats.get("wal").expect("durable /stats exposes wal counters");
    assert_eq!(wal.get("records_appended").and_then(Json::as_u64), Some(8));
    assert_eq!(wal.get("records_durable").and_then(Json::as_u64), Some(8));
    assert!(wal.get("fsyncs").and_then(Json::as_u64).unwrap() >= 8);
    assert!(wal.get("bytes_appended").and_then(Json::as_u64).unwrap() > 0);

    // "Crash": tear the server down without any graceful engine save.
    handle.shutdown();

    // Recovery rebuilds the exact probe set and answers match Naive.
    let (recovered, report) = recover(&dir).unwrap();
    assert_eq!(report.records_replayed, 8);
    assert_eq!(recovered.len(), 124);
    assert!(recovered.contains(spike_id as u32));
    assert!(!recovered.contains(3) && !recovered.contains(77));
    let (ids, live) = recovered.live_vectors();
    let queries = fixture(10, 23);
    let k = 5;
    let (naive, _) = Naive.row_top_k(&queries, &live, k);
    let mut warm = recovered;
    let sample = fixture(16, 777);
    warm.warm(&sample, WarmGoal::TopK(k));
    let mut scratch = warm.make_scratch();
    let out = warm.row_top_k_shared(&queries, k, &mut scratch);
    // Map naive's row indices to stable ids before comparing.
    let mapped: Vec<Vec<ScoredItem>> = naive
        .iter()
        .map(|list| {
            list.iter().map(|it| ScoredItem { id: ids[it.id] as usize, score: it.score }).collect()
        })
        .collect();
    assert!(topk_equivalent(&out.lists, &mapped, 1e-9), "recovered answers diverge from Naive");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replication_follower_tails_promotes_and_diverges_never() {
    // Full leader/follower lifecycle over real sockets: bootstrap from
    // the wire snapshot, tail to lag 0, identical answers on both roles,
    // 409 while read-only, promote, accept a local edit, and a recovery
    // of the follower's store that accounts for every replicated record.
    use lemp_store::replication::bootstrap;
    use lemp_store::{recover, DurableEngine, StoreOptions, SyncPolicy};

    let leader_dir = std::env::temp_dir().join(format!("lemp-e2e-repl-l-{}", std::process::id()));
    let follower_dir = std::env::temp_dir().join(format!("lemp-e2e-repl-f-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
    let options = StoreOptions { sync: SyncPolicy::Always, ..Default::default() };

    let probes = fixture(80, 31);
    let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let engine = DynamicLemp::new(&probes, policy, config);
    let durable = DurableEngine::create(&leader_dir, engine, options).unwrap();
    let mut leader = Server::bind("127.0.0.1:0", durable, ServeConfig::default()).unwrap();
    let repl_addr = leader.enable_leader("127.0.0.1:0").unwrap();
    let leader_handle = leader.start().unwrap();
    let leader_addr = leader_handle.addr();

    // Edits that land before the follower exists (they ride the WAL, not
    // the snapshot).
    let extra = fixture(6, 32);
    let body = obj(vec![("insert", queries_json(&extra, 0, 4))]);
    let (status, reply) = client::post(leader_addr, "/probes", &body).unwrap();
    assert_eq!(status, 200, "{reply:?}");

    // Bootstrap the follower from the leader's wire snapshot.
    let (status, payload) =
        client::request_bytes(repl_addr, "GET", "/repl/snapshot", Some(Duration::from_secs(10)))
            .unwrap();
    assert_eq!(status, 200);
    let (follower_store, report) = bootstrap(&follower_dir, &payload, options).unwrap();
    assert_eq!(report.snapshot_lsn, 0);
    assert_eq!(report.live_probes, 80);
    let mut follower = Server::bind("127.0.0.1:0", follower_store, ServeConfig::default()).unwrap();
    follower.replicate_from(repl_addr.to_string()).unwrap();
    let follower_handle = follower.start().unwrap();
    let follower_addr = follower_handle.addr();

    // More edits while the follower is tailing.
    let body = obj(vec![("insert", queries_json(&extra, 4, 6))]);
    let (status, _) = client::post(leader_addr, "/probes", &body).unwrap();
    assert_eq!(status, 200);

    // Wait for the follower to fully catch up (86 probes, lag 0).
    let mut caught_up = false;
    for _ in 0..100 {
        let (_, stats) = client::get(follower_addr, "/stats").unwrap();
        let probes_live =
            stats.get("engine").and_then(|e| e.get("probes")).and_then(Json::as_u64).unwrap();
        let repl = stats.get("replication").expect("follower stats carry replication");
        assert_eq!(repl.get("role").and_then(Json::as_str), Some("follower"));
        let lag = repl.get("lag_lsn").and_then(Json::as_u64).unwrap();
        if probes_live == 86 && lag == 0 {
            caught_up = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(caught_up, "follower never reached lag 0 with 86 probes");

    // Leader and follower answer identically.
    let queries = fixture(12, 33);
    let body =
        obj(vec![("queries", queries_json(&queries, 0, queries.len())), ("k", Json::Num(5.0))]);
    let (ls, lreply) = client::post(leader_addr, "/top-k", &body).unwrap();
    let (fs, freply) = client::post(follower_addr, "/top-k", &body).unwrap();
    assert_eq!((ls, fs), (200, 200));
    assert!(
        topk_equivalent(&parse_lists(&lreply), &parse_lists(&freply), 1e-12),
        "follower answers diverge from the leader"
    );

    // The leader tracks its follower's progress.
    let (_, lstats) = client::get(leader_addr, "/stats").unwrap();
    let lrepl = lstats.get("replication").expect("leader stats carry replication");
    assert_eq!(lrepl.get("role").and_then(Json::as_str), Some("leader"));
    let followers = lrepl.get("followers").and_then(Json::as_arr).unwrap();
    assert!(!followers.is_empty(), "leader reports no follower progress");

    // Read-only until promoted; promote only applies to followers.
    let edit = obj(vec![("insert", queries_json(&extra, 0, 1))]);
    let (status, _) = client::post(follower_addr, "/probes", &edit).unwrap();
    assert_eq!(status, 409, "follower must refuse edits before promote");
    let (status, _) = client::post(leader_addr, "/promote", &obj(vec![])).unwrap();
    assert_eq!(status, 409, "a leader must refuse promotion");

    // Promote: the follower fences its log (epoch 1 consumes LSN 6) and
    // flips read-write.
    let (status, reply) = client::post(follower_addr, "/promote", &obj(vec![])).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(reply.get("promoted").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("fence_epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("next_lsn").and_then(Json::as_u64), Some(7));
    let (status, reply) = client::post(follower_addr, "/probes", &edit).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    let (_, health) = client::get(follower_addr, "/healthz").unwrap();
    assert_eq!(health.get("probes").and_then(Json::as_u64), Some(87));

    // A second promote hits the fence: structured rejection, not a
    // second epoch.
    let (status, reply) = client::post(follower_addr, "/promote", &obj(vec![])).unwrap();
    assert_eq!(status, 409, "{reply:?}");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("already_fenced"));
    assert_eq!(reply.get("fence_epoch").and_then(Json::as_u64), Some(1));

    // The promoted follower advertises its fence in /stats.
    let (_, stats) = client::get(follower_addr, "/stats").unwrap();
    let repl = stats.get("replication").unwrap();
    assert_eq!(repl.get("fence_epoch").and_then(Json::as_u64), Some(1));

    leader_handle.shutdown();
    follower_handle.shutdown();

    // The follower's store accounts for every record: 6 replicated + 1
    // fencing epoch + 1 local post-promote, all replayed from its own log.
    let (recovered, report) = recover(&follower_dir).unwrap();
    assert_eq!(report.snapshot_lsn, 0);
    assert_eq!(report.records_replayed, 8);
    assert_eq!(report.fence_epoch, 1);
    assert_eq!(recovered.len(), 87);
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

/// Builds a warmed durable leader store in `dir` (80 probes).
fn durable_leader_store(dir: &std::path::Path, seed: u64) -> lemp_store::DurableEngine {
    use lemp_store::{DurableEngine, StoreOptions, SyncPolicy};
    let _ = std::fs::remove_dir_all(dir);
    let probes = fixture(80, seed);
    let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let engine = DynamicLemp::new(&probes, policy, config);
    let options = StoreOptions { sync: SyncPolicy::Always, ..Default::default() };
    DurableEngine::create(dir, engine, options).unwrap()
}

#[test]
fn quorum_timeout_without_followers_keeps_the_edit_durable() {
    // sync-replicas=1 with zero connected followers: every edit must come
    // back as a structured quorum_timeout 503, never a 200 — and still be
    // fsynced locally, proving the 503 means "replication lagged", not
    // "edit lost". A restart with the same config then serves the edit.
    use lemp_store::{recover, DurableEngine, StoreOptions, SyncPolicy};

    let dir = std::env::temp_dir().join(format!("lemp-e2e-quorum-solo-{}", std::process::id()));
    let store = durable_leader_store(&dir, 41);
    let cfg = ServeConfig {
        sync_replicas: 1,
        quorum_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let mut leader = Server::bind("127.0.0.1:0", store, cfg).unwrap();
    leader.enable_leader("127.0.0.1:0").unwrap();
    let handle = leader.start().unwrap();
    let addr = handle.addr();

    let extra = fixture(2, 42);
    let edit = obj(vec![("insert", queries_json(&extra, 0, 1))]);
    let (status, reply) = client::post(addr, "/probes", &edit).unwrap();
    assert_eq!(status, 503, "{reply:?}");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("quorum_timeout"));
    assert_eq!(reply.get("required").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("acked").and_then(Json::as_u64), Some(0));
    assert_eq!(reply.get("lsn").and_then(Json::as_u64), Some(1));

    // The engine applied the edit (503 reports delayed replication, not a
    // rollback), queries keep working, and the counter ticks.
    let (_, health) = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.get("probes").and_then(Json::as_u64), Some(81));
    let (_, stats) = client::get(addr, "/stats").unwrap();
    let counters = stats.get("counters").unwrap();
    assert_eq!(counters.get("quorum_timeouts").and_then(Json::as_u64), Some(1));

    // Removals time out the same way.
    let removal = obj(vec![("remove", Json::Arr(vec![Json::Num(0.0)]))]);
    let (status, reply) = client::post(addr, "/probes", &removal).unwrap();
    assert_eq!(status, 503, "{reply:?}");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("quorum_timeout"));

    handle.shutdown();

    // Both "timed out" edits are on disk.
    let (recovered, report) = recover(&dir).unwrap();
    assert_eq!(report.records_replayed, 2);
    assert_eq!(recovered.len(), 80); // +1 insert, -1 removal
    assert!(!recovered.contains(0));

    // Leader restart with sync-replicas still set and zero followers:
    // boots, serves reads, and keeps refusing unreplicated acks.
    let options = StoreOptions { sync: SyncPolicy::Always, ..Default::default() };
    let (store, _) = DurableEngine::open(&dir, options).unwrap();
    let cfg = ServeConfig {
        sync_replicas: 1,
        quorum_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let mut leader = Server::bind("127.0.0.1:0", store, cfg).unwrap();
    leader.enable_leader("127.0.0.1:0").unwrap();
    let handle = leader.start().unwrap();
    let addr = handle.addr();
    let (_, health) = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.get("probes").and_then(Json::as_u64), Some(80));
    let queries = fixture(4, 43);
    let body = obj(vec![("queries", queries_json(&queries, 0, 4)), ("k", Json::Num(3.0))]);
    let (status, _) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200, "reads must flow with an unmet quorum");
    let (status, reply) = client::post(addr, "/probes", &edit).unwrap();
    assert_eq!(status, 503, "{reply:?}");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("quorum_timeout"));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quorum_acks_with_a_tailing_follower_then_times_out_after_its_death() {
    // The happy path: with one live follower, sync-replicas=1 edits are
    // acknowledged with 200. After the follower acks LSN N and dies, the
    // next edit (N+1) must time out once the TTL expires its ghost row —
    // a stale acked_lsn must never satisfy a quorum it no longer covers.
    use lemp_store::replication::bootstrap;
    use lemp_store::{StoreOptions, SyncPolicy};

    let leader_dir = std::env::temp_dir().join(format!("lemp-e2e-ql-{}", std::process::id()));
    let follower_dir = std::env::temp_dir().join(format!("lemp-e2e-qf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&follower_dir);
    let options = StoreOptions { sync: SyncPolicy::Always, ..Default::default() };

    let store = durable_leader_store(&leader_dir, 51);
    let ttl = Duration::from_millis(900);
    let cfg = ServeConfig {
        sync_replicas: 1,
        quorum_timeout: Duration::from_secs(5),
        follower_ttl: ttl,
        ..Default::default()
    };
    let mut leader = Server::bind("127.0.0.1:0", store, cfg).unwrap();
    let repl_addr = leader.enable_leader("127.0.0.1:0").unwrap();
    let leader_handle = leader.start().unwrap();
    let leader_addr = leader_handle.addr();

    let (status, payload) =
        client::request_bytes(repl_addr, "GET", "/repl/snapshot", Some(Duration::from_secs(10)))
            .unwrap();
    assert_eq!(status, 200);
    let (follower_store, _) = bootstrap(&follower_dir, &payload, options).unwrap();
    let mut follower = Server::bind("127.0.0.1:0", follower_store, ServeConfig::default()).unwrap();
    follower.replicate_from(repl_addr.to_string()).unwrap();
    let follower_handle = follower.start().unwrap();
    let follower_addr = follower_handle.addr();

    // Semi-synchronous 200: the ack waited for the follower's watermark.
    let extra = fixture(3, 52);
    let edit = obj(vec![("insert", queries_json(&extra, 0, 1))]);
    let (status, reply) = client::post(leader_addr, "/probes", &edit).unwrap();
    assert_eq!(status, 200, "quorum of 1 live follower must ack: {reply:?}");

    // The follower is fully durable at the acked LSN, and an idle leader
    // leaves lag_lsn pinned at 0 (the gauge refreshes on empty long
    // polls, not only when a batch arrives).
    let mut zero_lags = 0;
    for _ in 0..50 {
        let (_, stats) = client::get(follower_addr, "/stats").unwrap();
        let repl = stats.get("replication").unwrap();
        let probes_live =
            stats.get("engine").and_then(|e| e.get("probes")).and_then(Json::as_u64).unwrap();
        if probes_live == 81 && repl.get("lag_lsn").and_then(Json::as_u64) == Some(0) {
            zero_lags += 1;
            if zero_lags == 3 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(zero_lags, 3, "follower lag must settle at 0 while the leader idles");

    // The follower acks LSN N, then crashes before N+1 exists.
    follower_handle.shutdown();
    std::thread::sleep(ttl + Duration::from_millis(300));

    // Its ghost row has expired: /stats lists no followers…
    let (_, stats) = client::get(leader_addr, "/stats").unwrap();
    let followers =
        stats.get("replication").and_then(|r| r.get("followers")).and_then(Json::as_arr).unwrap();
    assert!(followers.is_empty(), "expired follower must leave /stats: {followers:?}");

    // …and the next edit cannot ride the stale acked_lsn: quorum_timeout.
    let edit = obj(vec![("insert", queries_json(&extra, 1, 2))]);
    let start = std::time::Instant::now();
    let (status, reply) = client::post(leader_addr, "/probes", &edit).unwrap();
    assert_eq!(status, 503, "{reply:?}");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("quorum_timeout"));
    assert!(start.elapsed() >= Duration::from_secs(5), "must wait out the quorum window");

    leader_handle.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

#[test]
fn concurrent_promotes_elect_exactly_one_winner() {
    // Two promotes racing: exactly one may fence the store. The loser
    // gets the structured already_fenced rejection, and the epoch ends at
    // 1 — never 2.
    use lemp_store::replication::bootstrap;
    use lemp_store::{StoreOptions, SyncPolicy};

    let leader_dir = std::env::temp_dir().join(format!("lemp-e2e-race-l-{}", std::process::id()));
    let follower_dir = std::env::temp_dir().join(format!("lemp-e2e-race-f-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&follower_dir);
    let options = StoreOptions { sync: SyncPolicy::Always, ..Default::default() };

    let store = durable_leader_store(&leader_dir, 61);
    let mut leader = Server::bind("127.0.0.1:0", store, ServeConfig::default()).unwrap();
    let repl_addr = leader.enable_leader("127.0.0.1:0").unwrap();
    let leader_handle = leader.start().unwrap();

    let (status, payload) =
        client::request_bytes(repl_addr, "GET", "/repl/snapshot", Some(Duration::from_secs(10)))
            .unwrap();
    assert_eq!(status, 200);
    let (follower_store, _) = bootstrap(&follower_dir, &payload, options).unwrap();
    let mut follower = Server::bind("127.0.0.1:0", follower_store, ServeConfig::default()).unwrap();
    follower.replicate_from(repl_addr.to_string()).unwrap();
    let follower_handle = follower.start().unwrap();
    let follower_addr = follower_handle.addr();

    let results: Vec<(u16, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || client::post(follower_addr, "/promote", &obj(vec![])).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wins: Vec<&(u16, Json)> = results.iter().filter(|(s, _)| *s == 200).collect();
    let losses: Vec<&(u16, Json)> = results.iter().filter(|(s, _)| *s == 409).collect();
    assert_eq!((wins.len(), losses.len()), (1, 1), "{results:?}");
    assert_eq!(wins[0].1.get("fence_epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(losses[0].1.get("code").and_then(Json::as_str), Some("already_fenced"));
    assert_eq!(losses[0].1.get("fence_epoch").and_then(Json::as_u64), Some(1));

    follower_handle.shutdown();
    leader_handle.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

// ---- /metrics exposition -------------------------------------------------

/// Fetches `/metrics`, validates the Prometheus text exposition, and
/// returns the samples keyed by `name{labels}`.
fn scrape_metrics(addr: std::net::SocketAddr) -> std::collections::HashMap<String, f64> {
    let (status, body) =
        client::request_bytes(addr, "GET", "/metrics", Some(Duration::from_secs(10))).unwrap();
    assert_eq!(status, 200);
    parse_exposition(&String::from_utf8(body).expect("metrics body is utf-8"))
}

/// Scrapes until `key` reaches `expected`. The serving thread records its
/// HTTP observation after the response bytes are written, so a scrape
/// racing the last response can run one observation behind; the window is
/// microseconds, but under parallel-test load it is real.
fn scrape_settled(
    addr: std::net::SocketAddr,
    key: &str,
    expected: f64,
) -> std::collections::HashMap<String, f64> {
    let mut samples = scrape_metrics(addr);
    for _ in 0..400 {
        if samples.get(key) == Some(&expected) {
            return samples;
        }
        std::thread::sleep(Duration::from_millis(5));
        samples = scrape_metrics(addr);
    }
    panic!("{key} never reached {expected}, last saw {:?}", samples.get(key));
}

/// Minimal exposition-format checker: metric-name syntax, `# TYPE` before
/// samples, no duplicate series, cumulative histogram buckets ending at
/// `+Inf` == `_count`.
fn parse_exposition(text: &str) -> std::collections::HashMap<String, f64> {
    let mut types: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut samples: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            assert!(
                name.chars().enumerate().all(|(i, c)| c == '_'
                    || c == ':'
                    || c.is_ascii_alphabetic()
                    || (i > 0 && c.is_ascii_digit())),
                "invalid metric name {name}"
            );
            types.insert(name.to_string(), kind.to_string());
        } else if line.starts_with('#') || line.is_empty() {
            continue;
        } else {
            let (key, value) = line.rsplit_once(' ').expect("sample line");
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value: {line}"));
            let name = key.split('{').next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| {
                    name.strip_suffix(s)
                        .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
                })
                .unwrap_or(name);
            assert!(types.contains_key(family), "sample {key} precedes its # TYPE line");
            assert!(samples.insert(key.to_string(), value).is_none(), "duplicate series {key}");
        }
    }
    for (name, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let count_prefix = format!("{name}_count");
        let count_keys: Vec<String> =
            samples.keys().filter(|k| k.starts_with(&count_prefix)).cloned().collect();
        assert!(!count_keys.is_empty(), "histogram {name} has no _count");
        for count_key in count_keys {
            let labels =
                count_key[count_prefix.len()..].trim_start_matches('{').trim_end_matches('}');
            let bucket_prefix =
                format!("{name}_bucket{{{labels}{}le=\"", if labels.is_empty() { "" } else { "," });
            let mut buckets: Vec<(f64, f64)> = samples
                .iter()
                .filter_map(|(k, &v)| {
                    let le = k.strip_prefix(&bucket_prefix)?.strip_suffix("\"}")?;
                    Some((if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? }, v))
                })
                .collect();
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(!buckets.is_empty(), "histogram series {count_key} has no buckets");
            assert!(
                buckets.windows(2).all(|w| w[0].1 <= w[1].1),
                "{name}{{{labels}}} buckets are not cumulative"
            );
            let &(last_le, inf_count) = buckets.last().unwrap();
            assert_eq!(last_le, f64::INFINITY, "{name}{{{labels}}} misses the +Inf bucket");
            assert_eq!(inf_count, samples[&count_key], "{name}{{{labels}}} +Inf != _count");
        }
    }
    samples
}

#[test]
fn metrics_count_requests_and_engine_telemetry_on_a_plain_server() {
    let probes = fixture(200, 51);
    let queries = fixture(8, 52);
    let handle = boot(&probes, ServeConfig::default());
    let addr = handle.addr();

    // Sequential requests: no micro-batch folding, so every count below is
    // exact.
    const POSTS: usize = 7;
    for i in 0..POSTS {
        let lo = i % 4;
        let body =
            obj(vec![("queries", queries_json(&queries, lo, lo + 2)), ("k", Json::Num(3.0))]);
        let (status, _) = client::post(addr, "/top-k", &body).unwrap();
        assert_eq!(status, 200);
    }
    let theta = obj(vec![("queries", queries_json(&queries, 0, 2)), ("theta", Json::Num(0.5))]);
    let (status, _) = client::post(addr, "/above-theta", &theta).unwrap();
    assert_eq!(status, 200);

    scrape_settled(addr, "lemp_http_request_duration_seconds_count{path=\"/top-k\"}", POSTS as f64);
    let samples = scrape_settled(
        addr,
        "lemp_http_request_duration_seconds_count{path=\"/above-theta\"}",
        1.0,
    );
    let key = |k: &str| samples[k];
    assert_eq!(key("lemp_http_request_duration_seconds_count{path=\"/top-k\"}"), POSTS as f64);
    assert_eq!(key("lemp_http_request_body_bytes_count{path=\"/top-k\"}"), POSTS as f64);
    assert!(key("lemp_http_request_body_bytes_sum{path=\"/top-k\"}") > 0.0);
    assert_eq!(key("lemp_http_request_duration_seconds_count{path=\"/above-theta\"}"), 1.0);
    assert_eq!(key("lemp_engine_requests_total{kind=\"top-k\"}"), POSTS as f64);
    assert_eq!(key("lemp_engine_requests_total{kind=\"above-theta\"}"), 1.0);
    assert_eq!(key("lemp_engine_queries_total"), (POSTS * 2 + 2) as f64);
    assert!(key("lemp_engine_candidates_total") > 0.0);
    assert!(key("lemp_engine_results_total") > 0.0);
    assert!(key("lemp_engine_pruned_total") >= 0.0);
    // Every engine execution resolves a plan: hits + misses + refreshes
    // account for all of them.
    let plans = key("lemp_plan_cache_hits_total")
        + key("lemp_plan_cache_misses_total")
        + key("lemp_plan_refreshes_total");
    assert_eq!(plans, (POSTS + 1) as f64, "plan-cache counters must partition engine runs");
    assert_eq!(key("lemp_engine_probes"), probes.len() as f64);
    assert_eq!(key("lemp_engine_shards"), 1.0);
    assert!(key("lemp_engine_memory_bytes{kind=\"full\"}") > 0.0);
    assert!(key("lemp_uptime_seconds") >= 0.0);
    // No slow-query threshold configured: the counter stays flat.
    assert_eq!(key("lemp_slow_queries_total"), 0.0);

    // The scrape endpoint observes itself: a later scrape counts the
    // earlier ones.
    let again = scrape_metrics(addr);
    let metrics_count = "lemp_http_request_duration_seconds_count{path=\"/metrics\"}";
    assert!(again[metrics_count] >= 1.0, "scrapes of /metrics are themselves observed");
    assert!(again[metrics_count] >= samples[metrics_count]);

    // /stats carries the new uptime field alongside its snapshot.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    assert!(stats.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
    handle.shutdown();
}

#[test]
fn metrics_report_quant_method_mix_on_a_quantized_server() {
    let probes = fixture(300, 61);
    let queries = fixture(16, 62);
    let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
    // quantize_force: every bucket with codes scans through QUANT, so the
    // method mix below has QUANT pairs whatever the tuner would price.
    let config =
        RunConfig { sample_size: 8, quantize_bits: 8, quantize_force: true, ..Default::default() };
    let mut engine = DynamicLemp::new(&probes, policy, config);
    engine.warm(&queries, WarmGoal::TopK(5));
    let server = Server::bind("127.0.0.1:0", engine, ServeConfig::default()).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    let body =
        obj(vec![("queries", queries_json(&queries, 0, queries.len())), ("k", Json::Num(5.0))]);
    let (status, _) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200);

    let samples = scrape_metrics(addr);
    assert!(
        samples["lemp_engine_method_pairs_total{algo=\"QUANT\"}"] > 0.0,
        "a quantized engine must score pairs through the QUANT kernel"
    );
    assert!(samples["lemp_engine_memory_bytes{kind=\"quantized\"}"] > 0.0);
    handle.shutdown();
}

#[test]
fn metrics_expose_wal_gauges_on_a_durable_server() {
    use lemp_store::{DurableEngine, StoreOptions};

    let dir = std::env::temp_dir().join(format!("lemp-e2e-metrics-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let probes = fixture(120, 71);
    let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let engine = DynamicLemp::new(&probes, policy, config);
    let durable = DurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
    let server = Server::bind("127.0.0.1:0", durable, ServeConfig::default()).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    let extra = fixture(3, 72);
    let body = obj(vec![("insert", queries_json(&extra, 0, 3))]);
    let (status, _) = client::post(addr, "/probes", &body).unwrap();
    assert_eq!(status, 200);

    let samples =
        scrape_settled(addr, "lemp_http_request_duration_seconds_count{path=\"/probes\"}", 1.0);
    assert_eq!(samples["lemp_wal_records_appended"], 3.0);
    assert_eq!(samples["lemp_wal_durable_lsn"], 3.0, "Always sync keeps durable == appended");
    assert!(samples["lemp_wal_bytes_appended"] > 0.0);
    assert!(samples["lemp_wal_fsyncs"] >= 3.0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_expose_shard_gauges_on_a_sharded_server() {
    let probes = fixture(240, 81);
    let queries = fixture(8, 82);
    let engine = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .threads(2)
        .build(&probes);
    let server = Server::bind("127.0.0.1:0", engine, ServeConfig::default()).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    let body = obj(vec![("queries", queries_json(&queries, 0, 4)), ("k", Json::Num(3.0))]);
    let (status, _) = client::post(addr, "/top-k", &body).unwrap();
    assert_eq!(status, 200);

    let samples = scrape_metrics(addr);
    assert_eq!(samples["lemp_engine_shards"], 3.0);
    assert_eq!(samples["lemp_engine_probes"], probes.len() as f64);
    assert!(samples["lemp_engine_buckets"] >= 3.0, "every shard buckets its probes");
    assert!(samples["lemp_engine_candidates_total"] > 0.0);
    handle.shutdown();
}

#[test]
fn metrics_expose_replication_gauges_on_both_roles() {
    use lemp_store::replication::bootstrap;
    use lemp_store::{StoreOptions, SyncPolicy};

    let leader_dir =
        std::env::temp_dir().join(format!("lemp-e2e-metrics-rl-{}", std::process::id()));
    let follower_dir =
        std::env::temp_dir().join(format!("lemp-e2e-metrics-rf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&follower_dir);
    let options = StoreOptions { sync: SyncPolicy::Always, ..Default::default() };

    let mut leader =
        Server::bind("127.0.0.1:0", durable_leader_store(&leader_dir, 91), ServeConfig::default())
            .unwrap();
    let repl_addr = leader.enable_leader("127.0.0.1:0").unwrap();
    let leader_handle = leader.start().unwrap();
    let leader_addr = leader_handle.addr();

    let (status, payload) =
        client::request_bytes(repl_addr, "GET", "/repl/snapshot", Some(Duration::from_secs(10)))
            .unwrap();
    assert_eq!(status, 200);
    let (follower_store, _) = bootstrap(&follower_dir, &payload, options).unwrap();
    let mut follower = Server::bind("127.0.0.1:0", follower_store, ServeConfig::default()).unwrap();
    follower.replicate_from(repl_addr.to_string()).unwrap();
    let follower_handle = follower.start().unwrap();
    let follower_addr = follower_handle.addr();

    // One replicated edit, then wait for the follower to catch up.
    let extra = fixture(2, 92);
    let body = obj(vec![("insert", queries_json(&extra, 0, 2))]);
    let (status, _) = client::post(leader_addr, "/probes", &body).unwrap();
    assert_eq!(status, 200);
    let mut caught_up = false;
    for _ in 0..100 {
        let samples = scrape_metrics(follower_addr);
        assert_eq!(samples["lemp_replication_role"], 2.0, "follower advertises role 2");
        if samples["lemp_replication_lag_lsn"] == 0.0 && samples["lemp_engine_probes"] == 82.0 {
            caught_up = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(caught_up, "follower never reported lag 0 at 82 probes via /metrics");

    // The leader advertises its role and per-follower progress.
    let samples = scrape_metrics(leader_addr);
    assert_eq!(samples["lemp_replication_role"], 1.0, "leader advertises role 1");
    assert_eq!(samples["lemp_replication_fence_epoch"], 0.0);
    assert_eq!(samples["lemp_replication_followers"], 1.0);
    let acked: Vec<&String> =
        samples.keys().filter(|k| k.starts_with("lemp_replication_follower_acked_lsn{")).collect();
    assert_eq!(acked.len(), 1, "exactly one follower series: {acked:?}");
    assert_eq!(samples[acked[0]], 2.0, "follower acked both edit records");

    leader_handle.shutdown();
    follower_handle.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}
