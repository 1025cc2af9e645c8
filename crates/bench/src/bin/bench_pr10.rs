//! PR 10 performance record: adaptive micro-batched online serving.
//!
//! The experiment drives the [`InferenceServer`] with synthetic
//! **open-loop** traffic: a generator thread emits queries at a fixed
//! inter-arrival interval regardless of how fast the server drains them,
//! a collector thread stamps each response the moment its row arrives,
//! and per-request latency lands in a [`LatencyHistogram`] (p50/p95/p99
//! from log-spaced buckets). Completion throughput is
//! `requests / (last_completion - first_submit)` — under overload that is
//! the server's service rate, which is exactly the quantity
//! micro-batching is supposed to multiply.
//!
//! Before any timing, two identity gates run inline so a perf record is
//! never produced from a build where serving correctness broke:
//!
//! 1. micro-batched rows == full-graph forward rows, f32 and int8;
//! 2. after a burst of incremental edge/node updates, the patched
//!    adjacency equals a from-scratch rebuild byte-for-byte and served
//!    logits equal a fresh evaluation on the rebuilt graph.
//!
//! The sweep covers batching windows (a `max_batch = 1` degenerate
//! baseline vs. 200 µs and 1 ms coalescing windows), the two numeric
//! paths (f32, int8 weight quantization),
//! and an update-rate mix that interleaves live graph edits with
//! queries. The headline gate asserts the 200 µs window sustains at
//! least 2× the baseline's completion throughput.
//!
//! Run with `cargo run --release -p skipnode-bench --bin bench_pr10`.
//! `--fast` or `SKIPNODE_BENCH_FAST=1` shrinks the graph and request
//! count and skips the wall-clock assertion (identity gates always run).

use skipnode_bench::{BenchSession, LatencyHistogram};
use skipnode_graph::{
    partition_graph, FeatureStyle, Graph, GraphUpdate, PartitionConfig, UpdateStream,
};
use skipnode_nn::{evaluate, evaluate_quantized, BackboneSpec, ModelCheckpoint, Strategy};
use skipnode_serve::{InferenceServer, ServeEngine, ServeMode, ServerConfig};
use skipnode_tensor::{Matrix, SplitRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const DIM: usize = 32;
const HIDDEN: usize = 64;
const CLASSES: usize = 8;
const DEPTH: usize = 4;

fn full_eval(ckpt: &ModelCheckpoint, graph: &Graph, mode: ServeMode) -> Matrix {
    let model = ckpt.restore().unwrap();
    let adj = graph.gcn_adjacency();
    let mut rng = SplitRng::new(1);
    let (logits, _) = match mode {
        ServeMode::F32 => evaluate(model.as_ref(), graph, &adj, &Strategy::None, &mut rng),
        ServeMode::Quantized => {
            evaluate_quantized(model.as_ref(), graph, &adj, &Strategy::None, &mut rng)
        }
    };
    logits
}

/// Identity gates, run before any timing (see module docs).
fn identity_gates(ckpt: &ModelCheckpoint, graph: &Graph) {
    let n = graph.num_nodes();
    let queries: Vec<usize> = (0..32).map(|i| (i * 97) % n).collect();

    // Gate 1: micro-batched == full forward, both numeric paths.
    for mode in [ServeMode::F32, ServeMode::Quantized] {
        let full = full_eval(ckpt, graph, mode);
        let mut engine = ServeEngine::from_checkpoint(ckpt, graph, mode).unwrap();
        let batched = engine.serve_batch(&queries);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(
                batched.row(i),
                full.row(q),
                "{mode:?}: batched row for node {q} != full forward"
            );
        }
        for &q in &queries[..4] {
            assert_eq!(
                engine.serve_one(q).as_slice(),
                full.row(q),
                "{mode:?}: sequential serve for node {q} != full forward"
            );
        }
    }

    // Gate 2: patched state == from-scratch rebuild after live updates.
    let mut engine = ServeEngine::from_checkpoint(ckpt, graph, ServeMode::F32).unwrap();
    let mut stream = UpdateStream::new(&vec![2usize; n], 0.2, DIM, 77);
    let mut shadow_edges: Vec<(usize, usize)> = graph.edges().to_vec();
    let mut shadow_feat: Vec<Vec<f32>> = (0..n).map(|i| graph.features().row(i).to_vec()).collect();
    let _ = engine.serve_batch(&queries); // warm the first-hop cache first
    for update in stream.take_updates(25) {
        match &update {
            GraphUpdate::AddEdge(u, v) => shadow_edges.push((*u, *v)),
            GraphUpdate::AddNode(f) => shadow_feat.push(f.clone()),
        }
        engine.apply_update(&update);
    }
    let n2 = shadow_feat.len();
    let feat_rows: Vec<&[f32]> = shadow_feat.iter().map(|r| r.as_slice()).collect();
    let rebuilt = Graph::new(
        n2,
        shadow_edges,
        Matrix::from_rows(&feat_rows),
        vec![0; n2],
        CLASSES,
    );
    let patched = engine.snapshot_adjacency();
    let oracle = rebuilt.gcn_adjacency();
    for r in 0..n2 {
        assert_eq!(
            patched.row(r),
            oracle.row(r),
            "patched adjacency row {r} != rebuild"
        );
    }
    let full = full_eval(ckpt, &rebuilt, ServeMode::F32);
    let probe: Vec<usize> = vec![0, 5, n2 - 1, n2 / 2, 7];
    let served = engine.serve_batch(&probe);
    for (i, &q) in probe.iter().enumerate() {
        assert_eq!(
            served.row(i),
            full.row(q),
            "served node {q} != rebuilt-graph eval"
        );
    }
    println!("identity gates passed (batched == full forward; patched == rebuild)");
}

struct RunResult {
    throughput_rps: f64,
    hist: LatencyHistogram,
    mean_batch: f64,
    max_batch_formed: usize,
    first_hop_hit_rate: f64,
    invalidated_rows: u64,
}

/// The arrival process: fixed request count and inter-arrival interval.
#[derive(Clone, Copy)]
struct Traffic {
    requests: usize,
    interarrival: Duration,
}

/// One open-loop run: pace `traffic.requests` submissions at
/// `traffic.interarrival` (interleaving one graph update every
/// `update_every` requests when nonzero), collect responses as they
/// land, and report completion throughput plus the latency histogram.
fn run_open_loop(
    ckpt: &ModelCheckpoint,
    graph: &Graph,
    mode: ServeMode,
    config: ServerConfig,
    traffic: Traffic,
    update_every: usize,
    seed: u64,
) -> RunResult {
    let Traffic {
        requests,
        interarrival,
    } = traffic;
    let engine = ServeEngine::from_checkpoint(ckpt, graph, mode).unwrap();
    let n = graph.num_nodes();
    let server = InferenceServer::start(engine, config);
    let mut rng = SplitRng::new(seed);
    let mut stream = UpdateStream::new(&vec![2usize; n], 0.1, DIM, seed ^ 0x5eed);

    let (ctx_tx, ctx_rx) = mpsc::channel::<(Instant, mpsc::Receiver<Vec<f32>>)>();
    let collector = std::thread::spawn(move || {
        let mut hist = LatencyHistogram::new();
        let mut last = Instant::now();
        for (t0, rx) in ctx_rx {
            let _row = rx.recv().expect("server dropped a request");
            last = Instant::now();
            hist.record(last - t0);
        }
        (hist, last)
    });

    let start = Instant::now();
    let mut next = start;
    for i in 0..requests {
        // Open loop: the arrival process never waits for the server.
        while Instant::now() < next {
            std::hint::spin_loop();
        }
        if update_every > 0 && i % update_every == update_every - 1 {
            server.update(stream.next_update());
        }
        let q = rng.below(n);
        ctx_tx
            .send((Instant::now(), server.submit(q)))
            .expect("collector alive");
        next += interarrival;
    }
    drop(ctx_tx);
    let (hist, last) = collector.join().expect("collector panicked");
    let (_engine, sstats, estats) = server.shutdown();
    let elapsed = (last - start).as_secs_f64().max(1e-9);
    let probes = estats.first_hop_hits + estats.first_hop_misses;
    RunResult {
        throughput_rps: requests as f64 / elapsed,
        hist,
        mean_batch: sstats.mean_batch(),
        max_batch_formed: sstats.max_batch_formed,
        first_hop_hit_rate: if probes == 0 {
            0.0
        } else {
            estats.first_hop_hits as f64 / probes as f64
        },
        invalidated_rows: estats.invalidated_rows,
    }
}

fn record(meta: &mut Vec<(&'static str, String)>, keys: [&'static str; 6], r: &RunResult) {
    let [k_tp, k_p50, k_p95, k_p99, k_batch, k_hit] = keys;
    meta.push((k_tp, format!("{:.1}", r.throughput_rps)));
    meta.push((k_p50, format!("{:.1}", r.hist.p50_ns() / 1e3)));
    meta.push((k_p95, format!("{:.1}", r.hist.p95_ns() / 1e3)));
    meta.push((k_p99, format!("{:.1}", r.hist.p99_ns() / 1e3)));
    meta.push((k_batch, format!("{:.2}", r.mean_batch)));
    meta.push((k_hit, format!("{:.3}", r.first_hop_hit_rate)));
}

fn main() {
    let mut session = BenchSession::start("10");
    let fast = session.fast || std::env::args().any(|a| a == "--fast");

    let n: usize = if fast { 2_000 } else { 12_000 };
    let graph = partition_graph(
        &PartitionConfig {
            n,
            m: 4 * n,
            classes: CLASSES,
            homophily: 0.8,
            power: 0.3,
        },
        DIM,
        FeatureStyle::BinaryBagOfWords {
            active: 6,
            fidelity: 0.9,
            confusion: 0.1,
        },
        &mut SplitRng::new(9),
    );
    let spec = BackboneSpec::new("gcn", graph.feature_dim(), HIDDEN, CLASSES, DEPTH, 0.3);
    let model = spec.build(&mut SplitRng::new(23)).unwrap();
    let ckpt = ModelCheckpoint::capture(&spec, model.as_ref());
    println!(
        "serving n={} m={} backbone=gcn depth={} hidden={}",
        graph.num_nodes(),
        graph.num_edges(),
        DEPTH,
        HIDDEN
    );

    identity_gates(&ckpt, &graph);

    // Direct engine micro-benchmarks (no queueing): the per-forward cost
    // micro-batching amortizes.
    {
        let queries: Vec<usize> = (0..64).map(|i| (i * 131) % n).collect();
        let mut engine = ServeEngine::from_checkpoint(&ckpt, &graph, ServeMode::F32).unwrap();
        session
            .bench
            .run("engine", "serve_one_f32", || engine.serve_one(queries[0]));
        session.bench.run("engine", "serve_batch64_f32", || {
            engine.serve_batch(&queries)
        });
        let mut qengine =
            ServeEngine::from_checkpoint(&ckpt, &graph, ServeMode::Quantized).unwrap();
        session.bench.run("engine", "serve_batch64_int8", || {
            qengine.serve_batch(&queries)
        });
    }

    // ---- Open-loop sweep ----------------------------------------------
    let traffic = Traffic {
        requests: if fast { 400 } else { 4_000 },
        interarrival: Duration::from_micros(if fast { 80 } else { 40 }),
    };
    let requests = traffic.requests;
    let interarrival = traffic.interarrival;
    let baseline_cfg = ServerConfig {
        window: Duration::ZERO,
        max_batch: 1, // strictly one request per forward
    };
    let w200_cfg = ServerConfig {
        window: Duration::from_micros(200),
        max_batch: 64,
    };
    let w1ms_cfg = ServerConfig {
        window: Duration::from_millis(1),
        max_batch: 64,
    };

    let run = |cfg, mode, upd, seed| run_open_loop(&ckpt, &graph, mode, cfg, traffic, upd, seed);

    println!("open-loop: {requests} requests at 1/{interarrival:?}");
    let base = run(baseline_cfg, ServeMode::F32, 0, 100);
    println!(
        "  batch-1 baseline: {:.0} req/s  {}",
        base.throughput_rps,
        base.hist.summary()
    );
    let w200 = run(w200_cfg, ServeMode::F32, 0, 101);
    println!(
        "  f32 w=200us:      {:.0} req/s  {}",
        w200.throughput_rps,
        w200.hist.summary()
    );
    let w1ms = run(w1ms_cfg, ServeMode::F32, 0, 102);
    println!(
        "  f32 w=1ms:        {:.0} req/s  {}",
        w1ms.throughput_rps,
        w1ms.hist.summary()
    );

    let int8 = run(w200_cfg, ServeMode::Quantized, 0, 104);
    println!(
        "  int8 w=200us:     {:.0} req/s  {}",
        int8.throughput_rps,
        int8.hist.summary()
    );

    // Update mix: one graph edit per 25 queries rides the same queue.
    let upd = run(w200_cfg, ServeMode::F32, 25, 105);
    println!(
        "  f32 w=200us + updates: {:.0} req/s  {}  ({} adjacency rows invalidated)",
        upd.throughput_rps,
        upd.hist.summary(),
        upd.invalidated_rows
    );

    let speedup = w200.throughput_rps / base.throughput_rps;
    println!(
        "micro-batch speedup over batch-1 serving: {speedup:.2}x (mean batch {:.1}, max {})",
        w200.mean_batch, w200.max_batch_formed
    );
    if fast {
        println!("fast mode: skipping the 2x wall-clock gate");
    } else {
        assert!(
            speedup >= 2.0,
            "micro-batching must at least double completion throughput: got {speedup:.2}x"
        );
    }

    session.meta.push(("nodes", n.to_string()));
    session.meta.push(("edges", graph.num_edges().to_string()));
    session.meta.push(("requests", requests.to_string()));
    session
        .meta
        .push(("interarrival_us", interarrival.as_micros().to_string()));
    record(
        &mut session.meta,
        [
            "serve_b1_rps",
            "serve_b1_p50_us",
            "serve_b1_p95_us",
            "serve_b1_p99_us",
            "serve_b1_mean_batch",
            "serve_b1_hit_rate",
        ],
        &base,
    );
    record(
        &mut session.meta,
        [
            "serve_w200_rps",
            "serve_w200_p50_us",
            "serve_w200_p95_us",
            "serve_w200_p99_us",
            "serve_w200_mean_batch",
            "serve_w200_hit_rate",
        ],
        &w200,
    );
    record(
        &mut session.meta,
        [
            "serve_w1ms_rps",
            "serve_w1ms_p50_us",
            "serve_w1ms_p95_us",
            "serve_w1ms_p99_us",
            "serve_w1ms_mean_batch",
            "serve_w1ms_hit_rate",
        ],
        &w1ms,
    );
    record(
        &mut session.meta,
        [
            "serve_int8_rps",
            "serve_int8_p50_us",
            "serve_int8_p95_us",
            "serve_int8_p99_us",
            "serve_int8_mean_batch",
            "serve_int8_hit_rate",
        ],
        &int8,
    );
    record(
        &mut session.meta,
        [
            "serve_upd_rps",
            "serve_upd_p50_us",
            "serve_upd_p95_us",
            "serve_upd_p99_us",
            "serve_upd_mean_batch",
            "serve_upd_hit_rate",
        ],
        &upd,
    );
    session.meta.push((
        "serve_upd_invalidated_rows",
        upd.invalidated_rows.to_string(),
    ));
    session
        .meta
        .push(("microbatch_speedup", format!("{speedup:.2}")));
    session.finish("results/BENCH_PR10.json");
}
