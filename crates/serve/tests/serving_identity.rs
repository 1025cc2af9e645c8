//! The serving identity gates (ISSUE PR 10):
//!
//! 1. Micro-batched frontier serving is **bitwise identical** to
//!    sequential single-request serving and to the corresponding rows of
//!    the full-graph forward, for every plan backbone, on the f32 and
//!    the int8-quantized path.
//! 2. Incrementally patched serving state equals a from-scratch rebuild:
//!    after a stream of edge/node updates, the patched adjacency is
//!    byte-identical to one rebuilt from the final edge list, and served
//!    logits equal a fresh evaluation on the final graph.

use skipnode_graph::{Graph, GraphUpdate, UpdateStream};
use skipnode_nn::models::BACKBONE_NAMES;
use skipnode_nn::{evaluate, evaluate_quantized, BackboneSpec, ModelCheckpoint, Strategy};
use skipnode_serve::{InferenceServer, ServeEngine, ServeMode, ServerConfig};
use skipnode_tensor::{Matrix, SplitRng};
use std::time::Duration;

const IN_DIM: usize = 10;
const CLASSES: usize = 4;

/// A connected random graph with deterministic features.
fn test_graph(n: usize, extra_edges: usize, seed: u64) -> Graph {
    let mut rng = SplitRng::new(seed);
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..extra_edges {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            edges.push((u, v));
        }
    }
    let features = rng.uniform_matrix(n, IN_DIM, -1.0, 1.0);
    let labels: Vec<usize> = (0..n).map(|i| i % CLASSES).collect();
    Graph::new(n, edges, features, labels, CLASSES)
}

fn checkpoint_for(name: &str, seed: u64) -> ModelCheckpoint {
    let spec = BackboneSpec::new(name, IN_DIM, 12, CLASSES, 4, 0.3);
    let mut rng = SplitRng::new(seed);
    let model = spec.build(&mut rng).unwrap();
    ModelCheckpoint::capture(&spec, model.as_ref())
}

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

/// Gate 1: batched == sequential == full-graph rows, every backbone,
/// both numeric paths.
#[test]
fn micro_batched_serving_is_bitwise_identical_to_full_forward() {
    let graph = test_graph(60, 90, 11);
    let queries: Vec<usize> = vec![3, 17, 17, 42, 0, 59, 28];
    for name in BACKBONE_NAMES {
        let ckpt = checkpoint_for(name, 23);
        for mode in [ServeMode::F32, ServeMode::Quantized] {
            let full = full_eval(&ckpt, &graph, mode);
            let mut engine = ServeEngine::from_checkpoint(&ckpt, &graph, mode).unwrap();
            let batched = engine.serve_batch(&queries);
            assert_eq!(batched.rows(), queries.len());
            assert_eq!(batched.cols(), CLASSES);
            for (i, &q) in queries.iter().enumerate() {
                assert_eq!(
                    batched.row(i),
                    full.row(q),
                    "{name} {mode:?}: batched row for node {q} != full forward"
                );
                let single = engine.serve_one(q);
                assert_eq!(
                    single.as_slice(),
                    batched.row(i),
                    "{name} {mode:?}: sequential serve for node {q} != batched"
                );
            }
        }
    }
}

/// Gate 2: updates patched in place == rebuilt from scratch, with serving
/// interleaved between update bursts (so caches are warm when
/// invalidation happens).
#[test]
fn incremental_updates_match_from_scratch_rebuild() {
    let n0 = 48;
    let graph = test_graph(n0, 60, 7);

    for (which, name) in ["gcn", "gcnii", "appnp", "jknet"].into_iter().enumerate() {
        let ckpt = checkpoint_for(name, 29);
        let mut engine = ServeEngine::from_checkpoint(&ckpt, &graph, ServeMode::F32).unwrap();
        // A different update sequence per backbone.
        let mut stream = UpdateStream::new(&vec![2usize; n0], 0.15, IN_DIM, 5 + which as u64);
        let mut shadow_edges: Vec<(usize, usize)> = graph.edges().to_vec();
        let mut shadow_feat: Vec<Vec<f32>> =
            (0..n0).map(|i| graph.features().row(i).to_vec()).collect();

        for burst in 0..4 {
            // Warm the caches, then mutate.
            let _ = engine.serve_batch(&[0, 1, 2, 3, 4, 5, 6, 7]);
            for update in stream.take_updates(10) {
                match &update {
                    GraphUpdate::AddEdge(u, v) => shadow_edges.push((*u, *v)),
                    GraphUpdate::AddNode(f) => shadow_feat.push(f.clone()),
                }
                engine.apply_update(&update);
            }

            // Structural oracle: patched adjacency == rebuilt adjacency.
            let n = shadow_feat.len();
            let feat_rows: Vec<&[f32]> = shadow_feat.iter().map(|r| r.as_slice()).collect();
            let rebuilt = Graph::new(
                n,
                shadow_edges.clone(),
                Matrix::from_rows(&feat_rows),
                vec![0; n],
                CLASSES,
            );
            let patched = engine.snapshot_adjacency();
            let oracle = rebuilt.gcn_adjacency();
            for r in 0..n {
                assert_eq!(
                    patched.row(r),
                    oracle.row(r),
                    "{name} burst {burst}: patched adjacency row {r} != rebuild"
                );
            }

            // Serving oracle: logits on the patched state == fresh
            // evaluation on the rebuilt graph.
            let full = full_eval(&ckpt, &rebuilt, ServeMode::F32);
            let queries: Vec<usize> = vec![0, 5, n - 1, n / 2, 7];
            let served = engine.serve_batch(&queries);
            for (i, &q) in queries.iter().enumerate() {
                assert_eq!(
                    served.row(i),
                    full.row(q),
                    "{name} burst {burst}: served node {q} != rebuilt-graph eval"
                );
            }
        }
    }
}

/// The threaded server preserves the identity gate: concurrent
/// submissions coalesced into micro-batches return exactly the
/// full-forward rows, before and after queued updates.
#[test]
fn inference_server_answers_match_full_forward_across_updates() {
    let graph = test_graph(40, 50, 3);
    let ckpt = checkpoint_for("gcn", 41);
    let engine = ServeEngine::from_checkpoint(&ckpt, &graph, ServeMode::F32).unwrap();
    let server = InferenceServer::start(
        engine,
        ServerConfig {
            window: Duration::from_millis(2),
            max_batch: 16,
        },
    );

    let full = full_eval(&ckpt, &graph, ServeMode::F32);
    let pending: Vec<(usize, std::sync::mpsc::Receiver<Vec<f32>>)> =
        (0..20).map(|q| (q, server.submit(q))).collect();
    for (q, rx) in pending {
        let got = rx.recv().unwrap();
        assert_eq!(got.as_slice(), full.row(q), "server answer for node {q}");
    }

    // Queue updates, then query again: answers must reflect the new graph.
    let mut edges = graph.edges().to_vec();
    for &(u, v) in &[(0usize, 20usize), (5, 35), (11, 29)] {
        edges.push((u, v));
        server.update(GraphUpdate::AddEdge(u, v));
    }
    let updated = Graph::new(
        graph.num_nodes(),
        edges,
        graph.features().clone(),
        graph.labels().to_vec(),
        CLASSES,
    );
    let full2 = full_eval(&ckpt, &updated, ServeMode::F32);
    for q in [0usize, 5, 11, 20, 29, 35, 39] {
        assert_eq!(
            server.infer(q).as_slice(),
            full2.row(q),
            "post-update server answer for node {q}"
        );
    }

    let (engine, stats, engine_stats) = server.shutdown();
    assert!(stats.requests >= 27);
    assert!(engine_stats.updates == 3);
    assert!(engine.first_hop_cached() > 0);
}

/// An out-of-range query id is rejected without taking the worker down:
/// its receiver sees a closed channel, the next valid query is answered
/// exactly as a twin engine answers it, and shutdown reports one rejection.
#[test]
fn out_of_range_query_is_rejected_and_the_server_keeps_serving() {
    let graph = test_graph(40, 50, 5);
    let ckpt = checkpoint_for("gcn", 43);
    let engine = ServeEngine::from_checkpoint(&ckpt, &graph, ServeMode::F32).unwrap();
    let mut twin = ServeEngine::from_checkpoint(&ckpt, &graph, ServeMode::F32).unwrap();
    let n = engine.num_nodes();
    let server = InferenceServer::start(engine, ServerConfig::default());

    assert!(
        server.submit(n + 5).recv().is_err(),
        "an out-of-range query must be rejected, not answered"
    );
    // A timeout, so a dead worker fails the test instead of hanging it.
    let answer = server
        .submit(7)
        .recv_timeout(Duration::from_secs(60))
        .expect("the server still answers valid queries");
    assert_eq!(answer, twin.serve_one(7));

    let (_, stats, _) = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.requests, 1);
}
