//! Adaptive micro-batched request serving on top of [`ServeEngine`].
//!
//! Requests land in a shared queue; a single worker thread coalesces
//! everything that arrives within a tunable batching window (or up to a
//! batch-size cap) into one [`ServeEngine::serve_batch`]: one compact
//! replay of the model's recorded forward over the rows the batch needs.
//! Because batched and sequential serving are bitwise identical (the
//! engine's contract), the window is a pure latency/throughput knob with
//! no accuracy dimension: wider windows amortize the per-batch fixed
//! costs (the reverse pass, cutting adjacency blocks, weight traffic)
//! over more queries, and neighborhoods shared between queries are
//! computed once.
//!
//! Graph updates ride the same channel: they are drained and applied
//! *before* each batch executes, so every response reflects all updates
//! submitted before its batch formed.

use crate::engine::{EngineStats, ServeEngine};
use skipnode_graph::GraphUpdate;
use skipnode_tensor::workspace;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How long the worker holds the first request of a batch open for
    /// followers. `Duration::ZERO` serves strictly one request at a time
    /// (the degenerate baseline the benches compare against).
    pub window: Duration,
    /// Hard cap on requests per batch; a full batch dispatches without
    /// waiting out the window.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            window: Duration::from_micros(500),
            max_batch: 64,
        }
    }
}

/// Batch-formation counters, separate from the engine's own stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Batches dispatched.
    pub batches: u64,
    /// Requests answered.
    pub requests: u64,
    /// Largest batch formed.
    pub max_batch_formed: usize,
    /// Batches that hit the size cap (dispatched early).
    pub capped_batches: u64,
    /// Queries dropped unanswered because their node id was out of range
    /// when their batch ran; their receivers see a closed channel.
    pub rejected: u64,
    /// Graph updates dropped unapplied because they were malformed when
    /// their turn came: an `AddEdge` endpoint out of range, or an
    /// `AddNode` row whose width is not the model's input width.
    pub rejected_updates: u64,
}

impl ServerStats {
    /// Mean formed batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

struct State {
    queue: VecDeque<(usize, mpsc::Sender<Vec<f32>>)>,
    updates: VecDeque<GraphUpdate>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Handle to a running inference server. Cloneable-by-reference via
/// `&InferenceServer`; submit from any thread.
pub struct InferenceServer {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<(ServeEngine, ServerStats)>>,
}

impl InferenceServer {
    /// Spawn the worker thread and start serving.
    pub fn start(engine: ServeEngine, config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                updates: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || worker_loop(worker_shared, engine, config));
        Self {
            shared,
            worker: Some(worker),
        }
    }

    /// Enqueue a query; the returned receiver yields the logits row. A
    /// node id out of range when the query's batch runs (after the updates
    /// queued before it) is rejected: the receiver's `recv` returns `Err`
    /// and the server keeps serving.
    pub fn submit(&self, node: usize) -> mpsc::Receiver<Vec<f32>> {
        let (tx, rx) = mpsc::channel();
        let mut st = self.shared.state.lock().unwrap();
        st.queue.push_back((node, tx));
        self.shared.cv.notify_one();
        rx
    }

    /// Blocking query: submit and wait for the logits.
    ///
    /// # Panics
    /// Panics if the query was rejected (node id out of range) or the
    /// server shut down before answering.
    pub fn infer(&self, node: usize) -> Vec<f32> {
        self.submit(node)
            .recv()
            .expect("server shut down before answering")
    }

    /// Enqueue a graph update; applied before the next batch executes. A
    /// malformed update (see [`ServeEngine::accepts_update`]) is dropped
    /// and counted in [`ServerStats::rejected_updates`].
    pub fn update(&self, update: GraphUpdate) {
        let mut st = self.shared.state.lock().unwrap();
        st.updates.push_back(update);
        self.shared.cv.notify_one();
    }

    /// Drain the queue, stop the worker, and recover the engine (with
    /// its caches warm) plus the batching stats.
    pub fn shutdown(mut self) -> (ServeEngine, ServerStats, EngineStats) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.cv.notify_one();
        }
        let (engine, stats) = self
            .worker
            .take()
            .expect("shutdown called once")
            .join()
            .expect("server worker panicked");
        let engine_stats = engine.stats();
        (engine, stats, engine_stats)
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            {
                let mut st = self.shared.state.lock().unwrap();
                st.shutdown = true;
                self.shared.cv.notify_one();
            }
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    mut engine: ServeEngine,
    config: ServerConfig,
) -> (ServeEngine, ServerStats) {
    let max_batch = config.max_batch.max(1);
    let mut stats = ServerStats::default();
    loop {
        let mut st = shared.state.lock().unwrap();
        while st.queue.is_empty() && st.updates.is_empty() && !st.shutdown {
            st = shared.cv.wait(st).unwrap();
        }
        if st.queue.is_empty() && st.updates.is_empty() && st.shutdown {
            return (engine, stats);
        }
        // Hold the batch open for the window (skipped when flushing at
        // shutdown) unless the cap fills first.
        if !st.shutdown && !st.queue.is_empty() && !config.window.is_zero() {
            let deadline = Instant::now() + config.window;
            while st.queue.len() < max_batch && !st.shutdown {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = shared.cv.wait_timeout(st, deadline - now).unwrap();
                st = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let updates: Vec<GraphUpdate> = st.updates.drain(..).collect();
        let take = st.queue.len().min(max_batch);
        let mut batch: Vec<(usize, mpsc::Sender<Vec<f32>>)> = st.queue.drain(..take).collect();
        drop(st);

        // A malformed update would panic the engine and with it the only
        // worker; drop it instead. Each is checked against the graph as the
        // updates before it left it.
        for update in &updates {
            if engine.accepts_update(update) {
                engine.apply_update(update);
            } else {
                stats.rejected_updates += 1;
            }
        }
        // An out-of-range id would panic the engine and with it the only
        // worker; drop those queries instead (their senders close here).
        let n = engine.num_nodes();
        let before = batch.len();
        batch.retain(|&(q, _)| q < n);
        stats.rejected += (before - batch.len()) as u64;
        if !batch.is_empty() {
            let queries: Vec<usize> = batch.iter().map(|(q, _)| *q).collect();
            let logits = engine.serve_batch(&queries);
            for (i, (_, tx)) in batch.iter().enumerate() {
                // A caller that dropped its receiver just misses the row.
                let _ = tx.send(logits.row(i).to_vec());
            }
            workspace::give(logits);
            stats.batches += 1;
            stats.requests += batch.len() as u64;
            stats.max_batch_formed = stats.max_batch_formed.max(batch.len());
            if batch.len() == max_batch {
                stats.capped_batches += 1;
            }
        }
    }
}
