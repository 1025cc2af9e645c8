//! Serving workloads: an open loop of node queries against
//! `InferenceServer`, optionally mixed with graph writes.
//!
//! The generator (this thread) sends each event at its due time whatever
//! the server's state: it sleeps until about [`SPIN`] before the due time,
//! then spins. A collector thread blocks on the replies. Latency runs from
//! a query's due time to its reply, so a stall also charges the queries
//! queued behind it.
//!
//! The rate ladder is walked [`ROUNDS`] times in short slices, each drained
//! before the next, so every rate samples the whole run rather than one
//! stretch of it: on a shared machine, whose speed drifts over seconds,
//! that keeps one slow stretch from landing on a single rate.

use crate::layers;
use crate::metrics::Report;
use crate::mirror::same_bits;
use crate::stats::Samples;
use crate::trace::{Key, Trace};
use crate::train;
use crate::Args;
use skipnode_graph::{load, DatasetName, Graph, GraphUpdate, Scale, UpdateStream};
use skipnode_nn::{evaluate, ModelCheckpoint, Strategy};
use skipnode_serve::{
    EngineStats, InferenceServer, ServeEngine, ServeMode, ServerConfig, ServerStats,
};
use skipnode_tensor::{kstats, Matrix, SplitRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Depth of the served GCN.
pub const DEPTH: usize = 4;
/// The offered-rate ladder (queries per second): about 0.2, 0.5, 0.8, 1.0
/// and 1.25 times the saturation throughput of `serve-read` (5,500/s)
/// measured on a 2-vCPU x86-64 box, rounded to 50. Frozen: changing it
/// changes the benchmark.
pub const LADDER: [(&str, f64); 5] = [
    ("low", 1100.0),
    ("mid", 2750.0),
    ("high", 4400.0),
    ("over1", 5500.0),
    ("over2", 6900.0),
];
/// p99 latency limit a ladder step must meet to count toward `max_rps`.
pub const SLO_P99_MS: f64 = 25.0;
/// Passes over the ladder; each step's time is split evenly among them.
const ROUNDS: usize = 4;
/// Unrecorded warm-up at the `low` rate before the ladder.
const WARMUP_SECONDS: f64 = 2.0;
/// Writes in `serve-write-mix`: one update per this many queries.
const UPDATE_EVERY: usize = 8;
/// Share of updates that add a node (the rest add an edge).
const UPDATE_NODE_RATE: f64 = 0.1;
/// A query without a reply this long after its due time has failed.
const REPLY_DEADLINE: Duration = Duration::from_secs(5);
/// The generator spins for the last stretch before a due time.
const SPIN: Duration = Duration::from_micros(100);
/// Completions per capacity sample: eight full batches, so where a batch
/// boundary falls barely moves a sample.
const CAPACITY_GROUP: usize = 512;

/// The served graph, the checkpoint, and an engine built from both.
pub struct Served {
    pub graph: Graph,
    pub ckpt: ModelCheckpoint,
    pub engine: ServeEngine,
}

/// Build the serving state `train::SETUP_REPS` times: generate the graph,
/// initialize a GCN from the seed, capture its checkpoint, build the engine.
/// Returns the last state, set-up seconds and graph-generation seconds.
pub fn setup(seed: u64) -> Result<(Served, Vec<f64>, Vec<f64>), String> {
    let mut total = Vec::with_capacity(train::SETUP_REPS);
    let mut generate = Vec::with_capacity(train::SETUP_REPS);
    let mut served = None;
    for _ in 0..train::SETUP_REPS {
        // The previous repetition's state goes first, so the peak holds one.
        drop(served.take());
        let t = Instant::now();
        let graph = load(DatasetName::OgbnArxiv, Scale::Bench, seed);
        generate.push(t.elapsed().as_secs_f64());
        let spec = train::gcn_spec(&graph, DEPTH);
        let model = spec
            .build(&mut SplitRng::new(seed))
            .map_err(|e| e.to_string())?;
        let ckpt = ModelCheckpoint::capture(&spec, model.as_ref());
        let engine = ServeEngine::from_checkpoint(&ckpt, &graph, ServeMode::F32)
            .map_err(|e| e.to_string())?;
        total.push(t.elapsed().as_secs_f64());
        served = Some(Served {
            graph,
            ckpt,
            engine,
        });
    }
    Ok((served.expect("SETUP_REPS > 0"), total, generate))
}

/// One event of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Query(usize),
    Update(GraphUpdate),
}

/// An event and when it is due, relative to the start of its slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    pub at: Duration,
    pub event: Event,
}

/// Traffic for one slice: `rate` queries per second, evenly spaced, for
/// `seconds`, each for a node drawn uniformly from `0..n` (the initial
/// nodes, so every query is valid whatever the writes add). With an update
/// stream, one update follows every [`UPDATE_EVERY`]-th query.
pub fn schedule(
    rate: f64,
    seconds: f64,
    n: usize,
    rng: &mut SplitRng,
    mut updates: Option<UpdateStream>,
) -> Vec<Timed> {
    let count = (rate * seconds).round() as usize;
    let mut out = Vec::with_capacity(count + count / UPDATE_EVERY);
    for i in 0..count {
        let at = Duration::from_secs_f64(i as f64 / rate);
        out.push(Timed {
            at,
            event: Event::Query(rng.below(n)),
        });
        if let Some(stream) = updates.as_mut() {
            if (i + 1) % UPDATE_EVERY == 0 {
                out.push(Timed {
                    at,
                    event: Event::Update(stream.next_update()),
                });
            }
        }
    }
    out
}

/// One slice of traffic: its ladder step (`None` for the warm-up) and
/// events.
type Slice = (Option<usize>, Vec<Timed>);

/// The seeded traffic of one run: a warm-up slice, then `ROUNDS` passes
/// over the ladder steps `steps`. Slices are as long as in a full pass
/// over the ladder. With `writes`, each slice carries its own update
/// stream over the seeded graph, which the slice is served on.
fn traffic(graph: &Graph, writes: bool, seed: u64, seconds: f64, steps: &[usize]) -> Vec<Slice> {
    let n = graph.num_nodes();
    let degrees = graph.degrees();
    let mut rng = SplitRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut stream = || {
        let s = rng.next_u64();
        writes.then(|| UpdateStream::new(&degrees, UPDATE_NODE_RATE, graph.feature_dim(), s))
    };
    let mut plan = vec![(None, stream())];
    for _ in 0..ROUNDS {
        plan.extend(steps.iter().map(|&i| (Some(i), stream())));
    }
    let slice_seconds = (seconds - WARMUP_SECONDS).max(1.0) / (LADDER.len() * ROUNDS) as f64;
    plan.into_iter()
        .map(|(index, updates)| {
            let (rate, seconds) = match index {
                None => (LADDER[0].1, WARMUP_SECONDS),
                Some(i) => (LADDER[i].1, slice_seconds),
            };
            (index, schedule(rate, seconds, n, &mut rng, updates))
        })
        .collect()
}

/// A query in flight.
struct Pending {
    node: usize,
    due: Instant,
    reply: mpsc::Receiver<Vec<f32>>,
}

/// What the generator hands the collector.
enum Sent {
    Query(Pending),
    /// Every query of the slice has been sent.
    EndOfSlice,
}

/// Due time and reply time (`None`: no reply by the deadline) per query.
type Replies = Vec<(Instant, Option<Instant>)>;

/// What one ladder step measured, summed over its slices.
#[derive(Default)]
pub struct Step {
    pub replies: Replies,
    /// Generator lateness per event, in ms.
    pub late_ms: Vec<f64>,
    /// Replies that differ from the full-graph evaluation.
    pub wrong: usize,
    /// Largest number of queries a slice left unanswered at its last due
    /// time.
    pub backlog_end: usize,
    /// Completion rates (per second) over consecutive groups of
    /// [`CAPACITY_GROUP`] replies.
    pub windows: Vec<f64>,
    pub server: ServerStats,
    /// Engine counters accumulated during the step.
    pub engine: EngineStats,
}

impl Step {
    pub fn errors(&self) -> usize {
        self.replies
            .iter()
            .filter(|(_, done)| done.is_none())
            .count()
    }

    /// Due-to-reply latencies of the answered queries, in ms.
    pub fn latencies(&self) -> Samples {
        Samples::new(
            self.replies
                .iter()
                .filter_map(|(due, done)| done.map(|d| (d - *due).as_secs_f64() * 1e3))
                .collect(),
        )
    }

    pub fn late_p99_ms(&self) -> Option<f64> {
        Samples::new(self.late_ms.clone()).percentile(99.0)
    }

    /// Add one slice.
    fn absorb(&mut self, s: Step) {
        self.replies.extend(s.replies);
        self.late_ms.extend(s.late_ms);
        self.wrong += s.wrong;
        self.backlog_end = self.backlog_end.max(s.backlog_end);
        self.windows.extend(s.windows);
        let (a, b) = (&mut self.server, s.server);
        a.batches += b.batches;
        a.requests += b.requests;
        a.max_batch_formed = a.max_batch_formed.max(b.max_batch_formed);
        a.capped_batches += b.capped_batches;
        let (a, b) = (&mut self.engine, s.engine);
        a.queries += b.queries;
        a.batches += b.batches;
        a.updates += b.updates;
        a.invalidated_rows += b.invalidated_rows;
        a.first_hop_hits += b.first_hop_hits;
        a.first_hop_misses += b.first_hop_misses;
    }

    /// Batching and cache counters, as (name, value, unit, samples).
    fn counters(&self) -> [(&'static str, f64, &'static str, usize); 4] {
        let e = &self.engine;
        let s = &self.server;
        let probes = e.first_hop_hits + e.first_hop_misses;
        [
            (
                "serve.invalidated_rows_per_update",
                e.invalidated_rows as f64 / e.updates.max(1) as f64,
                "count",
                e.updates as usize,
            ),
            (
                "serve.first_hop_hit_rate",
                e.first_hop_hits as f64 / probes.max(1) as f64,
                "fraction",
                probes as usize,
            ),
            (
                "server.mean_batch",
                s.mean_batch(),
                "count",
                s.batches as usize,
            ),
            (
                "server.capped_share",
                s.capped_batches as f64 / s.batches.max(1) as f64,
                "fraction",
                s.batches as usize,
            ),
        ]
    }
}

/// Completion rates over consecutive groups of [`CAPACITY_GROUP`]
/// replies: while the server is saturated, its service rate.
fn completion_windows(replies: &[(Instant, Option<Instant>)]) -> Vec<f64> {
    let mut done: Vec<Instant> = replies.iter().filter_map(|(_, d)| *d).collect();
    done.sort_unstable();
    done.iter()
        .step_by(CAPACITY_GROUP)
        .zip(done.iter().skip(CAPACITY_GROUP).step_by(CAPACITY_GROUP))
        .filter(|(a, b)| b > a)
        .map(|(a, b)| CAPACITY_GROUP as f64 / (*b - *a).as_secs_f64())
        .collect()
}

/// Sleep until about [`SPIN`] before `due`, then spin until it.
fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Send one slice's events on time; returns each event's lateness in ms.
fn send_slice(server: &InferenceServer, tx: &mpsc::Sender<Sent>, events: &[Timed]) -> Vec<f64> {
    let start = Instant::now() + Duration::from_millis(1);
    let mut late_ms = Vec::with_capacity(events.len());
    for ev in events {
        let due = start + ev.at;
        pace(due);
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        match &ev.event {
            Event::Query(q) => tx
                .send(Sent::Query(Pending {
                    node: *q,
                    due,
                    reply: server.submit(*q),
                }))
                .expect("the collector outlives the generator"),
            Event::Update(u) => server.update(u.clone()),
        }
    }
    late_ms
}

/// Block on each reply in submission order (the server answers in queue
/// order) until its deadline; at each end of slice, hand over that slice's
/// replies and the number that differ from `expected`.
fn collect(
    rx: mpsc::Receiver<Sent>,
    done: mpsc::Sender<(Replies, usize)>,
    expected: Option<&Matrix>,
) {
    let mut replies = Vec::new();
    let mut wrong = 0;
    for msg in rx {
        match msg {
            Sent::Query(p) => {
                let wait = (p.due + REPLY_DEADLINE).saturating_duration_since(Instant::now());
                let reply = match p.reply.recv_timeout(wait) {
                    Ok(row) => {
                        let t = Instant::now();
                        if expected.is_some_and(|full| !same_bits(&row, full.row(p.node))) {
                            wrong += 1;
                        }
                        Some(t)
                    }
                    Err(_) => None,
                };
                replies.push((p.due, reply));
            }
            Sent::EndOfSlice => {
                if done.send((std::mem::take(&mut replies), wrong)).is_err() {
                    return;
                }
                wrong = 0;
            }
        }
    }
}

/// Serve one slice through a fresh server around `engine` and wait for
/// every reply; returns the engine and what the slice measured.
fn serve_slice(
    engine: ServeEngine,
    events: &[Timed],
    tx: &mpsc::Sender<Sent>,
    done: &mpsc::Receiver<(Replies, usize)>,
) -> (ServeEngine, Step) {
    let before = engine.stats();
    let server = InferenceServer::start(engine, ServerConfig::default());
    let late_ms = send_slice(&server, tx, events);
    tx.send(Sent::EndOfSlice)
        .expect("the collector outlives the generator");
    let (replies, wrong) = done.recv().expect("the collector answers every slice");
    let (engine, server, after) = server.shutdown();
    let last_due = replies.iter().map(|(due, _)| *due).max();
    let backlog_end = last_due.map_or(0, |last| {
        replies
            .iter()
            .filter(|(_, done)| done.is_none_or(|d| d > last))
            .count()
    });
    let step = Step {
        windows: completion_windows(&replies),
        replies,
        late_ms,
        wrong,
        backlog_end,
        server,
        engine: EngineStats {
            queries: after.queries - before.queries,
            batches: after.batches - before.batches,
            updates: after.updates - before.updates,
            invalidated_rows: after.invalidated_rows - before.invalidated_rows,
            first_hop_hits: after.first_hop_hits - before.first_hop_hits,
            first_hop_misses: after.first_hop_misses - before.first_hop_misses,
        },
    };
    (engine, step)
}

/// What a whole plan measured.
pub struct PlanRun<'a> {
    pub warmup: Step,
    /// Per ladder step.
    pub steps: Vec<Step>,
    /// The events of the last slice served.
    pub last: &'a [Timed],
}

/// Serve the slices of `plan`, draining each before the next, and sum them
/// per ladder step. With `fresh`, every slice is served on a freshly built
/// engine; otherwise one engine serves them all.
///
/// A generator that runs late is not retried: latency runs from each
/// query's due time, so the delay is charged to the queries it held back,
/// and each step reports its lateness p99.
///
/// One collector serves the whole plan and each slice's server thread ends
/// before the next starts, so at most one thread at a time needs a new
/// allocator arena: peak memory does not depend on which thread got which
/// arena. With `expected`, every reply is checked bitwise against that row
/// of the full-graph logits.
fn run_plan<'a>(
    engine: ServeEngine,
    plan: &'a [Slice],
    expected: Option<&Matrix>,
    fresh: Option<&dyn Fn() -> Result<ServeEngine, String>>,
    report: &mut Report,
    mut on_slice: impl FnMut(Option<usize>, &Step),
) -> Result<(ServeEngine, PlanRun<'a>), String> {
    let (tx, rx) = mpsc::channel::<Sent>();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        // Owned here, so the collector sees the channel close however this
        // closure returns.
        let tx = tx;
        s.spawn(move || collect(rx, done_tx, expected));
        let mut engine = Some(engine);
        let mut run = PlanRun {
            warmup: Step::default(),
            steps: LADDER.iter().map(|_| Step::default()).collect(),
            last: &[],
        };
        for (index, events) in plan {
            let current = match fresh {
                Some(fresh) => {
                    // The old engine goes first, so the peak holds one.
                    drop(engine.take());
                    fresh()?
                }
                None => engine.take().expect("an engine between slices"),
            };
            let (e, slice) = serve_slice(current, events, &tx, &done_rx);
            engine = Some(e);
            run.last = events;
            report.attempted += slice.replies.len() as u64;
            report.failed += slice.errors() as u64;
            if slice.wrong > 0 {
                let name = index.map_or("warmup", |i| LADDER[i].0);
                return Err(format!(
                    "{name}: {} served rows differ from evaluate",
                    slice.wrong
                ));
            }
            on_slice(*index, &slice);
            match index {
                Some(i) => run.steps[*i].absorb(slice),
                None => run.warmup.absorb(slice),
            }
        }
        Ok((engine.expect("an engine after the last slice"), run))
    })
}

/// Full-graph logits of the checkpoint's model on `graph`.
fn full_logits(ckpt: &ModelCheckpoint, graph: &Graph) -> Result<Matrix, String> {
    let model = ckpt.restore().map_err(|e| e.to_string())?;
    let (logits, _) = evaluate(
        model.as_ref(),
        graph,
        &graph.gcn_adjacency(),
        &Strategy::None,
        &mut SplitRng::new(0),
    );
    Ok(logits)
}

/// Check `engine`'s answers for `probe` bitwise against `full`.
fn check_rows(engine: &mut ServeEngine, full: &Matrix, probe: &[usize]) -> Result<(), String> {
    let got = engine.serve_batch(probe);
    for (i, &q) in probe.iter().enumerate() {
        if !same_bits(got.row(i), full.row(q)) {
            return Err(format!("served row for node {q} differs from evaluate"));
        }
    }
    Ok(())
}

/// After a slice of writes: the engine's patched adjacency must equal a
/// rebuild from the seeded graph plus the slice's updates, and its answers
/// must equal `evaluate` on the rebuilt graph.
fn check_rebuild(
    engine: &mut ServeEngine,
    graph: &Graph,
    ckpt: &ModelCheckpoint,
    events: &[Timed],
    seed: u64,
) -> Result<(), String> {
    let f = graph.feature_dim();
    let mut edges = graph.edges().to_vec();
    let mut feats = graph.features().as_slice().to_vec();
    for ev in events {
        match &ev.event {
            Event::Update(GraphUpdate::AddEdge(u, v)) => edges.push((*u, *v)),
            Event::Update(GraphUpdate::AddNode(row)) => feats.extend_from_slice(row),
            Event::Query(_) => {}
        }
    }
    let n = feats.len() / f;
    let rebuilt = Graph::new(
        n,
        edges,
        Matrix::from_vec(n, f, feats),
        vec![0; n],
        graph.num_classes(),
    );
    let patched = engine.snapshot_adjacency();
    let oracle = rebuilt.gcn_adjacency();
    if patched.rows() != n {
        return Err(format!(
            "patched adjacency has {} rows, the rebuild {n}",
            patched.rows()
        ));
    }
    for r in 0..n {
        let ((pc, pv), (oc, ov)) = (patched.row(r), oracle.row(r));
        if pc != oc || !same_bits(pv, ov) {
            return Err(format!(
                "patched adjacency row {r} differs from the rebuild"
            ));
        }
    }
    let full = full_logits(ckpt, &rebuilt)?;
    let mut rng = SplitRng::new(seed);
    let mut probe: Vec<usize> = (0..61).map(|_| rng.below(n)).collect();
    probe.extend([0, graph.num_nodes().min(n - 1), n - 1]);
    check_rows(engine, &full, &probe)
}

/// A freshly built engine with its first-hop cache warm.
fn warm_engine(ckpt: &ModelCheckpoint, graph: &Graph) -> Result<ServeEngine, String> {
    let mut engine =
        ServeEngine::from_checkpoint(ckpt, graph, ServeMode::F32).map_err(|e| e.to_string())?;
    let everyone: Vec<usize> = (0..graph.num_nodes()).collect();
    std::hint::black_box(engine.serve_batch(&everyone));
    Ok(engine)
}

/// Untraced run: end-to-end metrics over the rate ladder.
///
/// With `writes`, every slice starts from the seeded graph: random new
/// edges widen every query's 4-hop frontier, and on this graph 3,000
/// updates cut the engine's throughput about threefold, so a graph that
/// kept its writes would make each step's load depend on how many steps
/// came before it.
pub fn run(writes: bool, args: &Args, report: &mut Report) -> Result<(), String> {
    let (served, setup_s, _) = setup(args.seed)?;
    let Served {
        graph,
        ckpt,
        mut engine,
    } = served;
    let setup_s = Samples::new(setup_s);
    report.metric(
        "setup_s",
        setup_s
            .percentile(50.0)
            .expect("SETUP_REPS leaves ten beyond"),
        setup_s.len(),
    );

    let full = full_logits(&ckpt, &graph)?;
    let mut rng = SplitRng::new(args.seed);
    let probe: Vec<usize> = (0..64).map(|_| rng.below(graph.num_nodes())).collect();
    check_rows(&mut engine, &full, &probe)?;

    let all: Vec<usize> = (0..LADDER.len()).collect();
    let plan = traffic(&graph, writes, args.seed, args.seconds, &all);
    let fresh = || warm_engine(&ckpt, &graph);
    let (mut engine, run) = if writes {
        run_plan(engine, &plan, None, Some(&fresh), report, |_, _| {})?
    } else {
        run_plan(engine, &plan, Some(&full), None, report, |_, _| {})?
    };
    // Before the write check, whose rebuilt graph is not the served state.
    report.metric("peak_rss_mb", crate::peak_rss_mb()?, 1);

    let mut max_rps = 0.0;
    for (step, &(name, rate)) in run.steps.iter().zip(&LADDER) {
        let lat = step.latencies();
        let p99 = lat.percentile(99.0);
        for (q, v) in [
            (50, lat.percentile(50.0)),
            (90, lat.percentile(90.0)),
            (99, p99),
        ] {
            if let Some(v) = v {
                report.detail(format!("p{q}_ms_{name}"), v, "ms", lat.len());
            }
        }
        if p99.is_some_and(|p| p <= SLO_P99_MS)
            && step.errors() == 0
            && step.backlog_end <= ServerConfig::default().max_batch
        {
            max_rps = rate;
        }
        step_detail(report, name, step);
    }
    let mid = run.steps[1].latencies();
    report.metric(
        "latency_ms_p50",
        mid.percentile(50.0).ok_or("mid step too short for p50")?,
        mid.len(),
    );
    report.metric(
        "latency_ms_tail",
        mid.percentile(90.0).ok_or("mid step too short for p90")?,
        mid.len(),
    );
    let windows = Samples::new(run.steps[4].windows.clone());
    report.metric(
        "throughput_per_s",
        windows
            .percentile(50.0)
            .ok_or("over2 step too short to measure capacity")?,
        windows.len(),
    );
    report.detail("max_rps", max_rps, "1/s", LADDER.len());
    report.detail("slo_p99_ms", SLO_P99_MS, "ms", 1);
    report.detail(
        "error_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
        report.attempted as usize,
    );
    if writes {
        check_rebuild(&mut engine, &graph, &ckpt, run.last, args.seed)?;
    }
    Ok(())
}

/// Per-step batching, cache, backlog and generator numbers.
fn step_detail(report: &mut Report, name: &str, step: &Step) {
    for (counter, value, unit, samples) in step.counters() {
        report.detail(format!("{counter}.{name}"), value, unit, samples);
    }
    report.detail(
        format!("server.backlog_end.{name}"),
        step.backlog_end as f64,
        "count",
        ROUNDS,
    );
    if let Some(late) = step.late_p99_ms() {
        report.detail(
            format!("gen.late_ms_p99.{name}"),
            late,
            "ms",
            step.late_ms.len(),
        );
    }
    let windows = Samples::new(step.windows.clone());
    if let Some(rate) = windows.percentile(50.0) {
        report.detail(
            format!("serve.completion_rate.{name}"),
            rate,
            "1/s",
            windows.len(),
        );
    }
}

/// Traced run: the shared per-layer profile of the served model's training
/// program and engine, plus the `mid` slices replayed with one span per
/// query.
pub fn run_traced(
    writes: bool,
    args: &Args,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<(), String> {
    let (
        Served {
            graph,
            ckpt,
            engine,
        },
        _,
        generate,
    ) = setup(args.seed)?;
    layers::graph_metric(report, generate);
    let spec = train::gcn_spec(&graph, DEPTH);
    layers::profile(&graph, &spec, &Strategy::None, args.seed, report, trace)?;

    let plan = traffic(&graph, writes, args.seed, args.seconds, &[1]);
    let (warmup, mids) = plan.split_at(1);
    // Warming a fresh engine's cache runs the frontier kernel too; keep it
    // out of the per-query kernel counts.
    let fresh = || {
        kstats::set_enabled(false);
        let engine = warm_engine(&ckpt, &graph);
        kstats::set_enabled(true);
        engine
    };
    let fresh = writes.then_some(&fresh as &dyn Fn() -> Result<ServeEngine, String>);
    let (engine, _) = run_plan(engine, warmup, None, fresh, report, |_, _| {})?;
    let before = kstats::snapshot();
    let mut request = 0;
    let (_, run) = run_plan(engine, mids, None, fresh, report, |_, slice| {
        let first = slice.replies.iter().map(|(due, _)| *due).min();
        let last = slice.replies.iter().filter_map(|(_, done)| *done).max();
        if let (Some(first), Some(last)) = (first, last) {
            let root = trace.spans().len();
            trace.record("serve.slice.mid", None, Key::Run, first, last);
            for &(due, done) in &slice.replies {
                if let Some(done) = done {
                    trace.record(
                        "serve.request",
                        Some(root),
                        Key::Request(request),
                        due,
                        done,
                    );
                }
                request += 1;
            }
        }
    })?;
    let after = kstats::snapshot();
    let mid = &run.steps[1];
    let mapped = after
        .iter()
        .zip(&before)
        .find(|(k, _)| k.name == "spmm_mapped")
        .map(|(a, b)| a.work - b.work)
        .expect("kstats has the spmm_mapped family");
    for (name, value, unit, samples) in mid.counters() {
        report.detail(name, value, unit, samples);
    }
    let queries = mid.engine.queries;
    report.detail(
        "sparse.spmm_mapped.rows_per_query",
        mapped as f64 / queries.max(1) as f64,
        "count",
        queries as usize,
    );
    report.detail(
        "server.backlog_end",
        mid.backlog_end as f64,
        "count",
        ROUNDS,
    );
    Ok(())
}

/// Direct timings of one engine, for the per-layer profile of any workload.
pub struct EngineProbe {
    pub from_checkpoint_ms: f64,
    pub builds: usize,
    /// (batch size, mean ms per `serve_batch`, calls).
    pub batch_ms: [(usize, f64, usize); 3],
    pub apply_update_us: f64,
    pub updates: usize,
}

/// Time `ServeEngine::from_checkpoint`, `serve_batch` at batch sizes 1, 16
/// and 64 with the first-hop cache warm, and `apply_update`.
pub fn probe_engine(
    ckpt: &ModelCheckpoint,
    graph: &Graph,
    seed: u64,
) -> Result<EngineProbe, String> {
    const BUILDS: usize = 3;
    const UPDATES: usize = 200;
    let t = Instant::now();
    let mut engine = None;
    for _ in 0..BUILDS {
        engine = Some(
            ServeEngine::from_checkpoint(ckpt, graph, ServeMode::F32).map_err(|e| e.to_string())?,
        );
    }
    let from_checkpoint_ms = t.elapsed().as_secs_f64() * 1e3 / BUILDS as f64;
    let mut engine = engine.expect("BUILDS > 0");

    let n = graph.num_nodes();
    let everyone: Vec<usize> = (0..n).collect();
    std::hint::black_box(engine.serve_batch(&everyone));
    let mut rng = SplitRng::new(seed);
    let batch_ms = [1usize, 16, 64].map(|b| {
        let t = Instant::now();
        let mut calls = 0usize;
        while calls < 5 || t.elapsed() < Duration::from_millis(250) {
            let q: Vec<usize> = (0..b).map(|_| rng.below(n)).collect();
            std::hint::black_box(engine.serve_batch(&q));
            calls += 1;
        }
        (b, t.elapsed().as_secs_f64() * 1e3 / calls as f64, calls)
    });

    let mut stream = UpdateStream::new(
        &graph.degrees(),
        UPDATE_NODE_RATE,
        graph.feature_dim(),
        seed,
    );
    let updates = stream.take_updates(UPDATES);
    let t = Instant::now();
    for u in &updates {
        engine.apply_update(u);
    }
    let apply_update_us = t.elapsed().as_secs_f64() * 1e6 / UPDATES as f64;
    Ok(EngineProbe {
        from_checkpoint_ms,
        builds: BUILDS,
        batch_ms,
        apply_update_us,
        updates: UPDATES,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seeded_schedule_is_identical_on_rerun() {
        let degrees = vec![1usize; 50];
        let make = || {
            let mut rng = SplitRng::new(11);
            let stream = UpdateStream::new(&degrees, UPDATE_NODE_RATE, 3, 11);
            schedule(400.0, 0.5, 50, &mut rng, Some(stream))
        };
        let a = make();
        assert_eq!(a, make());
        let queries: Vec<Event> = a
            .iter()
            .filter(|t| matches!(t.event, Event::Query(_)))
            .map(|t| t.event.clone())
            .collect();
        assert_eq!(queries.len(), 200);
        assert!(queries
            .iter()
            .all(|q| matches!(q, Event::Query(node) if *node < 50)));
        assert_eq!(a.len(), 200 + 200 / UPDATE_EVERY);
        assert_eq!(a[1].at, Duration::from_micros(2500));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));

        let mut rng = SplitRng::new(12);
        let other: Vec<Event> = schedule(400.0, 0.5, 50, &mut rng, None)
            .into_iter()
            .map(|t| t.event)
            .collect();
        assert_eq!(other.len(), 200);
        assert_ne!(other, queries);
    }

    #[test]
    fn completion_rates_come_from_whole_groups_of_replies() {
        let t0 = Instant::now();
        let us = |u: u64| t0 + Duration::from_micros(u);
        // One reply every 200 µs: 5,000 per second in every whole group; the
        // trailing partial group and the failure are left out.
        let mut replies: Vec<(Instant, Option<Instant>)> = (0..(2 * CAPACITY_GROUP as u64 + 7))
            .map(|i| (t0, Some(us(200 * i))))
            .collect();
        replies.push((t0, None));
        replies.reverse();
        let rates = completion_windows(&replies);
        assert_eq!(rates.len(), 2);
        assert!(rates.iter().all(|r| (r - 5000.0).abs() < 1e-6), "{rates:?}");
        assert!(completion_windows(&[]).is_empty());
    }
}
