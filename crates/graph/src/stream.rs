//! Streamed million-node variants of the synthetic generators.
//!
//! The in-memory generators ([`crate::planted_partition`],
//! [`crate::ring_of_blocks`], [`crate::barabasi_albert_with_classes`])
//! collect a full `Vec<(usize, usize)>` plus a `HashSet` for exact-`m`
//! retries — fine at 10³–10⁵ nodes, prohibitive at 10⁶–10⁷. The types
//! here implement [`EdgeChunkSource`] instead: each emits its *candidate*
//! edges in chunks, twice (the streams are seed-deterministic, so
//! [`stream_adjacency`]'s two passes see identical edges), and duplicates
//! are removed structurally during CSR compaction rather than by lookup.
//! Realized edge counts therefore track the target within the duplicate
//! rate (a few percent at the sparsities used here) instead of exactly.
//!
//! Two deliberate deviations from the in-memory generators, both
//! documented per type: no duplicate-retry loops (see above), and —
//! for the planted partition — degree correction by **rank-propensity**
//! (an inverse-CDF power law over within-class ranks, O(1) state) in
//! place of the per-node `θ_i` tables (O(n · f64) state).
//!
//! Labels stay formulaic (`i % classes`, `(i / block) % classes`) so no
//! generator holds per-node label state; [`assemble_large_graph`]
//! materializes them once into the compact `u32` form [`LargeGraph`]
//! stores anyway.

use crate::generators::{class_feature_matrix_from, FeatureStyle, PartitionConfig, RingConfig};
use crate::large::LargeGraph;
use skipnode_sparse::{stream_adjacency, EdgeChunkSource, StreamStats};
use skipnode_tensor::SplitRng;

/// Sample a within-class rank from a truncated power law on `[0, len)`:
/// density ∝ `x^{-power}` over `[1, len+1]`, floored to a rank. `power = 0`
/// is uniform. This is the O(1)-state stand-in for the in-memory
/// generator's per-node `θ_i = u_i^{-power}` propensity table: low ranks
/// become hubs with the same heavy-tail flavor.
fn powerlaw_rank(len: usize, power: f64, rng: &mut SplitRng) -> usize {
    if power <= 0.0 || len <= 1 {
        return rng.below(len.max(1));
    }
    let u = rng.unit();
    let l = (len + 1) as f64;
    let x = if (power - 1.0).abs() < 1e-9 {
        l.powf(u)
    } else {
        let b = l.powf(1.0 - power);
        (1.0 + u * (b - 1.0)).powf(1.0 / (1.0 - power))
    };
    ((x.floor() as usize).saturating_sub(1)).min(len - 1)
}

/// Streamed degree-corrected planted partition (labels `i % classes`).
///
/// Emits exactly `cfg.m` candidate edges; self-loop candidates are
/// skipped and duplicates removed structurally, so the realized count is
/// slightly under `m` (the in-memory generator retries instead). Class
/// `c`'s members are `{c, c + classes, …}`, picked by
/// `powerlaw_rank`-distributed within-class rank.
pub struct PlantedPartitionStream {
    cfg: PartitionConfig,
    seed: u64,
    rng: SplitRng,
    emitted: usize,
}

impl PlantedPartitionStream {
    /// Stream for `cfg` with a deterministic `seed`.
    pub fn new(cfg: PartitionConfig, seed: u64) -> Self {
        assert!(cfg.classes >= 1, "need at least one class");
        assert!(cfg.n >= 2, "need at least two nodes");
        assert!(cfg.n >= cfg.classes, "fewer nodes than classes");
        Self {
            cfg,
            seed,
            rng: SplitRng::new(seed),
            emitted: 0,
        }
    }

    fn class_size(&self, c: usize) -> usize {
        self.cfg.n / self.cfg.classes + usize::from(c < self.cfg.n % self.cfg.classes)
    }

    fn pick_in_class(&mut self, c: usize) -> usize {
        let rank = powerlaw_rank(self.class_size(c), self.cfg.power, &mut self.rng);
        c + rank * self.cfg.classes
    }
}

impl EdgeChunkSource for PlantedPartitionStream {
    fn nodes(&self) -> usize {
        self.cfg.n
    }

    fn reset(&mut self) {
        self.rng = SplitRng::new(self.seed);
        self.emitted = 0;
    }

    fn next_chunk(&mut self, buf: &mut Vec<(u32, u32)>) -> bool {
        buf.clear();
        if self.emitted >= self.cfg.m {
            return false;
        }
        let cap = buf.capacity();
        while buf.len() < cap && self.emitted < self.cfg.m {
            self.emitted += 1;
            let c1 = self.rng.below(self.cfg.classes);
            let c2 = if self.rng.unit() < self.cfg.homophily || self.cfg.classes == 1 {
                c1
            } else {
                let mut c = self.rng.below(self.cfg.classes - 1);
                if c >= c1 {
                    c += 1;
                }
                c
            };
            let u = self.pick_in_class(c1);
            let v = self.pick_in_class(c2);
            if u != v {
                buf.push((u as u32, v as u32));
            }
        }
        true
    }
}

/// Streamed ring-of-blocks lattice (labels `(i / block) % classes`).
///
/// Same lattice + rewiring walk as [`crate::ring_of_blocks`], minus the
/// collision-retry loop: colliding rewires simply become structural
/// duplicates, dropped during compaction.
pub struct RingOfBlocksStream {
    cfg: RingConfig,
    k: usize,
    frac: f64,
    window: usize,
    seed: u64,
    rng: SplitRng,
    u: usize,
    d: usize,
}

impl RingOfBlocksStream {
    /// Stream for `cfg` with a deterministic `seed`.
    pub fn new(cfg: RingConfig, seed: u64) -> Self {
        assert!(cfg.n >= 4, "ring too small");
        assert!(cfg.block >= 1, "block must be positive");
        assert!(
            (0.0..=1.0).contains(&cfg.rewire),
            "rewire fraction in [0,1]"
        );
        let mean_degree = 2.0 * cfg.m as f64 / cfg.n as f64;
        let k = (mean_degree / 2.0).floor() as usize;
        let frac = mean_degree / 2.0 - k as f64;
        let window = cfg.window.max(1).min(cfg.n / 2 - 1);
        Self {
            cfg,
            k,
            frac,
            window,
            seed,
            rng: SplitRng::new(seed),
            u: 0,
            d: 1,
        }
    }
}

impl EdgeChunkSource for RingOfBlocksStream {
    fn nodes(&self) -> usize {
        self.cfg.n
    }

    fn reset(&mut self) {
        self.rng = SplitRng::new(self.seed);
        self.u = 0;
        self.d = 1;
    }

    fn next_chunk(&mut self, buf: &mut Vec<(u32, u32)>) -> bool {
        buf.clear();
        if self.u >= self.cfg.n {
            return false;
        }
        let cap = buf.capacity();
        let n = self.cfg.n;
        while buf.len() < cap && self.u < n {
            let (u, d) = (self.u, self.d);
            if self.d > self.k {
                self.d = 1;
                self.u += 1;
            } else {
                self.d += 1;
            }
            if d == self.k + 1 && self.rng.unit() >= self.frac {
                continue;
            }
            let v = if self.rng.unit() < self.cfg.rewire {
                let off = 1 + self.rng.below(self.window);
                if self.rng.bernoulli(0.5) {
                    (u + off) % n
                } else {
                    (u + n - off) % n
                }
            } else {
                (u + d) % n
            };
            if u != v {
                buf.push((u as u32, v as u32));
            }
        }
        true
    }
}

/// Streamed preferential attachment with class-biased wiring (labels
/// `i % classes`).
///
/// Keeps the repeated-endpoint pools of
/// [`crate::barabasi_albert_with_classes`] (that *is* the preferential
/// process — ~16 bytes per edge of generator state, reported via
/// [`EdgeChunkSource::state_bytes`]) but emits edges straight into
/// chunks. [`EdgeChunkSource::reset`] replays the whole attachment
/// process from the seed, so both builder passes see identical edges.
pub struct BaStream {
    n: usize,
    m_attach: usize,
    classes: usize,
    homophily: f64,
    seed: u64,
    seed_count: usize,
    rng: SplitRng,
    /// Next node to attach; `< seed_count` while the clique is pending.
    t: usize,
    pool_global: Vec<u32>,
    pool_class: Vec<Vec<u32>>,
    /// Edges generated but not yet handed out (≤ one node's worth).
    pending: Vec<(u32, u32)>,
    pending_at: usize,
}

impl BaStream {
    /// Stream for an `n`-node graph attaching `m_attach` edges per node.
    pub fn new(n: usize, m_attach: usize, classes: usize, homophily: f64, seed: u64) -> Self {
        assert!(
            n > m_attach + classes,
            "graph too small for attachment count"
        );
        let seed_count = (m_attach + 1).max(classes);
        let mut s = Self {
            n,
            m_attach,
            classes,
            homophily,
            seed,
            seed_count,
            rng: SplitRng::new(seed),
            t: 0,
            pool_global: Vec::new(),
            pool_class: vec![Vec::new(); classes],
            pending: Vec::new(),
            pending_at: 0,
        };
        s.reset();
        s
    }

    fn label(&self, u: usize) -> usize {
        u % self.classes
    }

    /// Generate the next node's edges into `pending`.
    fn generate_next(&mut self) {
        self.pending.clear();
        self.pending_at = 0;
        if self.t == 0 {
            // Seed clique over the first `seed_count` nodes, then seed the
            // pools with each node's clique degree.
            for u in 0..self.seed_count {
                for v in (u + 1)..self.seed_count {
                    self.pending.push((u as u32, v as u32));
                }
            }
            for u in 0..self.seed_count {
                let c = self.label(u);
                for _ in 0..(self.seed_count - 1).max(1) {
                    self.pool_global.push(u as u32);
                    self.pool_class[c].push(u as u32);
                }
            }
            self.t = self.seed_count;
            return;
        }
        let t = self.t;
        self.t += 1;
        let mut targets: Vec<u32> = Vec::with_capacity(self.m_attach);
        let mut guard = 0;
        while targets.len() < self.m_attach && guard < self.m_attach * 60 {
            guard += 1;
            let same_class = self.rng.unit() < self.homophily;
            let class_pool = &self.pool_class[self.label(t)];
            let pool = if same_class && !class_pool.is_empty() {
                class_pool
            } else {
                &self.pool_global
            };
            let cand = pool[self.rng.below(pool.len())];
            if cand as usize != t && !targets.contains(&cand) {
                targets.push(cand);
            }
        }
        for &v in &targets {
            self.pending.push((t as u32, v));
            self.pool_global.push(v);
            let c = v as usize % self.classes;
            self.pool_class[c].push(v);
        }
        self.pool_global.push(t as u32);
        let c = self.label(t);
        self.pool_class[c].push(t as u32);
    }
}

impl EdgeChunkSource for BaStream {
    fn nodes(&self) -> usize {
        self.n
    }

    fn reset(&mut self) {
        self.rng = SplitRng::new(self.seed);
        self.t = 0;
        self.pool_global.clear();
        for p in &mut self.pool_class {
            p.clear();
        }
        self.pending.clear();
        self.pending_at = 0;
    }

    fn next_chunk(&mut self, buf: &mut Vec<(u32, u32)>) -> bool {
        buf.clear();
        if self.pending_at >= self.pending.len() && self.t >= self.n && self.t > 0 {
            return false;
        }
        let cap = buf.capacity();
        while buf.len() < cap {
            if self.pending_at < self.pending.len() {
                buf.push(self.pending[self.pending_at]);
                self.pending_at += 1;
            } else if self.t < self.n || self.t == 0 {
                self.generate_next();
            } else {
                break;
            }
        }
        true
    }

    fn state_bytes(&self) -> usize {
        let u32s = self.pool_global.capacity()
            + self.pool_class.iter().map(|p| p.capacity()).sum::<usize>();
        u32s * std::mem::size_of::<u32>()
            + self.pending.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// Peak-memory and provenance record of a streamed dataset build.
#[derive(Debug, Clone, Copy)]
pub struct StreamedGraphStats {
    /// The CSR builder's observations (including its analytic peak).
    pub adjacency: StreamStats,
    /// Resident bytes of the finished adjacency structure.
    pub structure_bytes: usize,
    /// Resident bytes of the dense feature matrix.
    pub feature_bytes: usize,
    /// Resident bytes of the label array.
    pub label_bytes: usize,
}

impl StreamedGraphStats {
    /// Peak transient heap of the *build* (the CSR builder's bound; label
    /// and feature arrays are permanent dataset residents, not transient
    /// scaffolding, and are reported separately).
    pub fn build_peak_bytes(&self) -> usize {
        self.adjacency.peak_bytes
    }
}

/// Build a [`LargeGraph`] from any edge source plus formulaic labels.
///
/// Feature synthesis draws from its own stream (`seed ^ FEATURE_SALT`) so
/// topology and features stay independently reproducible.
pub fn assemble_large_graph(
    src: &mut dyn EdgeChunkSource,
    labels: impl Iterator<Item = usize>,
    num_classes: usize,
    dim: usize,
    style: FeatureStyle,
    chunk_edges: usize,
    seed: u64,
) -> (LargeGraph, StreamedGraphStats) {
    let n = src.nodes();
    let (structure, adjacency) = stream_adjacency(src, chunk_edges);
    let labels: Vec<u32> = labels.take(n).map(|l| l as u32).collect();
    assert_eq!(labels.len(), n, "label iterator shorter than node count");
    let mut feature_rng = SplitRng::new(seed ^ FEATURE_SALT);
    let features = class_feature_matrix_from(
        labels.iter().map(|&l| l as usize),
        n,
        num_classes,
        dim,
        style,
        &mut feature_rng,
    );
    let stats = StreamedGraphStats {
        adjacency,
        structure_bytes: structure.bytes(),
        feature_bytes: features.rows() * features.cols() * std::mem::size_of::<f32>(),
        label_bytes: labels.capacity() * std::mem::size_of::<u32>(),
    };
    (
        LargeGraph::from_parts(structure, features, labels, num_classes),
        stats,
    )
}

/// Salt separating the feature RNG stream from the topology stream.
const FEATURE_SALT: u64 = 0xfea7_5eed_0000_0001;

/// Streamed counterpart of [`crate::partition_graph`] at million-node
/// scale: planted-partition topology + class features, no intermediate
/// edge list.
pub fn streamed_partition_graph(
    cfg: &PartitionConfig,
    dim: usize,
    style: FeatureStyle,
    chunk_edges: usize,
    seed: u64,
) -> (LargeGraph, StreamedGraphStats) {
    let classes = cfg.classes;
    let mut src = PlantedPartitionStream::new(cfg.clone(), seed);
    let labels = (0..cfg.n).map(move |i| i % classes);
    assemble_large_graph(&mut src, labels, classes, dim, style, chunk_edges, seed)
}

/// Streamed ring-of-blocks dataset (slow-mixing citation stand-in).
pub fn streamed_ring_graph(
    cfg: &RingConfig,
    dim: usize,
    style: FeatureStyle,
    chunk_edges: usize,
    seed: u64,
) -> (LargeGraph, StreamedGraphStats) {
    let (classes, block, n) = (cfg.classes, cfg.block, cfg.n);
    let mut src = RingOfBlocksStream::new(cfg.clone(), seed);
    let labels = (0..n).map(move |i| (i / block) % classes);
    assemble_large_graph(&mut src, labels, classes, dim, style, chunk_edges, seed)
}

/// Streamed class-biased preferential attachment (hub-heavy arxiv
/// stand-in).
#[allow(clippy::too_many_arguments)]
pub fn streamed_ba_graph(
    n: usize,
    m_attach: usize,
    classes: usize,
    homophily: f64,
    dim: usize,
    style: FeatureStyle,
    chunk_edges: usize,
    seed: u64,
) -> (LargeGraph, StreamedGraphStats) {
    let mut src = BaStream::new(n, m_attach, classes, homophily, seed);
    let labels = (0..n).map(move |i| i % classes);
    assemble_large_graph(&mut src, labels, classes, dim, style, chunk_edges, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_stream_replays_identically() {
        let cfg = PartitionConfig {
            n: 500,
            m: 2000,
            classes: 5,
            homophily: 0.8,
            power: 0.4,
        };
        let mut src = PlantedPartitionStream::new(cfg, 9);
        let mut collect = || {
            src.reset();
            let mut all = Vec::new();
            let mut buf = Vec::with_capacity(128);
            while src.next_chunk(&mut buf) {
                all.extend_from_slice(&buf);
            }
            all
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b);
        assert!(a.len() >= 1900, "emitted {}", a.len());
    }

    #[test]
    fn planted_stream_hits_homophily_and_degree_targets() {
        let cfg = PartitionConfig {
            n: 2000,
            m: 8000,
            classes: 4,
            homophily: 0.8,
            power: 0.0,
        };
        let (g, stats) = streamed_partition_graph(
            &cfg,
            16,
            FeatureStyle::TfidfGaussian { separation: 1.0 },
            1024,
            3,
        );
        assert_eq!(g.num_nodes(), 2000);
        assert!(g.num_edges() >= 7600, "edges {}", g.num_edges());
        let h = g.edge_homophily();
        assert!((h - 0.8).abs() < 0.05, "homophily {h}");
        assert!(stats.adjacency.chunks_per_pass >= 7);
    }

    #[test]
    fn rank_propensity_creates_hubs() {
        let mk = |power: f64| {
            let cfg = PartitionConfig {
                n: 800,
                m: 4000,
                classes: 4,
                homophily: 0.7,
                power,
            };
            let (g, _) = streamed_partition_graph(&cfg, 4, FeatureStyle::OneHotGroup, 512, 5);
            *g.degrees().iter().max().unwrap()
        };
        let flat = mk(0.0);
        let heavy = mk(0.8);
        assert!(heavy > flat * 2, "heavy {heavy} vs flat {flat}");
    }

    #[test]
    fn ring_stream_matches_the_in_memory_shape() {
        let cfg = RingConfig {
            n: 2708,
            m: 5429,
            classes: 7,
            block: 15,
            rewire: 0.2,
            window: 12,
        };
        let (g, _) = streamed_ring_graph(&cfg, 8, FeatureStyle::OneHotGroup, 777, 11);
        let m = g.num_edges() as f64;
        // No collision retries, so a slightly wider band than the
        // in-memory generator's 2%.
        assert!((m - 5429.0).abs() < 5429.0 * 0.05, "edges {m}");
        let h = g.edge_homophily();
        assert!((h - 0.81).abs() < 0.07, "homophily {h}");
    }

    #[test]
    fn ba_stream_is_hubby_and_replayable() {
        let mut src = BaStream::new(3000, 5, 10, 0.7, 13);
        let mut buf = Vec::with_capacity(97);
        let mut count_a = 0usize;
        while src.next_chunk(&mut buf) {
            count_a += buf.len();
        }
        src.reset();
        let mut count_b = 0usize;
        while src.next_chunk(&mut buf) {
            count_b += buf.len();
        }
        assert_eq!(count_a, count_b);
        assert!(src.state_bytes() > 0);

        let (g, _) = streamed_ba_graph(3000, 5, 10, 0.7, 8, FeatureStyle::OneHotGroup, 2048, 13);
        let degs = g.degrees();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / 3000.0;
        assert!(max as f64 > mean * 5.0, "max {max}, mean {mean}");
        let h = g.edge_homophily();
        assert!(h > 0.5, "homophily {h}");
    }

    #[test]
    fn feature_styles_match_the_slice_generator() {
        // The iterator-based feature path must draw the identical stream
        // as `class_feature_matrix` given the same labels and rng seed.
        let labels: Vec<usize> = (0..100).map(|i| i % 4).collect();
        for style in [
            FeatureStyle::BinaryBagOfWords {
                active: 8,
                fidelity: 0.9,
                confusion: 0.1,
            },
            FeatureStyle::TfidfGaussian { separation: 1.0 },
            FeatureStyle::OneHotGroup,
        ] {
            let mut r1 = SplitRng::new(21);
            let a = crate::generators::class_feature_matrix(&labels, 4, 32, style, &mut r1);
            let mut r2 = SplitRng::new(21);
            let b = class_feature_matrix_from(labels.iter().copied(), 100, 4, 32, style, &mut r2);
            assert_eq!(a.as_slice(), b.as_slice(), "{style:?}");
        }
    }
}
