//! Construction of the Theorem 4.5 routing scheme.
//!
//! [`build_rtc`] is a *declarative stage list* over the shared build
//! pipeline (`pde_core::pipeline`) and the PDE ladder kernel
//! (`pde_core::ladder`): sample → short-range ladder → homes → skeleton
//! ladder → virtual graph → spanner (+ broadcast) → spanner APSP → trees.
//! Every stage is a pure function of the canonical ladder artifacts and
//! the seed, so [`BuildMode::Simulated`] and [`BuildMode::Native`] builds
//! produce byte-identical schemes; the simulated build additionally
//! charges the paper's rounds (per phase in [`RtcBuildMetrics`]).
//!
//! A built scheme keeps only what queries read: the σ-lists, the skeleton
//! routing rows and the spanner are folded into the long-range tables and
//! the per-node table counts at build time, then dropped.

use congest::arena::{U32View, U64View};
use congest::bfs::build_bfs;
use congest::pipeline::broadcast_all;
use congest::{bits_for, label_record_bits, Message, Metrics, NodeId, Topology};
use graphs::{DenseIndex, Seed, WGraph, INF};
use pde_core::pipeline::{
    self, closest_tagged, mutual_edges, sample_skeleton, trace_chain, virtual_graph, with_resample,
    BuildError,
};
use pde_core::{run_pde, BuildMode, FlatTables, PdeParams};
use spanner::baswana_sen;
use treeroute::TreeSet;

/// The sampling probability of Theorem 4.5: `p = n^{−1/2−1/(4k)}`.
pub fn theorem45_probability(n: usize, k: u32) -> f64 {
    assert!(k >= 1, "k must be ≥ 1");
    (n as f64).powf(-0.5 - 1.0 / (4.0 * f64::from(k)))
}

/// Parameters for [`build_rtc`].
#[derive(Clone, Debug)]
pub struct RtcParams {
    /// The trade-off parameter `k` (stretch `6k−1+o(1)`).
    pub k: u32,
    /// PDE approximation parameter ε (the paper uses `1/log n`; moderate
    /// values are the practical default, see "Deviations from the paper"
    /// in the `pde_core` crate docs).
    pub eps: f64,
    /// Constant `c` in the horizon/list size `h = σ = c·ln n / p`.
    pub c: f64,
    /// RNG seed; skeleton sampling and spanner coins use independent
    /// streams derived from it (see [`graphs::Seed::derive`]).
    pub seed: Seed,
    /// Build engine (see [`BuildMode`]); artifacts are identical across
    /// modes.
    pub mode: BuildMode,
    /// Worker threads for ladder rungs and native stages (`0` = auto,
    /// `1` = sequential); outputs are identical for every value.
    pub threads: usize,
}

impl RtcParams {
    /// Sensible defaults for a given `k` (simulated build, auto threads).
    pub fn new(k: u32) -> Self {
        RtcParams {
            k,
            eps: 0.25,
            c: 2.0,
            seed: Seed(0xC0FFEE),
            mode: BuildMode::Simulated,
            threads: 0,
        }
    }

    /// Sets the build engine.
    #[must_use]
    pub fn with_mode(mut self, mode: BuildMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The label of a node (`O(log n)` bits total, as in Theorem 4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtcLabel {
    /// The node's own identifier.
    pub id: NodeId,
    /// `s'_w`: the node's (approximately) closest skeleton node.
    pub home: NodeId,
    /// `wd'(w, s'_w)`.
    pub dist_home: u64,
    /// DFS label of `w` in the detection tree `T_{s'_w}`.
    pub tree_dfs: u64,
}

impl RtcLabel {
    /// Semantic size of this label in bits (measured in Experiment E4):
    /// two node ids plus the home distance and DFS index, via the shared
    /// [`congest::label_record_bits`] formula.
    pub fn bits(&self, n: usize) -> usize {
        label_record_bits(n as u64, 2, &[self.dist_home, self.tree_dfs])
    }
}

/// Build-time metrics, broken down by pipeline stage. Measurement
/// metadata, not artifact: snapshots do not carry them, so a reloaded
/// scheme holds the default (all zero).
#[derive(Clone, Debug, Default)]
pub struct RtcBuildMetrics {
    /// Total rounds across all stages (the quantity Theorem 4.5 bounds by
    /// `Õ(n^{1/2+1/(4k)} + D)`; 0 for native builds).
    pub total_rounds: u64,
    /// Rounds of the `(V, h, σ)`-estimation (short range).
    pub pde_a_rounds: u64,
    /// Rounds of the `(S, h, |S|)`-estimation (skeleton distances).
    pub pde_s_rounds: u64,
    /// Rounds of the pipelined spanner dissemination.
    pub spanner_broadcast_rounds: u64,
    /// Rounds of the distributed tree labeling.
    pub tree_label_rounds: u64,
    /// Aggregate simulator metrics.
    pub total: Metrics,
    /// `|S|`.
    pub skeleton_size: usize,
    /// Number of spanner edges (`Õ(|S|^{1+1/k})` expected).
    pub spanner_edge_count: usize,
    /// Skeleton re-sampling attempts (1 = first try).
    pub sample_attempts: u32,
    /// The horizon/list size `h = σ` used.
    pub h: u64,
}

/// Item shipped through the pipelined broadcast: a spanner edge or a
/// per-phase Baswana–Sen cluster membership.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum BsItem {
    Edge(u32, u32, u64),
    Member(u32, u32, u32),
}

impl Message for BsItem {
    fn bit_size(&self) -> usize {
        match self {
            BsItem::Edge(a, b, w) => {
                bits_for(u64::from(*a) + 1) + bits_for(u64::from(*b) + 1) + bits_for(w + 1) + 1
            }
            BsItem::Member(_, v, c) => {
                8 + bits_for(u64::from(*v) + 1) + bits_for(u64::from(*c) + 1) + 1
            }
        }
    }
}

/// The constructed scheme: what queries read, and nothing else.
///
/// All query-side state is flat structure-of-arrays: the short-range
/// archive is source-sorted CSR rows ([`FlatTables`]), the skeleton index
/// is a dense per-node array ([`DenseIndex`]), and the long-range
/// reduction is an `n × |S|` matrix — a query never hashes.
#[derive(Debug)]
pub struct RtcScheme {
    pub(crate) topo: Topology,
    /// Per-node labels.
    pub labels: Vec<RtcLabel>,
    /// Short-range routing state from the `(V, h, σ)` pass (archive).
    pub short: FlatTables,
    /// Skeleton membership.
    pub skeleton: Vec<bool>,
    /// Sorted skeleton node ids.
    pub skel_ids: Vec<NodeId>,
    /// Detection trees `T_s` with DFS labels.
    pub trees: TreeSet,
    /// Build metrics.
    pub metrics: RtcBuildMetrics,
    /// `table_sizes[v]`: the paper-sized table entries of `v` (its top-σ
    /// list, its skeleton routing row and one interval row per tree
    /// membership), counted at build time.
    pub(crate) table_sizes: Vec<u32>,
    pub(crate) skel_index: DenseIndex,
    /// `long_dist[x·|S|+j]`: the precomputed long-range reduction
    /// `min_t (wd'_S(x, t) + d_spanner(t, s_j))` — everything of the
    /// skeleton option except the destination's `dist_home`, which is a
    /// per-destination constant and therefore cannot change the argmin.
    /// Stored in snapshots, never recomputed on load; [`graphs::INF`]
    /// when no entry point reaches `s_j`.
    pub(crate) long_dist: U64View,
    /// `long_hop[x·|S|+j]`: the next-hop node realizing `long_dist`,
    /// under the same `(total, hop)` tie-break the per-query loop used
    /// (`u32::MAX` when `long_dist` is [`graphs::INF`]).
    pub(crate) long_hop: U32View,
}

/// Derives the dense long-range tables: for every node `x` and skeleton
/// index `j`, the minimum of `wd'_S(x, t_i) + span_dist[i][j]` over `x`'s
/// skeleton routing row — plus, when `x` is itself a skeleton node, the
/// direct `span_dist[x][j]` option whose hop is the first hop towards the
/// next spanner waypoint (`span_next[i][j]`, a skeleton index, `u32::MAX`
/// when there is none). Ties break on the smaller hop id, exactly as the
/// former per-query loop did, so queries answered from these tables are
/// bit-identical to recomputing the reduction per query.
fn build_long_range(
    topo: &Topology,
    skel_routes: &FlatTables,
    skel_index: &DenseIndex,
    skel_ids: &[NodeId],
    span_dist: &[u64],
    span_next: &[u32],
) -> (Vec<u64>, Vec<u32>) {
    let n = topo.len();
    let m = skel_ids.len();
    let mut long_dist = vec![INF; n * m];
    let mut long_hop = vec![u32::MAX; n * m];
    // `x`'s row entries towards skeleton sources, with their indices.
    let mut row = Vec::new();
    for x in topo.nodes() {
        row.clear();
        row.extend(
            skel_routes
                .row_iter(x)
                .filter_map(|e| Some((skel_index.get(NodeId(e.src))?, e))),
        );
        let own = skel_index.get(x);
        for j in 0..m {
            let mut best: Option<(u64, NodeId)> = None;
            let mut consider = |total: u64, hop: NodeId| {
                if best.is_none_or(|b| (total, hop) < b) {
                    best = Some((total, hop));
                }
            };
            for &(i, e) in &row {
                let sd = span_dist[i * m + j];
                if sd == INF {
                    continue;
                }
                consider(e.est.saturating_add(sd), topo.neighbor(x, e.port));
            }
            if let Some(i) = own {
                let sd = span_dist[i * m + j];
                if sd != INF && i != j {
                    // A reachable `j` always has a waypoint, and spanner
                    // edges are mutual estimates, so `x` routes to it.
                    if let Some(&z) = skel_ids.get(span_next[i * m + j] as usize) {
                        if let Some(e) = skel_routes.get(x, z) {
                            consider(sd, topo.neighbor(x, e.port));
                        }
                    }
                }
            }
            if let Some((d, hop)) = best {
                long_dist[x.index() * m + j] = d;
                long_hop[x.index() * m + j] = hop.0;
            }
        }
    }
    (long_dist, long_hop)
}

impl RtcScheme {
    /// The topology the scheme was built on (shared with route tracing
    /// and snapshot serialization, so callers need no separate copy).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// Builds the Theorem 4.5 scheme on `g`, panicking on unrecoverable
/// sampling failures (see [`try_build_rtc`] for the fallible form).
///
/// # Panics
///
/// Panics on disconnected inputs, and — loudly, with advice — if a
/// w.h.p. event (a node seeing no skeleton node, a disconnected skeleton
/// graph) fails on both the primary sample and the one derived resample.
pub fn build_rtc(g: &WGraph, params: &RtcParams) -> RtcScheme {
    try_build_rtc(g, params)
        .unwrap_or_else(|e| panic!("RTC build failed after one resample: {e} (RtcParams::c)"))
}

/// Builds the Theorem 4.5 scheme, retrying once on a
/// [`Seed::derive`]d resample when a w.h.p. event fails.
///
/// # Errors
///
/// Returns the second attempt's [`BuildError`] when both samples fail.
///
/// # Panics
///
/// Panics on structurally invalid inputs (fewer than two nodes, a
/// disconnected graph).
pub fn try_build_rtc(g: &WGraph, params: &RtcParams) -> Result<RtcScheme, BuildError> {
    assert!(g.len() >= 2, "need at least two nodes");
    with_resample(params.seed, |seed, _attempt| {
        let p = RtcParams {
            seed,
            ..params.clone()
        };
        build_attempt(g, &p)
    })
}

/// One build attempt at a fixed seed: the declarative stage list.
fn build_attempt(g: &WGraph, params: &RtcParams) -> Result<RtcScheme, BuildError> {
    let n = g.len();
    let mode = params.mode;
    let topo = g.to_topology();
    let mut total = Metrics::default();

    // Stage 1: skeleton sampling (node-local coins; no rounds). The
    // sample uses the seed's primary stream; the spanner below gets an
    // independent derived stream.
    let p = theorem45_probability(n, params.k);
    let (skeleton, sample_attempts) = sample_skeleton(n, p, params.seed);
    let skel_ids: Vec<NodeId> = g.nodes().filter(|v| skeleton[v.index()]).collect();

    // Stage 2: (V, h, σ)-estimation with skeleton tags.
    let h = ((params.c * (n as f64).ln() / p).ceil() as u64).clamp(1, 4 * n as u64);
    let sigma = (h as usize).min(n);
    let pde_a = run_pde(
        g,
        &vec![true; n],
        &skeleton,
        &PdeParams::new(h, sigma, params.eps)
            .with_threads(params.threads)
            .with_mode(mode),
    );
    let pde_a_rounds = pde_a.metrics.total.rounds;
    total.absorb(&pde_a.metrics.total);

    // Pivots s'_v: closest tagged source (v itself if sampled).
    let mut labels_home = Vec::with_capacity(n);
    for v in g.nodes() {
        if skeleton[v.index()] {
            labels_home.push((v, 0));
            continue;
        }
        match closest_tagged(&pde_a.routes, v, &skeleton) {
            Some(home) => labels_home.push(home),
            None => return Err(BuildError::NoSkeletonSeen { node: v, h }),
        }
    }

    // Stage 3: (S, h, |S|)-estimation.
    let pde_s = run_pde(
        g,
        &skeleton,
        &vec![false; n],
        &PdeParams::new(h, skel_ids.len().max(1), params.eps)
            .with_threads(params.threads)
            .with_mode(mode),
    );
    let pde_s_rounds = pde_s.metrics.total.rounds;
    total.absorb(&pde_s.metrics.total);

    // Virtual skeleton graph: edge {s,t} iff both endpoints estimated each
    // other; weight = max of the two estimates (both are routable upper
    // bounds; see `pipeline::mutual_edges`).
    let skel_index = DenseIndex::new(n, &skel_ids);
    let sedges = mutual_edges(&pde_s.routes, &skel_ids, &skel_index);
    let skel_graph = virtual_graph(skel_ids.len(), &sedges, "skeleton graph")?;

    // Stage 4: Baswana–Sen spanner; in simulated builds its edges and
    // cluster memberships are disseminated over a BFS tree (the measured
    // `Õ(|S|^{1+1/k} + D)` term), in native builds the globally known
    // spanner needs no broadcast.
    let mut spanner_rng = params.seed.derive(1).rng();
    let sp = baswana_sen(&skel_graph, params.k, &mut spanner_rng);
    let spanner_broadcast_rounds = match mode {
        BuildMode::Simulated => {
            let (bfs, bfs_metrics) = build_bfs(&topo, NodeId(0));
            total.absorb(&bfs_metrics);
            let mut items: Vec<Vec<BsItem>> = vec![Vec::new(); n];
            for &(a, b, w) in &sp.edges {
                let origin = skel_ids[a as usize];
                items[origin.index()].push(BsItem::Edge(a, b, w));
            }
            for &(phase, v, c) in &sp.memberships {
                let origin = skel_ids[v as usize];
                items[origin.index()].push(BsItem::Member(phase, v, c));
            }
            let (_, bc_metrics) = broadcast_all(&topo, &bfs, items);
            total.absorb(&bc_metrics);
            bc_metrics.rounds
        }
        BuildMode::Native => 0,
    };

    // Spanner APSP + next-hop matrix (computable locally by every node
    // since the spanner is globally known — no rounds in either mode),
    // sharded over the worker threads; every thread count gives the same
    // matrices.
    let span_graph = skel_graph_from(&skel_ids, &sp.edges);
    let (span, span_next) = graphs::algo::apsp_with_first_hops(&span_graph, params.threads);
    let span_dist = span.into_dist();

    // Stage 5: detection trees T_s from pivot chains; labels are the
    // central DFS labels of the TreeSet, validated by (and charged as)
    // the distributed labeling protocol in simulated builds.
    let mut trees = TreeSet::new();
    for v in g.nodes() {
        let (home, _) = labels_home[v.index()];
        let chain = trace_chain(&pde_a.routes, &topo, v, home);
        trees.add_chain(&chain);
    }
    trees.build();
    let label_metrics = pipeline::label_trees(&topo, &trees, mode);
    let tree_label_rounds = label_metrics.rounds;
    total.absorb(&label_metrics);

    let labels: Vec<RtcLabel> = g
        .nodes()
        .map(|v| {
            let (home, dist_home) = labels_home[v.index()];
            let tree_dfs = trees.trees[&home]
                .label(v)
                .expect("every node is labeled in its home tree");
            RtcLabel {
                id: v,
                home,
                dist_home,
                tree_dfs,
            }
        })
        .collect();

    // Paper-sized table entries per node: the top-σ short-range list, the
    // skeleton routing row's entries (not its slots: a direct row's holes
    // are storage, not entries), and the node plus its children in every
    // detection tree it belongs to.
    let table_sizes = g
        .nodes()
        .map(|v| {
            let skeleton_row = pde_s.routes.row_iter(v).count();
            let rows = pde_a.lists[v.index()].len() + skeleton_row + trees.rows_at(v);
            u32::try_from(rows).expect("table entries fit u32")
        })
        .collect();

    let metrics = RtcBuildMetrics {
        total_rounds: total.rounds,
        pde_a_rounds,
        pde_s_rounds,
        spanner_broadcast_rounds,
        tree_label_rounds,
        total,
        skeleton_size: skel_ids.len(),
        spanner_edge_count: sp.edges.len(),
        sample_attempts,
        h,
    };

    let (long_dist, long_hop) = build_long_range(
        &topo,
        &pde_s.routes,
        &skel_index,
        &skel_ids,
        &span_dist,
        &span_next,
    );
    let (long_dist, long_hop) = (
        U64View::from_vals(&long_dist),
        U32View::from_vals(&long_hop),
    );
    Ok(RtcScheme {
        topo,
        labels,
        short: pde_a.routes,
        skeleton,
        skel_ids,
        trees,
        metrics,
        table_sizes,
        skel_index,
        long_dist,
        long_hop,
    })
}

fn skel_graph_from(skel_ids: &[NodeId], edges: &[(u32, u32, u64)]) -> WGraph {
    WGraph::from_edges(skel_ids.len().max(1), edges).expect("valid spanner edges")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_shrinks_with_k_and_n() {
        assert!(theorem45_probability(100, 1) < theorem45_probability(100, 3));
        assert!(theorem45_probability(1000, 2) < theorem45_probability(100, 2));
        let p = theorem45_probability(64, 2);
        assert!((p - 64f64.powf(-0.625)).abs() < 1e-12);
    }
}
