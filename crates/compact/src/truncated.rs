//! Theorem 4.13: the truncated hierarchy over the level-`l0` skeleton
//! graph `G̃(l0)` (Definition 4.9, Lemmas 4.10–4.12).
//!
//! Levels `< l0` are Lemma 4.7's: the stage that builds
//! [`crate::build_hierarchy`] builds them, and the scheme holds them as a
//! nested [`CompactScheme`], so their estimate, options, table rows and
//! snapshot sections are the hierarchy's own. Levels `≥ l0` run on the
//! *virtual* skeleton graph `G̃(l0)` whose vertices are `S_{l0}` and whose
//! edges are the mutual PDE estimates between nearby skeleton nodes. Two
//! upper-level modes are provided:
//!
//! * [`UpperMode::Simulated`] — PDE is executed on `G̃(l0)` and every
//!   simulated round's messages are pipelined over a BFS tree of `G`; the
//!   charged cost is `Σ_i M_i + rounds·D` exactly as in Lemma 4.12.
//! * [`UpperMode::Local`] — the Corollary 4.14 alternative: broadcast all
//!   of `G̃(l0)`'s edges over the BFS tree (real pipelined broadcast,
//!   measured) and let every node solve the upper levels locally and
//!   exactly on `G̃(l0)` (`Õ(n^{l0/k} + |S_{l0}|² + D)` rounds).
//!
//! Routing combines three stateless phases, all folded into one monotone
//! potential (every hop takes the option with the smallest upper bound on
//! the remaining distance, which strictly decreases along the walk):
//! lower-level options, an upper-level phase that walks base chains and
//! skeleton waypoint paths towards the destination's connector `t*`, and a
//! final base-tree descent.

use congest::bfs::build_bfs;
use congest::pipeline::broadcast_all;
use congest::{bits_for, label_record_bits, Message, Metrics, NodeId, Topology};
use graphs::{DenseIndex, WGraph, INF};
use pde_core::pipeline::{
    self, level_flags, mutual_edges, sample_levels, trace_chain, virtual_graph, with_resample,
    BuildError,
};
use pde_core::schedule::RowEstimate;
use pde_core::{resolve_entries, run_pde, BuildMode, FlatTables, PairTable, PdeParams};
use routing::RoutingScheme;
use treeroute::TreeSet;

use crate::hierarchy::{build_levels, CompactParams, CompactScheme, HorizonMode};

/// How the upper (≥ `l0`) levels are computed on `G̃(l0)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpperMode {
    /// Simulate PDE on `G̃(l0)`, pipelining each round over a BFS tree
    /// (Lemma 4.12; cost `Σ_i M_i + rounds·D`, charged from measurements).
    Simulated,
    /// Broadcast `G̃(l0)` and solve the upper levels locally & exactly
    /// (Corollary 4.14, second variant).
    Local,
}

/// A broadcastable `G̃` edge.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct GtEdge(u32, u32, u64);

impl Message for GtEdge {
    fn bit_size(&self) -> usize {
        bits_for(u64::from(self.0) + 1) + bits_for(u64::from(self.1) + 1) + bits_for(self.2 + 1)
    }
}

/// Per-level upper pivot information in a node's label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpperPivot {
    /// The pivot `s'_l(w) ∈ S_l`.
    pub pivot: NodeId,
    /// Combined estimate `wd'(w, s'_l(w))` (Lemma 4.10).
    pub est: u64,
    /// The skeleton connector `t*` realizing the estimate.
    pub t_star: NodeId,
    /// `wd'_base(w, t*)`.
    pub est_base: u64,
    /// `w`'s DFS label in the base tree `T^base_{t*}`.
    pub base_dfs: u64,
}

/// Label records the truncated scheme adds to the nested
/// [`crate::CompactLabel`] (which holds the node id and the pivots of
/// levels `1..l0`): one connector record per upper level. Together still
/// `O(k log n)` bits (the paper's two-part tree labels of Lemma 4.12).
#[derive(Clone, Debug)]
pub struct TruncLabel {
    /// Pivot records for levels `l0..k`.
    pub upper: Vec<UpperPivot>,
}

impl TruncLabel {
    /// Semantic size in bits of the upper records: one `(pivot,
    /// connector, est, est_base, dfs)` record per upper level, via the
    /// shared [`congest::label_record_bits`] formula.
    pub fn bits(&self, n: usize) -> usize {
        self.upper
            .iter()
            .map(|u| label_record_bits(n as u64, 2, &[u.est, u.est_base, u.base_dfs]))
            .sum()
    }
}

/// Build metrics of the truncated scheme. Measurement metadata, not
/// artifact: snapshots do not carry them, so a reloaded scheme holds the
/// default.
#[derive(Clone, Debug, Default)]
pub struct TruncatedMetrics {
    /// Total rounds, including the charged skeleton-simulation cost.
    pub total_rounds: u64,
    /// Rounds of the lower-level PDE runs.
    pub lower_rounds: u64,
    /// Rounds of the `(S_{l0}, h_{l0}, |S_{l0}|)`-estimation.
    pub base_rounds: u64,
    /// Charged rounds for the upper levels (simulated `Σ M_i + r·D`, or
    /// the measured broadcast in `Local` mode).
    pub upper_rounds: u64,
    /// Distributed tree-labeling rounds.
    pub tree_label_rounds: u64,
    /// Aggregate metrics.
    pub total: Metrics,
    /// `|S_{l0}|`.
    pub skeleton_size: usize,
    /// Edges of `G̃(l0)`.
    pub gt_edges: usize,
}

/// The truncated compact scheme (Theorem 4.13 / Corollary 4.14): Lemma
/// 4.7's hierarchy below `l0`, plus what the skeleton graph adds.
///
/// Query-side state is flat: route archives are source-sorted CSR rows
/// ([`FlatTables`]), the skeleton index is a dense per-node array, and the
/// upper-level `(node, source)` maps are dense `m × m` [`PairTable`]s —
/// no query ever probes a hash map.
#[derive(Debug)]
pub struct TruncatedScheme {
    /// Levels `< l0`, built exactly as in Lemma 4.7.
    pub(crate) lower: CompactScheme,
    /// `(S_{l0}, h_{l0}, |S_{l0}|)` route archive.
    pub(crate) base_routes: FlatTables,
    /// Each `base_routes` slot's pre-resolved skeleton index and decoded
    /// estimate (derived, not serialized; `(NONE, INF)` for an absent
    /// slot): the estimate loop reads it instead of doing a per-entry
    /// `skel_index` load and code decode.
    pub(crate) base_slots: Vec<(u32, u64)>,
    pub(crate) skel_ids: Vec<NodeId>,
    pub(crate) skel_index: DenseIndex,
    /// `G̃(l0)` in skeleton-index space.
    pub(crate) gt_graph: WGraph,
    /// Per upper level `j = l − l0`: `(node index, source index) → est`.
    pub(crate) upper_est: Vec<PairTable>,
    /// Per upper level: `(from index, source index) → next index` chains.
    pub(crate) upper_next: Vec<PairTable>,
    /// Base trees `T^base_t` (descent of the last segment).
    pub(crate) base_trees: TreeSet,
    /// Per-node upper label records.
    pub labels: Vec<TruncLabel>,
    /// `connectors[v]`: the connector table entries of `v`, at most `σ`.
    pub(crate) connectors: Vec<u32>,
    /// Build metrics.
    pub metrics: TruncatedMetrics,
}

/// Builds the truncated hierarchy, panicking on unrecoverable sampling
/// failures (see [`try_build_truncated`]).
///
/// `l0` must satisfy `1 ≤ l0 ≤ k−1` (Theorem 4.13 uses
/// `k/2+1 ≤ l0 ≤ k−1`; smaller values are allowed for experimentation).
///
/// # Panics
///
/// Panics on invalid `l0` or disconnected inputs, and — with advice to
/// raise `c` — when a w.h.p. event (disconnected `G̃`, missing pivots)
/// fails on both the primary sample and the one derived resample.
pub fn build_truncated(
    g: &WGraph,
    params: &CompactParams,
    l0: u32,
    mode: UpperMode,
) -> TruncatedScheme {
    try_build_truncated(g, params, l0, mode).unwrap_or_else(|e| {
        panic!("truncated build failed after one resample: {e} (CompactParams::c)")
    })
}

/// Builds the truncated hierarchy, retrying once on a
/// [`graphs::Seed::derive`]d resample when a w.h.p. event fails.
///
/// # Errors
///
/// Returns the second attempt's [`BuildError`] when both samples fail.
///
/// # Panics
///
/// Panics on invalid `l0`/`k` or disconnected inputs.
pub fn try_build_truncated(
    g: &WGraph,
    params: &CompactParams,
    l0: u32,
    upper: UpperMode,
) -> Result<TruncatedScheme, BuildError> {
    assert!(params.k >= 2, "truncation needs k ≥ 2");
    assert!((1..params.k).contains(&l0), "l0 must be in 1..k");
    with_resample(params.seed, |seed, _attempt| {
        let p = CompactParams {
            seed,
            ..params.clone()
        };
        build_attempt(g, &p, l0, upper)
    })
}

/// One build attempt at a fixed seed: the declarative stage list.
fn build_attempt(
    g: &WGraph,
    params: &CompactParams,
    l0: u32,
    mode: UpperMode,
) -> Result<TruncatedScheme, BuildError> {
    let n = g.len();
    let k = params.k;
    let build_mode = params.mode;
    let (levels, _) = sample_levels(n, k, params.seed);
    let ln_n = (n as f64).ln().max(1.0);

    // ---- Lower levels (< l0), exactly as Lemma 4.7. ----
    let lower_params = CompactParams {
        horizon: HorizonMode::Lemma47,
        ..params.clone()
    };
    let lower = build_levels(g, &lower_params, &levels, l0)?;
    let topo = &lower.topo;
    let sigma = lower.metrics.sigma;
    let mut total = lower.metrics.total;

    // ---- Base estimation: (S_{l0}, h_{l0}, |S_{l0}|). ----
    let skel_flags = level_flags(&levels, l0);
    let skel_ids: Vec<NodeId> = g.nodes().filter(|v| skel_flags[v.index()]).collect();
    let skel_index = DenseIndex::new(n, &skel_ids);
    let h_base = ((params.c * (n as f64).powf(f64::from(l0) / f64::from(k)) * ln_n).ceil() as u64)
        .clamp(1, 2 * n as u64);
    let base = run_pde(
        g,
        &skel_flags,
        &vec![false; n],
        &PdeParams::new(h_base, skel_ids.len().max(1), params.eps)
            .with_threads(params.threads)
            .with_mode(build_mode),
    );
    let base_rounds = base.metrics.total.rounds;
    total.absorb(&base.metrics.total);

    // ---- G̃(l0): mutual estimates, weight = max of the two. ----
    let m = skel_ids.len();
    let gt_edges = mutual_edges(&base.routes, &skel_ids, &skel_index);
    let gt_graph = virtual_graph(m, &gt_edges, "G̃(l0)")?;

    // ---- Upper levels on G̃. ----
    // Each level's `(i, j, value)` entries go to `PairTable::dense` for the
    // query side. The BFS tree only carries simulated pipelining/broadcast
    // costs, so native builds skip it.
    let (bfs, d_hat) = match build_mode {
        BuildMode::Simulated => {
            let (bfs, bfs_metrics) = build_bfs(topo, NodeId(0));
            total.absorb(&bfs_metrics);
            let d_hat = 2 * bfs.height + 1;
            (Some(bfs), d_hat)
        }
        BuildMode::Native => (None, 0),
    };
    let mut upper_est: Vec<PairTable> = Vec::new();
    let mut upper_next: Vec<PairTable> = Vec::new();
    let mut upper_rounds = 0u64;
    let gt_topo = gt_graph.to_topology();

    match mode {
        UpperMode::Simulated => {
            for l in l0..k {
                let src_flags: Vec<bool> =
                    skel_ids.iter().map(|&s| levels[s.index()] >= l).collect();
                let tag_flags: Vec<bool> = skel_ids
                    .iter()
                    .map(|&s| l + 1 < k && levels[s.index()] > l)
                    .collect();
                let h = ((params.c * (n as f64).powf(f64::from(l + 1 - l0) / f64::from(k)) * ln_n)
                    .ceil() as u64)
                    .clamp(1, 2 * m.max(1) as u64);
                let sig = if l == k - 1 {
                    sigma.max(src_flags.iter().filter(|&&f| f).count())
                } else {
                    sigma
                };
                let run = run_pde(
                    &gt_graph,
                    &src_flags,
                    &tag_flags,
                    &PdeParams::new(h, sig.max(1), params.eps)
                        .with_threads(params.threads)
                        .with_mode(build_mode),
                );
                // Lemma 4.12 cost: every simulated round's messages are
                // pipelined over the BFS tree of G.
                let cost = run.metrics.total.messages + run.metrics.total.rounds * d_hat;
                upper_rounds += cost;
                total.charge_rounds(cost);

                let mut ests: Vec<(u32, u32, u64)> = Vec::new();
                let mut nexts: Vec<(u32, u32, u64)> = Vec::new();
                for (i, &is_src) in src_flags.iter().enumerate() {
                    let (v, i) = (NodeId(i as u32), i as u32);
                    // A source is at distance 0 from itself, unless its
                    // row holds an echo through a neighbour (which wins).
                    if is_src && run.routes.get(v, v).is_none() {
                        ests.push((i, i, 0));
                    }
                    for e in run.routes.row_iter(v) {
                        ests.push((i, e.src, e.est));
                        nexts.push((i, e.src, u64::from(gt_topo.neighbor(v, e.port).0)));
                    }
                }
                upper_est.push(PairTable::dense(m.max(1), &ests));
                upper_next.push(PairTable::dense(m.max(1), &nexts));
            }
        }
        UpperMode::Local => {
            // Broadcast G̃'s edges for real (simulated builds only — the
            // native engine already has them globally), then solve
            // locally & exactly, one Dijkstra per skeleton node sharded
            // over the worker threads.
            if let Some(bfs) = &bfs {
                let mut items: Vec<Vec<GtEdge>> = vec![Vec::new(); n];
                for &(a, b, w) in gt_graph.edges() {
                    items[skel_ids[a as usize].index()].push(GtEdge(a, b, w));
                }
                let (_, bc) = broadcast_all(topo, bfs, items);
                upper_rounds = bc.rounds;
                total.absorb(&bc);
            }
            let (sp, sp_next) = graphs::algo::apsp_with_first_hops(&gt_graph, params.threads);
            for l in l0..k {
                let src_flags: Vec<bool> =
                    skel_ids.iter().map(|&s| levels[s.index()] >= l).collect();
                let mut ests: Vec<(u32, u32, u64)> = Vec::new();
                let mut nexts: Vec<(u32, u32, u64)> = Vec::new();
                for i in 0..m {
                    let (u, row) = (NodeId(i as u32), &sp_next[i * m..(i + 1) * m]);
                    for j in (0..m).filter(|&j| src_flags[j]) {
                        let d = sp.dist(u, NodeId(j as u32));
                        if d != INF {
                            ests.push((i as u32, j as u32, d));
                        }
                        if row[j] != u32::MAX {
                            nexts.push((i as u32, j as u32, u64::from(row[j])));
                        }
                    }
                }
                upper_est.push(PairTable::dense(m.max(1), &ests));
                upper_next.push(PairTable::dense(m.max(1), &nexts));
            }
        }
    }

    // ---- Connectors: per node, its known (skeleton index, est) pairs. ----
    let conn: Vec<Vec<(usize, u64)>> = g
        .nodes()
        .map(|v| {
            let mut c: Vec<(usize, u64)> = base
                .routes
                .row_iter(v)
                .filter_map(|e| skel_index.get(NodeId(e.src)).map(|i| (i, e.est)))
                .collect();
            if let Some(i) = skel_index.get(v) {
                c.push((i, 0));
            }
            c.sort_unstable();
            c
        })
        .collect();

    // ---- Upper pivots + connectors, base trees from connector chains. ----
    // per node, per upper level: (s_idx, t_idx, est, est_base)
    let mut upper_info: Vec<Vec<(usize, usize, u64, u64)>> = vec![Vec::new(); n];
    let mut base_trees = TreeSet::new();
    for (j, l) in (l0..k).enumerate() {
        let flags: Vec<bool> = skel_ids.iter().map(|&s| levels[s.index()] >= l).collect();
        for v in g.nodes() {
            let mut best: Option<(u64, usize, usize, u64)> = None;
            for &(t, eb) in &conn[v.index()] {
                for (i, &f) in flags.iter().enumerate() {
                    if !f {
                        continue;
                    }
                    if let Some(eg) = upper_est[j].get(t, i) {
                        let tot = eb.saturating_add(eg);
                        if best.is_none_or(|(b, bs, _, _)| (tot, i) < (b, bs)) {
                            best = Some((tot, i, t, eb));
                        }
                    }
                }
            }
            let Some((est, s_idx, t_idx, eb)) = best else {
                return Err(BuildError::NoPivot { node: v, level: l });
            };
            upper_info[v.index()].push((s_idx, t_idx, est, eb));
            let chain = trace_chain(&base.routes, topo, v, skel_ids[t_idx]);
            base_trees.add_chain(&chain);
        }
    }
    base_trees.build();
    let lab = pipeline::label_trees(topo, &base_trees, build_mode);
    total.absorb(&lab);

    // ---- Labels. ----
    let labels: Vec<TruncLabel> = g
        .nodes()
        .map(|v| {
            let upper: Vec<UpperPivot> = upper_info[v.index()]
                .iter()
                .map(|&(s_idx, t_idx, est, eb)| UpperPivot {
                    pivot: skel_ids[s_idx],
                    est,
                    t_star: skel_ids[t_idx],
                    est_base: eb,
                    base_dfs: base_trees.trees[&skel_ids[t_idx]]
                        .label(v)
                        .expect("labeled in base tree"),
                })
                .collect();
            TruncLabel { upper }
        })
        .collect();
    // Table sizes: the connectors a node keeps beside its lower bunches.
    let connectors = conn.iter().map(|c| c.len().min(sigma) as u32).collect();

    let metrics = TruncatedMetrics {
        total_rounds: total.rounds,
        lower_rounds: lower.metrics.per_level_rounds.iter().sum(),
        base_rounds,
        upper_rounds,
        tree_label_rounds: lower.metrics.tree_label_rounds + lab.rounds,
        total,
        skeleton_size: m,
        gt_edges: gt_graph.num_edges(),
    };

    let base_slots = resolve_entries(&base.routes, &skel_index);
    Ok(TruncatedScheme {
        lower,
        base_routes: base.routes,
        base_slots,
        skel_ids,
        skel_index,
        gt_graph,
        upper_est,
        upper_next,
        base_trees,
        labels,
        connectors,
        metrics,
    })
}

impl TruncatedScheme {
    /// The `l0` truncation level.
    pub fn l0(&self) -> u32 {
        self.lower.routes.len() as u32
    }

    /// The topology the scheme was built on (shared with route tracing
    /// and snapshot serialization, so callers need no separate copy).
    pub fn topology(&self) -> &Topology {
        &self.lower.topo
    }

    /// The waypoint path (skeleton indices, from the pivot `s` down to
    /// `t_star`) and its suffix weights for upper level `j`.
    fn waypoints(&self, j: usize, t_star: usize, s: usize) -> Option<(Vec<usize>, Vec<u64>)> {
        let mut path = vec![t_star];
        let mut cur = t_star;
        while cur != s {
            let nxt = self.upper_next[j].get(cur, s)? as usize;
            path.push(nxt);
            cur = nxt;
            if path.len() > self.skel_ids.len() + 1 {
                return None;
            }
        }
        path.reverse(); // now s = path[0], …, t* = path.last()
        let mut suffix = vec![0u64; path.len()];
        for i in (0..path.len() - 1).rev() {
            let w = self
                .gt_graph
                .edge_weight(NodeId(path[i] as u32), NodeId(path[i + 1] as u32))
                .expect("waypoint steps are G̃ edges");
            suffix[i] = suffix[i + 1] + w;
        }
        Some((path, suffix))
    }

    /// The minimum potential option at `x` for `dest`: `(estimate, hop)`.
    fn best_option(&self, x: NodeId, dest: NodeId) -> Option<(u64, NodeId)> {
        let label = &self.labels[dest.index()];
        let topo = self.topology();
        let mut best: Option<(u64, NodeId)> = None;
        // Ties broken by the smaller next-hop id, so the choice does not
        // depend on routing-table iteration order (keeps answers
        // bit-identical across snapshot save/load).
        let consider = |est: u64, hop: NodeId, best: &mut Option<(u64, NodeId)>| {
            if best.is_none_or(|b| (est, hop) < b) {
                *best = Some((est, hop));
            }
        };

        for l in 0..self.l0() {
            if let Some((est, hop)) = self.lower.option(x, dest, l) {
                consider(est, hop, &mut best);
            }
        }
        for (j, up) in label.upper.iter().enumerate() {
            let s_idx = self.skel_index.get(up.pivot).expect("pivot in skeleton");
            let t_idx = self
                .skel_index
                .get(up.t_star)
                .expect("connector in skeleton");
            let Some((path, suffix)) = self.waypoints(j, t_idx, s_idx) else {
                continue;
            };
            let descent_budget = up.est_base;
            let budget_a = suffix[0].saturating_add(descent_budget);
            // Phase A: reach the pivot via any connector in the base row.
            for e in self.base_routes.row_iter(x) {
                let Some(ti) = self.skel_index.get(NodeId(e.src)) else {
                    continue;
                };
                if let Some(eg) = self.upper_est[j].get(ti, s_idx) {
                    consider(
                        e.est.saturating_add(eg).saturating_add(budget_a),
                        topo.neighbor(x, e.port),
                        &mut best,
                    );
                }
            }
            if let Some(xi) = self.skel_index.get(x) {
                if xi != s_idx {
                    if let Some(eg) = self.upper_est[j].get(xi, s_idx) {
                        if let Some(z) = self.upper_next[j].get(xi, s_idx) {
                            if let Some(e) = self.base_routes.get(x, self.skel_ids[z as usize]) {
                                consider(
                                    eg.saturating_add(budget_a),
                                    topo.neighbor(x, e.port),
                                    &mut best,
                                );
                            }
                        }
                    }
                }
            }
            // Phase B: walk the waypoint path towards t*.
            for jdx in 0..path.len().saturating_sub(1) {
                let y_next = self.skel_ids[path[jdx + 1]];
                let rem = suffix[jdx + 1].saturating_add(descent_budget);
                if x == y_next {
                    continue;
                }
                if let Some(e) = self.base_routes.get(x, y_next) {
                    consider(
                        e.est.saturating_add(rem),
                        topo.neighbor(x, e.port),
                        &mut best,
                    );
                }
            }
        }
        best
    }

    /// What the upper-level terms read of node `x`.
    fn base_row(&self, x: NodeId) -> BaseRow<'_> {
        BaseRow {
            slots: &self.base_slots[self.base_routes.row_range(x)],
            xi: self.skel_index.get(x),
        }
    }

    /// What Theorem 4.13 adds to the lower levels' estimate, written
    /// once: per upper level, the cheapest way to the level's pivot (via
    /// any connector in `x`'s base row, or directly when `x` is itself a
    /// skeleton node) plus the label's remainder.
    #[inline]
    fn upper_estimate(&self, dest: NodeId, base: &BaseRow<'_>) -> u64 {
        let mut best = INF;
        for (j, up) in self.labels[dest.index()].upper.iter().enumerate() {
            let s_idx = self.skel_index.get(up.pivot).expect("pivot in skeleton");
            let mut to_pivot = INF;
            for &(ti, est) in base.slots {
                if ti == DenseIndex::NONE {
                    continue;
                }
                if let Some(eg) = self.upper_est[j].get(ti as usize, s_idx) {
                    to_pivot = to_pivot.min(est.saturating_add(eg));
                }
            }
            if let Some(eg) = base.xi.and_then(|xi| self.upper_est[j].get(xi, s_idx)) {
                to_pivot = to_pivot.min(eg);
            }
            best = best.min(to_pivot.saturating_add(up.est));
        }
        best
    }
}

/// Node `x`'s pre-resolved `base_routes` slots, and `x`'s own skeleton
/// index.
#[derive(Default)]
pub struct BaseRow<'a> {
    slots: &'a [(u32, u64)],
    xi: Option<usize>,
}

/// A row is the nested hierarchy's row and the base row.
impl RowEstimate for TruncatedScheme {
    type Row<'a> = (<CompactScheme as RowEstimate>::Row<'a>, BaseRow<'a>);

    #[inline]
    fn open<'a>(&'a self, x: NodeId, (lower, base): &mut Self::Row<'a>) {
        self.lower.open(x, lower);
        *base = self.base_row(x);
    }

    #[inline]
    fn est(&self, (lower, base): &Self::Row<'_>, dest: NodeId) -> u64 {
        self.lower
            .est(lower, dest)
            .min(self.upper_estimate(dest, base))
    }
}

impl RoutingScheme for TruncatedScheme {
    fn len(&self) -> usize {
        self.labels.len()
    }

    /// Tree mode first — the first lower pivot tree, then the first base
    /// tree, that holds `dest` below `x` — else the cheapest option by
    /// `(estimate, hop)`.
    fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
        if x == dest {
            return None;
        }
        let lower = &self.lower.labels[dest.index()].pivots;
        let upper = &self.labels[dest.index()].upper;
        lower
            .iter()
            .zip(&self.lower.trees)
            .find_map(|(&(pivot, _, dfs), set)| set.descend(pivot, x, dfs))
            .or_else(|| {
                upper
                    .iter()
                    .find_map(|up| self.base_trees.descend(up.t_star, x, up.base_dfs))
            })
            .or_else(|| self.best_option(x, dest).map(|(_, hop)| hop))
    }

    fn estimate(&self, x: NodeId, dest: NodeId) -> u64 {
        let lower = RoutingScheme::estimate(&self.lower, x, dest);
        lower.min(self.upper_estimate(dest, &self.base_row(x)))
    }

    fn label_bits(&self, v: NodeId) -> usize {
        self.lower.label_bits(v) + self.labels[v.index()].bits(self.labels.len())
    }

    fn table_entries(&self, v: NodeId) -> usize {
        self.lower.table_entries(v)
            + self.connectors[v.index()] as usize
            + self.base_trees.rows_at(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::algo::apsp;
    use graphs::gen::{self, Weights};
    use graphs::Seed;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use routing::{evaluate, PairSelection};

    fn check(g: &WGraph, k: u32, l0: u32, mode: UpperMode, seed: u64) {
        let mut params = CompactParams::new(k);
        params.seed = Seed(seed);
        let scheme = build_truncated(g, &params, l0, mode);
        let exact = apsp(g);
        let report = evaluate(g, &scheme, &exact, PairSelection::All);
        assert!(
            report.failures.is_empty(),
            "failures (k={k}, l0={l0}, {mode:?}): {:?}",
            &report.failures[..report.failures.len().min(5)]
        );
        // Theorem 4.13's 4k−3, ε-adjusted, times 2 for the
        // waypoint-descent detour.
        let ceil = (4.0 * f64::from(k) - 3.0) * (1.0 + params.eps).powi(6) * 2.0;
        assert!(
            report.max_stretch <= ceil,
            "stretch {} > {ceil} (k={k}, l0={l0}, {mode:?})",
            report.max_stretch
        );
    }

    #[test]
    fn simulated_mode_routes_k2() {
        for seed in 0..2 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(26, 0.18, Weights::Uniform { lo: 1, hi: 30 }, &mut rng);
            check(&g, 2, 1, UpperMode::Simulated, seed);
        }
    }

    #[test]
    fn local_mode_routes_k2() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = gen::gnp_connected(26, 0.18, Weights::Uniform { lo: 1, hi: 30 }, &mut rng);
        check(&g, 2, 1, UpperMode::Local, 11);
    }

    #[test]
    fn simulated_mode_routes_k3_l02() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = gen::gnp_connected(30, 0.2, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
        check(&g, 3, 2, UpperMode::Simulated, 21);
    }

    #[test]
    fn upper_rounds_are_charged() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = gen::gnp_connected(24, 0.2, Weights::Uniform { lo: 1, hi: 15 }, &mut rng);
        let scheme = build_truncated(&g, &CompactParams::new(2), 1, UpperMode::Simulated);
        assert!(scheme.metrics.upper_rounds > 0);
        assert!(scheme.metrics.total_rounds >= scheme.metrics.upper_rounds);
    }
}
