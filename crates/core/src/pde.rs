//! `(1+ε)`-approximate `(S, h, σ)`-estimation (Theorem 3.3 / Corollary 3.5).
//!
//! # The rung merge is a commutative fold
//!
//! Corollary 3.5 combines the ladder by a per-pair *minimum over rungs*:
//! a list entry keeps the smallest estimate, a route entry the smallest
//! `(estimate, level)` — ties on the estimate go to the lower rung. A
//! minimum under a total order does not care in which order its operands
//! arrive, so every worker folds its rung into the shared merge tables
//! the moment it is solved and drops it; the result is byte-identical
//! for every thread count and completion order. Each rung's simulator
//! [`Metrics`] are absorbed in the same step: sums and a maximum, so
//! they commute too, and `per_level_rounds` is written by rung index.
//!
//! Live build memory is therefore
//! `merge tables (≤ 25 B·n·|S|) + threads × rung lists (8 B·n·min(σ, |S|))`
//! (plus one settled bit per `(node, source)` while a rung is solved),
//! not `O(ladder)` materialised rungs: a rung's archive rows are derived
//! from its lists as the merge reads them.

use crate::ladder::{run_rung, BuildMode, LadderSpec, SolvedRung};
use crate::pipeline::{self, BuildError};
use crate::rounding::{horizon, level_ladder};
use crate::tables::FlatTables;
use congest::aggregate::global_max;
use congest::bfs::build_bfs;
use congest::{FxHashMap, Metrics, NodeId, Port, Topology};
use graphs::WGraph;
use sourcedetect::SourceSpace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parameters of a PDE run.
#[derive(Clone, Debug)]
pub struct PdeParams {
    /// Detection horizon `h` (over minimum-hop shortest weighted paths).
    pub h: u64,
    /// List size σ.
    pub sigma: usize,
    /// Approximation parameter ε.
    pub eps: f64,
    /// Optional per-node, per-level broadcast cap (Lemma 3.4: `O(σ²)`).
    pub msg_cap: Option<u64>,
    /// Run every level for its full theoretical round budget instead of
    /// stopping at quiescence (used when validating round bounds).
    pub exact_rounds: bool,
    /// Number of worker threads for the ladder rungs (the per-level
    /// detection instances are independent). `0` = use
    /// [`std::thread::available_parallelism`]; `1` = sequential. Results
    /// are byte-identical for every thread count: the rung merge is a
    /// commutative fold, so completion order is unobservable.
    pub threads: usize,
    /// Execution engine (see [`BuildMode`]): `Simulated` charges
    /// paper-faithful rounds through the CONGEST runtime, `Native` runs
    /// the centralized kernel. Artifacts (`lists`, `routes`, `levels`,
    /// `horizon`) are byte-identical across modes; only the metrics
    /// differ.
    pub mode: BuildMode,
}

impl PdeParams {
    /// Convenience constructor with no message cap, quiescence stopping
    /// and automatic rung parallelism.
    pub fn new(h: u64, sigma: usize, eps: f64) -> Self {
        PdeParams {
            h,
            sigma,
            eps,
            msg_cap: None,
            exact_rounds: false,
            threads: 0,
            mode: BuildMode::Simulated,
        }
    }

    /// Sets the worker-thread count (see [`PdeParams::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the execution engine (see [`PdeParams::mode`]).
    pub fn with_mode(mut self, mode: BuildMode) -> Self {
        self.mode = mode;
        self
    }
}

/// One entry of a node's combined output list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PdeEntry {
    /// Distance estimate `wd'(v, src)` (`≥ wd`, and `≤ (1+ε)·wd` when
    /// `h_{v,src} ≤ h`).
    pub est: u64,
    /// The source.
    pub src: NodeId,
    /// The source's tag bit (e.g. membership in a higher sample level).
    pub tag: bool,
}

/// Next-hop information for one source: the estimate, the port it arrived
/// on, and the ladder level that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteInfo {
    /// Distance estimate for this source at this node.
    pub est: u64,
    /// Port towards the neighbor that announced the estimate.
    pub port: Port,
    /// Ladder level index of the winning announcement.
    pub level: u32,
}

/// Metrics of a PDE run, broken down the way the paper's bounds are.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PdeMetrics {
    /// Aggregate simulator metrics over all phases, the `O(D)`
    /// coordination (BFS tree + `w_max` aggregate) included.
    pub total: Metrics,
    /// Rounds used by each ladder level's detection instance.
    pub per_level_rounds: Vec<u64>,
    /// Largest per-node broadcast count in any single level (Lemma 3.4:
    /// `O(σ²)`).
    pub max_broadcasts_single_level: u64,
}

/// Output of a PDE run.
#[derive(Debug)]
pub struct PdeOutput {
    /// Per-node combined lists: the up-to-σ smallest `(wd', src)` pairs.
    pub lists: Vec<Vec<PdeEntry>>,
    /// Per-node routing archives, as source-sorted rows: best `(est,
    /// port, level)` per source ever received. A superset of the list
    /// entries (what makes greedy forwarding total; see "Deviations from
    /// the paper" in the crate docs). The schemes built on PDE read
    /// archive-only entries: RTC's and truncated's skeleton edges
    /// ([`pipeline::mutual_edges`]) and next-hop chains
    /// ([`pipeline::trace_chain`]), RTC's home lookup
    /// ([`pipeline::closest_tagged`]) and compact's per-level estimates,
    /// which serve the archive rows as they are. The served PDE oracle
    /// keeps only [`PdeOutput::served`].
    pub routes: FlatTables,
    /// The integer rung ladder used.
    pub levels: Vec<u64>,
    /// The per-level hop horizon `h'`.
    pub horizon: u64,
    /// Execution metrics.
    pub metrics: PdeMetrics,
}

impl PdeOutput {
    /// The distance estimate `wd'(v, s)`, if `v` ever heard of `s`.
    ///
    /// Guaranteed `≥ wd(v, s)`; `≤ (1+ε)·wd(v, s)` whenever `h_{v,s} ≤ h`
    /// *and* `s` survived list truncation along the way.
    pub fn estimate(&self, v: NodeId, s: NodeId) -> Option<u64> {
        if v == s {
            return Some(0);
        }
        self.routes.est(v, s)
    }

    /// The next hop from `v` towards `s`, if known.
    ///
    /// Following next hops strictly decreases the estimate by at least the
    /// traversed edge weight per hop, so the walk terminates at `s` with
    /// total weight `≤ estimate(v, s)` (greedy-forwarding invariant,
    /// validated by tests).
    pub fn next_hop(&self, v: NodeId, s: NodeId) -> Option<Port> {
        self.routes.get(v, s).map(|e| e.port)
    }

    /// Traces the route `v → s` by greedy forwarding; returns the visited
    /// nodes and the total weight ([`pipeline::trace_route`] over
    /// [`PdeOutput::routes`]).
    ///
    /// Takes the prebuilt `topo` (e.g. `g.to_topology()`, built once and
    /// reused across queries) so a trace costs O(path length), not O(m).
    ///
    /// # Errors
    ///
    /// As [`pipeline::trace_route`]: forwarding got stuck or failed to make
    /// strict progress (tests treat this as a hard failure).
    pub fn trace_route(
        &self,
        topo: &Topology,
        v: NodeId,
        s: NodeId,
    ) -> Result<(Vec<NodeId>, u64), String> {
        pipeline::trace_route(&self.routes, topo, v, s)
    }

    /// What the served PDE oracle keeps of this run: Definition 2.2's
    /// lists and the few archive entries their routes need.
    ///
    /// The table is [`PdeOutput::routes`] with each row filtered to the
    /// sources its node lists other than itself (whose estimate is 0
    /// without a probe), on the same ladder, so a listed pair answers as
    /// the archive does and any other pair misses. Forwarding
    /// over the lists alone can get stuck: a listed pair's greedy walk
    /// may reach a node whose list has dropped the source. Every listed
    /// pair's walk is therefore traced over the archive, and each entry
    /// it reads at a node that does not list its source comes back as a
    /// *transit* hop `(node, source, port)`, sorted by `(node, source)`.
    ///
    /// At σ ≥ |S| no list drops a source, so every archive entry is
    /// listed: `routes` itself serves the lists without transit, and a
    /// caller skips this pass.
    ///
    /// # Panics
    ///
    /// Panics if a listed pair's walk leaves the archive, which
    /// [`pipeline::trace_route`]'s invariant rules out.
    pub fn served(&self, topo: &Topology) -> (FlatTables, Vec<(NodeId, NodeId, Port)>) {
        let n = self.lists.len();
        let node = |v: usize| NodeId::from_index(v);
        let others = |v: usize| {
            self.lists[v]
                .iter()
                .map(|e| e.src)
                .filter(move |&s| s != node(v))
        };
        // Counted as the rows are emitted: by probing the archive.
        let kept = (0..n)
            .map(|v| {
                let row = self.routes.cursor(node(v));
                others(v).filter(|&s| row.get(s).is_some()).count()
            })
            .sum();
        let mut listed = Vec::new();
        let ladder = (self.horizon, &self.levels[..]);
        let table = FlatTables::from_rows(n, kept, ladder, |v, row| {
            listed.clear();
            listed.extend(others(v));
            listed.sort_unstable();
            let archive = self.routes.cursor(node(v));
            row.extend(listed.iter().filter_map(|&s| Some((s, archive.route(s)?))));
        });
        // A walk stops at a node that lists the source (its own walk goes
        // on from there) or at a hop an earlier walk already took.
        let mut transit = std::collections::BTreeMap::new();
        for v in topo.nodes() {
            for e in table.row_iter(v) {
                let s = NodeId(e.src);
                let mut x = topo.neighbor(v, e.port);
                while x != s && table.get(x, s).is_none() {
                    let hop = self
                        .routes
                        .get(x, s)
                        .expect("a listed route stays in the archive");
                    if transit.insert((x, s), hop.port).is_some() {
                        break;
                    }
                    x = topo.neighbor(x, hop.port);
                }
            }
        }
        let transit = transit
            .into_iter()
            .map(|((x, s), port)| (x, s, port))
            .collect();
        (table, transit)
    }
}

/// [`run_pde`] with typed input validation: a disconnected graph, an
/// out-of-range ε, weights whose path sums overflow, σ = 0, h = 0 or a
/// rung horizon `h′` that does not fit the detection state's `u32`
/// distances come back as a [`BuildError`] instead of a panic, so
/// builders can surface the condition through `try_build` and callers
/// don't need `catch_unwind` shims around degenerate knobs.
///
/// # Errors
///
/// [`BuildError::Disconnected`] for disconnected inputs,
/// [`BuildError::InvalidParam`] for ε outside `(0, 8]`, weights too
/// large (see [`validate_pde_input`]) or a degenerate σ or h.
///
/// # Panics
///
/// Panics if the flag slices are mis-sized (a caller bug).
pub fn try_run_pde(
    g: &WGraph,
    sources: &[bool],
    tags: &[bool],
    params: &PdeParams,
) -> Result<PdeOutput, BuildError> {
    validate_pde_input(g, params.eps)?;
    let what = if params.sigma == 0 {
        "sigma must be at least 1"
    } else if params.h == 0 {
        "h must be at least 1"
    } else if horizon(params.h, params.eps) >= u64::from(u32::MAX) {
        "h too large: the rung horizon h' overflows u32"
    } else {
        return Ok(run_pde(g, sources, tags, params));
    };
    Err(BuildError::InvalidParam { what })
}

/// `true` if every estimate a PDE run on `n` nodes with largest weight
/// `w_max` can produce fits `u64`. An estimate is `dist · b` for a rung
/// `b ≤ w_max` and a delay distance `dist` over a walk of at most `n`
/// arcs (a shortest path plus the announcing arc), each arc rounded up to
/// `⌈w/b⌉·b < w + b ≤ 2·w_max` — so everything stays below `2·w_max·n`.
fn estimates_fit_u64(w_max: u64, n: usize) -> bool {
    w_max
        .checked_mul(2)
        .and_then(|w| w.checked_mul(n as u64))
        .is_some()
}

/// The shared input checks behind every `try_` build entry point that
/// runs PDE: ε in `(0, 8]`, a connected graph, and weights small enough
/// that no rounded path weight overflows `u64`.
///
/// # Errors
///
/// [`BuildError::InvalidParam`] or [`BuildError::Disconnected`].
pub fn validate_pde_input(g: &WGraph, eps: f64) -> Result<(), BuildError> {
    if !(eps > 0.0 && eps <= 8.0) {
        return Err(BuildError::InvalidParam {
            what: "eps must be in (0, 8]",
        });
    }
    if !g.is_connected() {
        return Err(BuildError::Disconnected { nodes: g.len() });
    }
    if !estimates_fit_u64(g.max_weight(), g.len()) {
        return Err(BuildError::InvalidParam {
            what: "weights too large: path weight overflows u64",
        });
    }
    Ok(())
}

/// Runs `(1+ε)`-approximate `(S, h, σ)`-estimation on `g`
/// (Corollary 3.5).
///
/// `sources[v]` marks membership in `S`; `tags[v]` is an auxiliary bit
/// carried with `v`'s announcements.
///
/// The run consists of: a coordination phase that determines `w_max`
/// (simulated as BFS tree + aggregate, `O(D)` rounds; computed locally in
/// [`BuildMode::Native`]), then one unweighted detection instance per
/// ladder rung (`O((h+σ)/ε)` rounds each, `O(log_{1+ε} w_max)` rungs),
/// executed by the engine `params.mode` selects (see [`crate::ladder`]).
/// The rungs are independent instances, so they execute on
/// [`PdeParams::threads`] worker threads, each folding its rung into the
/// shared merge tables as soon as it is solved (see the module docs: the
/// fold is commutative, so the result is byte-identical to the sequential
/// execution of Theorem 3.3 — and byte-identical across build modes; the
/// round *accounting* still charges the sum over rungs in `Simulated`
/// mode, as the theorem does).
///
/// # Panics
///
/// Panics if the graph is disconnected, flag slices are mis-sized, ε is
/// out of range or the weights are so large that path weights overflow
/// `u64`. Callers that would rather get a typed error for bad *inputs*
/// should use [`try_run_pde`]; mis-sized flag slices stay panics in both
/// (a caller bug, not an input condition).
pub fn run_pde(g: &WGraph, sources: &[bool], tags: &[bool], params: &PdeParams) -> PdeOutput {
    assert_eq!(sources.len(), g.len(), "one source flag per node");
    assert_eq!(tags.len(), g.len(), "one tag flag per node");
    let topo = g.to_topology();
    assert!(topo.is_connected(), "PDE requires a connected graph");
    assert!(
        estimates_fit_u64(topo.max_weight(), g.len()),
        "weights too large: path weight overflows u64"
    );

    // Coordination: learn w_max. Simulated mode pays the O(D) BFS +
    // aggregate; native mode reads the same value off the graph (the
    // aggregate of per-node maxima is exactly the global maximum).
    let mut coordination = Metrics::default();
    let w_max = match params.mode {
        BuildMode::Simulated => {
            let (tree, bfs_metrics) = build_bfs(&topo, NodeId(0));
            let local_max: Vec<u64> = topo
                .nodes()
                .map(|v| topo.arcs(v).map(|(_, _, w, _)| w).max().unwrap_or(1))
                .collect();
            let (w_max, agg_metrics) = global_max(&topo, &tree, &local_max);
            coordination.absorb(&bfs_metrics);
            coordination.absorb(&agg_metrics);
            w_max
        }
        BuildMode::Native => topo.max_weight().max(1),
    };

    let spec = LadderSpec {
        levels: level_ladder(params.eps, w_max),
        horizon: horizon(params.h, params.eps),
        sigma: params.sigma,
        msg_cap: params.msg_cap,
        exact_rounds: params.exact_rounds,
    };
    let levels = spec.levels.clone();
    let h_prime = spec.horizon;
    let detect_params = spec.detect_params();

    // One worker loop for every thread count: claim the next rung, solve
    // it, fold it into the shared tables, drop it. At most `threads`
    // rungs are alive at any time.
    let threads = crate::pipeline::resolve_threads(params.threads, levels.len());
    let space = SourceSpace::new(sources, tags);
    let dense = g.len().saturating_mul(space.len()) <= DENSE_MERGE_LIMIT;
    let merger = Mutex::new(RungMerger::new(&space, levels.len(), dense));
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let li = next.fetch_add(1, Ordering::Relaxed);
        let Some(&b) = levels.get(li) else { break };
        let rung = run_rung(&topo, b, sources, tags, &detect_params, params.mode);
        merger
            .lock()
            .expect("a worker panicked while folding its rung")
            .fold(li, b, &rung);
    };
    congest::parallel::run_shards(0..threads, |_| worker());
    let merger = merger
        .into_inner()
        .expect("a worker panicked while folding its rung");
    let (lists, routes, mut metrics) = merger.finish(&spec);
    metrics.total.absorb(&coordination);

    PdeOutput {
        lists,
        routes,
        levels,
        horizon: h_prime,
        metrics,
    }
}

/// Cap on `n · |S|` for the flat dense merge tables (~16M entries; at
/// 9 B per list cell plus 16 B per route cell that is ~400 MiB). Above
/// it — e.g. `S = V` at large `n`, where the hop horizon makes most
/// `(node, source)` pairs unreachable anyway — the merge falls back to
/// per-node hash tables so memory tracks *reached* pairs, not the full
/// product.
const DENSE_MERGE_LIMIT: usize = 1 << 24;

/// Best-entry tables for one merge key: per `(node, source)` pair the
/// lexicographically smallest `(estimate, payload)` seen, either flat
/// (dense) or per-node maps (sparse). A minimum under a total order, so
/// updates commute and both variants give identical outputs.
enum MergeTables<T> {
    Dense { est: Vec<u64>, val: Vec<T> },
    Sparse(Vec<FxHashMap<u32, (u64, T)>>),
}

impl<T: Copy + Default + Ord> MergeTables<T> {
    fn new(n: usize, s: usize, dense: bool) -> Self {
        if dense {
            MergeTables::Dense {
                est: vec![u64::MAX; n * s],
                val: vec![T::default(); n * s],
            }
        } else {
            MergeTables::Sparse(std::iter::repeat_with(FxHashMap::default).take(n).collect())
        }
    }

    #[inline]
    fn update(&mut self, v: usize, s: usize, si: u32, est: u64, value: T) {
        match self {
            MergeTables::Dense { est: e, val } => {
                let idx = v * s + si as usize;
                if (est, value) < (e[idx], val[idx]) {
                    e[idx] = est;
                    val[idx] = value;
                }
            }
            MergeTables::Sparse(maps) => {
                let entry = maps[v].entry(si).or_insert((u64::MAX, value));
                if (est, value) < *entry {
                    *entry = (est, value);
                }
            }
        }
    }

    /// Drains node `v`'s entries as `(si, est, value)`, sorted by `si`.
    fn take_node(&mut self, v: usize, s: usize, scratch: &mut Vec<(u32, u64, T)>) {
        scratch.clear();
        match self {
            MergeTables::Dense { est, val } => {
                let base = v * s;
                for si in 0..s {
                    if est[base + si] != u64::MAX {
                        scratch.push((si as u32, est[base + si], val[base + si]));
                    }
                }
            }
            MergeTables::Sparse(maps) => {
                scratch.extend(maps[v].drain().map(|(si, (est, val))| (si, est, val)));
                scratch.sort_unstable_by_key(|&(si, _, _)| si);
            }
        }
    }
}

/// Folds solved rungs, in any order, into combined lists and routes.
struct RungMerger<'a> {
    space: &'a SourceSpace,
    /// Lists key: payload = tag (a function of the source, so the key is
    /// effectively the estimate alone).
    best: MergeTables<bool>,
    /// Routes key: payload = (level, port). A pair meets each level at
    /// most once, so the key is effectively `(estimate, level)`: the
    /// lowest rung wins estimate ties, as in a ladder-order merge.
    route: MergeTables<(u32, Port)>,
    /// The rungs' metrics, folded as the rungs are.
    metrics: PdeMetrics,
}

impl<'a> RungMerger<'a> {
    fn new(space: &'a SourceSpace, num_levels: usize, dense: bool) -> Self {
        let (n, s) = (space.num_nodes(), space.len());
        RungMerger {
            space,
            best: MergeTables::new(n, s, dense),
            route: MergeTables::new(n, s, dense),
            metrics: PdeMetrics {
                per_level_rounds: vec![0; num_levels],
                ..PdeMetrics::default()
            },
        }
    }

    /// Folds level `li` (rung value `b`) into the tables. Order-free: any
    /// permutation of the ladder gives the same result.
    fn fold(&mut self, li: usize, b: u64, rung: &SolvedRung) {
        let m = &mut self.metrics;
        let max_single = rung.msgs_per_node.iter().copied().max().unwrap_or(0);
        m.max_broadcasts_single_level = m.max_broadcasts_single_level.max(max_single);
        m.per_level_rounds[li] = rung.metrics.rounds;
        m.total.absorb(&rung.metrics);
        let (space, s) = (self.space, self.space.len());
        let (best, route) = (&mut self.best, &mut self.route);
        // `dist · b` cannot overflow: `run_pde` checked the weights.
        rung.for_each_row(|v, list, archive| {
            for &(dist, si) in list {
                best.update(v, s, si, u64::from(dist) * b, space.tag(si));
            }
            for &(si, dist, port) in archive {
                route.update(v, s, si, u64::from(dist) * b, (li as u32, port));
            }
        });
    }

    /// Builds the outputs and hands back the folded rung metrics.
    fn finish(mut self, spec: &LadderSpec) -> (Vec<Vec<PdeEntry>>, FlatTables, PdeMetrics) {
        let (n, s) = (self.space.num_nodes(), self.space.len());
        let mut scratch: Vec<(u32, u64, bool)> = Vec::new();
        let mut lists = Vec::with_capacity(n);
        for v in 0..n {
            self.best.take_node(v, s, &mut scratch);
            let mut list: Vec<PdeEntry> = scratch
                .iter()
                .map(|&(si, est, tag)| PdeEntry {
                    est,
                    src: self.space.id(si),
                    tag,
                })
                .collect();
            list.sort_unstable();
            list.truncate(spec.sigma);
            lists.push(list);
        }
        // The list tables are spent; release them before the route rows
        // (the largest output) are written.
        drop(self.best);

        // `take_node` yields entries by increasing source index and
        // `SourceSpace::id` is increasing: rows arrive sorted by source id.
        let mut scratch: Vec<(u32, u64, (u32, Port))> = Vec::new();
        let entries = match &self.route {
            MergeTables::Dense { est, .. } => est.iter().filter(|&&e| e != u64::MAX).count(),
            MergeTables::Sparse(maps) => maps.iter().map(|m| m.len()).sum(),
        };
        let (space, route) = (self.space, &mut self.route);
        let ladder = (spec.horizon, &spec.levels[..]);
        let routes =
            FlatTables::from_rows(n, entries, ladder, |v, row| {
                route.take_node(v, s, &mut scratch);
                row.extend(scratch.iter().map(|&(si, est, (level, port))| {
                    (space.id(si), RouteInfo { est, port, level })
                }));
            });
        (lists, routes, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::algo;
    use graphs::gen::{self, Weights};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// PDE guarantees of Definition 2.2, checked against exact APSP.
    fn check_guarantees(g: &WGraph, sources: &[bool], params: &PdeParams) {
        let out = run_pde(g, sources, &vec![false; g.len()], params);
        let exact = algo::apsp(g);
        for v in g.nodes() {
            // Soundness: estimates never underestimate (exact integers).
            for e in &out.lists[v.index()] {
                assert!(
                    e.est >= exact.dist(v, e.src),
                    "underestimate at {v} for {}: {} < {}",
                    e.src,
                    e.est,
                    exact.dist(v, e.src)
                );
            }
            for e in out.routes.row_iter(v) {
                assert!(e.est >= exact.dist(v, NodeId(e.src)), "route underestimate");
            }
            // Completeness + accuracy: sources within h hops are either
            // listed with a (1+ε)-accurate value, or crowded out by σ
            // entries that are all at least as small.
            let mut in_range: Vec<(u64, NodeId)> = g
                .nodes()
                .filter(|s| sources[s.index()])
                .filter(|&s| u64::from(exact.hops(v, s)) <= params.h)
                .map(|s| (exact.dist(v, s), s))
                .collect();
            in_range.sort_unstable();
            let list = &out.lists[v.index()];
            assert!(
                list.len() >= in_range.len().min(params.sigma),
                "node {v}: list too short ({} < {})",
                list.len(),
                in_range.len().min(params.sigma)
            );
            assert!(list.windows(2).all(|w| w[0] < w[1]), "list not sorted");
            for (i, e) in list.iter().enumerate() {
                if i < in_range.len() {
                    // The i-th listed estimate is within (1+ε) of the i-th
                    // best true distance (standard prefix argument).
                    assert!(
                        e.est as f64 <= (1.0 + params.eps) * in_range[i].0 as f64 + 1e-9,
                        "node {v} entry {i}: est {} vs true {}",
                        e.est,
                        in_range[i].0
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_unit_weights() {
        // With w_max = 1 the ladder is [1] and PDE degenerates to exact
        // unweighted detection.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::gnp_connected(20, 0.15, Weights::Unit, &mut rng);
        let sources = vec![true; 20];
        let out = run_pde(&g, &sources, &[false; 20], &PdeParams::new(20, 20, 0.5));
        assert_eq!(out.levels, vec![1]);
        let exact = algo::apsp(&g);
        for v in g.nodes() {
            for e in &out.lists[v.index()] {
                assert_eq!(e.est, exact.dist(v, e.src));
            }
        }
    }

    #[test]
    fn guarantees_on_weighted_path() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = gen::path(12, Weights::Uniform { lo: 1, hi: 50 }, &mut rng);
        let sources: Vec<bool> = (0..12).map(|i| i % 3 == 0).collect();
        check_guarantees(&g, &sources, &PdeParams::new(12, 4, 0.25));
    }

    #[test]
    fn guarantees_on_random_graphs() {
        for seed in 0..3 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(24, 0.12, Weights::Uniform { lo: 1, hi: 100 }, &mut rng);
            let sources: Vec<bool> = (0..24).map(|i| i % 4 == 0).collect();
            check_guarantees(&g, &sources, &PdeParams::new(10, 3, 0.5));
        }
    }

    #[test]
    fn guarantees_with_heavy_tailed_weights() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = gen::gnp_connected(20, 0.15, Weights::PowerOfTwo { max_exp: 10 }, &mut rng);
        let sources: Vec<bool> = (0..20).map(|i| i < 5).collect();
        check_guarantees(&g, &sources, &PdeParams::new(8, 4, 0.25));
    }

    #[test]
    fn routes_reach_sources_with_bounded_weight() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gen::gnp_connected(20, 0.15, Weights::Uniform { lo: 1, hi: 30 }, &mut rng);
        let sources: Vec<bool> = (0..20).map(|i| i < 4).collect();
        let out = run_pde(&g, &sources, &[false; 20], &PdeParams::new(20, 4, 0.5));
        let topo = g.to_topology();
        for v in g.nodes() {
            for e in &out.lists[v.index()] {
                if e.src == v {
                    continue;
                }
                let (path, w) = out
                    .trace_route(&topo, v, e.src)
                    .unwrap_or_else(|e| panic!("route failed: {e}"));
                assert_eq!(*path.last().unwrap(), e.src);
                assert!(w <= e.est, "route weight {w} exceeds estimate {}", e.est);
            }
        }
    }

    #[test]
    fn coordination_is_charged() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::path(10, Weights::Uniform { lo: 1, hi: 5 }, &mut rng);
        let out = run_pde(&g, &[true; 10], &[false; 10], &PdeParams::new(10, 2, 0.5));
        let rungs: u64 = out.metrics.per_level_rounds.iter().sum();
        assert!(out.metrics.total.rounds > rungs, "no coordination charged");
    }

    /// Every rung of `spec`, solved in ladder order.
    fn solve_rungs(
        topo: &Topology,
        spec: &LadderSpec,
        sources: &[bool],
        tags: &[bool],
        mode: BuildMode,
    ) -> Vec<SolvedRung> {
        let solve = |&b| run_rung(topo, b, sources, tags, &spec.detect_params(), mode);
        spec.levels.iter().map(solve).collect()
    }

    /// Lists, served routes and folded metrics of one merge.
    type Merged = (Vec<Vec<PdeEntry>>, FlatTables, PdeMetrics);

    /// Folds `rungs` in `order` and finishes the merge.
    fn merge(
        space: &SourceSpace,
        spec: &LadderSpec,
        rungs: &[SolvedRung],
        order: &[usize],
        dense: bool,
    ) -> Merged {
        let mut merger = RungMerger::new(space, rungs.len(), dense);
        for &li in order {
            merger.fold(li, spec.levels[li], &rungs[li]);
        }
        merger.finish(spec)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `MergeTables::Sparse` only runs past `DENSE_MERGE_LIMIT`, far
        /// beyond test sizes, and its `take_node` feeds the served rows
        /// directly — so run the whole merge both ways on random graphs.
        #[test]
        fn dense_and_sparse_merge_tables_agree(
            n in 4usize..=40,
            seed in 0u64..1 << 32,
            sigma in 1usize..=8,
            h in 1u64..=12,
            eps in prop_oneof![Just(0.25), Just(0.5)],
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(n, 0.15, Weights::Uniform { lo: 1, hi: 40 }, &mut rng);
            // A random source subset, never empty.
            let sources: Vec<bool> = (0..n).map(|v| v == 0 || rng.random_bool(0.4)).collect();
            let tags: Vec<bool> = (0..n).map(|v| v % 3 == 0).collect();
            let spec = LadderSpec {
                levels: level_ladder(eps, g.max_weight()),
                horizon: horizon(h, eps),
                sigma,
                msg_cap: None,
                exact_rounds: false,
            };
            let rungs = solve_rungs(&g.to_topology(), &spec, &sources, &tags, BuildMode::Native);
            let order: Vec<usize> = (0..rungs.len()).collect();
            let space = SourceSpace::new(&sources, &tags);
            let [dense, sparse] = [true, false].map(|d| merge(&space, &spec, &rungs, &order, d));
            prop_assert_eq!(&dense.0, &sparse.0, "lists");
            let bytes = |routes: &FlatTables| {
                let mut arena = congest::arena::ArenaWriter::new();
                routes.write_arena(&mut arena);
                let mut bytes = Vec::new();
                arena.finish(&mut bytes).unwrap();
                bytes
            };
            prop_assert!(bytes(&dense.1) == bytes(&sparse.1), "served route bytes");
        }
    }

    #[test]
    fn rung_merge_is_order_independent_ties_included() {
        use rand::seq::SliceRandom;
        // Node 0 reaches source 2 directly (weight 6, port 1) and through
        // node 1 (3 + 3, port 0). Rung b=1 sees both at distance 6 and
        // archives the smaller port 0; rung b=2 rounds the detour up to 8
        // and archives the direct port 1 — at the same estimate 6. Which
        // of the two the merged route keeps is decided by the key alone.
        let g = WGraph::from_edges(
            6,
            &[
                (0, 1, 3),
                (0, 2, 6),
                (1, 2, 3),
                (2, 3, 17),
                (3, 4, 9),
                (4, 5, 24),
                (5, 0, 11),
            ],
        )
        .unwrap();
        let topo = g.to_topology();
        let sources = [false, true, true, false, true, true];
        let tags = [false, false, true, false, false, true];
        let space = SourceSpace::new(&sources, &tags);
        let spec = LadderSpec {
            levels: level_ladder(0.5, topo.max_weight()),
            horizon: horizon(6, 0.5),
            sigma: 3,
            msg_cap: None,
            exact_rounds: false,
        };
        assert_eq!(spec.levels[..2], [1, 2]);
        let rungs = solve_rungs(&topo, &spec, &sources, &tags, BuildMode::Simulated);

        // The fixture really contains the tie.
        let archived = |li: usize, v: usize, src: u32| {
            let si = space.index_of(NodeId(src)).unwrap();
            let mut hit = None;
            rungs[li].for_each_row(|node, _, archive| {
                if node == v {
                    hit = archive.iter().find(|e| e.0 == si).copied();
                }
            });
            let (_, dist, port) = hit.expect("archived");
            (u64::from(dist) * spec.levels[li], port)
        };
        assert_eq!(archived(0, 0, 2), (6, 0));
        assert_eq!(archived(1, 0, 2), (6, 1));

        let merge = |order: &[usize], dense| merge(&space, &spec, &rungs, order, dense);
        let ladder_order: Vec<usize> = (0..rungs.len()).collect();
        let mut orders = vec![
            ladder_order.clone(),
            ladder_order.iter().rev().copied().collect(),
        ];
        for seed in 0..20 {
            let mut order = ladder_order.clone();
            order.shuffle(&mut SmallRng::seed_from_u64(seed));
            orders.push(order);
        }
        let expected = merge(&ladder_order, true);
        let tie = expected.1.row_routes(NodeId(0)).find(|r| r.0 == NodeId(2));
        let tie = tie.expect("node 0 archives source 2").1;
        assert_eq!((tie.est, tie.level, tie.port), (6, 0, 0), "lower rung wins");
        assert!(expected.2.total.rounds > 0, "simulated rungs charge rounds");
        for order in &orders {
            for dense in [true, false] {
                assert_eq!(merge(order, dense), expected, "{order:?} dense={dense}");
            }
        }
    }

    #[test]
    fn at_most_threads_rungs_are_alive() {
        let mut rng = SmallRng::seed_from_u64(14);
        let g = gen::gnp_connected(40, 0.12, Weights::Uniform { lo: 1, hi: 32 }, &mut rng);
        let sources: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        for mode in [BuildMode::Native, BuildMode::Simulated] {
            for threads in [1usize, 2, 4] {
                let params = PdeParams::new(8, 4, 0.25)
                    .with_threads(threads)
                    .with_mode(mode);
                let mut rungs = 0;
                let peak = crate::ladder::residency::peak_during(&sources, || {
                    rungs = run_pde(&g, &sources, &[false; 40], &params).levels.len();
                });
                assert!(rungs >= 14, "ladder too short to tell: {rungs} rungs");
                assert!(
                    (1..=threads).contains(&peak),
                    "{mode:?}, {threads} threads: {peak} rungs alive at once"
                );
            }
        }
    }

    #[test]
    fn oversized_weights_are_a_typed_error() {
        let w = u64::MAX / 3;
        let g = WGraph::from_edges(3, &[(0, 1, w), (1, 2, w)]).unwrap();
        for mode in [BuildMode::Simulated, BuildMode::Native] {
            let params = PdeParams::new(3, 3, 0.5).with_mode(mode);
            let err = try_run_pde(&g, &[true; 3], &[false; 3], &params).unwrap_err();
            assert_eq!(
                err,
                BuildError::InvalidParam {
                    what: "weights too large: path weight overflows u64"
                }
            );
        }
        // The largest weights the check lets through do not overflow,
        // including the two-arc walk a source hears itself over.
        let w = u64::MAX / 4;
        let g = WGraph::from_edges(2, &[(0, 1, w)]).unwrap();
        let params = PdeParams::new(2, 2, 1.0).with_mode(BuildMode::Native);
        let out = try_run_pde(&g, &[true; 2], &[false; 2], &params).unwrap();
        let est = out
            .estimate(NodeId(0), NodeId(1))
            .expect("neighbours hear each other");
        assert!(w <= est && est <= 2 * w, "{est}");
    }

    #[test]
    fn native_mode_matches_simulated_artifacts() {
        for seed in [2u64, 13] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(26, 0.15, Weights::Uniform { lo: 1, hi: 40 }, &mut rng);
            let sources: Vec<bool> = (0..26).map(|i| i % 3 != 1).collect();
            let tags: Vec<bool> = (0..26).map(|i| i % 5 == 0).collect();
            let base = PdeParams::new(9, 4, 0.25);
            let sim = run_pde(&g, &sources, &tags, &base.clone());
            let nat = run_pde(
                &g,
                &sources,
                &tags,
                &base.clone().with_mode(BuildMode::Native),
            );
            assert_eq!(sim.lists, nat.lists, "seed {seed}");
            assert_eq!(sim.routes, nat.routes, "seed {seed}");
            assert_eq!(sim.levels, nat.levels, "seed {seed}");
            assert_eq!(sim.horizon, nat.horizon, "seed {seed}");
            assert!(sim.metrics.total.rounds > 0);
            assert_eq!(nat.metrics.total.rounds, 0, "native charges no rounds");
            // Native rung parallelism keeps the same outputs.
            let nat4 = run_pde(
                &g,
                &sources,
                &tags,
                &base.with_mode(BuildMode::Native).with_threads(4),
            );
            assert_eq!(nat.lists, nat4.lists);
            assert_eq!(nat.routes, nat4.routes);
        }
    }

    #[test]
    fn thread_count_does_not_change_outputs() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = gen::gnp_connected(28, 0.15, Weights::Uniform { lo: 1, hi: 60 }, &mut rng);
        let sources: Vec<bool> = (0..28).map(|i| i % 3 == 0).collect();
        let base = PdeParams::new(9, 3, 0.25);
        let seq = run_pde(&g, &sources, &[false; 28], &base.clone().with_threads(1));
        let par = run_pde(&g, &sources, &[false; 28], &base.with_threads(4));
        assert_eq!(seq.lists, par.lists);
        assert_eq!(seq.routes, par.routes);
        assert_eq!(seq.levels, par.levels);
        assert_eq!(seq.metrics.total.rounds, par.metrics.total.rounds);
        assert_eq!(seq.metrics.total.messages, par.metrics.total.messages);
        assert_eq!(seq.metrics.per_level_rounds, par.metrics.per_level_rounds);
    }
}
