//! Incremental repair: rebuild only what a [`GraphDelta`] touched, with
//! a byte-identity proof obligation.
//!
//! [`OracleBuilder::repair`] takes the graph an oracle was built on, the
//! built oracle, and one delta, and produces an oracle for the mutated
//! graph whose [`crate::Oracle::artifact_bytes`] are **byte-identical**
//! to a from-scratch build — for every backend (pinned by
//! `tests/dynamic_repair.rs`). How much work that takes depends on how
//! the backend's artifact couples to the graph:
//!
//! * **The exact-row backend** ([`Backend::Flooding`]) stores one
//!   exact row per source in its route table, distances beside first
//!   hops, and a row is a pure function of the graph alone. A raised or
//!   removed edge `{x, y}` is classified per source `s` from the **old**
//!   row in `O(deg)` (see `classify_row`: a few probes of the table; a
//!   row is decoded into dense scratch rows only when it must change):
//!   non-tight rows are bit-identical and kept; a tight row whose far
//!   endpoint keeps an *alternative* tight predecessor keeps all its
//!   distances (every shortest path
//!   survives by prefix replacement) and at most re-derives its
//!   first hops from the kept distances
//!   ([`graphs::algo::first_hops_from_dist`]) — and only when the
//!   stored row shows the canonical tree actually entered `y` across
//!   the edge; only rows whose distances truly change rerun the per-row
//!   Dijkstra kernel ([`graphs::algo::sssp_with_first_hops`]). Identity
//!   holds by construction (same kernels, pinned derivations), and a
//!   single-edge repair touches a small fraction of rows instead of the
//!   ~half a coarse tightness test would — [`RepairKind::Incremental`]
//!   reports the ratio.
//! * **Sampling-coupled schemes** (PDE, ApproxApsp, RTC, Compact,
//!   Truncated) key their skeleton/level samples and ladder
//!   stages on node ids and the global seed; a delta invalidates rungs
//!   globally, and per-rung per-source state is exactly what the
//!   compact artifact does *not* store. Repair for these is an honest
//!   staged rebuild through the same pipeline
//!   ([`RepairKind::Rebuilt`] names the reason) — still through one
//!   entry point, so callers measure instead of guessing.
//! * **Node failure** renumbers the id space (dense `0..n` ids are
//!   load-bearing in every artifact), which reshuffles every id-keyed
//!   sample: node deltas rebuild on all backends.
//!
//! The repaired oracle is computed natively (artifacts are mode- and
//! thread-invariant, so this changes no bytes) and its volatile metrics
//! are those of a native build, exactly like a fresh
//! [`OracleBuilder::build`] in the builder's configuration.

use crate::backends::{self, Inner};
use crate::{Backend, BuildError, DistanceOracle, Oracle, OracleBuilder};
use graphs::{DeltaError, GraphDelta, NodeId, WGraph};
use std::fmt;
use std::time::Instant;

/// How a repair was carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// Only the affected source rows were recomputed.
    Incremental {
        /// Rows actually recomputed.
        rows_recomputed: usize,
        /// Total rows in the artifact (`n`).
        rows_total: usize,
    },
    /// The backend's artifact couples globally to the graph; the repair
    /// ran the full staged rebuild.
    Rebuilt {
        /// Why incremental repair does not apply.
        reason: &'static str,
    },
}

impl RepairKind {
    /// Short tag for tables (`"incremental"` / `"rebuilt"`).
    pub fn tag(&self) -> &'static str {
        match self {
            RepairKind::Incremental { .. } => "incremental",
            RepairKind::Rebuilt { .. } => "rebuilt",
        }
    }
}

/// What a repair did and what it cost.
#[derive(Clone, Copy, Debug)]
pub struct RepairReport {
    /// The repaired backend.
    pub backend: Backend,
    /// The delta that was applied.
    pub delta: GraphDelta,
    /// Incremental or rebuilt, with the per-kind detail.
    pub kind: RepairKind,
    /// Wall-clock repair time (delta application + recompute).
    pub repair_nanos: u64,
}

/// A successful repair: the oracle for the mutated graph, the mutated
/// graph itself (callers need it for the *next* delta), and the report.
#[derive(Debug)]
pub struct Repaired {
    /// The repaired oracle (byte-identical to a from-scratch build on
    /// [`Repaired::graph`]).
    pub oracle: Oracle,
    /// The mutated graph.
    pub graph: WGraph,
    /// What happened.
    pub report: RepairReport,
}

/// Why a repair failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The delta does not apply to the graph (unknown edge/node, zero
    /// weight, would disconnect).
    Delta(DeltaError),
    /// Rebuilding on the mutated graph failed.
    Build(BuildError),
    /// The oracle was built by a different backend than this builder
    /// configures — the repair would silently change schemes.
    BackendMismatch {
        /// The builder's backend.
        expected: Backend,
        /// The oracle's backend.
        got: Backend,
    },
    /// The oracle covers a different node count than the given graph —
    /// it cannot have been built on it.
    GraphMismatch {
        /// Nodes covered by the oracle.
        oracle_nodes: usize,
        /// Nodes in the supplied graph.
        graph_nodes: usize,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Delta(e) => write!(f, "delta rejected: {e}"),
            RepairError::Build(e) => write!(f, "rebuild on mutated graph failed: {e}"),
            RepairError::BackendMismatch { expected, got } => {
                write!(f, "builder configures {expected} but the oracle is {got}")
            }
            RepairError::GraphMismatch {
                oracle_nodes,
                graph_nodes,
            } => write!(
                f,
                "oracle covers {oracle_nodes} nodes, graph has {graph_nodes}"
            ),
        }
    }
}

impl std::error::Error for RepairError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepairError::Delta(e) => Some(e),
            RepairError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeltaError> for RepairError {
    fn from(e: DeltaError) -> Self {
        RepairError::Delta(e)
    }
}

impl From<BuildError> for RepairError {
    fn from(e: BuildError) -> Self {
        RepairError::Build(e)
    }
}

/// How one source row reacts to an edge transition `w_old → w_new` on
/// `{a, b}` (`w_new = u64::MAX` for a removal).
enum RowFix {
    /// Bit-identical: keep the stored row.
    Keep,
    /// Distances survive, but the canonical shortest-path tree entered
    /// `y` across the edge: re-derive the first hops from the kept
    /// distances (only entries at distance ≥ `wd(s, y)` can move).
    Rederive {
        /// The far endpoint of the tight direction.
        y: NodeId,
    },
    /// Distances change. `Some(y)` when the raise/removal left `y`
    /// without a tight predecessor, so the decremental patch applies;
    /// `None` (weight decreases) reruns the full per-row kernel.
    Recompute {
        /// The far endpoint, when the decremental patch applies.
        y: Option<NodeId>,
    },
}

/// One edge transition `w_old → w_new` on `{a, b}` (`w_new = u64::MAX`
/// encodes a removal), shared by every row classification of a repair.
#[derive(Clone, Copy)]
struct EdgeTransition {
    a: NodeId,
    b: NodeId,
    w_old: u64,
    w_new: u64,
}

/// Classifies one source row exactly (up to a sound over-approximation
/// on the rare branches), from the stored row alone:
///
/// * A raised or removed edge matters only if it was *tight* from `s`
///   (`wd(s,x) + w_old = wd(s,y)`; the edge itself forces
///   `|da − db| ≤ w_old`, so with weights ≥ 1 at most one direction is
///   tight). Non-tight rows are bit-identical.
/// * If `y` keeps **no other tight predecessor**, every shortest
///   `s → y` path crossed the edge and the distance row changes:
///   recompute. Conversely, an alternative tight predecessor `v`
///   certifies that no shortest path *to v* can cross the edge (any
///   path through `y` is already longer than `wd(s,v) < wd(s,y)`), so
///   every distance survives by prefix replacement — an `O(deg y)`
///   scan, exact where the old `da + w ≤ db` test was satisfied by
///   roughly half the rows of a unit-weight graph.
/// * With distances unchanged, `hops`/`parent` (and hence the stored
///   first-hop row) can only move if the canonical tree entered `y`
///   across the edge, i.e. `parent[y] = x`. On a **unit-weight** graph
///   that is decidable exactly from the row: `hops ≡ dist`, so every
///   tight predecessor is a minimum-hop candidate and the canonical
///   parent is the minimum-id tight predecessor — `parent[y] = x` iff
///   `x` has the smallest id among `y`'s tight predecessors. With
///   general weights the candidate hops are unknown and the test falls
///   back to the necessary condition `next[y] = next[x]` (or
///   `next[y] = y` when `x = s`), a sound over-approximation. Rows
///   failing the test are bit-identical; rows passing it re-derive the
///   first hops from the kept distances.
/// * Weight decreases fall back to the coarse tightness test on the new
///   weight (the benchmark and repair fast paths are raises/removals).
///
/// Rows whose distances *do* change are patched decrementally
/// ([`patch_dist_row`]): only the vertices that lost every shortest path
/// re-enter a (small) Dijkstra, seeded from their unaffected neighbors.
fn classify_row(
    g_old: &WGraph,
    dist: impl Fn(NodeId) -> u64,
    next: impl Fn(NodeId) -> u32,
    unit_weights: bool,
    s: u32,
    edge: EdgeTransition,
) -> RowFix {
    let EdgeTransition { a, b, w_old, w_new } = edge;
    let (da, db) = (dist(a), dist(b));
    if w_new < w_old {
        return if da.saturating_add(w_new) <= db || db.saturating_add(w_new) <= da {
            RowFix::Recompute { y: None }
        } else {
            RowFix::Keep
        };
    }
    let (x, y) = if da.saturating_add(w_old) == db {
        (a, b)
    } else if db.saturating_add(w_old) == da {
        (b, a)
    } else {
        return RowFix::Keep;
    };
    let dy = dist(y);
    let mut min_tight_pred = u32::MAX;
    let mut has_alternative = false;
    for (v, w) in g_old.neighbors(y) {
        if dist(v).saturating_add(w) == dy {
            min_tight_pred = min_tight_pred.min(v.0);
            has_alternative |= v != x;
        }
    }
    if !has_alternative {
        return RowFix::Recompute { y: Some(y) };
    }
    let tree_entered_via_edge = if unit_weights {
        min_tight_pred == x.0
    } else {
        let expected = if x.0 == s { y.0 } else { next(x) };
        next(y) == expected
    };
    if tree_entered_via_edge {
        RowFix::Rederive { y }
    } else {
        RowFix::Keep
    }
}

/// The reachable vertices at distance ≥ `dmin`, in nondecreasing
/// distance order (counting sort over the small ranges bounded weights
/// produce; comparison sort otherwise).
fn tail_by_distance(dist: &[u64], dmin: u64) -> Vec<u32> {
    let mut tail: Vec<u32> = (0..dist.len() as u32)
        .filter(|&v| {
            let d = dist[v as usize];
            d >= dmin && d != graphs::INF
        })
        .collect();
    let span = tail
        .iter()
        .map(|&v| dist[v as usize] - dmin)
        .max()
        .unwrap_or(0);
    if span < 4 * dist.len() as u64 {
        let mut start = vec![0u32; span as usize + 2];
        for &v in &tail {
            start[(dist[v as usize] - dmin) as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut out = vec![0u32; tail.len()];
        for &v in &tail {
            let slot = &mut start[(dist[v as usize] - dmin) as usize];
            out[*slot as usize] = v;
            *slot += 1;
        }
        out
    } else {
        tail.sort_unstable_by_key(|&v| dist[v as usize]);
        tail
    }
}

/// Exact decremental patch of one distance row, in place, after a raise
/// or removal of a tight edge `x → y` that left `y` with no alternative
/// tight predecessor (so `wd(s, y)` strictly grows).
///
/// Phase 1 walks the row's tail in old-distance order and marks the
/// *affected* vertices — those whose every tight predecessor is itself
/// affected, seeded by `y`; exactly these lose all their shortest paths
/// to the change (an unaffected tight predecessor certifies a surviving
/// path by prefix replacement). An affected vertex sits within
/// `w_max_old` of the last one, so the walk stops early once the
/// frontier goes quiet. Phase 2 reseeds every affected vertex from its
/// unaffected neighbors in the *new* graph (which reintroduces a merely
/// raised edge at its new weight) and runs Dijkstra restricted to the
/// affected set — unaffected distances are already final.
fn patch_dist_row(g_new: &WGraph, g_old: &WGraph, dist: &mut [u64], y: NodeId, w_max_old: u64) {
    let dy = dist[y.index()];
    let tail = tail_by_distance(dist, dy);
    let n = dist.len();
    let mut affected = vec![false; n];
    affected[y.index()] = true;
    let mut aff_list = vec![y.0];
    let mut last_affected = dy;
    for &vi in &tail {
        let v = NodeId(vi);
        if v == y {
            continue;
        }
        let dv = dist[v.index()];
        if dv > last_affected.saturating_add(w_max_old) {
            break;
        }
        if dv == dy {
            continue; // tight predecessors sit strictly below dy
        }
        let all_affected = g_old
            .neighbors(v)
            .filter(|&(p, w)| dist[p.index()].saturating_add(w) == dv)
            .all(|(p, _)| affected[p.index()]);
        if all_affected {
            affected[v.index()] = true;
            aff_list.push(vi);
            last_affected = dv;
        }
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
        std::collections::BinaryHeap::new();
    for &vi in &aff_list {
        let v = NodeId(vi);
        let mut seed = u64::MAX;
        for (p, w) in g_new.neighbors(v) {
            if !affected[p.index()] {
                seed = seed.min(dist[p.index()].saturating_add(w));
            }
        }
        dist[v.index()] = seed;
        if seed != u64::MAX {
            heap.push(std::cmp::Reverse((seed, vi)));
        }
    }
    let mut done = vec![false; n];
    while let Some(std::cmp::Reverse((d, vi))) = heap.pop() {
        let v = NodeId(vi);
        if done[v.index()] || d > dist[v.index()] {
            continue;
        }
        done[v.index()] = true;
        for (u, w) in g_new.neighbors(v) {
            if affected[u.index()] && !done[u.index()] {
                let nd = d.saturating_add(w);
                if nd < dist[u.index()] {
                    dist[u.index()] = nd;
                    heap.push(std::cmp::Reverse((nd, u.0)));
                }
            }
        }
    }
}

/// Unit-weight tail re-derivation of a first-hop row: with `hops ≡
/// dist` the canonical parent of every vertex is its minimum-id tight
/// predecessor, and entries below `dmin` keep their stored value (their
/// canonical paths never leave the unchanged prefix of the row). The
/// `dist` row must already be the new one.
fn patch_next_row_unit(g_new: &WGraph, s: u32, dist: &[u64], next: &mut [u32], dmin: u64) {
    let tail = tail_by_distance(dist, dmin);
    for &vi in &tail {
        if vi == s {
            continue;
        }
        let v = NodeId(vi);
        let dv = dist[v.index()];
        let mut parent = u32::MAX;
        for (p, w) in g_new.neighbors(v) {
            if dist[p.index()].saturating_add(w) == dv {
                parent = parent.min(p.0);
            }
        }
        next[v.index()] = if parent == s {
            vi
        } else {
            next[parent as usize]
        };
    }
}

/// The reason tag for sampling-coupled backends.
const REASON_SAMPLED: &str = "id/seed-keyed sampling couples the artifact globally";
/// The reason tag for node deltas.
const REASON_RENUMBER: &str = "node failure renumbers ids; every sample reshuffles";

impl OracleBuilder {
    /// Repairs `prev` — built by this builder's recipe on `g_old` — into
    /// an oracle for `g_old` with `delta` applied.
    ///
    /// The result's [`crate::Oracle::artifact_bytes`] are byte-identical
    /// to `self.build(&g_old.apply_delta(delta)?)`; see the
    /// [module docs](self) for which backends get true incremental
    /// repair and which fall back to a staged rebuild (the
    /// [`RepairReport`] says which happened and what it cost).
    ///
    /// # Errors
    ///
    /// [`RepairError::Delta`] when the delta does not apply,
    /// [`RepairError::Build`] when the rebuild path fails on the mutated
    /// graph, and the mismatch variants when `prev` was not built by
    /// this backend on a graph of this size.
    pub fn repair(
        &self,
        g_old: &WGraph,
        prev: &Oracle,
        delta: &GraphDelta,
    ) -> Result<Repaired, RepairError> {
        if prev.backend() != self.backend {
            return Err(RepairError::BackendMismatch {
                expected: self.backend,
                got: prev.backend(),
            });
        }
        if prev.len() != g_old.len() {
            return Err(RepairError::GraphMismatch {
                oracle_nodes: prev.len(),
                graph_nodes: g_old.len(),
            });
        }
        let start = Instant::now();
        let g_new = g_old.apply_delta(delta)?;
        let (inner, kind) = match (&prev.inner, delta) {
            // Node failure renumbers ids: full rebuild on every backend.
            (_, GraphDelta::FailNode { .. }) => (
                build_fresh(self, &g_new)?,
                RepairKind::Rebuilt {
                    reason: REASON_RENUMBER,
                },
            ),
            (Inner::Pde(prev), _) if self.backend == Backend::Flooding => {
                let (repaired, rows) = repair_flood(prev, g_old, &g_new, delta)?;
                (
                    repaired,
                    RepairKind::Incremental {
                        rows_recomputed: rows,
                        rows_total: g_new.len(),
                    },
                )
            }
            _ => (
                build_fresh(self, &g_new)?,
                RepairKind::Rebuilt {
                    reason: REASON_SAMPLED,
                },
            ),
        };
        let mut inner = inner;
        let repair_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        backends::set_build_nanos(&mut inner, repair_nanos);
        Ok(Repaired {
            oracle: Oracle { inner },
            graph: g_new,
            report: RepairReport {
                backend: self.backend,
                delta: *delta,
                kind,
                repair_nanos,
            },
        })
    }
}

/// The rebuild fallback: a fresh native build through the staged
/// pipeline (artifacts are mode-invariant, so forcing native changes no
/// bytes — only the volatile round/message metrics, which the canonical
/// stream zeroes anyway).
fn build_fresh(b: &OracleBuilder, g_new: &WGraph) -> Result<Inner, BuildError> {
    backends::build_inner(&b.clone().build_mode(crate::BuildMode::Native), g_new)
}

/// The changed edge as an [`EdgeTransition`], with `w_new = u64::MAX`
/// for a removal. Only called for edge deltas.
fn edge_transition(g_old: &WGraph, delta: &GraphDelta) -> EdgeTransition {
    match *delta {
        GraphDelta::SetWeight { u, v, w } => {
            let w_old = g_old.edge_weight(u, v).expect("validated by apply_delta");
            EdgeTransition {
                a: u,
                b: v,
                w_old,
                w_new: w,
            }
        }
        GraphDelta::FailEdge { u, v } => {
            let w_old = g_old.edge_weight(u, v).expect("validated by apply_delta");
            EdgeTransition {
                a: u,
                b: v,
                w_old,
                w_new: u64::MAX,
            }
        }
        GraphDelta::FailNode { .. } => unreachable!("node deltas always rebuild"),
    }
}

/// Flooding's route table, repaired row by row. Each row is classified
/// from a few probes of the stored table; a row the delta touches is
/// decoded into dense scratch rows, patched and re-emitted through
/// [`backends::push_exact_row`], and every other row is copied as
/// stored. Returns the oracle and the number of rows touched.
fn repair_flood(
    prev: &crate::PdeOracle,
    g_old: &WGraph,
    g_new: &WGraph,
    delta: &GraphDelta,
) -> Result<(Inner, usize), BuildError> {
    let n = g_new.len();
    let edge = edge_transition(g_old, delta);
    let unit_old = g_old.max_weight() == 1;
    let unit_new = g_new.max_weight() == 1;
    let w_max_old = g_old.max_weight();
    let (old_topo, routes) = (&prev.topo, &prev.routes);
    // The touched rows, in row order: source, distances, first hops.
    let mut patched = Vec::new();
    let mut ladder = backends::ExactLadder::default();
    for s in 0..n {
        let src = NodeId(s as u32);
        let row = routes.cursor(src);
        // Every pair is covered: the one slot a row lacks is its own.
        let dist = |v| row.est(v).unwrap_or(0);
        let next = |v| {
            row.get(v)
                .map_or(u32::MAX, |e| old_topo.neighbor(src, e.port).0)
        };
        let fix = classify_row(g_old, dist, next, unit_old, s as u32, edge);
        let (dist, next) = match fix {
            RowFix::Keep => {
                ladder.add(routes.row_iter(src).map(|e| e.est));
                continue;
            }
            RowFix::Recompute { y: None } => {
                let (sssp, next) = graphs::algo::sssp_with_first_hops(g_new, src);
                (sssp.dist, next)
            }
            RowFix::Rederive { y } | RowFix::Recompute { y: Some(y) } => {
                let (mut dist, mut next) = (vec![0; n], vec![u32::MAX; n]);
                for e in routes.row_iter(src) {
                    dist[e.src as usize] = e.est;
                    next[e.src as usize] = old_topo.neighbor(src, e.port).0;
                }
                let dmin = dist[y.index()];
                if let RowFix::Recompute { .. } = fix {
                    patch_dist_row(g_new, g_old, &mut dist, y, w_max_old);
                }
                if unit_new {
                    patch_next_row_unit(g_new, s as u32, &dist, &mut next, dmin);
                } else {
                    next = graphs::algo::first_hops_from_dist(g_new, src, &dist);
                }
                (dist, next)
            }
        };
        ladder.add(dist.iter().copied());
        patched.push((src, dist, next));
    }
    let rows = patched.len();
    let mut patched = patched.into_iter().peekable();
    let m = backends::metrics(Backend::Flooding, n, 0, 0);
    let repaired = backends::exact_oracle(g_new, ladder, m, |topo, u, out| {
        if let Some((_, dist, next)) = patched.next_if(|p| p.0 == u) {
            return backends::push_exact_row(topo, u, &dist, &next, out);
        }
        // A delta only reweights or removes edges, so a node's ports
        // move only where it lost an edge; a kept row never routes over it.
        let moved = old_topo.degree(u) != topo.degree(u);
        out.extend(routes.row_routes(u).map(|(v, mut r)| {
            if moved {
                let hop = old_topo.neighbor(u, r.port);
                r.port = topo
                    .port_to(u, hop)
                    .expect("a kept row keeps its first hops");
            }
            (v, r)
        }));
    })?;
    Ok((repaired, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph() -> WGraph {
        let mut rng = SmallRng::seed_from_u64(11);
        gen::gnp_connected(24, 0.18, Weights::Uniform { lo: 1, hi: 9 }, &mut rng)
    }

    fn assert_identity(backend: Backend, delta: GraphDelta) {
        assert_identity_on(&test_graph(), backend, delta);
    }

    fn assert_identity_on(g: &WGraph, backend: Backend, delta: GraphDelta) -> RepairKind {
        let builder = OracleBuilder::new(backend);
        let prev = builder.build(g);
        let repaired = builder.repair(g, &prev, &delta).expect("repair");
        let fresh = builder.build(&g.apply_delta(&delta).unwrap());
        assert_eq!(
            repaired.oracle.artifact_bytes(),
            fresh.artifact_bytes(),
            "{backend}: repair({delta}) diverged from a from-scratch build"
        );
        repaired.report.kind
    }

    #[test]
    fn flooding_edge_deltas_are_incremental_and_identical() {
        let unit = gen::gnp_connected(24, 0.18, Weights::Unit, &mut SmallRng::seed_from_u64(11));
        let g = test_graph();
        // `g` scaled past the hop field: every distance is a rung of its
        // own. A cut off the 2³³ grid adds rungs below kept distances, so
        // the levels of the kept rows move too.
        let scaled: Vec<_> = g.edges().iter().map(|&(u, v, w)| (u, v, w << 33)).collect();
        let heavy = WGraph::from_edges(g.len(), &scaled).unwrap();
        // `(graph, edge, new weight or None for a failure, rows)`: the
        // rows each delta recomputed when Flooding stored dense n × n
        // matrices, before it served a route table. A repair that falls
        // back to a rebuild, or re-derives rows it need not, fails here.
        let cases = [
            (&g, 0, Some(g.edges()[0].2 + 3), 8),
            (&g, 0, None, 8),
            (&g, 1, Some(g.edges()[1].2 / 2), 21),
            // Not tight from anywhere: every row kept, both endpoints'
            // ports renumbered around the failed edge.
            (&g, 3, None, 0),
            (&unit, 0, Some(4), 16),
            (&unit, 1, None, 15),
            (&heavy, 0, Some(heavy.edges()[0].2 - 12345), 9),
            (&heavy, 1, Some((g.edges()[1].2 / 2) << 33), 21),
            (&heavy, 3, None, 0),
        ];
        for (g, edge, w, rows) in cases {
            let (u, v) = (NodeId(g.edges()[edge].0), NodeId(g.edges()[edge].1));
            let delta = match w {
                Some(w) => GraphDelta::SetWeight { u, v, w },
                None => GraphDelta::FailEdge { u, v },
            };
            let kind = assert_identity_on(g, Backend::Flooding, delta);
            let want = RepairKind::Incremental {
                rows_recomputed: rows,
                rows_total: g.len(),
            };
            assert_eq!(kind, want, "{delta}");
        }
    }

    /// Answers of `o` against exact distances on every ordered pair.
    fn assert_exact(o: &Oracle, g: &WGraph) {
        let apsp = graphs::algo::apsp(g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(o.estimate(u, v), apsp.dist(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn flooding_distances_past_the_hop_field_take_their_own_rungs() {
        // The hop field is 32 bits: a distance of `u32::MAX` is that many
        // hops on rung 1, one unit more is one hop on a rung of its own.
        // Both build, reload and answer exactly.
        let half = 1u64 << 31;
        let builder = OracleBuilder::new(Backend::Flooding);
        for last in [half - 1, half] {
            let g = WGraph::from_edges(3, &[(0, 1, half), (1, 2, last)]).unwrap();
            let oracle = builder.try_build(&g).expect("an exact table");
            let loaded = Oracle::load_bytes(&oracle.artifact_bytes()).unwrap();
            for o in [&oracle, &loaded] {
                assert_exact(o, &g);
                assert_eq!(o.next_hop(NodeId(0), NodeId(2)), Some(NodeId(1)));
            }
        }
    }

    /// A path of 471 nodes whose first `light` edges weigh 1 and the
    /// rest `2³³` plus a random offset: the distances past the hop field
    /// are those of the pairs not both among the first `light + 1` nodes,
    /// and all distinct.
    fn heavy_path(light: u32) -> WGraph {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(5);
        let edges: Vec<_> = (0..470)
            .map(|i| {
                let heavy = (1 << 33) + rng.random_range(1..1u64 << 40);
                (i, i + 1, if i < light { 1 } else { heavy })
            })
            .collect();
        WGraph::from_edges(471, &edges).unwrap()
    }

    /// The distinct distances of `g` past the 32-bit hop field.
    fn wide_distances(g: &WGraph) -> usize {
        let apsp = graphs::algo::apsp(g);
        let pairs = g.nodes().flat_map(|u| g.nodes().map(move |v| (u, v)));
        let wide = pairs
            .map(|(u, v)| apsp.dist(u, v))
            .filter(|&d| d > u64::from(u32::MAX));
        wide.collect::<std::collections::BTreeSet<_>>().len()
    }

    #[test]
    fn flooding_rung_overflow_is_a_typed_error() {
        // A table has at most 2¹⁶ rungs, rung 1 among them: 471 · 470 / 2
        // − 301 · 300 / 2 = 2¹⁶ − 1 wide distances fit, and one more
        // heavy edge (300 more) is a typed error on build and on repair.
        let builder = OracleBuilder::new(Backend::Flooding);
        let (fits, over) = (heavy_path(300), heavy_path(299));
        assert_eq!(wide_distances(&fits), (1 << 16) - 1);
        let oracle = builder.try_build(&fits).expect("2¹⁶ rungs fit");
        assert_exact(
            &Oracle::load_bytes(&oracle.artifact_bytes()).unwrap(),
            &fits,
        );

        let too_many = BuildError::InvalidParam {
            what: "more distinct distances past the 32-bit hop field than a table has rungs",
        };
        assert_eq!(wide_distances(&over), (1 << 16) - 1 + 300);
        assert_eq!(builder.try_build(&over).unwrap_err(), too_many);
        let delta = GraphDelta::SetWeight {
            u: NodeId(299),
            v: NodeId(300),
            w: over.edges()[299].2,
        };
        assert_eq!(fits.apply_delta(&delta).unwrap().edges(), over.edges());
        let err = builder.repair(&fits, &oracle, &delta).unwrap_err();
        assert_eq!(err, RepairError::Build(too_many));
    }

    #[test]
    fn node_failure_rebuilds_everywhere() {
        let g = test_graph();
        // Find a removable node.
        let v = (0..g.len() as u32)
            .map(NodeId)
            .find(|&v| g.apply_delta(&GraphDelta::FailNode { v }).is_ok())
            .expect("some node is removable");
        let builder = OracleBuilder::new(Backend::Flooding);
        let prev = builder.build(&g);
        let repaired = builder
            .repair(&g, &prev, &GraphDelta::FailNode { v })
            .unwrap();
        assert!(matches!(repaired.report.kind, RepairKind::Rebuilt { .. }));
        assert_identity(Backend::Flooding, GraphDelta::FailNode { v });
    }

    #[test]
    fn mismatches_are_typed() {
        let g = test_graph();
        let flood = OracleBuilder::new(Backend::Flooding).build(&g);
        let err = OracleBuilder::new(Backend::ApproxApsp)
            .repair(&g, &flood, &GraphDelta::FailNode { v: NodeId(0) })
            .unwrap_err();
        assert!(matches!(err, RepairError::BackendMismatch { .. }));

        let delta_err = OracleBuilder::new(Backend::Flooding)
            .repair(
                &g,
                &flood,
                &GraphDelta::SetWeight {
                    u: NodeId(0),
                    v: NodeId(0),
                    w: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(delta_err, RepairError::Delta(_)));
    }
}
