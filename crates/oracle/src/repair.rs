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
//!   hops, and a row is a pure function of the graph alone. For a
//!   changed edge `{x, y}` each source row is classified from the
//!   **old** row in `O(deg)` (see `row_touched`: a few probes of the
//!   table): a row whose edge was not tight, or whose shortest-path
//!   tree keeps every distance and does not enter `y` across the edge,
//!   is bit-identical and kept; every other row reruns the build's
//!   per-source search ([`graphs::algo::sssp_with_first_hops`]), so
//!   identity holds by construction. On connected G(n, 6/n) graphs a
//!   raise, failure or halving touches ≈ 30–38 % of the rows, where a
//!   coarse tightness test would take about half —
//!   [`RepairKind::Incremental`] reports the count.
//! * **Sampling-coupled schemes** (PDE, RTC, Compact, Truncated) key
//!   their skeleton/level samples and ladder stages on node ids and the
//!   global seed; a delta invalidates rungs globally, and per-rung
//!   per-source state is exactly what the compact artifact does *not*
//!   store. Repair for these is an honest staged rebuild through the
//!   same pipeline ([`RepairKind::Rebuilt`] names the reason) — still
//!   through one entry point, so callers measure instead of guessing.
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

/// One edge transition `w_old → w_new` on `{a, b}` (`w_new = u64::MAX`
/// encodes a removal), shared by every row classification of a repair.
#[derive(Clone, Copy)]
struct EdgeTransition {
    a: NodeId,
    b: NodeId,
    w_old: u64,
    w_new: u64,
}

/// Whether source row `s` may change, decided from the stored row alone
/// (exactly, up to a sound over-approximation on the rare branches). A
/// row this rejects is bit-identical after the delta:
///
/// * A raised or removed edge matters only if it was *tight* from `s`
///   (`wd(s,x) + w_old = wd(s,y)`; the edge itself forces
///   `|da − db| ≤ w_old`, so with weights ≥ 1 at most one direction is
///   tight). Non-tight rows are kept.
/// * If `y` keeps **no other tight predecessor**, every shortest
///   `s → y` path crossed the edge and the distance row changes.
///   Conversely, an alternative tight predecessor `v` certifies that no
///   shortest path *to v* can cross the edge (any path through `y` is
///   already longer than `wd(s,v) < wd(s,y)`), so every distance
///   survives by prefix replacement — an `O(deg y)` scan, exact where
///   the coarse `da + w ≤ db` test would touch roughly half the rows of
///   a unit-weight graph.
/// * With distances unchanged, `hops`/`parent` (and hence the stored
///   first-hop row) can only move if the canonical tree entered `y`
///   across the edge, i.e. `parent[y] = x`. On a **unit-weight** graph
///   that is decidable exactly from the row: `hops ≡ dist`, so every
///   tight predecessor is a minimum-hop candidate and the canonical
///   parent is the minimum-id tight predecessor — `parent[y] = x` iff
///   `x` has the smallest id among `y`'s tight predecessors. With
///   general weights the candidate hops are unknown and the test falls
///   back to the necessary condition `next[y] = next[x]` (or
///   `next[y] = y` when `x = s`), a sound over-approximation.
/// * Weight decreases fall back to the coarse tightness test on the new
///   weight.
fn row_touched(
    g_old: &WGraph,
    dist: impl Fn(NodeId) -> u64,
    next: impl Fn(NodeId) -> u32,
    unit_weights: bool,
    s: u32,
    edge: EdgeTransition,
) -> bool {
    let EdgeTransition { a, b, w_old, w_new } = edge;
    let (da, db) = (dist(a), dist(b));
    if w_new < w_old {
        return da.saturating_add(w_new) <= db || db.saturating_add(w_new) <= da;
    }
    let (x, y) = if da.saturating_add(w_old) == db {
        (a, b)
    } else if db.saturating_add(w_old) == da {
        (b, a)
    } else {
        return false;
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
        return true;
    }
    if unit_weights {
        min_tight_pred == x.0
    } else {
        let expected = if x.0 == s { y.0 } else { next(x) };
        next(y) == expected
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
/// from a few probes of the stored table ([`row_touched`]); a touched
/// row is recomputed by the build's own per-source search
/// ([`graphs::algo::sssp_with_first_hops`]), so it is the rebuild's row
/// by construction, and every other row is copied as stored. Returns the
/// oracle and the number of rows touched.
fn repair_flood(
    prev: &crate::PdeOracle,
    g_old: &WGraph,
    g_new: &WGraph,
    delta: &GraphDelta,
) -> Result<(Inner, usize), BuildError> {
    let n = g_new.len();
    let edge = edge_transition(g_old, delta);
    let unit_old = g_old.max_weight() == 1;
    let (old_topo, routes) = (&prev.topo, &prev.routes);
    // The touched rows, in row order: source, distances, first hops.
    let mut touched = Vec::new();
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
        if !row_touched(g_old, dist, next, unit_old, s as u32, edge) {
            ladder.add(routes.row_iter(src).map(|e| e.est));
            continue;
        }
        let (sssp, next) = graphs::algo::sssp_with_first_hops(g_new, src);
        ladder.add(sssp.dist.iter().copied());
        touched.push((src, sssp.dist, next));
    }
    let rows = touched.len();
    let mut touched = touched.into_iter().peekable();
    let m = backends::metrics(Backend::Flooding, n, 0, 0);
    let repaired = backends::exact_oracle(g_new, ladder, m, |topo, u, out| {
        if let Some((_, dist, next)) = touched.next_if(|t| t.0 == u) {
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
        let err = OracleBuilder::new(Backend::Pde)
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
