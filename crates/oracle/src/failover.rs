//! Failure-aware routing: a compact liveness mask plus a detour router
//! that survives dead edges and nodes.
//!
//! Between the moment a link dies and the moment a repaired oracle is
//! hot-swapped in, the artifact's `next_hop` tables still point at the
//! failed element. Rather than return dead paths during that window,
//! [`route_with_failover`] walks the graph with the oracle as its guide:
//! at every node it tries the artifact's primary next hop first, and
//! when that hop is masked dead (or already visited) it detours to the
//! live neighbor whose **oracle estimate** to the destination is
//! smallest — for the hierarchical schemes that estimate is exactly the
//! skeleton/tree distance, so the detour follows the hierarchy instead
//! of flooding blindly. A visited set makes the search a depth-first
//! walk over live nodes, which yields two guarantees by construction:
//!
//! * **Loop freedom** — the returned route is a simple path (every node
//!   appears at most once; the DFS never revisits).
//! * **Completeness** — if the destination is reachable in the masked
//!   graph at all, a route is found; [`FailoverOutcome::Unroutable`] is
//!   returned only when the failures genuinely partition source from
//!   destination or kill an endpoint. Every backend keeps the topology
//!   it was built on, so every backend can detour.
//!
//! The stretch of a detour is bounded: a simple path has at most
//! `n − 1` hops, so its weight is at most `(n − 1) · w_max`
//! (`tests/dynamic_repair.rs` checks every detour against the true
//! masked-graph distance and that ceiling). When nothing relevant is
//! masked the router follows the primary hops exactly and reports
//! [`FailoverOutcome::Primary`] — the guarantee degrades only where
//! failures force it to.
//!
//! [`LivenessMask`] is the compact failure record: one bit per node
//! plus a sorted list of packed dead-edge keys (8 bytes per failed
//! edge), so masking is `O(1)` / `O(log f)` and the mask for a healthy
//! graph is a few machine words regardless of `n`.

use crate::{DistanceOracle, TracedRoute};
use congest::NodeId;

/// Packs an undirected edge into one sortable `u64` key.
#[inline]
fn edge_key(u: NodeId, v: NodeId) -> u64 {
    let (a, b) = (u.0.min(v.0), u.0.max(v.0));
    (u64::from(a) << 32) | u64::from(b)
}

/// A compact record of failed nodes and edges: a node bitset plus a
/// sorted set of packed edge keys. See the [module docs](self).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LivenessMask {
    n: usize,
    dead_nodes: Vec<u64>,
    dead_edges: Vec<u64>,
}

impl LivenessMask {
    /// An all-alive mask over `n` nodes.
    pub fn new(n: usize) -> Self {
        LivenessMask {
            n,
            dead_nodes: vec![0; n.div_ceil(64)],
            dead_edges: Vec::new(),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the mask covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `true` when nothing is masked dead.
    pub fn is_clear(&self) -> bool {
        self.dead_nodes.iter().all(|&w| w == 0) && self.dead_edges.is_empty()
    }

    /// Marks node `v` dead (idempotent).
    pub fn fail_node(&mut self, v: NodeId) {
        self.dead_nodes[v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// Marks edge `{u, v}` dead (idempotent).
    pub fn fail_edge(&mut self, u: NodeId, v: NodeId) {
        let key = edge_key(u, v);
        if let Err(at) = self.dead_edges.binary_search(&key) {
            self.dead_edges.insert(at, key);
        }
    }

    /// Marks edge `{u, v}` alive again (idempotent).
    pub fn revive_edge(&mut self, u: NodeId, v: NodeId) {
        if let Ok(at) = self.dead_edges.binary_search(&edge_key(u, v)) {
            self.dead_edges.remove(at);
        }
    }

    /// Clears every failure.
    pub fn clear(&mut self) {
        self.dead_nodes.fill(0);
        self.dead_edges.clear();
    }

    /// `true` when node `v` is alive.
    #[inline]
    pub fn node_alive(&self, v: NodeId) -> bool {
        self.dead_nodes[v.index() / 64] & (1 << (v.index() % 64)) == 0
    }

    /// `true` when edge `{u, v}` is alive **and** both endpoints are.
    #[inline]
    pub fn edge_alive(&self, u: NodeId, v: NodeId) -> bool {
        self.node_alive(u)
            && self.node_alive(v)
            && self.dead_edges.binary_search(&edge_key(u, v)).is_err()
    }
}

/// How [`route_with_failover`] answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailoverOutcome {
    /// The route follows the artifact's primary next hops exactly (no
    /// failure was in the way).
    Primary,
    /// The route reached the destination but deviated from the primary
    /// next hop at `detours` of its nodes.
    Detoured {
        /// Number of hops on the final path that differ from the
        /// artifact's primary next hop at that node.
        detours: usize,
    },
    /// No live path exists (the failures partition the pair), or an
    /// endpoint is dead.
    Unroutable,
}

impl FailoverOutcome {
    /// `true` when a route was produced.
    pub fn routed(&self) -> bool {
        !matches!(self, FailoverOutcome::Unroutable)
    }
}

/// One DFS frame: the node, its candidate arcs in preference order, and
/// the next candidate to try.
struct Frame {
    node: NodeId,
    port: congest::Port,
    cands: Vec<(NodeId, congest::Port)>,
    next: usize,
}

/// Routes `u → v` around the failures in `mask`, filling `out` with the
/// traced path (allocations reused across calls). See the
/// [module docs](self) for the guarantees.
///
/// # Panics
///
/// Panics when `mask` covers a different node count than the oracle.
pub fn route_with_failover(
    oracle: &dyn DistanceOracle,
    mask: &LivenessMask,
    u: NodeId,
    v: NodeId,
    out: &mut TracedRoute,
) -> FailoverOutcome {
    let n = oracle.len();
    assert_eq!(mask.len(), n, "liveness mask covers a different graph");
    let unroutable = |out: &mut TracedRoute| {
        out.clear();
        FailoverOutcome::Unroutable
    };
    if !mask.node_alive(u) || !mask.node_alive(v) {
        return unroutable(out);
    }
    if u == v {
        out.clear();
        out.nodes.push(u);
        return FailoverOutcome::Primary;
    }
    let topo = oracle.topology();

    // Candidate arcs of `x`, best first: the artifact's primary next hop,
    // then live neighbors by ascending oracle estimate to `v` (ties by
    // id, so the walk is deterministic).
    let candidates = |x: NodeId| -> Vec<(NodeId, congest::Port)> {
        let primary = oracle.next_hop(x, v);
        let mut cands: Vec<(u64, NodeId, congest::Port)> = topo
            .arcs(x)
            .filter(|&(_, nbr, _, _)| mask.edge_alive(x, nbr))
            .map(|(port, nbr, _, _)| (oracle.estimate(nbr, v), nbr, port))
            .collect();
        cands.sort_unstable_by_key(|&(est, nbr, _)| (Some(nbr) != primary, est, nbr.0));
        cands
            .into_iter()
            .map(|(_, nbr, port)| (nbr, port))
            .collect()
    };

    let mut visited = vec![0u64; n.div_ceil(64)];
    let visit = |x: NodeId, visited: &mut Vec<u64>| {
        let (w, b) = (x.index() / 64, x.index() % 64);
        let fresh = visited[w] & (1 << b) == 0;
        visited[w] |= 1 << b;
        fresh
    };
    visit(u, &mut visited);
    let mut stack = vec![Frame {
        node: u,
        port: 0,
        cands: candidates(u),
        next: 0,
    }];
    loop {
        let Some(frame) = stack.last_mut() else {
            return unroutable(out); // DFS exhausted: genuinely partitioned
        };
        if frame.next >= frame.cands.len() {
            stack.pop();
            continue;
        }
        let (nbr, port) = frame.cands[frame.next];
        frame.next += 1;
        let from = frame.node;
        if !visit(nbr, &mut visited) {
            continue;
        }
        if nbr == v {
            // Materialize the path from the live stack frames.
            out.clear();
            let mut detours = 0;
            for f in stack.iter() {
                out.nodes.push(f.node);
            }
            out.nodes.push(v);
            for (i, f) in stack.iter().enumerate() {
                let taken_port = if f.node == from {
                    port
                } else {
                    stack[i + 1].port
                };
                let hop = out.nodes[i + 1];
                out.ports.push(taken_port);
                out.weight += topo.weight(f.node, taken_port);
                if oracle.next_hop(f.node, v) != Some(hop) {
                    detours += 1;
                }
            }
            return if detours == 0 {
                FailoverOutcome::Primary
            } else {
                FailoverOutcome::Detoured { detours }
            };
        }
        let cands = candidates(nbr);
        stack.push(Frame {
            node: nbr,
            port,
            cands,
            next: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, OracleBuilder};
    use graphs::WGraph;

    fn ring_with_chord() -> WGraph {
        // 0-1-2-3-4-5-0 ring plus a 1-4 chord.
        WGraph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 0, 1),
                (1, 4, 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn mask_tracks_nodes_and_edges() {
        let mut m = LivenessMask::new(70);
        assert!(m.is_clear());
        m.fail_node(NodeId(65));
        m.fail_edge(NodeId(2), NodeId(1));
        m.fail_edge(NodeId(1), NodeId(2)); // idempotent, either order
        assert!(!m.node_alive(NodeId(65)));
        assert!(!m.edge_alive(NodeId(1), NodeId(2)));
        assert!(
            !m.edge_alive(NodeId(0), NodeId(65)),
            "dead endpoint kills edges"
        );
        m.revive_edge(NodeId(1), NodeId(2));
        assert!(m.edge_alive(NodeId(1), NodeId(2)));
        m.clear();
        assert!(m.is_clear());
    }

    #[test]
    fn clear_mask_follows_primary_route() {
        let g = ring_with_chord();
        let oracle = OracleBuilder::new(Backend::Flooding).build(&g);
        let mask = LivenessMask::new(g.len());
        let mut out = TracedRoute::default();
        let outcome = route_with_failover(&oracle, &mask, NodeId(0), NodeId(3), &mut out);
        assert_eq!(outcome, FailoverOutcome::Primary);
        assert_eq!(out.weight, 3);
    }

    #[test]
    fn dead_edge_detours_loop_free() {
        let g = ring_with_chord();
        let oracle = OracleBuilder::new(Backend::Flooding).build(&g);
        let mut mask = LivenessMask::new(g.len());
        // Kill the primary 0→3 direction's first edge both ways around.
        mask.fail_edge(NodeId(0), NodeId(1));
        let mut out = TracedRoute::default();
        let outcome = route_with_failover(&oracle, &mask, NodeId(0), NodeId(3), &mut out);
        assert!(matches!(outcome, FailoverOutcome::Detoured { .. }));
        assert_eq!(*out.nodes.last().unwrap(), NodeId(3));
        // Loop-free: simple path.
        let mut seen: Vec<_> = out.nodes.iter().map(|x| x.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), out.nodes.len());
        // Never traverses the dead edge.
        for w in out.nodes.windows(2) {
            assert!(mask.edge_alive(w[0], w[1]));
        }
    }

    #[test]
    fn partition_is_unroutable() {
        let g = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let oracle = OracleBuilder::new(Backend::Flooding).build(&g);
        let mut mask = LivenessMask::new(3);
        mask.fail_node(NodeId(1));
        let mut out = TracedRoute::default();
        let outcome = route_with_failover(&oracle, &mask, NodeId(0), NodeId(2), &mut out);
        assert_eq!(outcome, FailoverOutcome::Unroutable);
        assert!(out.nodes.is_empty());
    }
}
