//! Immutable network topology: CSR adjacency with weights and delays.

use crate::model::{NodeId, Port};
use std::fmt;

/// Errors produced while validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge endpoint referred to a node index `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: u32,
        /// Number of nodes in the topology.
        n: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop(u32),
    /// The same undirected pair appeared twice.
    DuplicateEdge(u32, u32),
    /// An edge had weight zero (the paper assumes `W: E → ℕ`, i.e. `≥ 1`).
    ZeroWeight(u32, u32),
    /// The topology had zero nodes.
    Empty,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            TopologyError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            TopologyError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            TopologyError::ZeroWeight(u, v) => write!(f, "edge {{{u}, {v}}} has weight zero"),
            TopologyError::Empty => write!(f, "topology must have at least one node"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable, simple, weighted, undirected network topology.
///
/// Stored as a CSR structure over *arcs* (directed edge copies). Each arc
/// carries a weight (same in both directions) and a *delay* in rounds
/// (default 1). Delays model the subdivided graphs `G_i` from Section 3 of
/// the paper: a message sent over an arc with delay `L` is delivered `L`
/// rounds later, exactly as if it were relayed along a path of `L` virtual
/// unit-weight edges at one hop per round.
///
/// Arc lists are sorted by neighbor id, so port numbering is deterministic.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<u64>,
    delays: Vec<u64>,
    /// For global arc index `a = (u → v)`, `rev[a]` is the global arc index
    /// of `(v → u)`. Used to translate a sender's port into the receiver's.
    rev: Vec<u32>,
}

impl Topology {
    /// Builds a topology from an undirected edge list `(u, v, weight)`.
    ///
    /// All delays are initialized to 1 (the plain CONGEST model).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the edge list contains self loops,
    /// duplicate pairs, zero weights or out-of-range endpoints, or if
    /// `n == 0`.
    pub fn from_edges(n: usize, edges: &[(u32, u32, u64)]) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        let mut arcs: Vec<(u32, u32, u64)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            if u as usize >= n {
                return Err(TopologyError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(TopologyError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(TopologyError::SelfLoop(u));
            }
            if w == 0 {
                return Err(TopologyError::ZeroWeight(u, v));
            }
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
        arcs.sort_unstable();
        for pair in arcs.windows(2) {
            if pair[0].0 == pair[1].0 && pair[0].1 == pair[1].1 {
                return Err(TopologyError::DuplicateEdge(pair[0].0, pair[0].1));
            }
        }

        let mut offsets = vec![0u32; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = arcs.iter().map(|&(_, v, _)| NodeId(v)).collect();
        let weights: Vec<u64> = arcs.iter().map(|&(_, _, w)| w).collect();
        let delays = vec![1u64; arcs.len()];

        // rev[a]: binary search for the reverse arc inside the target's slice.
        let mut rev = vec![0u32; arcs.len()];
        for (a, &(u, v, _)) in arcs.iter().enumerate() {
            let lo = offsets[v as usize] as usize;
            let hi = offsets[v as usize + 1] as usize;
            let slice = &targets[lo..hi];
            let pos = slice
                .binary_search(&NodeId(u))
                .expect("reverse arc must exist (edges are symmetric)");
            rev[a] = (lo + pos) as u32;
        }

        Ok(Topology {
            n,
            offsets,
            targets,
            weights,
            delays,
            rev,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the topology has no nodes (never true for valid topologies).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    #[inline]
    fn arc(&self, v: NodeId, port: Port) -> usize {
        let a = self.offsets[v.index()] + port;
        debug_assert!(a < self.offsets[v.index() + 1], "port out of range");
        a as usize
    }

    /// Total number of directed arcs (`2 · num_edges`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// The contiguous range of global arc indices owned by `v`; arc
    /// `arc_range(v).start + p` is `v`'s port `p`. This is the dense
    /// `(node, port)` key space the runtime's delivery buckets use.
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// The neighbor reached through `port` of node `v`.
    #[inline]
    pub fn neighbor(&self, v: NodeId, port: Port) -> NodeId {
        self.targets[self.arc(v, port)]
    }

    /// The weight of the edge at `port` of node `v`.
    #[inline]
    pub fn weight(&self, v: NodeId, port: Port) -> u64 {
        self.weights[self.arc(v, port)]
    }

    /// The delay (in rounds) of the arc at `port` of node `v`.
    #[inline]
    pub fn delay(&self, v: NodeId, port: Port) -> u64 {
        self.delays[self.arc(v, port)]
    }

    /// The port on which `v`'s message over `port` arrives at the neighbor.
    #[inline]
    pub fn reverse_port(&self, v: NodeId, port: Port) -> Port {
        let a = self.arc(v, port);
        let t = self.targets[a];
        self.rev[a] - self.offsets[t.index()]
    }

    /// The global arc index of the reverse arc of `v`'s `port` — i.e. the
    /// receiving slot, in the dense `(node, port)` key space of
    /// [`Topology::arc_range`], of a message sent by `v` over `port`.
    #[inline]
    pub fn reverse_arc(&self, v: NodeId, port: Port) -> u32 {
        self.rev[self.arc(v, port)]
    }

    /// The port of node `v` leading to neighbor `u`, if `{v, u}` is an edge.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        self.targets[lo..hi]
            .binary_search(&u)
            .ok()
            .map(|p| p as Port)
    }

    /// Iterates over `(port, neighbor, weight, delay)` for node `v`.
    pub fn arcs(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId, u64, u64)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        (lo..hi).map(move |a| {
            (
                (a - lo) as Port,
                self.targets[a],
                self.weights[a],
                self.delays[a],
            )
        })
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n as u32).map(NodeId)
    }

    /// Emits the topology into an arena: its canonical undirected edge
    /// list through the shared narrow codec
    /// ([`crate::arena::write_edges`]).
    pub fn write_arena(&self, a: &mut crate::arena::ArenaWriter) {
        crate::arena::write_edges(a, self.len(), &self.undirected_edges());
    }

    /// Reads what [`Topology::write_arena`] wrote, re-validating through
    /// [`Topology::from_edges`] (edge lists are small next to the route
    /// tables keyed on them; the CSR rebuild is not on the cold-start
    /// critical path).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections or an invalid edge
    /// list.
    pub fn read_arena(c: &mut crate::arena::ArenaCursor<'_>) -> std::io::Result<Topology> {
        let (n, edges) = crate::arena::read_edges(c)?;
        Topology::from_edges(n, &edges)
            .map_err(|e| crate::wire::invalid_data(format!("bad topology: {e}")))
    }

    /// The undirected edge list `(min_endpoint, max_endpoint, weight)`,
    /// sorted — the canonical form snapshots persist, from which
    /// [`Topology::from_edges`] rebuilds an identical topology (delays are
    /// not included; they are a per-simulation derivation of the weights).
    pub fn undirected_edges(&self) -> Vec<(u32, u32, u64)> {
        let mut edges = Vec::with_capacity(self.num_edges());
        for v in self.nodes() {
            for (_, u, w, _) in self.arcs(v) {
                if v < u {
                    edges.push((v.0, u.0, w));
                }
            }
        }
        edges
    }

    /// Largest edge weight.
    pub fn max_weight(&self) -> u64 {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Largest arc delay.
    pub fn max_delay(&self) -> u64 {
        self.delays.iter().copied().max().unwrap_or(1)
    }

    /// Returns a copy of this topology whose arc delays are `f(weight)`,
    /// clamped below at 1.
    ///
    /// This is how the per-level subdivided graphs `G_i` of the paper are
    /// produced: `f(w) = ⌈w / b(i)⌉` makes crossing an edge of weight `w`
    /// take exactly as many rounds as relaying along its subdivision into
    /// `⌈w / b(i)⌉` unit edges.
    pub fn with_delays<F: Fn(u64) -> u64>(&self, f: F) -> Topology {
        let mut t = self.clone();
        for (d, &w) in t.delays.iter_mut().zip(self.weights.iter()) {
            *d = f(w).max(1);
        }
        t
    }

    /// `true` if the topology is connected (checked by BFS; `O(n + m)`).
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for (_, u, _, _) in self.arcs(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        Topology::from_edges(3, &[(0, 1, 5), (1, 2, 7), (0, 2, 9)]).unwrap()
    }

    #[test]
    fn basic_structure() {
        let t = triangle();
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.neighbor(NodeId(0), 0), NodeId(1));
        assert_eq!(t.neighbor(NodeId(0), 1), NodeId(2));
        assert_eq!(t.weight(NodeId(0), 0), 5);
        assert_eq!(t.weight(NodeId(0), 1), 9);
        assert!(t.is_connected());
    }

    #[test]
    fn reverse_ports_are_consistent() {
        let t = triangle();
        for v in t.nodes() {
            for (port, u, w, _) in t.arcs(v) {
                let rp = t.reverse_port(v, port);
                assert_eq!(t.neighbor(u, rp), v);
                assert_eq!(t.weight(u, rp), w);
            }
        }
    }

    #[test]
    fn port_to_finds_neighbors() {
        let t = triangle();
        assert_eq!(t.port_to(NodeId(0), NodeId(2)), Some(1));
        let t2 = Topology::from_edges(4, &[(0, 1, 1), (2, 3, 1), (1, 2, 1)]).unwrap();
        assert_eq!(t2.port_to(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(matches!(
            Topology::from_edges(2, &[(0, 0, 1)]),
            Err(TopologyError::SelfLoop(0))
        ));
        assert!(matches!(
            Topology::from_edges(2, &[(0, 1, 1), (1, 0, 2)]),
            Err(TopologyError::DuplicateEdge(_, _))
        ));
        assert!(matches!(
            Topology::from_edges(2, &[(0, 1, 0)]),
            Err(TopologyError::ZeroWeight(0, 1))
        ));
        assert!(matches!(
            Topology::from_edges(2, &[(0, 5, 1)]),
            Err(TopologyError::NodeOutOfRange { node: 5, n: 2 })
        ));
        assert!(matches!(
            Topology::from_edges(0, &[]),
            Err(TopologyError::Empty)
        ));
    }

    #[test]
    fn delays_follow_weights() {
        let t = triangle().with_delays(|w| w.div_ceil(4));
        assert_eq!(t.delay(NodeId(0), 0), 2); // ceil(5/4)
        assert_eq!(t.delay(NodeId(1), 1), 2); // ceil(7/4)
        assert_eq!(t.delay(NodeId(0), 1), 3); // ceil(9/4)
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(!t.is_connected());
    }
}
