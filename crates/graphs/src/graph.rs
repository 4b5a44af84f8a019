//! The weighted undirected graph type.

use congest::{NodeId, Topology, TopologyError};
use std::fmt;

/// Sentinel for "unreachable" in distance arrays.
///
/// Arithmetic on distances must use [`u64::saturating_add`] so that
/// `INF + w == INF`.
pub const INF: u64 = u64::MAX;

/// Errors produced while validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Underlying structural problem (shared with the simulator topology).
    Topology(TopologyError),
    /// The graph is not connected but the operation requires it.
    Disconnected,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Topology(e) => write!(f, "invalid graph: {e}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Topology(e) => Some(e),
            GraphError::Disconnected => None,
        }
    }
}

impl From<TopologyError> for GraphError {
    fn from(e: TopologyError) -> Self {
        GraphError::Topology(e)
    }
}

/// A simple, weighted, undirected graph `G = (V, E, W)` with `W: E → ℕ`
/// (weights ≥ 1), as in Section 2 of the paper.
///
/// Internally stored as a CSR adjacency structure plus the undirected edge
/// list. Adjacency lists are sorted by neighbor id, so iteration order is
/// deterministic.
#[derive(Clone, Debug)]
pub struct WGraph {
    n: usize,
    edges: Vec<(u32, u32, u64)>,
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<u64>,
    w_max: u64,
}

impl WGraph {
    /// Builds a graph from an undirected edge list.
    ///
    /// # Errors
    ///
    /// Rejects self loops, duplicate pairs, zero weights, out-of-range
    /// endpoints and empty vertex sets (see [`GraphError`]).
    pub fn from_edges(n: usize, edges: &[(u32, u32, u64)]) -> Result<Self, GraphError> {
        // Reuse the topology validation, then build our own CSR.
        let _ = Topology::from_edges(n, edges)?;
        let mut arcs: Vec<(u32, u32, u64)> = Vec::with_capacity(edges.len() * 2);
        let mut canonical = Vec::with_capacity(edges.len());
        for &(u, v, w) in edges {
            arcs.push((u, v, w));
            arcs.push((v, u, w));
            canonical.push((u.min(v), u.max(v), w));
        }
        canonical.sort_unstable();
        arcs.sort_unstable();
        let mut offsets = vec![0u32; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        Ok(WGraph {
            n,
            w_max: canonical.iter().map(|&(_, _, w)| w).max().unwrap_or(0),
            edges: canonical,
            offsets,
            targets: arcs.iter().map(|&(_, v, _)| NodeId(v)).collect(),
            weights: arcs.iter().map(|&(_, _, w)| w).collect(),
        })
    }

    /// Like [`WGraph::from_edges`] but additionally requires connectivity.
    pub fn connected_from_edges(n: usize, edges: &[(u32, u32, u64)]) -> Result<Self, GraphError> {
        let g = Self::from_edges(n, edges)?;
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph has no nodes (never for valid graphs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The undirected edge list, as `(min_endpoint, max_endpoint, weight)`,
    /// sorted.
    #[inline]
    pub fn edges(&self) -> &[(u32, u32, u64)] {
        &self.edges
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Iterates over `(neighbor, weight)` pairs of `v`, sorted by neighbor.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        (lo..hi).map(move |a| (self.targets[a], self.weights[a]))
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n as u32).map(NodeId)
    }

    /// The weight of edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<u64> {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        self.targets[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|i| self.weights[lo + i])
    }

    /// Largest edge weight (`w_max` in the paper); 0 for edgeless graphs.
    /// Computed once at construction — callers that dispatch on it per
    /// query or per Dijkstra run (e.g. the bucket-queue threshold) pay a
    /// field read, not an edge scan.
    #[inline]
    pub fn max_weight(&self) -> u64 {
        self.w_max
    }

    /// `true` if the graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (u, _) in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n
    }

    /// Converts to a simulator [`Topology`] (unit delays).
    pub fn to_topology(&self) -> Topology {
        Topology::from_edges(self.n, &self.edges).expect("validated graph converts to topology")
    }

    /// Emits the graph into an arena: its canonical edge list through
    /// the shared narrow codec ([`congest::arena::write_edges`]).
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) {
        congest::arena::write_edges(a, self.n, &self.edges);
    }

    /// Reads what [`WGraph::write_arena`] wrote, re-validating through
    /// [`WGraph::from_edges`] (the edge list is small relative to the
    /// tables keyed on it, so the `O(m log m)` rebuild stays off the
    /// cold-start critical path).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections or an invalid edge
    /// list.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> std::io::Result<Self> {
        let (n, edges) = congest::arena::read_edges(c)?;
        WGraph::from_edges(n, &edges)
            .map_err(|e| congest::wire::invalid_data(format!("bad graph snapshot: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_adjacency_matches_edges() {
        let g = WGraph::from_edges(4, &[(0, 1, 3), (2, 1, 5), (3, 0, 7)]).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3);
        let nbrs: Vec<_> = g.neighbors(NodeId(1)).collect();
        assert_eq!(nbrs, vec![(NodeId(0), 3), (NodeId(2), 5)]);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.edge_weight(NodeId(3), NodeId(0)), Some(7));
        assert_eq!(g.edge_weight(NodeId(3), NodeId(1)), None);
        assert_eq!(g.max_weight(), 7);
    }

    #[test]
    fn edge_list_is_canonical_and_sorted() {
        let g = WGraph::from_edges(3, &[(2, 0, 1), (1, 0, 2)]).unwrap();
        assert_eq!(g.edges(), &[(0, 1, 2), (0, 2, 1)]);
    }

    #[test]
    fn rejects_duplicates_regardless_of_direction() {
        assert!(WGraph::from_edges(3, &[(0, 1, 1), (1, 0, 2)]).is_err());
    }

    #[test]
    fn connectivity_check() {
        let g = WGraph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(!g.is_connected());
        assert!(matches!(
            WGraph::connected_from_edges(4, &[(0, 1, 1), (2, 3, 1)]),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn topology_conversion_preserves_weights() {
        let g = WGraph::from_edges(3, &[(0, 1, 9), (1, 2, 4)]).unwrap();
        let t = g.to_topology();
        assert_eq!(t.num_edges(), 2);
        let p = t.port_to(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.weight(NodeId(0), p), 9);
    }
}
