//! Graph deltas: the mutation vocabulary of the dynamic-graph subsystem.
//!
//! A [`GraphDelta`] describes one atomic change to a live network — an
//! edge weight update, an edge failure, or a node failure — and
//! [`WGraph::apply_delta`] materializes the mutated graph. Every
//! consumer of deltas (the oracle repair path, the serving layer's
//! `repair_and_swap`, the failure-injection suite) goes through this
//! type, so validation lives in exactly one place:
//!
//! - [`GraphDelta::SetWeight`] rewrites the weight of an **existing**
//!   edge (weights stay ≥ 1, as everywhere in the paper).
//! - [`GraphDelta::FailEdge`] removes an existing edge. The mutated
//!   graph must stay connected — every build pipeline in this workspace
//!   requires connectivity, so a partitioning failure is reported as
//!   [`DeltaError::Disconnects`] instead of producing a graph no
//!   backend can rebuild on.
//! - [`GraphDelta::FailNode`] removes a node and its incident edges.
//!   Node ids above the failed node shift down by one (the graph types
//!   use dense `0..n` ids throughout); callers that hold node ids
//!   across a node failure must re-resolve them. The pre-swap serving
//!   window instead masks the node in a
//!   liveness mask without renumbering — see the `oracle` crate's
//!   failover module.
//!
//! Deltas are validated against the graph they are applied to: failing
//! an unknown edge or node, zeroing a weight, or disconnecting the
//! graph are typed [`DeltaError`]s, never panics.

use crate::graph::{GraphError, WGraph};
use congest::NodeId;
use std::fmt;

/// One atomic mutation of a weighted graph.
///
/// See the [module docs](self) for the semantics of each kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphDelta {
    /// Set the weight of the existing edge `{u, v}` to `w` (≥ 1).
    SetWeight {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The new weight (must be ≥ 1).
        w: u64,
    },
    /// Remove the existing edge `{u, v}`.
    FailEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Remove node `v` and all its incident edges. Ids above `v` shift
    /// down by one in the mutated graph.
    FailNode {
        /// The failed node.
        v: NodeId,
    },
}

impl GraphDelta {
    /// Short tag for tables and logs (`"set_weight"`, `"fail_edge"`,
    /// `"fail_node"`).
    pub fn kind(&self) -> &'static str {
        match self {
            GraphDelta::SetWeight { .. } => "set_weight",
            GraphDelta::FailEdge { .. } => "fail_edge",
            GraphDelta::FailNode { .. } => "fail_node",
        }
    }
}

impl fmt::Display for GraphDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphDelta::SetWeight { u, v, w } => write!(f, "set_weight({u}, {v}) = {w}"),
            GraphDelta::FailEdge { u, v } => write!(f, "fail_edge({u}, {v})"),
            GraphDelta::FailNode { v } => write!(f, "fail_node({v})"),
        }
    }
}

/// Why a [`GraphDelta`] cannot be applied to a particular graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta names an edge the graph does not have.
    UnknownEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// The delta names a node outside `0..n`.
    UnknownNode {
        /// The out-of-range node.
        v: NodeId,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// The new weight is 0 (weights are ≥ 1 everywhere in the paper).
    ZeroWeight,
    /// Applying the delta would disconnect the graph (or empty it).
    Disconnects,
    /// The mutated edge list failed graph validation (unreachable for
    /// deltas produced through this module; kept so the error is typed
    /// instead of a panic).
    Invalid(GraphError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownEdge { u, v } => write!(f, "no edge {{{u}, {v}}} in the graph"),
            DeltaError::UnknownNode { v, n } => write!(f, "node {v} out of range (n = {n})"),
            DeltaError::ZeroWeight => write!(f, "edge weights must be >= 1"),
            DeltaError::Disconnects => write!(f, "delta would disconnect the graph"),
            DeltaError::Invalid(e) => write!(f, "delta produced an invalid graph: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl WGraph {
    /// The id half of [`WGraph::apply_delta`]'s checks, all that masking a
    /// failure needs: nodes in `0..n`, and an edge delta names an edge.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownNode`] or [`DeltaError::UnknownEdge`].
    pub fn check_delta_ids(&self, delta: &GraphDelta) -> Result<(), DeltaError> {
        let n = self.len();
        let node = |v: NodeId| {
            if v.index() < n {
                Ok(())
            } else {
                Err(DeltaError::UnknownNode { v, n })
            }
        };
        match *delta {
            GraphDelta::SetWeight { u, v, .. } | GraphDelta::FailEdge { u, v } => {
                node(u)?;
                node(v)?;
                let edge = self.edge_weight(u, v).map(|_| ());
                edge.ok_or(DeltaError::UnknownEdge { u, v })
            }
            GraphDelta::FailNode { v } => node(v),
        }
    }

    /// Applies one [`GraphDelta`], returning the mutated graph.
    ///
    /// The receiver is untouched; the result goes through the same
    /// validation as [`WGraph::from_edges`], so downstream builds see a
    /// graph indistinguishable from one constructed from scratch (this
    /// is what makes byte-identical repair provable at all).
    ///
    /// # Errors
    ///
    /// Returns a typed [`DeltaError`] when the delta names an unknown
    /// edge or node, sets a zero weight, or would disconnect the graph.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<WGraph, DeltaError> {
        self.check_delta_ids(delta)?;
        let n = self.len();
        match *delta {
            GraphDelta::SetWeight { u, v, w } => {
                if w == 0 {
                    return Err(DeltaError::ZeroWeight);
                }
                let (a, b) = (u.0.min(v.0), u.0.max(v.0));
                let edges: Vec<(u32, u32, u64)> = self
                    .edges()
                    .iter()
                    .map(|&(x, y, wt)| {
                        if (x, y) == (a, b) {
                            (x, y, w)
                        } else {
                            (x, y, wt)
                        }
                    })
                    .collect();
                WGraph::from_edges(n, &edges).map_err(DeltaError::Invalid)
            }
            GraphDelta::FailEdge { u, v } => {
                let (a, b) = (u.0.min(v.0), u.0.max(v.0));
                let edges: Vec<(u32, u32, u64)> = self
                    .edges()
                    .iter()
                    .copied()
                    .filter(|&(x, y, _)| (x, y) != (a, b))
                    .collect();
                let g = WGraph::from_edges(n, &edges).map_err(DeltaError::Invalid)?;
                if !g.is_connected() {
                    return Err(DeltaError::Disconnects);
                }
                Ok(g)
            }
            GraphDelta::FailNode { v } => {
                if n <= 1 {
                    return Err(DeltaError::Disconnects);
                }
                // Drop incident edges and compact the id space.
                let remap = |x: u32| if x > v.0 { x - 1 } else { x };
                let edges: Vec<(u32, u32, u64)> = self
                    .edges()
                    .iter()
                    .copied()
                    .filter(|&(x, y, _)| x != v.0 && y != v.0)
                    .map(|(x, y, w)| (remap(x), remap(y), w))
                    .collect();
                let g = WGraph::from_edges(n - 1, &edges).map_err(DeltaError::Invalid)?;
                if !g.is_connected() {
                    return Err(DeltaError::Disconnects);
                }
                Ok(g)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WGraph {
        // 0-1, 1-3, 0-2, 2-3, plus a 0-3 chord.
        WGraph::from_edges(4, &[(0, 1, 1), (1, 3, 2), (0, 2, 3), (2, 3, 4), (0, 3, 9)]).unwrap()
    }

    #[test]
    fn set_weight_rewrites_one_edge() {
        let g = diamond()
            .apply_delta(&GraphDelta::SetWeight {
                u: NodeId(3),
                v: NodeId(1),
                w: 7,
            })
            .unwrap();
        assert_eq!(g.edge_weight(NodeId(1), NodeId(3)), Some(7));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn fail_edge_removes_and_keeps_connectivity() {
        let g = diamond()
            .apply_delta(&GraphDelta::FailEdge {
                u: NodeId(0),
                v: NodeId(3),
            })
            .unwrap();
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn fail_edge_refuses_to_partition() {
        let path = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let err = path
            .apply_delta(&GraphDelta::FailEdge {
                u: NodeId(0),
                v: NodeId(1),
            })
            .unwrap_err();
        assert_eq!(err, DeltaError::Disconnects);
    }

    #[test]
    fn fail_node_compacts_ids() {
        let g = diamond()
            .apply_delta(&GraphDelta::FailNode { v: NodeId(1) })
            .unwrap();
        assert_eq!(g.len(), 3);
        // Old nodes 2, 3 are now 1, 2; surviving edges 0-2(w3), 2-3(w4), 0-3(w9).
        assert_eq!(g.edges(), &[(0, 1, 3), (0, 2, 9), (1, 2, 4)]);
    }

    #[test]
    fn fail_cut_node_is_rejected() {
        let path = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let err = path
            .apply_delta(&GraphDelta::FailNode { v: NodeId(1) })
            .unwrap_err();
        assert_eq!(err, DeltaError::Disconnects);
    }

    #[test]
    fn unknown_targets_are_typed_errors() {
        let g = diamond();
        assert_eq!(
            g.apply_delta(&GraphDelta::FailEdge {
                u: NodeId(1),
                v: NodeId(2)
            })
            .unwrap_err(),
            DeltaError::UnknownEdge {
                u: NodeId(1),
                v: NodeId(2)
            }
        );
        assert_eq!(
            g.apply_delta(&GraphDelta::FailNode { v: NodeId(9) })
                .unwrap_err(),
            DeltaError::UnknownNode { v: NodeId(9), n: 4 }
        );
        assert_eq!(
            g.apply_delta(&GraphDelta::SetWeight {
                u: NodeId(0),
                v: NodeId(1),
                w: 0
            })
            .unwrap_err(),
            DeltaError::ZeroWeight
        );
    }

    #[test]
    fn apply_is_pure() {
        let g = diamond();
        let _ = g
            .apply_delta(&GraphDelta::FailEdge {
                u: NodeId(0),
                v: NodeId(3),
            })
            .unwrap();
        assert_eq!(g.num_edges(), 5);
    }
}
