//! Weighted-graph substrate for the PDE reproduction.
//!
//! Provides the graph type ([`WGraph`]) shared by every crate in the
//! workspace, a library of graph [generators](gen) (including the paper's
//! Figure 1 lower-bound family), and centralized [reference
//! algorithms](algo) used as ground truth in tests and experiments:
//! Dijkstra with minimum-hop tie-breaking (which computes the paper's
//! "shortest path distance" `h_{v,w}`), exact APSP, `h`-hop-limited
//! distances `wd_h`, the exact `(S, h, σ)`-detection reference, and the
//! graph parameters `D` (hop diameter) and `SPD` (shortest path diameter)
//! from Section 2.2 of the paper.
//!
//! # Example
//!
//! ```
//! use graphs::{WGraph, algo};
//!
//! # fn main() -> Result<(), graphs::GraphError> {
//! let g = WGraph::from_edges(4, &[(0, 1, 2), (1, 2, 2), (0, 2, 10), (2, 3, 1)])?;
//! let sssp = algo::dijkstra(&g, graphs::NodeId(0));
//! assert_eq!(sssp.dist[3], 5);     // 0→1→2→3
//! assert_eq!(sssp.hops[3], 3);     // over three hops
//! assert_eq!(algo::hop_diameter(&g), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod algo;
pub mod delta;
pub mod gen;
mod graph;
mod index;
mod seed;

pub use congest::NodeId;
pub use delta::{DeltaError, GraphDelta};
pub use graph::{GraphError, WGraph, INF};
pub use index::DenseIndex;
pub use seed::Seed;
