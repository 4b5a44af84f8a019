//! Baseline distributed algorithms the paper positions itself against
//! (Section 1, "Background"):
//!
//! * [`bellman_ford_apsp`] — the RIP-style pipelined distance-vector
//!   algorithm: exact APSP, `Θ(n²)` rounds in the worst case and
//!   `Θ(n log n)` bits of state per node.
//! * [`flooding_apsp`] — the OSPF-style link-state algorithm: collect the
//!   complete topology at each node by flooding (`Θ(m + D)` rounds,
//!   `Θ(m)` storage), then run Dijkstra locally. Exact.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod bellman_ford;
mod flooding;

pub use bellman_ford::{bellman_ford_apsp, BfResult};
pub use flooding::{flooding_apsp, FloodResult};
