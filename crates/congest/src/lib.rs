//! A synchronous [CONGEST](https://doi.org/10.1137/1.9780898719772)-model
//! network simulator.
//!
//! The CONGEST model (Peleg, *Distributed Computing: A Locality-Sensitive
//! Approach*, SIAM 2000) is the execution model of Lenzen & Patt-Shamir,
//! *Fast Partial Distance Estimation and Applications* (PODC 2015): an
//! `n`-node network of synchronous nodes, where in every round each node
//! performs local computation, sends one message of `B ∈ Θ(log n)` bits per
//! incident edge, and receives the messages sent by its neighbors.
//!
//! This crate provides:
//!
//! * [`Topology`] — an immutable CSR view of a weighted network, with
//!   per-arc integer **delays**. Delays simulate the subdivided graphs `G_i`
//!   of the paper's Section 3 without materializing virtual nodes: a chain
//!   of `L` unit edges is exactly a rate-1/round FIFO pipeline, which is
//!   what a delay-`L` arc implements.
//! * [`Program`] / [`Runtime`] — the node-program trait and the round
//!   scheduler, with quiescence detection and [`Metrics`] accounting
//!   (rounds, messages, largest message, bandwidth violations).
//! * [`bfs`] — distributed BFS-tree construction (used for `O(D)`-round
//!   global coordination, as the paper assumes).
//! * [`aggregate`] — convergecast/broadcast over a BFS tree (global max for
//!   `w_max`, node counts, …).
//! * [`pipeline`] — pipelined all-to-all broadcast over a BFS tree in
//!   `O(#items + D)` rounds (used to disseminate spanner edges and to
//!   simulate skeleton-graph rounds in the paper's Section 4.3).
//! * [`parallel`] — the scoped-thread sharding every crate fans work out
//!   with (the caller computes the first shard).
//!
//! # Performance model
//!
//! The round loop is the hottest code in the repository (every theorem is
//! exercised through it), and it is **allocation-free in steady state**:
//!
//! * In-flight messages live in a ring of per-round buckets. The current
//!   round's bucket is swapped into a reusable scratch vector, and each
//!   delivery is scattered into a dense per-arc slot table — `(node, port)`
//!   pairs are exactly the global arc indices of the CSR topology, and at
//!   most one message can arrive per arc per round (fixed per-arc delays +
//!   the one-message-per-port CONGEST rule). This replaces the former
//!   per-round `Vec<Vec<_>>` inbox allocation and global `sort_by_key`
//!   with a counting-style scatter/gather that yields port-sorted inboxes
//!   for free.
//! * [`Ctx`] borrows the runtime's reusable outbox and per-port send flags
//!   instead of allocating its own, and [`Ctx::inbox`] returns a slice
//!   that outlives the `Ctx` borrow so programs can relay arrivals without
//!   cloning them.
//! * [`Metrics`] are four `Copy` counters with no per-round or per-node
//!   history, so multi-million-round simulations do not grow memory with
//!   simulated time.
//!
//! The stack benchmark's `congest.sim.*` per-layer metrics
//! (`benchmark/README.md`) report the simulator's rounds, messages and
//! message throughput.
//!
//! # Example
//!
//! ```
//! use congest::{Topology, Runtime, Config, Program, Ctx, Message};
//!
//! #[derive(Clone, Debug)]
//! struct Token(u32);
//! impl Message for Token {
//!     fn bit_size(&self) -> usize { 32 }
//! }
//!
//! /// Floods a token from node 0 through the network.
//! struct Flood { have: bool, sent: bool }
//! impl Program for Flood {
//!     type Msg = Token;
//!     fn round(&mut self, ctx: &mut Ctx<'_, Token>) {
//!         if !ctx.inbox().is_empty() { self.have = true; }
//!         if self.have && !self.sent {
//!             self.sent = true;
//!             ctx.broadcast(Token(7));
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), congest::TopologyError> {
//! let topo = Topology::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)])?;
//! let programs: Vec<Flood> = (0..4).map(|i| Flood { have: i == 0, sent: false }).collect();
//! let mut rt = Runtime::new(&topo, programs, Config::default());
//! let report = rt.run();
//! assert!(report.quiescent);
//! let (programs, metrics) = rt.into_parts();
//! assert!(programs.iter().all(|p| p.have));
//! assert_eq!(metrics.rounds, 5); // 4 flood rounds + 1 quiet round
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod arena;
pub mod bfs;
pub mod fxhash;
pub mod metrics;
pub mod model;
pub mod parallel;
pub mod pipeline;
pub mod program;
pub mod runtime;
pub mod topology;
pub mod wire;

pub use fxhash::{FxBuild, FxHashMap, FxHasher};
pub use metrics::Metrics;
pub use model::{bits_for, label_record_bits, Message, NodeId, Port};
pub use program::{Arrival, Ctx, Program};
pub use runtime::{Config, RunReport, Runtime};
pub use topology::{Topology, TopologyError};
