//! Partial distance estimation (PDE) and `(1+ε)`-approximate APSP in the
//! CONGEST model — the core contribution of Lenzen & Patt-Shamir, *Fast
//! Partial Distance Estimation and Applications* (PODC 2015).
//!
//! # What this implements
//!
//! * **Section 3, Theorem 3.3 / Corollary 3.5** — `(1+ε)`-approximate
//!   `(S, h, σ)`-estimation: reduce the weighted problem to
//!   `O(log_{1+ε} w_max)` unweighted source-detection instances on the
//!   subdivided graphs `G_i` (simulated via arc delays), solve each with
//!   the Lenzen–Peleg algorithm, and combine the per-level lists. Runs in
//!   `O((h + σ)/ε² · log n + D)` rounds; each node broadcasts
//!   `O(σ²/ε · log n)` messages.
//! * **Section 4.1, Theorem 4.1** — deterministic `(1+ε)`-approximate APSP
//!   in `O(n/ε² · log n)` rounds, by instantiating PDE with `S = V`,
//!   `h = σ = n` ([`approx_apsp`]); its answers are the PDE rows.
//!
//! # Deviations from the paper
//!
//! * The real-valued rung `b(i) = (1+ε)^i` is replaced by an *integer*
//!   ladder (see [`rounding::level_ladder`]) so the estimate invariant
//!   `wd'(v,s) ≥ wd(v,s)` holds exactly in integer arithmetic. The horizon
//!   `h' ∈ O(h/ε)` absorbs the ladder's worst-case rung ratio.
//! * The subdivided graphs `G_i` are never built: an arc of weight `w`
//!   delays a rung-`b` announcement by `⌈w/b⌉` rounds, which real nodes
//!   cannot tell from `⌈w/b⌉` unit hops through relay nodes (pinned by
//!   `tests/simulator_fidelity.rs`).
//! * **Routing archive.** A node's σ-list (Definition 2.2) is what the
//!   paper promises. Besides it, every node keeps the best `(estimate,
//!   port, level)` it *ever received* per source ([`PdeOutput::routes`]),
//!   so the archive ⊇ the list. A list is truncated to σ entries, so the
//!   neighbour that announced a listed source may have dropped it since,
//!   and greedy forwarding over lists alone would get stuck there. The
//!   archive makes the walk total: an entry at `v` was announced by a
//!   neighbour whose own entry for that source is smaller by at least the
//!   edge weight ([`pipeline::trace_route`] checks it). Archive-only
//!   entries are sound upper bounds without a `(1+ε)` promise; the
//!   schemes built on PDE read them, but the served PDE oracle does not
//!   answer from them. It keeps the lists, plus each archive entry a
//!   listed route reads where a list dropped its source, as a transit
//!   hop that only `next_hop` follows ([`PdeOutput::served`]).
//! * **Mutual-estimate edges.** The virtual skeleton graphs (Theorem
//!   4.5's, Definition 4.9's `G̃(l0)`) get an edge `{s, t}` only when
//!   *both* endpoints hold an estimate of each other, weighted by the
//!   `max` of the two: each is the weight of a real route, so the larger
//!   bounds a route in either direction ([`pipeline::mutual_edges`]).
//! * ε defaults to 0.25–0.5 where the paper sets `ε = 1/log n`: rounds
//!   scale with `1/ε²` (`tests/ablations.rs` measures the trade-off).
//!
//! # Example
//!
//! ```
//! use graphs::{WGraph, NodeId, algo};
//! use pde_core::{run_pde, PdeParams};
//!
//! # fn main() -> Result<(), graphs::GraphError> {
//! let g = WGraph::from_edges(5, &[(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 4, 4), (0, 4, 100)])?;
//! let sources = vec![true, false, false, false, true]; // S = {0, 4}
//! let out = run_pde(&g, &sources, &[false; 5], &PdeParams::new(4, 2, 0.25));
//! // Node 2's list holds both sources with (1+ε)-approximate distances.
//! let exact = algo::apsp(&g);
//! for e in &out.lists[2] {
//!     let wd = exact.dist(NodeId(2), e.src);
//!     assert!(e.est >= wd);
//!     assert!(e.est as f64 <= 1.25 * wd as f64);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod apsp;
pub mod ladder;
pub mod pde;
pub mod pipeline;
pub mod rounding;
pub mod schedule;
pub mod tables;

pub use apsp::{approx_apsp, ApspApprox};
pub use ladder::{BuildMode, LadderSpec};
pub use pde::{run_pde, try_run_pde, PdeEntry, PdeMetrics, PdeOutput, PdeParams, RouteInfo};
pub use pipeline::BuildError;
pub use schedule::BatchSchedule;
pub use tables::{resolve_entries, FlatEntry, FlatTables, PairTable, RowCursor};
