//! Baswana–Sen `(2k−1)`-spanners (Random Structures & Algorithms 2007).
//!
//! Theorem 4.5 of the PODC 2015 paper routes between far-apart skeleton
//! nodes over a `(2k−1)`-spanner of the (virtual) skeleton graph, built by
//! "the simulation of the Baswana-Sen algorithm (ref. 3) given in (ref. 15)" and made
//! known to all nodes. This crate provides:
//!
//! * [`baswana_sen`] — the clustering algorithm itself. All random choices
//!   are per-node coins, and all decisions depend only on information a
//!   skeleton node has locally in the simulation (its incident virtual
//!   edges and the per-phase cluster ids of its neighbors), so the
//!   centralized execution is faithful to the distributed one; what must
//!   be *communicated* is returned as [`SpannerResult::broadcast_items`]
//!   and is shipped (and charged) via the real pipelined broadcast in the
//!   `routing` crate.
//! * [`verify_stretch`] — exact stretch verification against the input
//!   graph (tests enforce `≤ 2k−1`).
//!
//! # Example
//!
//! ```
//! use graphs::gen::{self, Weights};
//! use rand::{rngs::SmallRng, SeedableRng};
//! use spanner::{baswana_sen, verify_stretch};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let g = gen::gnp_connected(40, 0.3, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
//! let sp = baswana_sen(&g, 2, &mut rng);
//! assert!(sp.edges.len() <= g.num_edges());
//! assert!(verify_stretch(&g, &sp.edges) <= 3.0); // 2k−1 = 3
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod baswana;
mod verify;

pub use baswana::{baswana_sen, SpannerResult};
pub use verify::verify_stretch;
