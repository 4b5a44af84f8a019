//! Compact routing via approximate Thorup–Zwick hierarchies — Section 4.3
//! of the PODC 2015 paper.
//!
//! Implements three constructions:
//!
//! * [`build_hierarchy`] — the per-level construction of Lemma 4.7 /
//!   Theorem 4.8: `k` sample levels `S_0 ⊇ S_1 ⊇ … ⊇ S_{k−1}` (geometric,
//!   `Pr[level ≥ l] = n^{−l/k}`), one PDE pass per level with horizon
//!   `h_{l+1} = Θ(n^{(l+1)/k} log n)` (or `h = SPD`, Theorem 4.8), bunches
//!   `S'_l(v)`, pivots `s'_l(v)`, detection trees and tree labels. Tables
//!   are `Õ(n^{1/k})`, labels `O(k log n)` bits, stretch `4k−3+o(1)`.
//! * [`build_truncated`] — Theorem 4.13: levels `≥ l0` are "short
//!   circuited" by simulating PDE on the level-`l0` skeleton graph
//!   `G̃(l0)` (Definition 4.9), pipelining every simulated round's
//!   messages over a BFS tree (Lemma 4.12); costs
//!   `Õ(n^{l0/k} + n^{(k−l0)/k}·D)` rounds.
//! * [`build_driver`] — Corollary 4.14: chooses `l0` from `D` and falls
//!   back to "broadcast `G̃(l0)` and solve locally" when that is cheaper,
//!   for `Õ(min{(Dn)^{1/2}·n^{1/k}, n^{2/3+2/(3k)}} + D)` rounds.
//!
//! [`build_hierarchy`] produces a [`CompactScheme`]; the other two a
//! [`TruncatedScheme`], which holds its levels below `l0` as a nested
//! `CompactScheme` built by the same Lemma 4.7 stage. Both implement
//! [`routing::RoutingScheme`], so the shared evaluator measures their
//! stretch/table/label trade-offs (experiments E5, E6).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod driver;
pub mod hierarchy;
pub mod query;
pub mod snapshot;
pub mod truncated;

pub use driver::{build_driver, DriverChoice};
pub use hierarchy::{
    build_hierarchy, try_build_hierarchy, CompactBuildMetrics, CompactLabel, CompactParams,
    CompactScheme, HorizonMode,
};
pub use pde_core::pipeline::BuildError;
pub use pde_core::BuildMode;
pub use truncated::{
    build_truncated, try_build_truncated, TruncLabel, TruncatedMetrics, TruncatedScheme, UpperMode,
    UpperPivot,
};
