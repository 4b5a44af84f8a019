//! Routing table construction with node relabeling — Theorem 4.5 of the
//! PODC 2015 paper: for any `k ∈ ℕ`, a randomized scheme with stretch
//! `6k−1+o(1)` and labels of `O(log n)` bits, built in
//! `Õ(n^{1/2+1/(4k)} + D)` rounds.
//!
//! # Construction pipeline (Section 4.2)
//!
//! 1. Sample a skeleton `S` with per-node probability `p = n^{−1/2−1/(4k)}`.
//! 2. Solve `(1+ε)`-approximate `(V, h, σ)`-estimation with
//!    `h = σ = Θ(log n / p)`; this yields every node's *short-range* table
//!    and its approximately-closest skeleton node `s'_v` (Lemma 4.2).
//! 3. Solve `(1+ε)`-approximate `(S, h, |S|)`-estimation, yielding
//!    skeleton-distance tables and the virtual *skeleton graph*.
//! 4. Build a Baswana–Sen `(2k−1)`-spanner of the skeleton graph and make
//!    it known to all nodes via the pipelined BFS broadcast (its measured
//!    rounds are the `Õ(|S|^{1+1/k} + D)` term).
//! 5. Label every node `w` with `(w, s'_w, wd'(w, s'_w), tree-label of w
//!    in T_{s'_w})`, where `T_s` is the detection tree of `s` (labels via
//!    the distributed forest labeling of the `treeroute` crate).
//!
//! Routing `v → w` uses the short-range table when `w` is in it; otherwise
//! it forwards along a monotonically decreasing potential
//! `min_t [wd'_S(x, t) + d_spanner(t, s'_w)] + wd'(w, s'_w)` to reach
//! `s'_w`, then descends `T_{s'_w}` by tree label (Lemma 4.3 bounds the
//! resulting stretch by `(2+O(ε)) + (2k−1)(3+O(ε)) = 6k−1+O(ε)`).
//!
//! The [`eval`] module provides the scheme-agnostic route tracer and
//! stretch/size report used by experiments E4, E5 and E9.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod eval;
pub mod query;
pub mod scheme;
pub mod snapshot;

pub use eval::{evaluate, EvalReport, PairSelection, RoutingScheme};
pub use pde_core::pipeline::BuildError;
pub use pde_core::BuildMode;
pub use scheme::{build_rtc, try_build_rtc, RtcBuildMetrics, RtcLabel, RtcParams, RtcScheme};
