//! Paper-reproduction tables: one function per experiment.
//!
//! The paper is a theory paper — its "evaluation" is its theorems plus the
//! Figure 1 lower-bound construction. Each `eN_*` function here runs the
//! corresponding empirical validation and returns a printable [`Table`];
//! the `experiments` binary prints them all. Performance numbers live in
//! the standalone `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod table;
pub mod workloads;

mod e1_apsp;
mod e2_figure1;
mod e3_pde;
mod e4_rtc;
mod e5_compact;
mod e6_truncated;
mod e7_trees;
mod e8_spanner;
mod e9_comparison;
mod oracles;

pub use e1_apsp::e1_apsp;
pub use e2_figure1::e2_figure1;
pub use e3_pde::e3_pde;
pub use e4_rtc::e4_rtc;
pub use e5_compact::e5_compact;
pub use e6_truncated::e6_truncated;
pub use e7_trees::e7_trees;
pub use e8_spanner::e8_spanner;
pub use e9_comparison::e9_comparison;
pub use oracles::oracles;
pub use table::Table;
