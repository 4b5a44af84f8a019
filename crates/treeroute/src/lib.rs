//! Tree-routing labels in the style of Thorup & Zwick (SPAA 2001).
//!
//! The PODC 2015 paper routes the "last mile" of both its schemes — from a
//! skeleton/pivot node `s` down to the destination `w` — along the
//! detection tree `T_s` formed by the PDE next-hop chains, using tree
//! labels of `(1+o(1)) log n` bits computed distributedly in `Õ(depth)`
//! rounds ("it is known how to construct labels for tree routing of size
//! `(1+o(1)) log n` in time `Õ(h)` in trees of depth `h`", Section 4.2).
//!
//! This crate provides:
//!
//! * [`TreeSet`] / [`TreeData`] — overlapping rooted trees built from
//!   next-hop chains, with DFS-interval labels: the label of `w` in `T_s`
//!   is its DFS index (`⌈log₂ n⌉` bits); each member stores, per tree, its
//!   own interval and its children's intervals, so descending towards a
//!   label is a local interval lookup.
//! * [`forest::label_forest`] — a *distributed* labeling program
//!   (convergecast of subtree sizes, then a downcast of DFS offsets) that
//!   runs on the CONGEST simulator, multiplexing all trees over shared
//!   edges with per-port FIFO queues; its measured round count is charged
//!   to the schemes (Lemma 4.7 argues each node is in `O(log n)` trees, so
//!   this costs `Õ(depth)` rounds — Experiment E7 validates it).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod forest;
mod trees;

pub use forest::{label_forest, LabelingOutcome};
pub use trees::{TreeData, TreeSet};
