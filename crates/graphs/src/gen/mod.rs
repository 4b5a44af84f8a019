//! Graph generators used by tests, examples and experiments.
//!
//! All generators return connected [`crate::WGraph`]s and take an explicit
//! RNG so runs are reproducible from a seed.

mod basic;
mod families;
mod figure1;
mod random;
mod special;
mod weights;

pub use basic::{complete, cycle, grid, path};
pub use families::{hypercube, power_law, ring_of_cliques};
pub use figure1::{figure1, Figure1};
pub use random::{gnp_connected, random_tree};
pub use special::{dumbbell, weighted_clique_multihop};
pub use weights::Weights;
