//! Shared workload generators for the experiments.

use graphs::gen::{self, Weights};
use graphs::WGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The default weight range (polynomial in n, several ladder rungs).
pub const W: Weights = Weights::Uniform { lo: 1, hi: 32 };

/// Connected G(n, p) with average degree ≈ 6 and the default weights.
pub fn gnp(n: usize, seed: u64) -> WGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p = (6.0 / n as f64).min(0.9);
    gen::gnp_connected(n, p, W, &mut rng)
}

/// Dumbbell with long path (large hop diameter).
pub fn dumbbell(n: usize, seed: u64) -> WGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let clique = (n / 4).max(2);
    let path = n - 2 * clique;
    gen::dumbbell(clique, path, W, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_connected_and_sized() {
        assert!(gnp(40, 1).is_connected());
        assert_eq!(gnp(40, 1).len(), 40);
        assert!(dumbbell(40, 1).is_connected());
    }
}
