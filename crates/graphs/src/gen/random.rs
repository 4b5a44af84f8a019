//! Randomized graph families.

use crate::gen::weights::Weights;
use crate::graph::WGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// Uniform random spanning tree-ish backbone: a random permutation chain.
/// Guarantees connectivity with exactly `n − 1` edges.
fn backbone<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<(u32, u32)> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    perm.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Connected Erdős–Rényi graph `G(n, p)` with the given weight
/// distribution.
///
/// Edges are sampled independently with probability `p`; a random
/// permutation chain is added first so the result is always connected
/// (the standard "G(n,p) conditioned on connectivity" stand-in).
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, w: Weights, rng: &mut R) -> WGraph {
    assert!(n >= 2, "gnp needs at least 2 nodes");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut pairs: BTreeSet<(u32, u32)> = backbone(n, rng)
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            if rng.random_bool(p) {
                pairs.insert((i, j));
            }
        }
    }
    let edges: Vec<(u32, u32, u64)> = pairs
        .into_iter()
        .map(|(a, b)| (a, b, w.sample(rng)))
        .collect();
    WGraph::connected_from_edges(n, &edges).expect("gnp_connected produced an invalid graph")
}

/// Uniformly random labeled tree on `n` nodes (random attachment).
pub fn random_tree<R: Rng + ?Sized>(n: usize, w: Weights, rng: &mut R) -> WGraph {
    assert!(n >= 2, "tree needs at least 2 nodes");
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    let mut edges = Vec::with_capacity(n - 1);
    for i in 1..n {
        let parent = perm[rng.random_range(0..i)];
        edges.push((parent, perm[i], w.sample(rng)));
    }
    WGraph::connected_from_edges(n, &edges).expect("random_tree produced an invalid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_is_connected_across_seeds() {
        for seed in 0..10 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gnp_connected(30, 0.05, Weights::Uniform { lo: 1, hi: 100 }, &mut rng);
            assert!(g.is_connected());
            assert!(g.num_edges() >= 29);
        }
    }

    #[test]
    fn gnp_density_scales_with_p() {
        let mut rng = SmallRng::seed_from_u64(7);
        let sparse = gnp_connected(60, 0.02, Weights::Unit, &mut rng);
        let dense = gnp_connected(60, 0.5, Weights::Unit, &mut rng);
        assert!(dense.num_edges() > sparse.num_edges() * 3);
    }

    #[test]
    fn random_tree_has_n_minus_1_edges() {
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = random_tree(40, Weights::Unit, &mut rng);
            assert_eq!(g.num_edges(), 39);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g1 = gnp_connected(
            25,
            0.1,
            Weights::Uniform { lo: 1, hi: 50 },
            &mut SmallRng::seed_from_u64(3),
        );
        let g2 = gnp_connected(
            25,
            0.1,
            Weights::Uniform { lo: 1, hi: 50 },
            &mut SmallRng::seed_from_u64(3),
        );
        assert_eq!(g1.edges(), g2.edges());
    }
}
