//! Adversarial / illustrative families from the paper's discussion.

use crate::gen::weights::Weights;
use crate::graph::WGraph;
use rand::Rng;

/// Two complete graphs of `clique` nodes joined by a path of `path_len`
/// extra nodes. Hop diameter ≈ `path_len + 3`, so it separates algorithms
/// whose round complexity depends on `D` from those that don't.
pub fn dumbbell<R: Rng + ?Sized>(
    clique: usize,
    path_len: usize,
    w: Weights,
    rng: &mut R,
) -> WGraph {
    assert!(clique >= 2, "cliques need ≥ 2 nodes");
    let n = 2 * clique + path_len;
    let mut edges = Vec::new();
    let left = 0..clique as u32;
    let right = clique as u32..2 * clique as u32;
    for i in left.clone() {
        for j in i + 1..clique as u32 {
            edges.push((i, j, w.sample(rng)));
        }
    }
    for i in right.clone() {
        for j in i + 1..2 * clique as u32 {
            edges.push((i, j, w.sample(rng)));
        }
    }
    // Path from node 0 (left clique) to node `clique` (right clique).
    let mut prev = 0u32;
    for p in 0..path_len as u32 {
        let node = 2 * clique as u32 + p;
        edges.push((prev, node, w.sample(rng)));
        prev = node;
    }
    edges.push((prev, clique as u32, w.sample(rng)));
    WGraph::connected_from_edges(n, &edges).expect("dumbbell produced an invalid graph")
}

/// The "Congested Clique" extreme example from the paper's technical
/// discussion: a complete graph whose hop diameter is 1 but whose shortest
/// path diameter is `Θ(n)`.
///
/// Ring edges `{i, i+1 mod n}` have weight 1; every chord `{i, j}` has
/// weight `n · ring_distance(i, j)`, strictly heavier than the ring path it
/// shortcuts, so all shortest weighted paths follow the ring: `SPD = ⌊n/2⌋`
/// while `D = 1`.
pub fn weighted_clique_multihop(n: usize) -> WGraph {
    assert!(n >= 4, "needs at least 4 nodes");
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            let ring = (j - i).min(n as u32 - (j - i)) as u64;
            let w = if ring == 1 { 1 } else { n as u64 * ring };
            edges.push((i, j, w));
        }
    }
    WGraph::connected_from_edges(n, &edges).expect("weighted clique produced an invalid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dumbbell_diameter_tracks_path() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = dumbbell(5, 6, Weights::Unit, &mut rng);
        assert_eq!(g.len(), 16);
        assert_eq!(algo::hop_diameter(&g), 6 + 3);
    }

    #[test]
    fn weighted_clique_has_unit_hop_diameter_but_linear_spd() {
        let g = weighted_clique_multihop(10);
        assert_eq!(algo::hop_diameter(&g), 1);
        assert_eq!(algo::shortest_path_diameter(&g) as usize, 5); // ⌊10/2⌋
                                                                  // Shortest weighted path between antipodal ring nodes has weight 5.
        let a = algo::apsp(&g);
        assert_eq!(a.dist(congest::NodeId(0), congest::NodeId(5)), 5);
    }
}
