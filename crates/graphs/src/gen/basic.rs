//! Deterministic structured families.

use crate::gen::weights::Weights;
use crate::graph::WGraph;
use rand::Rng;

fn build(n: usize, edges: Vec<(u32, u32, u64)>) -> WGraph {
    WGraph::connected_from_edges(n, &edges).expect("generator produced an invalid graph")
}

/// Path on `n ≥ 2` nodes: `0 - 1 - … - (n−1)`.
pub fn path<R: Rng + ?Sized>(n: usize, w: Weights, rng: &mut R) -> WGraph {
    assert!(n >= 2, "path needs at least 2 nodes");
    let edges = (0..n as u32 - 1)
        .map(|i| (i, i + 1, w.sample(rng)))
        .collect();
    build(n, edges)
}

/// Cycle on `n ≥ 3` nodes.
pub fn cycle<R: Rng + ?Sized>(n: usize, w: Weights, rng: &mut R) -> WGraph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut edges: Vec<(u32, u32, u64)> = (0..n as u32 - 1)
        .map(|i| (i, i + 1, w.sample(rng)))
        .collect();
    edges.push((n as u32 - 1, 0, w.sample(rng)));
    build(n, edges)
}

/// Complete graph on `n ≥ 2` nodes.
pub fn complete<R: Rng + ?Sized>(n: usize, w: Weights, rng: &mut R) -> WGraph {
    assert!(n >= 2, "complete graph needs at least 2 nodes");
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            edges.push((i, j, w.sample(rng)));
        }
    }
    build(n, edges)
}

/// `rows × cols` grid (node `(r, c)` has id `r·cols + c`).
pub fn grid<R: Rng + ?Sized>(rows: usize, cols: usize, w: Weights, rng: &mut R) -> WGraph {
    assert!(rows * cols >= 2, "grid needs at least 2 nodes");
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1), w.sample(rng)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c), w.sample(rng)));
            }
        }
    }
    build(rows * cols, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn path_shape() {
        let g = path(5, Weights::Unit, &mut rng());
        assert_eq!(g.len(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(algo::hop_diameter(&g), 4);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6, Weights::Unit, &mut rng());
        assert_eq!(g.num_edges(), 6);
        assert_eq!(algo::hop_diameter(&g), 3);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(6, Weights::Uniform { lo: 1, hi: 9 }, &mut rng());
        assert_eq!(g.num_edges(), 15);
        assert_eq!(algo::hop_diameter(&g), 1);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, Weights::Unit, &mut rng());
        assert_eq!(g.len(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // vertical + horizontal
        assert_eq!(algo::hop_diameter(&g), 2 + 3);
    }
}
