//! Global graph parameters from Section 2.2 of the paper.

use crate::algo::apsp::apsp;
use crate::algo::hops::bfs_hops;
use crate::graph::WGraph;

/// The hop diameter `D`: `max_{v,w} hd(v, w)`.
///
/// This is the `D` in the paper's `O(√n + D)`-style bounds.
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn hop_diameter(g: &WGraph) -> u32 {
    let mut d = 0;
    for v in g.nodes() {
        let row = bfs_hops(g, v);
        for x in row {
            assert_ne!(x, u32::MAX, "hop diameter of a disconnected graph");
            d = d.max(x);
        }
    }
    d
}

/// The shortest path diameter `SPD`: `max_{v,w} h_{v,w}` — the maximum,
/// over pairs, of the minimum hop count among shortest weighted paths.
///
/// `D ≤ SPD ≤ n − 1`, and `SPD` can be `Θ(n)` even when `D = 1` (the
/// weighted-clique example in [`crate::gen::weighted_clique_multihop`]).
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn shortest_path_diameter(g: &WGraph) -> u32 {
    let a = apsp(g);
    let spd = a.shortest_path_diameter();
    for v in g.nodes() {
        for w in g.nodes() {
            assert_ne!(
                a.hops(v, w),
                u32::MAX,
                "shortest path diameter of a disconnected graph"
            );
        }
    }
    spd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_parameters() {
        let g = WGraph::from_edges(4, &[(0, 1, 5), (1, 2, 5), (2, 3, 5)]).unwrap();
        assert_eq!(hop_diameter(&g), 3);
        assert_eq!(shortest_path_diameter(&g), 3);
    }

    #[test]
    fn spd_exceeds_hop_diameter_on_weighted_clique() {
        // Triangle where the direct 0-2 edge is heavy: D = 1 but SPD = 2.
        let g = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 10)]).unwrap();
        assert_eq!(hop_diameter(&g), 1);
        assert_eq!(shortest_path_diameter(&g), 2);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn hop_diameter_rejects_disconnected() {
        let g = WGraph::from_edges(3, &[(0, 1, 1)]).unwrap();
        hop_diameter(&g);
    }
}
