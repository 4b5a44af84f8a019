//! Spanner verification helpers.

use graphs::algo::apsp;
use graphs::{WGraph, INF};

/// Builds the spanner subgraph over the same vertex set.
///
/// # Panics
///
/// Panics if the edge list is invalid for `g.len()` nodes.
pub(crate) fn spanner_graph(g: &WGraph, edges: &[(u32, u32, u64)]) -> WGraph {
    WGraph::from_edges(g.len(), edges).expect("spanner edge list must be valid")
}

/// Maximum multiplicative stretch of the spanner: `max_{u,v}
/// d_spanner(u,v) / d_G(u,v)` over connected pairs.
///
/// `O(n·m log n)` — for tests and experiments on moderate sizes.
///
/// # Panics
///
/// Panics if the spanner disconnects a pair that `g` connects (a spanner
/// never does; loud failure wanted).
pub fn verify_stretch(g: &WGraph, edges: &[(u32, u32, u64)]) -> f64 {
    let h = spanner_graph(g, edges);
    let ag = apsp(g);
    let ah = apsp(&h);
    let mut worst: f64 = 1.0;
    for u in g.nodes() {
        for v in g.nodes() {
            if u >= v || ag.dist(u, v) == INF {
                continue;
            }
            let ds = ah.dist(u, v);
            assert_ne!(ds, INF, "spanner disconnected pair ({u}, {v})");
            worst = worst.max(ds as f64 / ag.dist(u, v) as f64);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_spanner_has_stretch_one() {
        let g = WGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 20)]).unwrap();
        assert_eq!(verify_stretch(&g, g.edges()), 1.0);
    }

    #[test]
    fn dropping_a_shortcut_increases_stretch() {
        // Triangle: dropping the direct 0-2 edge forces the 2-hop detour.
        let g = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]).unwrap();
        let s = verify_stretch(&g, &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(s, 2.0);
    }

    #[test]
    #[should_panic(expected = "disconnected pair")]
    fn disconnecting_spanner_panics() {
        let g = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        verify_stretch(&g, &[(0, 1, 1)]);
    }
}
