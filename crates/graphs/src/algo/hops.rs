//! Hop distances and hop-limited weighted distances.

use crate::graph::{WGraph, INF};
use congest::NodeId;
use std::collections::VecDeque;

/// Unweighted BFS: `hd(source, v)` for every `v` (`u32::MAX` if unreachable).
pub(crate) fn bfs_hops(g: &WGraph, source: NodeId) -> Vec<u32> {
    let mut d = vec![u32::MAX; g.len()];
    let mut q = VecDeque::new();
    d[source.index()] = 0;
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        for (u, _) in g.neighbors(v) {
            if d[u.index()] == u32::MAX {
                d[u.index()] = d[v.index()] + 1;
                q.push_back(u);
            }
        }
    }
    d
}

/// `h`-hop-limited weighted distances `wd_h(source, ·)`: the minimum weight
/// of any `source`–`v` path with at most `h` hops ([`INF`] if none).
///
/// This is the relaxed distance notion of the paper's technical discussion
/// (Section 1): it is *not* a metric, and computing it exactly for σ
/// sources costs `Θ(σh)` rounds distributedly in the worst case (Figure 1),
/// which is precisely the bottleneck PDE circumvents. Implemented as `h`
/// rounds of Bellman–Ford (`O(h·m)`).
pub fn hop_limited_distances(g: &WGraph, source: NodeId, h: u32) -> Vec<u64> {
    let n = g.len();
    let mut cur = vec![INF; n];
    cur[source.index()] = 0;
    for _ in 0..h {
        let mut next = cur.clone();
        let mut changed = false;
        for v in g.nodes() {
            let dv = cur[v.index()];
            if dv == INF {
                continue;
            }
            for (u, w) in g.neighbors(v) {
                let cand = dv.saturating_add(w);
                if cand < next[u.index()] {
                    next[u.index()] = cand;
                    changed = true;
                }
            }
        }
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra;

    #[test]
    fn bfs_counts_hops() {
        let g = WGraph::from_edges(4, &[(0, 1, 100), (1, 2, 100), (0, 3, 1)]).unwrap();
        let d = bfs_hops(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 1]);
    }

    #[test]
    fn hop_limit_cuts_long_paths() {
        // Cheap 3-hop path vs expensive 1-hop edge.
        let g = WGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)]).unwrap();
        let d1 = hop_limited_distances(&g, NodeId(0), 1);
        assert_eq!(d1[3], 10);
        let d2 = hop_limited_distances(&g, NodeId(0), 2);
        assert_eq!(d2[3], 10);
        let d3 = hop_limited_distances(&g, NodeId(0), 3);
        assert_eq!(d3[3], 3);
    }

    #[test]
    fn unlimited_hops_equal_dijkstra() {
        let g = WGraph::from_edges(
            5,
            &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (0, 4, 100)],
        )
        .unwrap();
        let bf = hop_limited_distances(&g, NodeId(0), g.len() as u32);
        let dj = dijkstra(&g, NodeId(0));
        assert_eq!(bf, dj.dist);
    }

    #[test]
    fn zero_hops_reaches_only_source() {
        let g = WGraph::from_edges(2, &[(0, 1, 1)]).unwrap();
        let d = hop_limited_distances(&g, NodeId(0), 0);
        assert_eq!(d, vec![0, INF]);
    }
}
