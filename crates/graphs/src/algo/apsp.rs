//! Exact all-pairs shortest paths (reference).

use crate::algo::dijkstra::{dijkstra, Sssp};
use crate::graph::{WGraph, INF};
use congest::NodeId;

/// Exact APSP result: distance and minimum-hop matrices.
#[derive(Clone, Debug)]
pub struct Apsp {
    dist: Vec<u64>,
    hops: Vec<u32>,
    n: usize,
}

impl Apsp {
    /// `wd(u, v)`; [`INF`] if unreachable.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u64 {
        self.dist[u.index() * self.n + v.index()]
    }

    /// The row-major `n × n` distance matrix, by value.
    pub fn into_dist(self) -> Vec<u64> {
        self.dist
    }

    /// `h_{u,v}`: minimum hops among shortest weighted `u`–`v` paths.
    #[inline]
    pub fn hops(&self, u: NodeId, v: NodeId) -> u32 {
        self.hops[u.index() * self.n + v.index()]
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the instance is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Maximum finite hop count (the shortest path diameter `SPD`).
    pub fn shortest_path_diameter(&self) -> u32 {
        self.hops
            .iter()
            .copied()
            .filter(|&h| h != u32::MAX)
            .max()
            .unwrap_or(0)
    }
}

/// Computes exact APSP by `n` Dijkstra runs (`O(n · m log n)`).
pub fn apsp(g: &WGraph) -> Apsp {
    let n = g.len();
    let mut dist = Vec::with_capacity(n * n);
    let mut hops = Vec::with_capacity(n * n);
    for v in g.nodes() {
        let s = dijkstra(g, v);
        dist.extend_from_slice(&s.dist);
        hops.extend_from_slice(&s.hops);
    }
    Apsp { dist, hops, n }
}

/// Exact APSP plus the first-hop matrix, from the *same* `n` Dijkstra
/// runs — `first_hops[u·n + v]` is the first hop on a shortest `u → v`
/// path (`u32::MAX` on the diagonal and for unreachable pairs).
///
/// Schemes that need both (exact baselines, flooding-style local
/// routing) should call this instead of running a second sweep just to
/// walk parents. First hops propagate down the shortest-path tree in
/// distance order (`next(v) = next(parent(v))`), so the extra cost over
/// plain [`apsp`] is one sort per source — not a parent walk per pair.
pub fn apsp_with_first_hops(g: &WGraph) -> (Apsp, Vec<u32>) {
    let n = g.len();
    let mut dist = Vec::with_capacity(n * n);
    let mut hops = Vec::with_capacity(n * n);
    let mut next = vec![u32::MAX; n * n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    for u in g.nodes() {
        let s = dijkstra(g, u);
        first_hop_row(
            &s,
            u,
            &mut order,
            &mut next[u.index() * n..(u.index() + 1) * n],
        );
        dist.extend_from_slice(&s.dist);
        hops.extend_from_slice(&s.hops);
    }
    (Apsp { dist, hops, n }, next)
}

/// Fills one first-hop row from a finished Dijkstra run. `order` is
/// scratch (any permutation of `0..n`; left sorted by distance), `row`
/// must hold `n` slots and is fully overwritten.
fn first_hop_row(s: &Sssp, u: NodeId, order: &mut [u32], row: &mut [u32]) {
    // Parents have strictly smaller distance (weights ≥ 1), so
    // processing in distance order sees next(parent) before next(v).
    // Ties never depend on each other, so any distance order yields the
    // same row.
    order.sort_unstable_by_key(|&v| s.dist[v as usize]);
    row.fill(u32::MAX);
    for &v in order.iter() {
        let Some(p) = s.parent[v as usize] else {
            continue; // the source itself, or unreachable
        };
        row[v as usize] = if p == u { v } else { row[p.index()] };
    }
}

/// One source row of [`apsp_with_first_hops`]: the Dijkstra run for `u`
/// plus the derived first-hop row. The output is bit-identical to the
/// corresponding row of a full sweep — this is the kernel the
/// delta-repair path uses to recompute only affected rows.
pub fn sssp_with_first_hops(g: &WGraph, u: NodeId) -> (Sssp, Vec<u32>) {
    let s = dijkstra(g, u);
    let mut order: Vec<u32> = (0..g.len() as u32).collect();
    let mut row = vec![u32::MAX; g.len()];
    first_hop_row(&s, u, &mut order, &mut row);
    (s, row)
}

/// Re-derives the first-hop row for source `u` from an already-known
/// exact distance row, without rerunning Dijkstra.
///
/// Under the search's lexicographic `(dist, hops, id)` settling order,
/// `hops` and `parent` are pure functions of the graph and the distance
/// row:
///
/// * `hops[v] = 1 + min{ hops[p] : p ∼ v, dist[p] + w(p, v) = dist[v] }`
///   — tight predecessors settle strictly earlier (weights are ≥ 1), so
///   the recursion is well-founded in distance order;
/// * `parent[v]` is the tight predecessor whose relaxation *first*
///   offered the final `(dist[v], hops[v])`: among the minimum-hop tight
///   predecessors, the earliest-settled one, i.e. the one minimizing
///   `(dist[p], p.id)`.
///
/// Processing vertices in distance order therefore reproduces both
/// bit-for-bit (pinned against [`sssp_with_first_hops`] by in-module
/// tests), and the first-hop row follows by the same tree propagation
/// the full kernel uses. The delta-repair path uses this to fix rows
/// whose distances survived an edge change but whose canonical
/// shortest-path tree crossed the changed edge — one `O(m + n log n)`
/// pass instead of a Dijkstra run.
pub fn first_hops_from_dist(g: &WGraph, u: NodeId, dist: &[u64]) -> Vec<u32> {
    let n = g.len();
    debug_assert_eq!(dist.len(), n);
    let order = reachable_by_distance(dist, n);
    let mut hops = vec![u32::MAX; n];
    let mut row = vec![u32::MAX; n];
    hops[u.index()] = 0;
    for &vi in &order {
        let v = NodeId(vi);
        if v == u || dist[v.index()] == INF {
            continue;
        }
        let dv = dist[v.index()];
        let mut best_h = u32::MAX;
        let mut best: Option<(u64, u32)> = None;
        for (p, w) in g.neighbors(v) {
            let dp = dist[p.index()];
            if dp == INF || dp.saturating_add(w) != dv {
                continue;
            }
            let hp = hops[p.index()] + 1;
            let cand = (dp, p.0);
            if hp < best_h {
                best_h = hp;
                best = Some(cand);
            } else if hp == best_h && best.is_some_and(|b| cand < b) {
                best = Some(cand);
            }
        }
        let (_, pid) = best.expect("a finite distance has a tight predecessor");
        hops[v.index()] = best_h;
        row[v.index()] = if pid == u.0 { vi } else { row[pid as usize] };
    }
    row
}

/// The reachable vertices in nondecreasing distance order. Ties carry no
/// dependencies (tight predecessors are strictly closer), so a counting
/// sort over the `0..=WD` distance range serves when the diameter is
/// small — the typical case for bounded weights, and the difference
/// between this derivation and a Dijkstra run at repair time; huge
/// diameters fall back to a comparison sort.
fn reachable_by_distance(dist: &[u64], n: usize) -> Vec<u32> {
    let wd = dist
        .iter()
        .copied()
        .filter(|&d| d != INF)
        .max()
        .unwrap_or(0);
    if wd >= 4 * n as u64 {
        let mut order: Vec<u32> = (0..n as u32).filter(|&v| dist[v as usize] != INF).collect();
        order.sort_unstable_by_key(|&v| dist[v as usize]);
        return order;
    }
    let mut start = vec![0u32; wd as usize + 2];
    for &d in dist {
        if d != INF {
            start[d as usize + 1] += 1;
        }
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut order = vec![0u32; start[wd as usize + 1] as usize];
    for (v, &d) in dist.iter().enumerate() {
        if d != INF {
            let slot = &mut start[d as usize];
            order[*slot as usize] = v as u32;
            *slot += 1;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apsp_matches_dijkstra_rows() {
        let g = WGraph::from_edges(4, &[(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)]).unwrap();
        let a = apsp(&g);
        for v in g.nodes() {
            let s = dijkstra(&g, v);
            for u in g.nodes() {
                assert_eq!(a.dist(v, u), s.dist[u.index()]);
                assert_eq!(a.hops(v, u), s.hops[u.index()]);
            }
        }
    }

    #[test]
    fn apsp_is_symmetric() {
        let g = WGraph::from_edges(5, &[(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 9)])
            .unwrap();
        let a = apsp(&g);
        for v in g.nodes() {
            for u in g.nodes() {
                assert_eq!(a.dist(v, u), a.dist(u, v));
            }
        }
    }

    #[test]
    fn first_hops_match_parent_walks() {
        let g = WGraph::from_edges(
            6,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 3, 1),
                (3, 4, 4),
                (4, 5, 1),
                (5, 0, 5),
                (0, 3, 20),
            ],
        )
        .unwrap();
        let (a, next) = apsp_with_first_hops(&g);
        let n = g.len();
        for u in g.nodes() {
            let s = dijkstra(&g, u);
            for v in g.nodes() {
                assert_eq!(a.dist(u, v), s.dist[v.index()]);
                let got = next[u.index() * n + v.index()];
                if u == v {
                    assert_eq!(got, u32::MAX);
                } else {
                    // Reference: walk parents back from v until u.
                    let mut cur = v;
                    while let Some(p) = s.parent[cur.index()] {
                        if p == u {
                            break;
                        }
                        cur = p;
                    }
                    assert_eq!(got, cur.0, "first hop {u} -> {v}");
                }
            }
        }
    }

    /// The distance-row derivation must agree with the Dijkstra kernel
    /// bit-for-bit — including on unit weights, where tie-breaks (not
    /// distances) decide every hop.
    #[test]
    fn first_hops_from_dist_matches_the_kernel() {
        use crate::gen::{self, Weights};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        for (seed, weights) in [
            (0u64, Weights::Unit),
            (1, Weights::Unit),
            (2, Weights::Uniform { lo: 1, hi: 7 }),
            (3, Weights::PowerOfTwo { max_exp: 4 }),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(40, 0.12, weights, &mut rng);
            for u in g.nodes() {
                let (s, row) = sssp_with_first_hops(&g, u);
                let derived = first_hops_from_dist(&g, u, &s.dist);
                assert_eq!(derived, row, "source {u}, seed {seed}");
            }
        }
        // Disconnected pieces stay u32::MAX.
        let g = WGraph::from_edges(4, &[(0, 1, 2), (2, 3, 1)]).unwrap();
        let (s, row) = sssp_with_first_hops(&g, NodeId(0));
        assert_eq!(first_hops_from_dist(&g, NodeId(0), &s.dist), row);
    }

    #[test]
    fn diameters_from_matrix() {
        // Path 0-1-2 with weights 1, 10.
        let g = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 10)]).unwrap();
        let a = apsp(&g);
        assert_eq!(a.shortest_path_diameter(), 2);
    }
}
