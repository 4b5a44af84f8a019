//! Exact all-pairs shortest paths (reference).

use crate::algo::dijkstra::{Search, Sssp};
use crate::graph::WGraph;
use congest::parallel::{resolve_threads, run_shards};
use congest::NodeId;

/// Exact APSP result: distance and minimum-hop matrices.
#[derive(Clone, Debug)]
pub struct Apsp {
    dist: Vec<u64>,
    hops: Vec<u32>,
    n: usize,
}

impl Apsp {
    /// `wd(u, v)`; [`INF`](crate::INF) if unreachable.
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

/// Computes exact APSP by `n` single-source searches, sharded by source
/// row over the available cores (`O(n · (m + WD))` on the bucket path,
/// `WD` the weighted diameter; `O(n · m log n)` past
/// [`DIAL_WEIGHT_LIMIT`](crate::algo::DIAL_WEIGHT_LIMIT)).
pub fn apsp(g: &WGraph) -> Apsp {
    sweep(g, 0, false).0
}

/// Exact APSP plus the first-hop matrix, from the *same* `n` searches —
/// `first_hops[u·n + v]` is the first hop on a shortest `u → v` path
/// (`u32::MAX` on the diagonal and for unreachable pairs), the child of
/// `u` on the path [`Sssp::parent`] walks back from `v`.
///
/// Callers that need first hops use this instead of walking parents:
/// they propagate down the shortest-path tree in settling order
/// (`next(v) = next(parent(v))`), one pass per source. Source rows are
/// sharded over `threads` workers (`0` = one per core); every thread
/// count yields the same bytes.
pub fn apsp_with_first_hops(g: &WGraph, threads: usize) -> (Apsp, Vec<u32>) {
    sweep(g, threads, true)
}

/// The all-pairs sweep: each worker fills a disjoint range of rows of
/// the preallocated matrices, reusing one [`Search`] across its sources.
fn sweep(g: &WGraph, threads: usize, first_hops: bool) -> (Apsp, Vec<u32>) {
    let n = g.len();
    // Automatic sizing gives each worker at least 64 rows: below that
    // the scoped worker costs more than the rows it saves.
    let workers = resolve_threads(threads, if threads == 0 { n / 64 } else { n });
    let mut dist = vec![0u64; n * n];
    let mut hops = vec![0u32; n * n];
    let mut next = vec![0u32; if first_hops { n * n } else { 0 }];
    let rows = n.div_ceil(workers).max(1);
    let len = rows * n.max(1);
    let mut next_shards = next.chunks_mut(len);
    let shards = dist
        .chunks_mut(len)
        .zip(hops.chunks_mut(len))
        .enumerate()
        .map(|(i, (d, h))| (i * rows, d, h, next_shards.next()));
    run_shards(shards, |(lo, dist, hops, mut next)| {
        let mut search = Search::new(g);
        let mut parent = vec![None; n];
        for (k, (dist, hops)) in dist.chunks_mut(n).zip(hops.chunks_mut(n)).enumerate() {
            let u = NodeId((lo + k) as u32);
            search.run(g, u, dist, hops, next.is_some().then_some(&mut parent[..]));
            if let Some(next) = next.as_deref_mut() {
                first_hop_row(u, &search.order, &parent, &mut next[k * n..(k + 1) * n]);
            }
        }
    });
    (Apsp { dist, hops, n }, next)
}

/// Fills one first-hop row from a finished search: `order` is its
/// settling order (each node after its parent), `row` is fully
/// overwritten.
fn first_hop_row(u: NodeId, order: &[u32], parent: &[Option<NodeId>], row: &mut [u32]) {
    row.fill(u32::MAX);
    for &v in order {
        if let Some(p) = parent[v as usize] {
            row[v as usize] = if p == u { v } else { row[p.index()] };
        }
    }
}

/// One source row of [`apsp_with_first_hops`]: the search for `u` plus
/// the derived first-hop row. The output is bit-identical to the
/// corresponding row of a full sweep — this is the kernel the
/// delta-repair path uses to recompute only affected rows.
pub fn sssp_with_first_hops(g: &WGraph, u: NodeId) -> (Sssp, Vec<u32>) {
    let mut search = Search::new(g);
    let s = search.sssp(g, u);
    let mut row = vec![0; g.len()];
    first_hop_row(u, &search.order, &s.parent, &mut row);
    (s, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra;
    use crate::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
        let (a, next) = apsp_with_first_hops(&g, 1);
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

    /// Row sharding is unobservable: every thread count gives the same
    /// matrices, and every row is the single-source kernel's row. Covers
    /// `n` not divisible by the thread count, `n` below it, and `n = 1`.
    #[test]
    fn sharded_sweeps_are_byte_identical_for_every_thread_count() {
        let mut graphs = vec![
            WGraph::from_edges(1, &[]).unwrap(),
            WGraph::from_edges(2, &[(0, 1, 3)]).unwrap(),
            WGraph::from_edges(5, &[(0, 1, 4), (1, 2, 8), (3, 4, 1)]).unwrap(),
        ];
        for (seed, n, weights) in [
            (0u64, 41, Weights::Unit),
            (1, 50, Weights::Uniform { lo: 1, hi: 32 }),
            (2, 23, Weights::Uniform { lo: 1, hi: 1000 }),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            graphs.push(gen::gnp_connected(n, 0.1, weights, &mut rng));
        }
        for g in &graphs {
            let n = g.len();
            let (want, want_next) = apsp_with_first_hops(g, 1);
            for t in [2, 3, 7, 0] {
                let (a, next) = apsp_with_first_hops(g, t);
                assert_eq!(
                    (&a.dist, &a.hops),
                    (&want.dist, &want.hops),
                    "n {n}, {t} threads"
                );
                assert_eq!(next, want_next, "n {n}, {t} threads");
            }
            let plain = apsp(g);
            assert_eq!((&plain.dist, &plain.hops), (&want.dist, &want.hops));
            for u in g.nodes() {
                let (s, row) = sssp_with_first_hops(g, u);
                let range = u.index() * n..(u.index() + 1) * n;
                assert_eq!(s.dist, want.dist[range.clone()], "n {n}, row {u}");
                assert_eq!(s.hops, want.hops[range.clone()], "n {n}, row {u}");
                assert_eq!(row, want_next[range], "n {n}, row {u}");
            }
        }
    }

    #[test]
    fn diameters_from_matrix() {
        // Path 0-1-2 with weights 1, 10.
        let g = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 10)]).unwrap();
        let a = apsp(&g);
        assert_eq!(a.shortest_path_diameter(), 2);
    }
}
