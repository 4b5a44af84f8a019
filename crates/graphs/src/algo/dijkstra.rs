//! Dijkstra with minimum-hop tie-breaking: one kernel that fills the
//! caller's rows.
//!
//! Two priority queues back it: Dial's **bucket queue** — a power-of-two
//! ring of more than `w_max` buckets indexed by tentative distance, each
//! drained in the order it was filled — and the [`BinaryHeap`] search,
//! the reference and the fallback above [`DIAL_WEIGHT_LIMIT`]. Their
//! settling orders differ; their **outputs are identical**. `dist` and
//! `hops` cannot depend on the order inside a bucket: weights are ≥ 1, so
//! nothing settled at distance `d` offers anything at `d`, and every key
//! at `d` is final before its bucket drains. `parent` follows the rule on
//! [`Sssp::parent`]: the heap keeps the first offer of the final key (it
//! settles in `(dist, hops, id)` order), and the buckets let an equal
//! offer from `v`, settled at `d`, replace the parent `q` only when
//! `dist[q] == d` and `v < q`. A property test pins the equivalence at
//! every weight class.

use crate::graph::{WGraph, INF};
use congest::NodeId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Largest edge weight for which [`dijkstra`] uses the bucket queue; any
/// graph with `max_weight()` above this falls back to the binary heap.
///
/// The bucket queue walks every tentative distance between occupied
/// buckets, so its overhead is `O(WD)` per source — bounded weights keep
/// that linear in the graph, unbounded ones would not.
pub const DIAL_WEIGHT_LIMIT: u64 = 512;

/// Single-source shortest-path result.
///
/// `hops[v]` is the paper's *shortest path distance* `h_{v,s}`: the minimum
/// hop-length among all minimum-weight `v`–`s` paths (Section 2.2). This is
/// the quantity the `(S, h, σ)`-detection horizon is defined over, so the
/// tie-breaking here is part of the specification, not an implementation
/// detail.
#[derive(Clone, Debug)]
pub struct Sssp {
    /// The source node.
    pub source: NodeId,
    /// `dist[v]` = weighted distance `wd(source, v)`; [`INF`] if unreachable.
    pub dist: Vec<u64>,
    /// `hops[v]` = minimum hops among shortest weighted paths (`h_{source,v}`).
    pub hops: Vec<u32>,
    /// The predecessor on a minimum-hop shortest weighted path (`None` for
    /// the source and unreachable nodes). **Parent rule:** among the
    /// tight predecessors `p` of `v` (`dist[p] + w(p, v) = dist[v]`) with
    /// the fewest hops, `parent[v]` is the one minimizing `(dist[p],
    /// p.id)`.
    pub parent: Vec<Option<NodeId>>,
}

/// Runs Dijkstra from `source`, minimizing `(weight, hops)` lexicographically.
///
/// Picks the bucket queue for graphs whose largest weight is at most
/// [`DIAL_WEIGHT_LIMIT`] and the binary heap otherwise; both produce
/// bit-identical results.
pub fn dijkstra(g: &WGraph, source: NodeId) -> Sssp {
    Search::new(g).sssp(g, source)
}

/// The search state one worker reuses across sources: the bucket ring
/// (or heap) keeps its storage, so a sweep allocates once per worker.
pub(crate) struct Search {
    /// Bucket `d & (len − 1)` holds the `(hops, id)` entries at tentative
    /// distance `d`; empty when the search uses the heap.
    buckets: Vec<Vec<(u32, u32)>>,
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// The nodes the last run reached, in settling order (nondecreasing
    /// distance, so each after its parent).
    pub(crate) order: Vec<u32>,
}

impl Search {
    /// Dial's ring when `g`'s weights allow it, else the heap.
    pub(crate) fn new(g: &WGraph) -> Search {
        let w_max = g.max_weight();
        Search::with_ring((w_max <= DIAL_WEIGHT_LIMIT).then_some(w_max))
    }

    /// A ring for weights up to `w_max` (pending entries lie within
    /// `d..=d + w_max`, so more than `w_max` buckets never collide), or
    /// the heap for `None`.
    fn with_ring(w_max: Option<u64>) -> Search {
        let len = w_max.map_or(0, |w| (w as usize + 1).next_power_of_two());
        Search {
            buckets: vec![Vec::new(); len],
            heap: BinaryHeap::new(),
            order: Vec::new(),
        }
    }

    /// A fresh [`Sssp`] from `source`.
    pub(crate) fn sssp(&mut self, g: &WGraph, source: NodeId) -> Sssp {
        let n = g.len();
        let (mut dist, mut hops, mut parent) = (vec![0; n], vec![0; n], vec![None; n]);
        self.run(g, source, &mut dist, &mut hops, Some(&mut parent));
        Sssp {
            source,
            dist,
            hops,
            parent,
        }
    }

    /// Overwrites `dist`, `hops` and, when given, `parent` (each `n`
    /// long) with the search from `source`, and [`Search::order`] with
    /// the nodes reached.
    pub(crate) fn run(
        &mut self,
        g: &WGraph,
        source: NodeId,
        dist: &mut [u64],
        hops: &mut [u32],
        mut parent: Option<&mut [Option<NodeId>]>,
    ) {
        dist.fill(INF);
        hops.fill(u32::MAX);
        if let Some(p) = parent.as_deref_mut() {
            p.fill(None);
        }
        self.order.clear();
        dist[source.index()] = 0;
        hops[source.index()] = 0;
        if !self.buckets.is_empty() {
            return self.run_buckets(g, source, dist, hops, parent);
        }
        // The heap search.
        let heap = &mut self.heap;
        heap.push(Reverse((0, 0, source.0)));
        while let Some(Reverse((d, h, v))) = heap.pop() {
            if (dist[v as usize], hops[v as usize]) != (d, h) {
                continue; // superseded by a better entry (lazy deletion)
            }
            self.order.push(v);
            for (u, w) in g.neighbors(NodeId(v)) {
                let key = (d.saturating_add(w), h + 1);
                if key < (dist[u.index()], hops[u.index()]) {
                    (dist[u.index()], hops[u.index()]) = key;
                    if let Some(p) = parent.as_deref_mut() {
                        p[u.index()] = Some(NodeId(v));
                    }
                    heap.push(Reverse((key.0, key.1, u.0)));
                }
            }
        }
    }

    fn run_buckets(
        &mut self,
        g: &WGraph,
        source: NodeId,
        dist: &mut [u64],
        hops: &mut [u32],
        mut parent: Option<&mut [Option<NodeId>]>,
    ) {
        let Search { buckets, order, .. } = self;
        let mask = buckets.len() as u64 - 1;
        buckets[0].push((0, source.0));
        let mut pending = 1usize;
        let mut d = 0u64;
        while pending > 0 {
            // Nothing drained at `d` feeds bucket `d`, so it is lent out.
            let slot = (d & mask) as usize;
            let mut drain = std::mem::take(&mut buckets[slot]);
            pending -= drain.len();
            for &(h, v) in &drain {
                if (dist[v as usize], hops[v as usize]) != (d, h) {
                    continue; // superseded by a better entry (lazy deletion)
                }
                order.push(v);
                for (u, w) in g.neighbors(NodeId(v)) {
                    let u = u.index();
                    let key = (d + w, h + 1);
                    match key.cmp(&(dist[u], hops[u])) {
                        Ordering::Less => {
                            (dist[u], hops[u]) = key;
                            if let Some(p) = parent.as_deref_mut() {
                                p[u] = Some(NodeId(v));
                            }
                            buckets[(key.0 & mask) as usize].push((key.1, u as u32));
                            pending += 1;
                        }
                        // The parent rule: an equal offer from the same
                        // distance and a smaller id wins.
                        Ordering::Equal => {
                            if let Some(p) = parent.as_deref_mut() {
                                if p[u].is_some_and(|q| v < q.0 && dist[q.index()] == d) {
                                    p[u] = Some(NodeId(v));
                                }
                            }
                        }
                        Ordering::Greater => {}
                    }
                }
            }
            drain.clear();
            buckets[slot] = drain;
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Weights;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shortest_distances_on_small_graph() {
        // 0 -2- 1 -2- 2, plus direct 0-2 edge of weight 10.
        let g = WGraph::from_edges(3, &[(0, 1, 2), (1, 2, 2), (0, 2, 10)]).unwrap();
        let s = dijkstra(&g, NodeId(0));
        assert_eq!(s.dist, vec![0, 2, 4]);
        assert_eq!(s.hops, vec![0, 1, 2]);
        assert_eq!(s.parent[2], Some(NodeId(1)));
    }

    #[test]
    fn tie_break_minimizes_hops() {
        // Two shortest paths 0→3 of weight 4: 0-1-3 (2 hops) and
        // 0-2a-2b-3 style (3 hops). The reported hops must be 2.
        let g = WGraph::from_edges(5, &[(0, 1, 2), (1, 4, 2), (0, 2, 1), (2, 3, 2), (3, 4, 1)])
            .unwrap();
        let s = dijkstra(&g, NodeId(0));
        assert_eq!(s.dist[4], 4);
        assert_eq!(s.hops[4], 2, "must pick the 2-hop shortest path");
    }

    #[test]
    fn unreachable_nodes_are_inf() {
        let g = WGraph::from_edges(3, &[(0, 1, 1)]).unwrap();
        let s = dijkstra(&g, NodeId(0));
        assert_eq!(s.dist[2], INF);
        assert_eq!(s.hops[2], u32::MAX);
        assert_eq!(s.parent[2], None);
    }

    #[test]
    fn parents_trace_back_to_source() {
        let g = WGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 5)]).unwrap();
        let s = dijkstra(&g, NodeId(0));
        let mut v = NodeId(3);
        let mut steps = 0;
        while let Some(p) = s.parent[v.index()] {
            v = p;
            steps += 1;
        }
        assert_eq!(v, NodeId(0));
        assert_eq!(steps, s.hops[3]);
    }

    /// Random `G(n, p)` without a backbone, so some draws are
    /// disconnected.
    fn gnp(n: usize, p: f64, w: Weights, rng: &mut SmallRng) -> WGraph {
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.random_bool(p) {
                    edges.push((a, b, w.sample(rng)));
                }
            }
        }
        WGraph::from_edges(n, &edges).unwrap()
    }

    /// One search's `(dist, hops, parent)` rows.
    fn rows(
        search: &mut Search,
        g: &WGraph,
        v: NodeId,
    ) -> (Vec<u64>, Vec<u32>, Vec<Option<NodeId>>) {
        let s = search.sssp(g, v);
        (s.dist, s.hops, s.parent)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The buckets and the heap agree field for field — including
        /// `parent`, which the buckets get from the tie rule rather than
        /// from their settling order — on every weight class, both sides
        /// of the threshold, and disconnected draws.
        #[test]
        fn buckets_match_heap_on_random_graphs(
            n in 2usize..=80,
            seed in 0u64..1 << 32,
            weights in prop_oneof![
                Just(Weights::Unit),
                Just(Weights::Uniform { lo: 1, hi: 7 }),
                Just(Weights::Uniform { lo: 1, hi: 32 }),
                Just(Weights::PowerOfTwo { max_exp: 8 }),
                Just(Weights::Uniform { lo: 1, hi: DIAL_WEIGHT_LIMIT }),
                Just(Weights::Uniform { lo: DIAL_WEIGHT_LIMIT - 2, hi: DIAL_WEIGHT_LIMIT + 1 }),
            ],
            p in prop_oneof![Just(0.02), Just(0.08), Just(0.25)],
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gnp(n, p, weights, &mut rng);
            // Dial's ring for the graph's own bound, even past the limit
            // where `new` would pick the heap.
            let (mut dial, mut heap) = (Search::with_ring(Some(g.max_weight())), Search::with_ring(None));
            for v in g.nodes() {
                let want = rows(&mut heap, &g, v);
                prop_assert_eq!(&rows(&mut dial, &g, v), &want, "source {} of {:?}", v, weights);
                let s = dijkstra(&g, v);
                prop_assert_eq!((&s.dist, &s.hops, &s.parent), (&want.0, &want.1, &want.2));
                // Settling order is nondecreasing in distance and covers
                // exactly the reached nodes, starting at the source.
                prop_assert_eq!(dial.order[0], v.0);
                prop_assert!(dial.order.windows(2).all(|w| want.0[w[0] as usize] <= want.0[w[1] as usize]));
                prop_assert_eq!(dial.order.len(), want.0.iter().filter(|&&d| d != INF).count());
            }
        }
    }
}
