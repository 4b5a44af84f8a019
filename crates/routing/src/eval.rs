//! Scheme-agnostic routing evaluation: route tracing, stretch statistics,
//! label/table sizes. Shared by Theorems 4.5 (this crate), 4.8/4.13
//! (`compact`) and the baselines.

use congest::NodeId;
use graphs::algo::Apsp;
use graphs::{WGraph, INF};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A stateless routing + distance-estimation scheme (Sections 2.3/2.4 of
/// the paper): next hops and estimates are functions of the current node's
/// tables and the destination's label only.
pub trait RoutingScheme {
    /// Number of nodes.
    fn len(&self) -> usize;
    /// `true` if the scheme covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The next hop from `x` towards `dest` (`None` when `x == dest` or —
    /// a scheme failure — no hop is known).
    fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId>;
    /// The distance estimate from `x` to `dest` (must be `≥ wd(x, dest)`).
    fn estimate(&self, x: NodeId, dest: NodeId) -> u64;
    /// Size of `v`'s label in bits.
    fn label_bits(&self, v: NodeId) -> usize;
    /// Number of routing-table entries stored at `v`.
    fn table_entries(&self, v: NodeId) -> usize;
}

/// Which source/destination pairs to evaluate.
#[derive(Clone, Copy, Debug)]
pub enum PairSelection {
    /// Every ordered pair (`n(n−1)` routes).
    All,
    /// A reproducible uniform sample of ordered pairs.
    Sample {
        /// Number of pairs.
        count: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl PairSelection {
    /// Materializes the selected ordered pairs (`u ≠ v`) over `n` nodes.
    pub fn pairs(self, n: usize) -> Vec<(NodeId, NodeId)> {
        match self {
            PairSelection::All => (0..n as u32)
                .flat_map(|u| (0..n as u32).map(move |v| (NodeId(u), NodeId(v))))
                .filter(|(u, v)| u != v)
                .collect(),
            PairSelection::Sample { count, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                (0..count)
                    .map(|_| {
                        let u = rng.random_range(0..n as u32);
                        let mut v = rng.random_range(0..n as u32);
                        while v == u {
                            v = rng.random_range(0..n as u32);
                        }
                        (NodeId(u), NodeId(v))
                    })
                    .collect()
            }
        }
    }
}

/// Evaluation report for one scheme on one graph.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Pairs evaluated.
    pub pairs: usize,
    /// Worst route stretch (route weight / wd).
    pub max_stretch: f64,
    /// Mean route stretch.
    pub avg_stretch: f64,
    /// Worst distance-estimate stretch (estimate / wd).
    pub max_estimate_stretch: f64,
    /// Worst route hop count observed.
    pub max_route_hops: usize,
    /// Largest label, in bits.
    pub max_label_bits: usize,
    /// Largest routing table, in entries.
    pub max_table_entries: usize,
    /// Routing failures (should be empty; kept for loud reporting).
    pub failures: Vec<String>,
}

/// Routes every selected pair and collects stretch statistics.
///
/// Routes are traced by repeatedly applying [`RoutingScheme::next_hop`]
/// with a generous hop cap; a stuck walk, a hop that is not a graph edge,
/// or an estimate below the true distance is recorded in
/// [`EvalReport::failures`] (tests assert the list is empty).
pub fn evaluate<S: RoutingScheme>(
    g: &WGraph,
    scheme: &S,
    exact: &Apsp,
    pairs: PairSelection,
) -> EvalReport {
    let n = g.len();
    let mut failures = Vec::new();
    let mut max_stretch = 1.0f64;
    let mut sum_stretch = 0.0f64;
    let mut max_est = 1.0f64;
    let mut max_hops = 0usize;
    let mut count = 0usize;

    let hop_cap = 20 * n + 50;
    for (u, v) in pairs.pairs(n) {
        let wd = exact.dist(u, v);
        debug_assert_ne!(wd, INF, "evaluation requires a connected graph");
        // Distance estimate.
        let est = scheme.estimate(u, v);
        if est == INF {
            failures.push(format!("no estimate for ({u}, {v})"));
            continue;
        }
        if est < wd {
            failures.push(format!("estimate {est} below wd {wd} for ({u}, {v})"));
            continue;
        }
        max_est = max_est.max(est as f64 / wd as f64);

        // Route.
        let mut cur = u;
        let mut weight = 0u64;
        let mut hops = 0usize;
        let ok = loop {
            if cur == v {
                break true;
            }
            if hops >= hop_cap {
                failures.push(format!("hop cap hit routing ({u}, {v}) at {cur}"));
                break false;
            }
            match scheme.next_hop(cur, v) {
                None => {
                    failures.push(format!("stuck routing ({u}, {v}) at {cur}"));
                    break false;
                }
                Some(next) => match g.edge_weight(cur, next) {
                    None => {
                        failures.push(format!("next hop {cur}→{next} is not an edge (dest {v})"));
                        break false;
                    }
                    Some(w) => {
                        weight += w;
                        cur = next;
                        hops += 1;
                    }
                },
            }
        };
        if !ok {
            continue;
        }
        let stretch = weight as f64 / wd as f64;
        max_stretch = max_stretch.max(stretch);
        sum_stretch += stretch;
        max_hops = max_hops.max(hops);
        count += 1;
    }

    let (mut max_label_bits, mut max_table_entries) = (0, 0);
    for v in g.nodes() {
        max_label_bits = max_label_bits.max(scheme.label_bits(v));
        max_table_entries = max_table_entries.max(scheme.table_entries(v));
    }

    EvalReport {
        pairs: count,
        max_stretch,
        avg_stretch: if count > 0 {
            sum_stretch / count as f64
        } else {
            f64::NAN
        },
        max_estimate_stretch: max_est,
        max_route_hops: max_hops,
        max_label_bits,
        max_table_entries,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::algo::apsp;

    /// A trivial exact scheme for testing the evaluator: full shortest-path
    /// next-hop tables.
    struct ExactScheme {
        n: usize,
        next: Vec<Option<NodeId>>,
        dist: Vec<u64>,
    }

    impl ExactScheme {
        fn new(g: &WGraph) -> Self {
            let n = g.len();
            let mut next = vec![None; n * n];
            let mut dist = vec![0; n * n];
            for u in g.nodes() {
                let sp = graphs::algo::dijkstra(g, u);
                for v in g.nodes() {
                    dist[u.index() * n + v.index()] = sp.dist[v.index()];
                    if u != v {
                        // First hop: walk back from v.
                        let mut cur = v;
                        while let Some(p) = sp.parent[cur.index()] {
                            if p == u {
                                break;
                            }
                            cur = p;
                        }
                        next[u.index() * n + v.index()] = Some(cur);
                    }
                }
            }
            ExactScheme { n, next, dist }
        }
    }

    impl RoutingScheme for ExactScheme {
        fn len(&self) -> usize {
            self.n
        }
        fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
            self.next[x.index() * self.n + dest.index()]
        }
        fn estimate(&self, x: NodeId, dest: NodeId) -> u64 {
            self.dist[x.index() * self.n + dest.index()]
        }
        fn label_bits(&self, _: NodeId) -> usize {
            32
        }
        fn table_entries(&self, _: NodeId) -> usize {
            self.n
        }
    }

    #[test]
    fn exact_scheme_has_stretch_one() {
        let g = WGraph::from_edges(5, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 4), (0, 4, 20)])
            .unwrap();
        let exact = apsp(&g);
        let scheme = ExactScheme::new(&g);
        let r = evaluate(&g, &scheme, &exact, PairSelection::All);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.pairs, 20);
        assert!((r.max_stretch - 1.0).abs() < 1e-12);
        assert!((r.avg_stretch - 1.0).abs() < 1e-12);
        assert!((r.max_estimate_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_reproducible() {
        let g = WGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let exact = apsp(&g);
        let scheme = ExactScheme::new(&g);
        let sel = PairSelection::Sample { count: 6, seed: 9 };
        let a = evaluate(&g, &scheme, &exact, sel);
        let b = evaluate(&g, &scheme, &exact, sel);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.max_route_hops, b.max_route_hops);
    }
}
