//! Property-based tests of the core PDE guarantees (Definition 2.2),
//! driven by randomly generated connected weighted graphs, and of the
//! served PDE oracle: it answers exactly the σ-list pairs and routes
//! each of them.

use pde_repro::congest::Port;
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{algo, NodeId, Seed, WGraph, INF};
use pde_repro::oracle::{Backend, BuildMode, DistanceOracle, Oracle, OracleBuilder, TracedRoute};
use pde_repro::pde_core::{run_pde, PdeParams};
use pde_repro::sourcedetect::{
    delayed_detection_reference, native_detection, native_solve, run_detection, DetectParams,
    SourceSpace,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a connected weighted graph on `n ∈ 5..=16` nodes — a random
/// spanning tree plus extra random edges, weights in `1..=max_w`.
fn connected_graph(max_w: u64) -> impl Strategy<Value = WGraph> {
    (5usize..=16).prop_flat_map(move |n| {
        let tree = proptest::collection::vec(1u64..=max_w, n - 1);
        let parents: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        let extra = proptest::collection::vec(((0..n as u32), (0..n as u32), 1u64..=max_w), 0..n);
        (tree, parents, extra).prop_map(move |(tw, par, extra)| {
            let mut edges: Vec<(u32, u32, u64)> = par
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, (i + 1) as u32, tw[i]))
                .collect();
            for (a, b, w) in extra {
                if a != b
                    && !edges.iter().any(|&(x, y, _)| {
                        (x, y) == (a.min(b), a.max(b)) || (y, x) == (a.min(b), a.max(b))
                    })
                {
                    edges.push((a.min(b), a.max(b), w));
                }
            }
            WGraph::connected_from_edges(n, &edges).expect("construction is connected")
        })
    })
}

/// Builds the partial PDE oracle over `sources` at horizon `h`, list
/// size σ and ε 0.25, and checks it, as built and as re-loaded from its
/// `save` bytes, against the `run_pde` output it serves:
///
/// * `estimate(v, s)` is the archive's estimate when `s` is in `v`'s
///   σ-list, and [`INF`] otherwise;
/// * every listed pair's `route_into` reaches its source with weight at
///   most its estimate;
/// * the unlisted pairs that still have a next hop (the transit hops)
///   are exactly those some listed route passes through, each with the
///   archive's next hop and no estimate.
///
/// Returns the number of transit hops.
fn check_served(g: &WGraph, sources: &[bool], h: u64, sigma: usize) -> usize {
    let n = g.len();
    let eps = 0.25;
    let params = PdeParams::new(h, sigma, eps).with_mode(BuildMode::Native);
    let out = run_pde(g, sources, &vec![false; n], &params);
    let topo = g.to_topology();
    let listed: Vec<BTreeSet<NodeId>> = out
        .lists
        .iter()
        .map(|list| list.iter().map(|e| e.src).collect())
        .collect();
    let built = OracleBuilder::new(Backend::Pde)
        .eps(eps)
        .horizon(h)
        .sigma(sigma)
        .sources(sources.to_vec())
        .build_mode(BuildMode::Native)
        .build(g);
    let mut bytes = Vec::new();
    built.save(&mut bytes).unwrap();
    let reloaded = Oracle::load_bytes(&bytes).unwrap();
    let mut transit = None;
    for oracle in [&built, &reloaded] {
        let mut read = BTreeSet::new();
        let mut route = TracedRoute::default();
        for v in g.nodes() {
            for s in g.nodes() {
                let est = oracle.estimate(v, s);
                if v == s {
                    assert_eq!(est, 0);
                } else if !listed[v.index()].contains(&s) {
                    assert_eq!(est, INF, "unlisted ({v}, {s}) answered");
                    continue;
                }
                assert_eq!(Some(est), out.estimate(v, s), "listed ({v}, {s})");
                assert!(
                    oracle.route_into(v, s, &mut route),
                    "({v}, {s}) does not route"
                );
                assert!(
                    route.weight <= est,
                    "({v}, {s}): route {route:?} past {est}"
                );
                for &x in &route.nodes[..route.nodes.len() - 1] {
                    if !listed[x.index()].contains(&s) {
                        read.insert((x, s));
                    }
                }
            }
        }
        let hops: BTreeSet<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|x| g.nodes().map(move |s| (x, s)))
            .filter(|&(x, s)| oracle.next_hop(x, s).is_some() && oracle.estimate(x, s) == INF)
            .collect();
        assert_eq!(
            hops, read,
            "transit hops are not the hops listed routes read"
        );
        for &(x, s) in &hops {
            let port = out
                .next_hop(x, s)
                .expect("a transit hop is an archive entry");
            assert_eq!(oracle.next_hop(x, s), Some(topo.neighbor(x, port)));
        }
        assert!(transit.replace(hops.len()).is_none_or(|t| t == hops.len()));
    }
    transit.unwrap()
}

/// The served oracle on a grid and a random tree, where lists drop
/// sources their routes pass through: transit is non-empty there (1 hop
/// on the grid, 6 on the tree).
#[test]
fn served_oracle_routes_lists_through_transit_hops() {
    let w = Weights::Uniform { lo: 1, hi: 32 };
    let grid = gen::grid(12, 12, w, &mut Seed(1).rng());
    let tree = gen::random_tree(128, w, &mut Seed(2).rng());
    for (name, g, every, sigma) in [("grid", grid, 4, 16), ("tree", tree, 8, 4)] {
        let sources: Vec<bool> = (0..g.len()).map(|v| v % every == 0).collect();
        let transit = check_served(&g, &sources, 8, sigma);
        assert!(transit > 0, "{name}: no transit hop to check");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The served oracle on random weighted graphs: σ < 4 and h < 5 on
    /// 5 to 16 nodes, so mostly σ < |S| and h < n, and now and then
    /// σ ≥ |S|, where the oracle serves the archive as it is.
    #[test]
    fn served_oracle_answers_lists_and_routes_them(
        g in connected_graph(40),
        every in 1usize..4,
        sigma in 1usize..4,
        h in 1u64..5,
    ) {
        let sources: Vec<bool> = (0..g.len()).map(|v| v % every == 0).collect();
        check_served(&g, &sources, h, sigma);
    }

    /// Soundness: PDE estimates never underestimate true distances —
    /// exactly, in integer arithmetic (the reason for the integer ladder).
    #[test]
    fn estimates_never_underestimate(g in connected_graph(100), eps in prop_oneof![Just(0.25), Just(0.5), Just(1.0)]) {
        let n = g.len();
        let sources: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let out = run_pde(&g, &sources, &vec![false; n], &PdeParams::new(n as u64, n, eps));
        let exact = algo::apsp(&g);
        for v in g.nodes() {
            for e in &out.lists[v.index()] {
                prop_assert!(e.est >= exact.dist(v, e.src),
                    "underestimate at {v} for {}: {} < {}", e.src, e.est, exact.dist(v, e.src));
            }
            for e in out.routes.row_iter(v) {
                prop_assert!(e.est >= exact.dist(v, NodeId(e.src)));
            }
        }
    }

    /// Accuracy: with h = σ = n every source is listed within (1+ε).
    #[test]
    fn full_horizon_is_one_plus_eps_accurate(g in connected_graph(64)) {
        let n = g.len();
        let eps = 0.5;
        let sources = vec![true; n];
        let out = run_pde(&g, &sources, &vec![false; n], &PdeParams::new(n as u64, n, eps));
        let exact = algo::apsp(&g);
        for v in g.nodes() {
            prop_assert_eq!(out.lists[v.index()].len(), n);
            for e in &out.lists[v.index()] {
                let wd = exact.dist(v, e.src);
                prop_assert!(e.est as f64 <= (1.0 + eps) * wd as f64 + 1e-9,
                    "estimate {} vs wd {} at ({v}, {})", e.est, wd, e.src);
            }
        }
    }

    /// Output lists are sorted prefixes (Definition 2.2 shape).
    #[test]
    fn lists_are_sorted_prefixes(g in connected_graph(50), sigma in 1usize..6) {
        let n = g.len();
        let sources: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let out = run_pde(&g, &sources, &vec![false; n], &PdeParams::new(6, sigma, 0.5));
        for v in g.nodes() {
            let list = &out.lists[v.index()];
            prop_assert!(list.len() <= sigma);
            prop_assert!(list.windows(2).all(|w| (w[0].est, w[0].src) < (w[1].est, w[1].src)));
        }
    }

    /// Route tracing reaches the source with weight ≤ the estimate
    /// (the greedy-forwarding invariant behind every routing scheme here).
    #[test]
    fn routes_realize_estimates(g in connected_graph(40)) {
        let n = g.len();
        let sources: Vec<bool> = (0..n).map(|i| i < 3).collect();
        let out = run_pde(&g, &sources, &vec![false; n], &PdeParams::new(n as u64, 3, 0.5));
        let topo = g.to_topology();
        for v in g.nodes() {
            for e in &out.lists[v.index()] {
                if e.src == v { continue; }
                let (path, w) = out.trace_route(&topo, v, e.src)
                    .map_err(TestCaseError::fail)?;
                prop_assert_eq!(*path.last().unwrap(), e.src);
                prop_assert!(w <= e.est);
            }
        }
    }

    /// The distributed source-detection program and the native kernel
    /// agree with the centralized reference on the delayed topology, for
    /// arbitrary delays (the unweighted algorithm of [10] is exact), and
    /// a native node announces exactly its list entries with `d < h`.
    /// Every native archive row is the best `(d + delay, port)` over the
    /// node's neighbours' announced list prefixes. σ sweeps both sides of
    /// |S| over dense and sparse source sets; under a message cap only
    /// the archive identity and the cap itself are checked.
    #[test]
    fn detection_matches_reference(
        g in connected_graph(8),
        h in 2u64..12,
        sigma in 1usize..12,
        every in 1usize..5,
        cap in prop_oneof![Just(None), (0u64..5).prop_map(Some)],
    ) {
        let topo = g.to_topology().with_delays(|w| w.div_ceil(3));
        let n = g.len();
        let sources: Vec<bool> = (0..n).map(|i| i % every == every - 1).collect();
        let tags = vec![false; n];
        let params = DetectParams { h, sigma, msg_cap: cap, exact_rounds: false };
        // The simulated program is checked against the reference in every
        // case, uncapped whatever `cap` was drawn.
        let uncapped = DetectParams { msg_cap: None, ..params };
        let out = run_detection(&topo, &sources, &tags, &uncapped);
        let reference = delayed_detection_reference(&topo, &sources, h, sigma);
        for v in topo.nodes() {
            let got: Vec<(u64, NodeId)> =
                out.lists[v.index()].iter().map(|e| (e.dist, e.src)).collect();
            prop_assert_eq!(&got, &reference[v.index()], "simulated at node {}", v);
        }
        let native = native_detection(&topo, &sources, &tags, &params);
        match cap {
            None => {
                for v in topo.nodes() {
                    let list = &native.lists[v.index()];
                    prop_assert_eq!(&out.lists[v.index()], list, "native at node {}", v);
                    let below_h = list.iter().filter(|e| e.dist < h).count() as u64;
                    prop_assert_eq!(native.msgs_per_node[v.index()], below_h, "msgs at {}", v);
                }
            }
            Some(c) => prop_assert!(native.msgs_per_node.iter().all(|&m| m <= c)),
        }
        let space = SourceSpace::new(&sources, &tags);
        let mut archives = Vec::new();
        native_solve(&topo, &space, &params).for_each_row(&topo, |_, _, archive| {
            let row: Vec<(NodeId, u64, Port)> = archive
                .iter()
                .map(|&(si, d, port)| (space.id(si), u64::from(d), port))
                .collect();
            archives.push(row);
        });
        for v in topo.nodes() {
            let mut best: BTreeMap<NodeId, (u64, Port)> = BTreeMap::new();
            for (port, a, _, delay) in topo.arcs(v) {
                let a = a.index();
                for e in &native.lists[a][..native.msgs_per_node[a] as usize] {
                    let d = e.dist + delay;
                    if d <= h {
                        let slot = best.entry(e.src).or_insert((d, port));
                        *slot = (*slot).min((d, port));
                    }
                }
            }
            let want: Vec<(NodeId, u64, Port)> =
                best.into_iter().map(|(src, (d, port))| (src, d, port)).collect();
            prop_assert_eq!(&archives[v.index()], &want, "archive at node {}", v);
        }
    }
}
