//! End-to-end check of the PDE estimation guarantee (Definition 2.2 /
//! Theorem 3.3) on seeded random weighted graphs, against *independent*
//! ground truth from `crates/baselines`: the link-state baseline (topology
//! flooding + local Dijkstra) and the pipelined Bellman–Ford baseline,
//! cross-checked against each other before being trusted.
//!
//! For every node `v` and source `s` whose shortest weighted path uses at
//! most `h` hops (the paper's `h_{v,s} ≤ h`, with minimum-hop
//! tie-breaking), running PDE with `σ = |S|` must produce an entry for `s`
//! at `v` with
//!
//! ```text
//! wd(v, s) ≤ est ≤ (1 + ε) · wd(v, s)
//! ```
//!
//! and *every* listed entry — covered by the horizon or not — must be
//! sound (`est ≥ wd`, exactly, in integer arithmetic).
//!
//! At σ < |S| the served oracle is checked against Definition 2.2 in its
//! exact form, with `wd_h` the lightest path of at most `h` hops.

use pde_repro::baselines::{bellman_ford_apsp, flooding_apsp};
use pde_repro::graphs::algo::{apsp, hop_limited_distances};
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{NodeId, Seed, WGraph};
use pde_repro::oracle::{is_covered, Backend, DistanceOracle, OracleBuilder};
use pde_repro::pde_core::{run_pde, PdeParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Checks the PDE guarantee for one graph / source set / horizon / ε.
fn check_guarantee(g: &WGraph, sources: &[bool], h: u64, eps: f64, label: &str) {
    let n = g.len();
    assert_eq!(sources.len(), n, "{label}: bad source flags");
    let sigma = sources.iter().filter(|&&s| s).count();
    assert!(sigma > 0, "{label}: empty source set");

    // Ground truth, twice over: OSPF-style flooding (local Dijkstra) and
    // RIP-style Bellman–Ford must agree exactly before we trust either.
    let truth = flooding_apsp(g, 0).apsp;
    let bf = bellman_ford_apsp(g);
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(
                truth.dist(u, v),
                bf.dist(u, v),
                "{label}: Dijkstra and Bellman–Ford ground truths disagree at ({u}, {v})"
            );
        }
    }

    let out = run_pde(g, sources, &vec![false; n], &PdeParams::new(h, sigma, eps));

    for v in g.nodes() {
        let list = &out.lists[v.index()];
        assert!(
            list.len() <= sigma,
            "{label}: node {v} lists {} entries for σ = {sigma}",
            list.len()
        );

        // Soundness of everything reported, inside the horizon or not.
        for e in list {
            assert!(
                e.est >= truth.dist(v, e.src),
                "{label}: underestimate at ({v}, {}): {} < {}",
                e.src,
                e.est,
                truth.dist(v, e.src)
            );
        }

        // Completeness + (1+ε) accuracy for horizon-covered pairs.
        for s in g.nodes() {
            if !sources[s.index()] || u64::from(truth.hops(v, s)) > h {
                continue;
            }
            let wd = truth.dist(v, s);
            let e = list.iter().find(|e| e.src == s).unwrap_or_else(|| {
                panic!(
                    "{label}: source {s} within {} ≤ {h} hops of {v} missing from its list",
                    truth.hops(v, s)
                )
            });
            assert!(
                e.est as f64 <= (1.0 + eps) * wd as f64 + 1e-9,
                "{label}: estimate {} at ({v}, {s}) exceeds (1+{eps})·{wd}",
                e.est
            );
        }
    }
}

/// Sources on every third node.
fn sparse_sources(n: usize) -> Vec<bool> {
    (0..n).map(|i| i % 3 == 0).collect()
}

#[test]
fn gnp_uniform_weights_meet_guarantee() {
    for seed in [1u64, 2, 3] {
        for eps in [0.25, 0.5] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(16, 0.25, Weights::Uniform { lo: 1, hi: 50 }, &mut rng);
            let n = g.len();
            for h in [2u64, 4, n as u64] {
                let label = format!("gnp uniform seed={seed} eps={eps} h={h}");
                check_guarantee(&g, &sparse_sources(n), h, eps, &label);
            }
        }
    }
}

#[test]
fn gnp_power_of_two_weights_meet_guarantee() {
    // Heavy-tailed weights exercise many rungs of the (1+ε) weight ladder.
    for seed in [7u64, 8] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::gnp_connected(14, 0.3, Weights::PowerOfTwo { max_exp: 6 }, &mut rng);
        let n = g.len();
        for h in [3u64, n as u64] {
            let label = format!("gnp pow2 seed={seed} h={h}");
            check_guarantee(&g, &sparse_sources(n), h, 0.5, &label);
        }
    }
}

#[test]
fn random_tree_long_hop_paths_meet_guarantee() {
    // Trees maximize hop counts, so the horizon filter actually bites.
    for seed in [11u64, 12] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::random_tree(24, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
        let n = g.len();
        for h in [2u64, 5, n as u64] {
            let label = format!("tree seed={seed} h={h}");
            check_guarantee(&g, &sparse_sources(n), h, 0.25, &label);
        }
    }
}

/// Every stored route is a whole number of hops on its own rung, within
/// the rung horizon: `est = hops · levels[level]` with `hops ≤ h′`, in
/// the partial regime (σ ≪ n, h ≪ n, S ⊂ V) and at full coverage.
#[test]
fn every_route_is_whole_hops_on_its_rung_within_the_horizon() {
    let mut rng = SmallRng::seed_from_u64(41);
    let g = gen::gnp_connected(96, 0.06, Weights::Uniform { lo: 1, hi: 32 }, &mut rng);
    let n = g.len();
    let partial = (
        PdeParams::new(3, 4, 0.25),
        (0..n).map(|v| v % 8 == 0).collect(),
    );
    let full = (PdeParams::new(n as u64, n, 0.25), vec![true; n]);
    for (params, sources) in [partial, full] {
        let out = run_pde(&g, &sources, &vec![false; n], &params);
        assert!(out.levels.len() > 4, "one rung proves nothing");
        let mut routes = 0;
        for v in g.nodes() {
            for (s, r) in out.routes.row_routes(v) {
                let b = out.levels[r.level as usize];
                assert_eq!(r.est % b, 0, "({v}, {s}): {} is off rung {b}", r.est);
                assert!(r.est / b <= out.horizon, "({v}, {s}): past h′");
                routes += 1;
            }
        }
        assert!(routes > n, "h = {}: only {routes} routes", params.h);
    }
}

#[test]
fn singleton_source_meets_guarantee() {
    let mut rng = SmallRng::seed_from_u64(21);
    let g = gen::gnp_connected(18, 0.2, Weights::Uniform { lo: 1, hi: 100 }, &mut rng);
    let n = g.len();
    let mut sources = vec![false; n];
    sources[n / 2] = true;
    for h in [3u64, n as u64] {
        let label = format!("singleton h={h}");
        check_guarantee(&g, &sources, h, 0.25, &label);
    }
}

/// Definition 2.2 in its exact form on the served oracle over `sources`
/// at horizon `h`, list size σ and ε 0.25: every covered answer lies in
/// `[wd, (1+ε)·wd_h]`, which is `stretch_bound()` against `wd_h`, and
/// every uncovered source with a finite `wd_h(v, s)` is outranked at `v`
/// by at least σ covered sources with estimates `≤ (1+ε)·wd_h(v, s)`.
fn check_served_definition(g: &WGraph, sources: &[bool], h: u64, sigma: usize, label: &str) {
    let eps = 0.25;
    let src: Vec<NodeId> = g.nodes().filter(|s| sources[s.index()]).collect();
    assert!(sigma < src.len(), "{label}: σ ≥ |S| lists every source");
    let oracle = OracleBuilder::new(Backend::Pde)
        .eps(eps)
        .horizon(h)
        .sigma(sigma)
        .sources(sources.to_vec())
        .build(g);
    let bound = oracle.stretch_bound();
    assert_eq!(bound, 1.0 + eps);
    let exact = apsp(g);
    let wd_h: Vec<Vec<u64>> = src
        .iter()
        .map(|&s| hop_limited_distances(g, s, h as u32))
        .collect();
    for v in g.nodes() {
        let est: Vec<u64> = src.iter().map(|&s| oracle.estimate(v, s)).collect();
        for (i, &s) in src.iter().enumerate() {
            let (e, wd, wdh) = (est[i], exact.dist(v, s), wd_h[i][v.index()]);
            if is_covered(e) {
                assert!(e >= wd, "{label}: ({v}, {s}) answers {e} below wd {wd}");
                assert!(
                    e as f64 <= bound * wdh as f64 + 1e-9,
                    "{label}: ({v}, {s}) answers {e} past (1+ε)·wd_h = {bound}·{wdh}"
                );
            } else if is_covered(wdh) {
                let within = (1.0 + eps) * wdh as f64 + 1e-9;
                let outranking = est
                    .iter()
                    .filter(|&&x| is_covered(x) && x as f64 <= within)
                    .count();
                assert!(
                    outranking >= sigma,
                    "{label}: uncovered ({v}, {s}) at wd_h {wdh} outranked by {outranking} < σ"
                );
            }
        }
    }
}

#[test]
fn served_lists_meet_definition_2_2_where_the_horizon_binds() {
    let w = Weights::Uniform { lo: 1, hi: 32 };
    let cases = [
        ("grid", gen::grid(8, 8, w, &mut Seed(3).rng()), 3, 3),
        ("tree", gen::random_tree(64, w, &mut Seed(4).rng()), 3, 2),
        (
            "ring of cliques",
            gen::ring_of_cliques(8, 6, w, &mut Seed(5).rng()),
            2,
            4,
        ),
    ];
    for (name, g, every, sigma) in cases {
        let sources: Vec<bool> = (0..g.len()).map(|v| v % every == 0).collect();
        for h in [2u64, 4] {
            check_served_definition(&g, &sources, h, sigma, &format!("{name} h={h}"));
        }
    }
}
