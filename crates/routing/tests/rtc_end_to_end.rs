//! End-to-end validation of the Theorem 4.5 scheme: every pair routes,
//! no forwarding failures, stretch within the ε-adjusted `6k−1` ceiling,
//! labels logarithmic.

use graphs::algo::apsp;
use graphs::gen::{self, Weights};
use graphs::Seed;
use pde_core::{run_pde, PdeParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing::{build_rtc, evaluate, PairSelection, RoutingScheme, RtcParams};

/// The `6k−1+o(1)` ceiling evaluated at finite ε: the Lemma 4.3 chain
/// accumulates a handful of `(1+ε)` factors on each leg, so we allow
/// `(6k−1)·(1+ε)^4` (the exponent matching the worst chain in the proof).
fn ceiling(k: u32, eps: f64) -> f64 {
    (6.0 * f64::from(k) - 1.0) * (1.0 + eps).powi(4)
}

fn check(g: &graphs::WGraph, k: u32, seed: u64) {
    let mut params = RtcParams::new(k);
    params.seed = Seed(seed);
    let scheme = build_rtc(g, &params);
    let exact = apsp(g);
    let report = evaluate(g, &scheme, &exact, PairSelection::All);
    assert!(
        report.failures.is_empty(),
        "routing failures (k={k}, seed={seed}): {:?}",
        &report.failures[..report.failures.len().min(5)]
    );
    let ceil = ceiling(k, params.eps);
    assert!(
        report.max_stretch <= ceil,
        "stretch {} exceeds ceiling {ceil} (k={k}, seed={seed})",
        report.max_stretch
    );
    assert!(
        report.max_estimate_stretch <= ceil,
        "estimate stretch {} exceeds ceiling {ceil} (k={k}, seed={seed})",
        report.max_estimate_stretch
    );
    assert!(report.max_label_bits <= 200, "labels too large");
}

#[test]
fn random_graphs_k1() {
    for seed in 0..3 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::gnp_connected(26, 0.15, Weights::Uniform { lo: 1, hi: 40 }, &mut rng);
        check(&g, 1, seed);
    }
}

#[test]
fn random_graphs_k2() {
    for seed in 0..3 {
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let g = gen::gnp_connected(30, 0.15, Weights::Uniform { lo: 1, hi: 40 }, &mut rng);
        check(&g, 2, seed);
    }
}

#[test]
fn random_graphs_k3() {
    let mut rng = SmallRng::seed_from_u64(7);
    let g = gen::gnp_connected(32, 0.2, Weights::Uniform { lo: 1, hi: 25 }, &mut rng);
    check(&g, 3, 7);
}

#[test]
fn structured_graphs() {
    let mut rng = SmallRng::seed_from_u64(11);
    let grid = gen::grid(5, 6, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
    check(&grid, 2, 1);
    let ring = gen::cycle(24, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
    check(&ring, 2, 2);
    let clique = gen::weighted_clique_multihop(14);
    check(&clique, 2, 3);
}

#[test]
fn dumbbell_large_diameter() {
    let mut rng = SmallRng::seed_from_u64(13);
    let g = gen::dumbbell(8, 10, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
    check(&g, 2, 5);
}

#[test]
fn short_range_pairs_are_near_exact() {
    // Pairs whose destination sits in the source's short-range table (the
    // top-σ list of the scheme's own `(V, h, σ)`-estimation) must route
    // with stretch ≤ (1+ε)·(1 + slack): they never take the detour
    // through the skeleton.
    let mut rng = SmallRng::seed_from_u64(17);
    let g = gen::gnp_connected(28, 0.2, Weights::Uniform { lo: 1, hi: 15 }, &mut rng);
    let params = RtcParams::new(2);
    let scheme = build_rtc(&g, &params);
    let h = scheme.metrics.h;
    let sigma = (h as usize).min(g.len());
    let short = run_pde(
        &g,
        &vec![true; g.len()],
        &scheme.skeleton,
        &PdeParams::new(h, sigma, params.eps),
    );
    let exact = apsp(&g);
    for v in g.nodes() {
        for e in &short.lists[v.index()] {
            if e.src == v {
                continue;
            }
            let est = scheme.estimate(v, e.src);
            let wd = exact.dist(v, e.src);
            assert!(
                est as f64 <= 1.25 * wd as f64 + 1e-9,
                "short-range estimate {est} vs wd {wd}"
            );
        }
    }
}

#[test]
fn build_metrics_are_populated() {
    let mut rng = SmallRng::seed_from_u64(19);
    let g = gen::gnp_connected(24, 0.2, Weights::Uniform { lo: 1, hi: 10 }, &mut rng);
    let scheme = build_rtc(&g, &RtcParams::new(2));
    let m = &scheme.metrics;
    assert!(m.skeleton_size >= 1);
    assert!(m.pde_a_rounds > 0 && m.pde_s_rounds > 0);
    assert!(m.spanner_broadcast_rounds > 0);
    assert_eq!(
        m.total_rounds, m.total.rounds,
        "breakdown must sum to total"
    );
    assert!(m.total_rounds >= m.pde_a_rounds + m.pde_s_rounds);
}
