//! Oracle-generic evaluation: stretch percentiles, route validation and
//! measured query throughput for any [`DistanceOracle`].
//!
//! This is the successor of `routing::eval` (which remains the
//! scheme-level evaluator used inside the scheme crates): it works on the
//! unified trait object, so one report format covers every backend, and
//! it additionally measures the batch query path
//! ([`DistanceOracle::estimate_many_with`]) in queries per second.

use crate::{DistanceOracle, PairSelection, TracedRoute};
use graphs::algo::Apsp;
use graphs::{WGraph, INF};
use std::time::Instant;

/// Evaluation report for one oracle on one graph.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Pairs evaluated.
    pub pairs: usize,
    /// Pairs successfully routed.
    pub routed: usize,
    /// Median estimate stretch (estimate / wd).
    pub p50_stretch: f64,
    /// 99th-percentile estimate stretch.
    pub p99_stretch: f64,
    /// Worst estimate stretch.
    pub max_estimate_stretch: f64,
    /// Worst routed stretch (route weight / wd); `NaN` when nothing
    /// routed.
    pub max_route_stretch: f64,
    /// Mean routed stretch; `NaN` when nothing routed.
    pub avg_route_stretch: f64,
    /// Longest route, in hops.
    pub max_route_hops: usize,
    /// Serialized artifact size in bits.
    pub size_bits: u64,
    /// Measured batch throughput of `estimate_many_with` on the pair list in
    /// its submitted (shuffled/sampled) order, in queries/second.
    pub queries_per_sec: f64,
    /// Measured batch throughput on a `(u, v)`-sorted copy of the same
    /// pair list — the grouped-kernel best case. Comparing against
    /// [`EvalReport::queries_per_sec`] shows how much of the schedule win
    /// survives when the batch arrives pre-shuffled (the sort itself is
    /// then the only extra work).
    pub queries_per_sec_sorted: f64,
    /// Failures (missing estimates, underestimates, broken routes).
    /// Tests assert this is empty.
    pub failures: Vec<String>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Evaluates `oracle` on the selected pairs against exact ground truth.
///
/// Estimates are validated for soundness (never below `wd`) and coverage;
/// routes are traced through
/// [`DistanceOracle::route_into`] (one reused buffer, no per-pair
/// allocation) and validated for termination and weight soundness. Batch
/// throughput is measured by timing repeated sequential
/// [`DistanceOracle::estimate_many_with`] sweeps over the pair list.
pub fn evaluate(
    oracle: &dyn DistanceOracle,
    g: &WGraph,
    exact: &Apsp,
    pairs: PairSelection,
) -> EvalReport {
    let list = pairs.pairs(g.len());
    let mut failures = Vec::new();

    // --- Batch estimates (also the throughput measurement). ---
    let mut out = Vec::new();
    oracle.estimate_many_with(&list, &mut out, 1);
    let reps = (100_000 / list.len().max(1)).clamp(1, 200);
    let t0 = Instant::now();
    for _ in 0..reps {
        oracle.estimate_many_with(&list, &mut out, 1);
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let queries_per_sec = (reps * list.len()) as f64 / secs;

    // Grouped vs shuffled throughput: the same pairs pre-sorted by
    // (source, dest) — answers are order-independent, so only the
    // timing differs.
    let mut sorted_list = list.clone();
    sorted_list.sort_unstable_by_key(|&(u, v)| (u.0, v.0));
    let mut sorted_out = Vec::new();
    oracle.estimate_many_with(&sorted_list, &mut sorted_out, 1);
    let t0 = Instant::now();
    for _ in 0..reps {
        oracle.estimate_many_with(&sorted_list, &mut sorted_out, 1);
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let queries_per_sec_sorted = (reps * sorted_list.len()) as f64 / secs;

    let mut est_stretch: Vec<f64> = Vec::with_capacity(list.len());
    for (&(u, v), &est) in list.iter().zip(&out) {
        let wd = exact.dist(u, v);
        debug_assert_ne!(wd, INF, "evaluation requires a connected graph");
        if est == INF {
            failures.push(format!("no estimate for ({u}, {v})"));
            continue;
        }
        if est < wd {
            failures.push(format!("estimate {est} below wd {wd} for ({u}, {v})"));
            continue;
        }
        est_stretch.push(est as f64 / wd as f64);
    }
    est_stretch.sort_unstable_by(f64::total_cmp);
    let max_estimate_stretch = est_stretch.last().copied().unwrap_or(f64::NAN);

    // --- Routes. ---
    let mut routed = 0usize;
    let mut max_route_stretch = 0.0f64;
    let mut sum_route_stretch = 0.0f64;
    let mut max_route_hops = 0usize;
    // One buffer for the whole sweep: route-heavy evaluation loops must
    // not allocate per query.
    let mut route = TracedRoute::default();
    for &(u, v) in &list {
        let wd = exact.dist(u, v);
        if !oracle.route_into(u, v, &mut route) {
            failures.push(format!("route failed for ({u}, {v})"));
            continue;
        }
        if route.nodes.last() != Some(&v) || route.ports.len() + 1 != route.nodes.len() {
            failures.push(format!("malformed route for ({u}, {v})"));
            continue;
        }
        if route.weight < wd {
            failures.push(format!(
                "route weight {} below wd {wd} for ({u}, {v})",
                route.weight
            ));
            continue;
        }
        let s = route.weight as f64 / wd as f64;
        max_route_stretch = max_route_stretch.max(s);
        sum_route_stretch += s;
        max_route_hops = max_route_hops.max(route.ports.len());
        routed += 1;
    }

    EvalReport {
        pairs: list.len(),
        routed,
        p50_stretch: percentile(&est_stretch, 50.0),
        p99_stretch: percentile(&est_stretch, 99.0),
        max_estimate_stretch,
        max_route_stretch: if routed > 0 {
            max_route_stretch
        } else {
            f64::NAN
        },
        avg_route_stretch: if routed > 0 {
            sum_route_stretch / routed as f64
        } else {
            f64::NAN
        },
        max_route_hops,
        size_bits: oracle.size_bits(),
        queries_per_sec,
        queries_per_sec_sorted,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, OracleBuilder};
    use graphs::algo::apsp;
    use graphs::gen::{self, Weights};

    #[test]
    fn exact_backends_report_stretch_one() {
        let mut rng = graphs::Seed(5).rng();
        let g = gen::gnp_connected(16, 0.25, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
        let exact = apsp(&g);
        let o = OracleBuilder::new(Backend::Flooding).build(&g);
        let r = evaluate(&o, &g, &exact, PairSelection::All);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.pairs, 16 * 15);
        assert!((r.max_estimate_stretch - 1.0).abs() < 1e-12);
        assert!((r.p50_stretch - 1.0).abs() < 1e-12);
        assert!(r.queries_per_sec > 0.0);
        assert_eq!(r.routed, r.pairs, "flooding routes every pair");
        assert!((r.max_route_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_reproducible() {
        let mut rng = graphs::Seed(6).rng();
        let g = gen::gnp_connected(14, 0.3, Weights::Unit, &mut rng);
        let exact = apsp(&g);
        let o = OracleBuilder::new(Backend::Pde).build(&g);
        let sel = PairSelection::Sample { count: 40, seed: 9 };
        let a = evaluate(&o, &g, &exact, sel);
        let b = evaluate(&o, &g, &exact, sel);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.max_route_hops, b.max_route_hops);
        assert_eq!(a.p50_stretch, b.p50_stretch);
    }
}
