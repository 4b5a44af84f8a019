//! Oracles — the unified `DistanceOracle` comparison: build time,
//! serialized artifact size, stretch percentiles and batch query
//! throughput for every backend on one graph.

use crate::table::{f, Table};
use crate::workloads;
use graphs::algo::apsp;
use oracle::{evaluate, Backend, BuildMode, DistanceOracle, OracleBuilder, PairSelection};
use std::time::Instant;

/// Builds per backend for the reported `build_ms` median.
const BUILD_RUNS: usize = 3;

/// Builds every backend on G(n, p) and reports the unified-API metrics:
/// wall-clock build time (median of `BUILD_RUNS` builds, so warmup
/// noise stays out of the recorded numbers), CONGEST rounds charged,
/// `save` artifact size, estimate-stretch percentiles from the
/// oracle-generic evaluator, routed coverage, and measured
/// `estimate_many_with` throughput.
pub fn oracles(n: usize, seed: u64) -> Table {
    let g = workloads::gnp(n, seed);
    let exact = apsp(&g);
    let mut t = Table::new(
        "Oracles: one DistanceOracle API across every backend (k=2, eps=0.25)",
        &[
            "backend",
            "build_ms",
            "rounds",
            "size_KiB",
            "p50_stretch",
            "p99_stretch",
            "max_stretch",
            "routed",
            "batch_q/s",
            "sorted_q/s",
            "fails",
        ],
    );
    let pairs = if n <= 40 {
        PairSelection::All
    } else {
        PairSelection::Sample {
            count: 800,
            seed: 5,
        }
    };
    for backend in Backend::ALL {
        let mut times = Vec::with_capacity(BUILD_RUNS);
        let mut built = None;
        for _ in 0..BUILD_RUNS {
            let t0 = Instant::now();
            // This table is the paper-faithful measurement view, so it
            // pins `Simulated` mode (rounds stay meaningful).
            built = Some(
                OracleBuilder::new(backend)
                    .seed(seed)
                    .k(2)
                    .build_mode(BuildMode::Simulated)
                    .build(&g),
            );
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let o = built.expect("at least one build");
        times.sort_unstable_by(f64::total_cmp);
        let build_ms = times[times.len() / 2];
        let r = evaluate(&o, &g, &exact, pairs);
        t.row(vec![
            backend.name().to_string(),
            f(build_ms),
            o.build_metrics().rounds.to_string(),
            f(r.size_bits as f64 / 8.0 / 1024.0),
            f(r.p50_stretch),
            f(r.p99_stretch),
            f(r.max_estimate_stretch),
            format!("{}/{}", r.routed, r.pairs),
            f(r.queries_per_sec),
            f(r.queries_per_sec_sorted),
            r.failures.len().to_string(),
        ]);
    }
    t
}
