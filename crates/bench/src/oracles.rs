//! Oracles — the unified `DistanceOracle` comparison: build time,
//! serialized artifact size, stretch percentiles and batch query
//! throughput for every backend on one graph, plus the partial PDE
//! regime the paper is about (σ ≪ n, h ≪ n, S ⊂ V).

use crate::table::{f, Table};
use crate::workloads;
use graphs::algo::{apsp, Apsp};
use graphs::WGraph;
use oracle::{
    evaluate, is_covered, Backend, BuildMode, DistanceOracle, Oracle, OracleBuilder, PairSelection,
    TracedRoute,
};
use std::time::Instant;

/// Builds per backend for the reported `build_ms` median.
const BUILD_RUNS: usize = 3;

/// Builds every backend on G(n, p) and reports the unified-API metrics:
/// wall-clock build time (median of `BUILD_RUNS` builds, so warmup
/// noise stays out of the recorded numbers), CONGEST rounds charged,
/// `save` artifact size, estimate-stretch percentiles from the
/// oracle-generic evaluator, routed coverage, and measured
/// `estimate_many_with` throughput. The last row is a partial PDE (σ =
/// 3, h = 4, every 4th node a source), measured over the pairs it
/// covers.
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
        let (o, build_ms) = build(OracleBuilder::new(backend).seed(seed).k(2), &g);
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
    t.row(partial_row(&g, &exact, seed));
    t
}

/// The median-time build of `builder` on `g`, of `BUILD_RUNS`. This
/// table is the paper-faithful measurement view, so it pins `Simulated`
/// mode (rounds stay meaningful).
fn build(builder: OracleBuilder, g: &WGraph) -> (Oracle, f64) {
    let mut times = Vec::with_capacity(BUILD_RUNS);
    let mut built = None;
    for _ in 0..BUILD_RUNS {
        let t0 = Instant::now();
        built = Some(builder.clone().build_mode(BuildMode::Simulated).build(g));
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_unstable_by(f64::total_cmp);
    (built.expect("at least one build"), times[times.len() / 2])
}

/// The `pde_partial` row: σ = 3, h = 4 and every 4th node a source.
/// Definition 2.2 promises answers only for the σ-lists, so the row is
/// measured over the `(node, source)` pairs the oracle covers: their
/// stretch, how many route, and as `fails` the covered answers outside
/// `[wd, stretch_bound()·wd]` plus the covered pairs that do not route.
fn partial_row(g: &WGraph, exact: &Apsp, seed: u64) -> Vec<String> {
    let sources: Vec<bool> = (0..g.len()).map(|v| v % 4 == 0).collect();
    let builder = OracleBuilder::new(Backend::Pde)
        .seed(seed)
        .sigma(3)
        .horizon(4)
        .sources(sources.clone());
    let (o, build_ms) = build(builder, g);
    let bound = o.stretch_bound();
    let (mut stretch, mut routed, mut fails) = (Vec::new(), 0, 0);
    let mut route = TracedRoute::default();
    for (u, s) in g.nodes().flat_map(|u| g.nodes().map(move |s| (u, s))) {
        let est = o.estimate(u, s);
        if u == s || !sources[s.index()] || !is_covered(est) {
            continue;
        }
        let wd = exact.dist(u, s);
        stretch.push(est as f64 / wd as f64);
        fails += usize::from(est < wd || est as f64 > bound * wd as f64 + 1e-9);
        match o.route_into(u, s, &mut route) {
            true => routed += 1,
            false => fails += 1,
        }
    }
    stretch.sort_unstable_by(f64::total_cmp);
    let at = |p: usize| stretch[(p * (stretch.len() - 1)).div_ceil(100)];
    vec![
        "pde_partial".to_string(),
        f(build_ms),
        o.build_metrics().rounds.to_string(),
        f(o.size_bits() as f64 / 8.0 / 1024.0),
        f(at(50)),
        f(at(99)),
        f(at(100)),
        format!("{routed}/{}", stretch.len()),
        "-".to_string(),
        "-".to_string(),
        fails.to_string(),
    ]
}
