//! The `inproc-batch` phase: queries on freshly re-loaded snapshots with
//! no socket and no admission. The batch path goes through
//! `BatchSchedule` and the grouped kernel; the scalar stream reads the
//! same tables but bypasses the schedule — so a schedule gain must show
//! in `batch_qps` and not in `point_ns`, a table-layout gain in both.

use crate::pipeline::Env;
use crate::report::Report;
use crate::trace::Tracer;
use graphs::NodeId;
use oracle::DistanceOracle;
use pde_core::BatchSchedule;
use std::time::Instant;

/// One round over the served set; returns its wall-clock seconds
/// (`extras` — the traced run's per-layer decomposition — excluded).
pub fn round(env: &Env, report: &mut Report, tr: &mut Tracer, r: u32, extras: bool) -> f64 {
    let t = Instant::now();
    // A round is a fresh load, so allocation placement is re-sampled.
    let oracles = env.fleet.reload();
    let id = u64::from(r);
    let mut out = Vec::new();
    for (served, oracle) in env.fleet.served.iter().zip(&oracles) {
        let name = served.member.name;
        let pairs = served.member.pairs(&env.inputs).as_slice();
        let per_pair = |ns: u64| ns as f64 / pairs.len() as f64;
        let ops = pairs.len() as u64;

        // Warm-up: fault the fresh view in before anything is timed.
        oracle.estimate_many_with(pairs, &mut out, 1);

        let ((), ns) = tr.span("oracle.estimate_many_with.t1", name, id, |_| {
            oracle.estimate_many_with(pairs, &mut out, 1)
        });
        report.push(format!("oracle.batch_ns.{name}"), per_pair(ns));
        report.check(out == served.expected, ops, || {
            format!("{name}: batch threads=1 differs from scalar")
        });

        let ((), ns) = tr.span("oracle.estimate_many_with.auto", name, id, |_| {
            oracle.estimate_many_with(pairs, &mut out, 0)
        });
        report.push(format!("oracle.batch_mt_ns.{name}"), per_pair(ns));
        report.check(out == served.expected, ops, || {
            format!("{name}: batch threads=0 differs from scalar")
        });

        let (sum, ns) = tr.span("oracle.estimate", name, id, |_| {
            let mut sum = 0u64;
            for &(u, v) in pairs {
                sum = sum.wrapping_add(oracle.estimate(u, v));
            }
            std::hint::black_box(sum)
        });
        report.push(format!("oracle.scalar_ns.{name}"), per_pair(ns));
        let expected_sum = served.expected.iter().fold(0u64, |a, &x| a.wrapping_add(x));
        report.check(sum == expected_sum, ops, || {
            format!("{name}: scalar stream differs from the built oracle")
        });
    }
    let core_s = t.elapsed().as_secs_f64();
    if extras {
        for (served, oracle) in env.fleet.served.iter().zip(&oracles) {
            decompose(env, served, oracle, report, tr, id);
        }
    }
    core_s
}

/// The traced run's per-layer view of one oracle's batch: the harness
/// makes the three calls `estimate_many_with` makes itself, plus the
/// sorted, small-batch and `OracleServer::query` variants.
fn decompose(
    env: &Env,
    served: &crate::fleet::Served,
    oracle: &oracle::Oracle,
    report: &mut Report,
    tr: &mut Tracer,
    id: u64,
) {
    let name = served.member.name;
    let pairs = served.member.pairs(&env.inputs).as_slice();
    let per_pair = |ns: f64| ns / pairs.len() as f64;
    let ops = pairs.len() as u64;

    let mut out = vec![0u64; pairs.len()];
    let mut parts = (0u64, 0u64, 0u64, 0usize);
    tr.span("oracle.batch_by_hand", name, id, |tr| {
        let (sched, build_ns) = tr.span("pde_core.schedule_build", name, id, |_| {
            BatchSchedule::build(pairs, oracle.len())
        });
        let mut grouped = vec![0u64; pairs.len()];
        let ((), grouped_ns) = tr.span("oracle.estimate_grouped", name, id, |_| {
            oracle.estimate_grouped(pairs, sched.order(), &mut grouped)
        });
        let ((), scatter_ns) = tr.span("pde_core.scatter", name, id, |_| {
            sched.scatter(&grouped, &mut out)
        });
        parts = (build_ns, grouped_ns, scatter_ns, sched.groups());
    });
    report.check(out == served.expected, ops, || {
        format!("{name}: schedule → grouped → scatter differs from estimate_many_with")
    });
    let (build_ns, grouped_ns, scatter_ns, groups) = parts;
    report.push(
        format!("oracle.grouped_ns.{name}"),
        per_pair(grouped_ns as f64),
    );
    report.push(
        format!("_schedule_build_ns.{name}"),
        per_pair(build_ns as f64),
    );
    report.push(format!("_scatter_ns.{name}"), per_pair(scatter_ns as f64));
    report.push(format!("_schedule_groups.{name}"), groups as f64);

    // The same pairs already in (source, dest) order: the grouped
    // kernel's best case; the gap to the shuffled batch is what the
    // schedule and the scatter cost.
    let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
    order.sort_unstable_by_key(|&i| {
        let (u, v) = pairs[i as usize];
        (u.0, v.0)
    });
    let sorted: Vec<(NodeId, NodeId)> = order.iter().map(|&i| pairs[i as usize]).collect();
    let mut sorted_out = Vec::new();
    let ((), ns) = tr.span("oracle.estimate_many_with.sorted", name, id, |_| {
        oracle.estimate_many_with(&sorted, &mut sorted_out, 1)
    });
    report.push(
        format!("oracle.batch_sorted_ns.{name}"),
        per_pair(ns as f64),
    );
    let permuted = order.iter().map(|&i| served.expected[i as usize]);
    report.check(sorted_out.iter().copied().eq(permuted), ops, || {
        format!("{name}: sorted batch differs from the shuffled one")
    });

    // Batches below the grouping gate take the scalar kernel.
    let small = env.inputs.scale.small_batch;
    let mut small_out = Vec::new();
    let mut same = true;
    let ((), ns) = tr.span("oracle.estimate_many_with.small", name, id, |_| {
        for (chunk, want) in pairs.chunks(small).zip(served.expected.chunks(small)) {
            oracle.estimate_many_with(chunk, &mut small_out, 1);
            same &= small_out == want;
        }
    });
    report.push(format!("oracle.small_batch_ns.{name}"), per_pair(ns as f64));
    report.check(same, ops, || format!("{name}: small batches differ"));

    // The serving layer's lease + counters on top of the same batch, at
    // the thread count the socket server passes.
    let mut served_out = Vec::new();
    let (generation, ns) = tr.span("serve.query", name, id, |_| {
        env.registry.query(name, pairs, &mut served_out, 0)
    });
    report.push(format!("_serve_query_ns.{name}"), per_pair(ns as f64));
    report.check(
        generation.is_ok() && served_out == served.expected,
        ops,
        || format!("{name}: OracleServer::query differs ({generation:?})"),
    );
}
