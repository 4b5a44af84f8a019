//! The `build-weighted` phase: what repeats after the served set exists
//! — a CONGEST-simulated partial PDE build and a cold-load sweep of the
//! four sampled snapshots — plus the one-shot per-layer build
//! measurements of the traced run (single-thread builds, bare `run_pde`,
//! one `native_detection` rung).

use crate::inputs::{digest, EPS};
use crate::pipeline::Env;
use crate::report::Report;
use crate::trace::Tracer;
use oracle::{Backend, BuildMode, DistanceOracle, Oracle, OracleBuilder};
use pde_core::{run_pde, PdeParams};
use sourcedetect::{native_detection, DetectParams};
use std::time::Instant;

fn sim_builder(env: &Env) -> OracleBuilder {
    let scale = env.inputs.scale;
    OracleBuilder::new(Backend::Pde)
        .seed(env.inputs.oracle_seed)
        .sigma(scale.sigma)
        .horizon(scale.horizon)
        .sources(env.inputs.sim_sources.clone())
}

/// One build round; returns its wall-clock seconds.
pub fn round(env: &Env, report: &mut Report, tr: &mut Tracer, r: u32) -> f64 {
    let t = Instant::now();

    // The CONGEST simulator does all the work of this build.
    let builder = sim_builder(env).build_mode(BuildMode::Simulated);
    let (simulated, ns) = tr.span(
        "congest.simulated_build",
        "pde_partial",
        u64::from(r),
        |_| builder.build(&env.inputs.sim),
    );
    let sim_s = ns as f64 / 1e9;
    let metrics = *simulated.build_metrics();
    report.push("sim_build_s", sim_s);
    report.push("congest.sim.rounds", metrics.rounds as f64);
    report.push("congest.sim.messages", metrics.messages as f64);
    report.push("congest.sim.msgs_per_s", metrics.messages as f64 / sim_s);
    if r == 0 {
        // Simulated ≡ Native artifacts — the parity the builder promises.
        let native = sim_builder(env).build(&env.inputs.sim);
        let same = simulated.artifact_bytes() == native.artifact_bytes();
        report.check(same && metrics.rounds > 0, 1, || {
            "simulated build's artifact differs from the native build's".to_string()
        });
        report.digests.insert(
            "sim.artifact".to_string(),
            digest(simulated.artifact_bytes().iter().map(|&b| u64::from(b))),
        );
    }
    drop(simulated);

    // Cold load: open each sampled snapshot and answer one query.
    let mut sweep_ms = 0.0;
    for served in env.fleet.served.iter().filter(|s| s.member.built) {
        let name = served.member.name;
        let (u, v) = served.member.pairs(&env.inputs)[0];
        let (first, ns) = tr.span("oracle.load_path", name, u64::from(r), |_| {
            Oracle::load_path(&served.path).map(|o| o.estimate(u, v))
        });
        report.check(first.as_ref().ok() == Some(&served.expected[0]), 1, || {
            format!("{name}: cold load answered {first:?}")
        });
        let ms = ns as f64 / 1e6;
        report.push(format!("oracle.load_ms.{name}"), ms);
        sweep_ms += ms;
    }
    report.push("cold_load_ms", sweep_ms);
    t.elapsed().as_secs_f64()
}

/// One-shot per-layer build measurements (traced run only): the four
/// sampled schemes at `threads = 1`, bare `run_pde` at auto and one
/// thread, and one `native_detection` rung.
pub fn layer_extras(env: &Env, report: &mut Report, tr: &mut Tracer) {
    let inputs = &env.inputs;
    let g = &inputs.full;
    let n = g.len();
    let (mut auto_s, mut t1_s) = (0.0, 0.0);
    for served in env.fleet.served.iter().filter(|s| s.member.built) {
        let name = served.member.name;
        let builder = served.member.builder(inputs).threads(1);
        let (built, ns) = tr.span("oracle.build_t1", name, 0, |_| builder.build(g));
        // Thread count must not change a single answer.
        let pairs = &served.member.pairs(inputs)[..inputs.scale.small_batch];
        let mut out = Vec::new();
        built.estimate_many_with(pairs, &mut out, 1);
        report.check(
            out == served.expected[..pairs.len()],
            pairs.len() as u64,
            || format!("{name}: threads=1 build answers differ from the auto build"),
        );
        report.push(format!("oracle.build_t1_s.{name}"), ns as f64 / 1e9);
        t1_s += ns as f64 / 1e9;
        auto_s += served.build_s;
    }
    report.push("oracle.build_auto_speedup", t1_s / auto_s);

    let all = vec![true; n];
    let none = vec![false; n];
    let params = PdeParams::new(n as u64, n, EPS).with_mode(BuildMode::Native);
    let (out, ns) = tr.span("pde_core.run_pde", "pde", 0, |_| {
        run_pde(g, &all, &none, &params)
    });
    let run_pde_s = ns as f64 / 1e9;
    report.push("pde_core.run_pde_s", run_pde_s);
    let (_, ns) = tr.span("pde_core.run_pde_t1", "pde", 0, |_| {
        run_pde(g, &all, &none, &params.clone().with_threads(1))
    });
    report.push("pde_core.run_pde_t1_s", ns as f64 / 1e9);
    // What the oracle layer adds on top of the PDE run: flattening the
    // route tables into the served layout.
    let pde = env.fleet.served.iter().find(|s| s.member.name == "pde");
    let pde_build_s = pde.expect("pde is served").build_s;
    report.push("oracle.flatten_s.pde", pde_build_s - run_pde_s);

    // One rung of the ladder: the base rung, delays = weights.
    let detect = DetectParams {
        h: out.horizon,
        sigma: n,
        msg_cap: None,
        exact_rounds: false,
    };
    let topo = g.to_topology().with_delays(|w| w);
    let (_, ns) = tr.span("sourcedetect.native_detection", "pde", 0, |_| {
        native_detection(&topo, &all, &none, &detect)
    });
    report.push("sourcedetect.native_detect_s", ns as f64 / 1e9);
}
