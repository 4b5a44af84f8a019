//! One run: generate inputs, build and serve the six oracles, then drive
//! the four phases. Every run executes the whole build-once / query-many
//! pipeline, so every metric exists on every workload; the workload
//! chooses which phase is repeated for the `--seconds` budget (the others
//! run the minimum number of rounds, as probes).

use crate::fleet::Fleet;
use crate::inputs::{Inputs, Scale};
use crate::report::{self, Report, RunId};
use crate::spec::{self, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{build, compare, inproc, socket, sys};
use net::{Client, NetServer, ServerConfig};
use oracle::Oracle;
use serve::OracleServer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Everything the phases read: inputs, the served set, and the serving
/// stack over it. One `NetServer` per socket phase, so each phase's
/// server-side counters are its own.
pub struct Env {
    /// Generated inputs.
    pub inputs: Inputs,
    /// The served set.
    pub fleet: Fleet,
    /// In-process registry all three servers front.
    pub registry: Arc<OracleServer>,
    /// Server of the bulk phase.
    pub bulk: NetServer,
    /// Server of the direct point phase (and the traced run's extras).
    pub point: NetServer,
    /// Server of the admitted point phase.
    pub admit: NetServer,
}

/// What one run does.
#[derive(Clone, Debug)]
pub struct Options {
    /// The phase repeated for the time budget.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds the workload's own phase is repeated for.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Sizes.
    pub scale: Scale,
    /// Rounds every phase runs at least.
    pub min_rounds: u32,
    /// Where snapshots, result files and traces go.
    pub out: PathBuf,
}

/// Rounds of one phase.
#[derive(Default)]
struct PhaseStats {
    rounds: u32,
    cpu_s_per_round: f64,
    /// Wall-clock of rounds run with spans recorded.
    recorded_s: Vec<f64>,
    /// Wall-clock of rounds run without.
    plain_s: Vec<f64>,
}

/// Repeats `round(tracer, round id, extras)`. Untraced: at least
/// `min_rounds`, and — for the workload's own phase — until `seconds`
/// have passed. Traced: `min_rounds` recorded rounds with the per-layer
/// extras, alternating on the workload's own phase with unrecorded
/// rounds whose wall-clock gives the tracing overhead.
fn repeat(
    opts: &Options,
    own: bool,
    tr: &mut Tracer,
    mut round: impl FnMut(&mut Tracer, u32, bool) -> f64,
) -> PhaseStats {
    let started = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let mut stats = PhaseStats::default();
    let mut r = 0u32;
    let mut next = |tr: &mut Tracer, extras: bool| {
        tr.set_round(r);
        r += 1;
        round(tr, r - 1, extras)
    };
    if opts.traced {
        for _ in 0..opts.min_rounds {
            stats.recorded_s.push(next(tr, true));
            if own {
                tr.set_enabled(false);
                stats.plain_s.push(next(tr, false));
                tr.set_enabled(true);
            }
        }
    } else {
        while stats.plain_s.len() < opts.min_rounds as usize
            || (own && started.elapsed().as_secs_f64() < opts.seconds)
        {
            stats.plain_s.push(next(tr, false));
        }
    }
    stats.rounds = r;
    stats.cpu_s_per_round = (sys::cpu_seconds() - cpu0) / f64::from(r.max(1));
    stats
}

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// The serving stack over the served set's snapshots.
struct ServingStack {
    registry: Arc<OracleServer>,
    bulk: NetServer,
    point: NetServer,
    admit: NetServer,
}

impl ServingStack {
    /// Re-opens every snapshot, installs the views and binds the three
    /// servers.
    fn up(fleet: &Fleet) -> ServingStack {
        let registry = Arc::new(OracleServer::new());
        for served in &fleet.served {
            let view = Oracle::load_path(&served.path).expect("re-open a served snapshot");
            registry.install(served.member.name, view);
        }
        let bind = || {
            NetServer::bind(
                "127.0.0.1:0",
                Arc::clone(&registry),
                ServerConfig::default(),
            )
            .expect("bind a loopback port")
        };
        ServingStack {
            bulk: bind(),
            point: bind(),
            admit: bind(),
            registry,
        }
    }
}

/// Executes one run; returns what it collected and the spans.
pub fn run(opts: &Options) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tr = Tracer::new(opts.traced);
    let dir = opts.out.join(format!(
        "snapshots-{}-s{}-t{}-p{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.traced),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the snapshot directory");

    // Set-up is what the harness does around the pipeline: generate the
    // inputs and exact references, and bring the serving stack up from
    // the snapshots. Both halves are cheap, so each is done
    // `SETUP_REPEATS` times and `setup_s` is the median of the sums.
    // Building the served set in between is measured work (`build_s`).
    let mut setup_s = [0.0f64; SETUP_REPEATS];
    let mut inputs = None;
    for s in &mut setup_s {
        let t = Instant::now();
        inputs = Some(Inputs::generate(opts.scale, opts.seed));
        *s = t.elapsed().as_secs_f64();
    }
    let inputs = inputs.expect("SETUP_REPEATS > 0");
    report.push("graphs.gen_s", inputs.gen_s);
    report.push("graphs.apsp_s", inputs.apsp_s);
    report.digests.insert("inputs".to_string(), inputs.digest());
    let cpu0 = sys::cpu_seconds();
    let fleet = Fleet::build(&inputs, &dir, &mut report, &mut tr);
    let fleet_cpu_s = sys::cpu_seconds() - cpu0;
    let mut stack = None;
    for s in &mut setup_s {
        // Shut the previous stack's servers down outside the timer.
        drop(stack.take());
        let t = Instant::now();
        stack = Some(ServingStack::up(&fleet));
        *s += t.elapsed().as_secs_f64();
    }
    report.extend("setup_s", setup_s);
    let ServingStack {
        registry,
        bulk,
        point,
        admit,
    } = stack.expect("SETUP_REPEATS > 0");
    let env = Env {
        inputs,
        fleet,
        registry,
        bulk,
        point,
        admit,
    };

    if opts.traced {
        build::layer_extras(&env, &mut report, &mut tr);
    }
    let own = |w: Workload| opts.workload == w;
    let built = repeat(opts, own(Workload::BuildWeighted), &mut tr, |tr, r, _| {
        build::round(&env, &mut report, tr, r)
    });
    let inproc = repeat(
        opts,
        own(Workload::InprocBatch),
        &mut tr,
        |tr, r, extras| inproc::round(&env, &mut report, tr, r, extras),
    );
    let bulk = repeat(opts, own(Workload::SocketBulk), &mut tr, |tr, r, _| {
        socket::bulk_round(&env, &mut report, tr, r)
    });
    let point = repeat(opts, own(Workload::SocketPoint), &mut tr, |tr, r, _| {
        socket::point_round(&env, &mut report, tr, r)
    });
    // Read before the traced extras reuse the point server.
    let point_net = env.point.metrics();
    if opts.traced {
        socket::single_rtts(&env, &mut report, &mut tr);
        socket::open_loop_sweep(&env, &mut report, &mut tr);
        socket::batcher_overhead(&env, &mut report, &mut tr);
    }

    let phases = Phases {
        built,
        inproc,
        bulk,
        point,
    };
    whole_run_figures(opts, &phases, fleet_cpu_s, &mut report);
    if opts.traced {
        per_layer_figures(opts, &env, &phases, point_net, &tr, &mut report);
    }

    env.bulk.shutdown();
    env.point.shutdown();
    env.admit.shutdown();
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
    report.push("peak_rss_mib", sys::peak_rss_mib());
    (report, tr)
}

/// Rounds of the four phases of one run.
struct Phases {
    built: PhaseStats,
    inproc: PhaseStats,
    bulk: PhaseStats,
    point: PhaseStats,
}

impl Phases {
    /// The phase the workload repeats.
    fn own(&self, workload: Workload) -> &PhaseStats {
        match workload {
            Workload::BuildWeighted => &self.built,
            Workload::InprocBatch => &self.inproc,
            Workload::SocketBulk => &self.bulk,
            Workload::SocketPoint => &self.point,
        }
    }
}

/// Sum over the served set of the per-oracle medians of `<stem>.<oracle>`.
fn sum_of_medians(report: &Report, stem: &str) -> f64 {
    spec::SERVED
        .iter()
        .map(|o| median(report.samples(&format!("{stem}.{o}"))))
        .sum()
}

/// The whole-run figures that are mixes over the served set, and `cpu_s`.
fn whole_run_figures(opts: &Options, phases: &Phases, fleet_cpu_s: f64, report: &mut Report) {
    let members = spec::SERVED.len() as f64;
    report.push(
        "batch_qps",
        1e9 * members / sum_of_medians(report, "oracle.batch_ns"),
    );
    report.push(
        "batch_qps_mt",
        1e9 * members / sum_of_medians(report, "oracle.batch_mt_ns"),
    );
    report.push(
        "point_ns",
        sum_of_medians(report, "oracle.scalar_ns") / members,
    );
    let own_cpu_s = phases.own(opts.workload).cpu_s_per_round;
    report.push(
        "cpu_s",
        match opts.workload {
            // One build round is the served-set build plus one repeat round.
            Workload::BuildWeighted => fleet_cpu_s + own_cpu_s,
            _ => own_cpu_s,
        },
    );
}

/// The per-layer figures of the traced run that are derived from several
/// samples, span self times or server-side counters.
fn per_layer_figures(
    opts: &Options,
    env: &Env,
    phases: &Phases,
    point_net: net::NetMetrics,
    tr: &Tracer,
    report: &mut Report,
) {
    let members = spec::SERVED.len() as f64;
    let batch_ns = sum_of_medians(report, "oracle.batch_ns");
    let batch_mt_ns = sum_of_medians(report, "oracle.batch_mt_ns");
    let (bulk, point) = (&phases.bulk, &phases.point);
    let scale = env.inputs.scale;
    let pairs_per_round = members * scale.batch as f64;
    let totals = tr.self_totals();
    let per = |name: &str, unit_ns: f64, work: f64| -> Vec<f64> {
        totals
            .per_round(name, "")
            .into_iter()
            .map(|ns| ns / unit_ns / work)
            .collect()
    };
    let mean_of_medians = |report: &Report, stem: &str| sum_of_medians(report, stem) / members;

    // Schedule and kernel shares of the batch, on the mix.
    let schedule_ns = mean_of_medians(report, "_schedule_build_ns");
    let scatter_ns = mean_of_medians(report, "_scatter_ns");
    let grouped_ns = mean_of_medians(report, "oracle.grouped_ns");
    report.push("pde_core.schedule_build_ns", schedule_ns);
    report.push("pde_core.scatter_ns", scatter_ns);
    report.push(
        "pde_core.schedule_groups",
        sum_of_medians(report, "_schedule_groups"),
    );
    report.push("oracle.mt_speedup", batch_ns / batch_mt_ns);
    report.push(
        "oracle.batch_unattributed_share",
        1.0 - (schedule_ns + grouped_ns + scatter_ns) * members / batch_ns,
    );

    // Serving layer.
    let serve_query_ns = sum_of_medians(report, "_serve_query_ns");
    report.push(
        "serve.query_overhead_ns",
        (serve_query_ns - batch_mt_ns) / members,
    );
    let admitted = Client::connect(env.admit.local_addr()).and_then(|mut c| c.stats());
    report.check(admitted.is_ok(), 1, || format!("admit stats: {admitted:?}"));
    if let Ok(stats) = admitted {
        let sum = |f: fn(&serve::BatcherStats) -> u64| -> f64 {
            stats.oracles.iter().map(|o| f(&o.batch)).sum::<u64>() as f64
        };
        let groups = sum(|b| b.groups).max(1.0);
        report.push("serve.batcher_occupancy", sum(|b| b.submissions) / groups);
        report.push(
            "serve.batcher_group_pairs",
            sum(|b| b.grouped_pairs) / groups,
        );
    }

    // Net, bulk frames.
    let bulk_net = env.bulk.metrics();
    let bulk_pairs = pairs_per_round * f64::from(bulk.rounds);
    report.push(
        "net.bulk_over_inproc",
        median(report.samples("socket_qps")) / (1e9 * members / serve_query_ns),
    );
    report.extend(
        "net.client_queue_ns",
        per("net.client_queue", 1.0, pairs_per_round),
    );
    report.extend(
        "net.client_recv_ns",
        per("net.client_recv", 1.0, pairs_per_round),
    );
    report.push("net.server_service_p50_ns", bulk_net.p50_service_ns as f64);
    report.push("net.server_service_p99_ns", bulk_net.p99_service_ns as f64);
    report.push(
        "net.bytes_in_per_pair",
        bulk_net.bytes_in as f64 / bulk_pairs,
    );
    report.push(
        "net.bytes_out_per_pair",
        bulk_net.bytes_out as f64 / bulk_pairs,
    );
    report.push(
        "net.bulk_cpu_ns",
        bulk.cpu_s_per_round * 1e9 / pairs_per_round,
    );

    // Net, point requests.
    let direct = members * scale.point_requests as f64;
    let admitted = members * scale.admit_requests as f64 * 2.0;
    report.push(
        "net.point_cpu_us",
        point.cpu_s_per_round * 1e6 / (direct + admitted),
    );
    report.extend(
        "net.point_client_queue_us",
        per("net.point_queue", 1e3, direct),
    );
    report.extend(
        "net.point_client_recv_us",
        per("net.point_recv", 1e3, direct),
    );
    report.push("net.point_service_p50_ns", point_net.p50_service_ns as f64);
    report.push("net.point_service_p99_ns", point_net.p99_service_ns as f64);
    let direct_total = direct * f64::from(point.rounds);
    report.push(
        "net.point_bytes_in_per_req",
        point_net.bytes_in as f64 / direct_total,
    );
    report.push(
        "net.point_bytes_out_per_req",
        point_net.bytes_out as f64 / direct_total,
    );
    let rtts = report.samples("_admit_rtt_us").to_vec();
    socket::push_percentiles(
        report,
        ["net.admit_rtt_p50_us", "net.admit_rtt_p99_us"],
        &rtts,
    );

    let own = phases.own(opts.workload);
    report.push(
        "bench.trace_overhead_share",
        median(&own.recorded_s) / median(&own.plain_s) - 1.0,
    );
}

/// Runs, prints the table, writes the result file (and the trace), and
/// returns the driver's line plus whether anything failed.
fn run_and_report(opts: &Options) -> (String, bool) {
    let (mut report, tr) = run(opts);
    let id = RunId {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.traced,
    };
    let rows = report::collect(&mut report, opts.traced);
    let mut all_rows = rows.clone();
    all_rows.extend(report::also_measured(&report, opts.traced));
    print!("{}", report::table(id, &all_rows));
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    let stem = format!(
        "{}-s{}-t{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.traced)
    );
    let write = |name: String, text: String| {
        if let Err(e) = std::fs::write(opts.out.join(&name), text) {
            eprintln!("cannot write {name}: {e}");
        }
    };
    let prefix = opts.scale.file_prefix;
    write(
        format!("{prefix}result-{stem}.json"),
        report::result_json(id, &report, &all_rows),
    );
    if opts.traced {
        write(
            format!("{prefix}trace-{}.json", opts.workload.name()),
            tr.to_json(),
        );
    }
    (report::driver_line(&report, &rows), report.failed > 0)
}

const USAGE: &str = "usage:
  benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
      one workload: prints its table, then the result as one JSON line;
      no --workload: all four, untraced then traced (or only the --trace given)
  benchmark smoke [--seed S] [--out DIR]   tiny sizes, same code paths and checks
  benchmark compare A B    A, B: result files or directories of them
  benchmark spec           print BENCHMARK.json
workloads: build-weighted inproc-batch socket-bulk socket-point";

/// The command line.
pub fn cli(args: Vec<String>) -> ExitCode {
    let fail = |message: &str| {
        eprintln!("{message}\n{USAGE}");
        ExitCode::from(2)
    };
    let Some((command, rest)) = args.split_first() else {
        return fail("missing command");
    };
    match command.as_str() {
        "spec" => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        "compare" => match rest {
            [a, b] => compare::cli(a.as_ref(), b.as_ref()),
            _ => fail("compare takes two paths"),
        },
        "run" | "smoke" => {
            let smoke = command == "smoke";
            let mut workload = None;
            let mut trace = None;
            let mut opts = Options {
                workload: Workload::BuildWeighted,
                seed: 11,
                seconds: if smoke { 0.0 } else { spec::RUN_SECONDS as f64 },
                traced: false,
                scale: if smoke { Scale::smoke() } else { Scale::full() },
                min_rounds: if smoke { 2 } else { 3 },
                out: PathBuf::from("benchmark/out"),
            };
            let mut it = rest.iter().peekable();
            while let Some(flag) = it.next() {
                let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
                let parsed = match flag.as_str() {
                    "--workload" => value("a name").and_then(|v| {
                        workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                        Ok(())
                    }),
                    "--seed" => value("a number").and_then(|v| {
                        opts.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                        Ok(())
                    }),
                    "--seconds" => value("a number").and_then(|v| {
                        opts.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                        Ok(())
                    }),
                    "--out" => value("a directory").map(|v| opts.out = PathBuf::from(v)),
                    "--trace" => {
                        // `--trace`, `--trace 1` and `--trace 0` all parse.
                        trace = Some(match it.peek().map(|v| v.as_str()) {
                            Some("0") => {
                                it.next();
                                false
                            }
                            Some("1") => {
                                it.next();
                                true
                            }
                            _ => true,
                        });
                        Ok(())
                    }
                    other => Err(format!("unknown flag {other}")),
                };
                if let Err(message) = parsed {
                    return fail(&message);
                }
            }
            if let Err(e) = std::fs::create_dir_all(&opts.out) {
                return fail(&format!("cannot create {}: {e}", opts.out.display()));
            }
            let workloads = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            let modes = match trace {
                Some(traced) => vec![traced],
                None if workload.is_some() => vec![false],
                None => vec![false, true],
            };
            let mut any_failed = false;
            let mut last_line = String::new();
            for &traced in &modes {
                for &w in &workloads {
                    opts.workload = w;
                    opts.traced = traced;
                    let (line, failed) = run_and_report(&opts);
                    any_failed |= failed;
                    last_line = line;
                }
            }
            if workload.is_some() {
                println!("{last_line}");
            }
            if any_failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        other => fail(&format!("unknown command {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole pipeline at smoke size: every expected metric is
    /// measured, nothing fails, and a seed pins every digest.
    #[test]
    fn smoke_runs_measure_everything_and_repeat_exactly() {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let mut opts = Options {
            workload: Workload::SocketPoint,
            seed: 11,
            seconds: 0.0,
            traced: false,
            scale: Scale::smoke(),
            min_rounds: 2,
            out: out.clone(),
        };
        let (mut plain, spans) = run(&opts);
        assert!(spans.spans().is_empty());
        let rows = report::collect(&mut plain, false);
        assert_eq!(plain.failures, Vec::<String>::new());
        assert_eq!(rows.len(), spec::END_TO_END.len());
        assert!(rows.iter().all(|(_, _, s)| s.median > 0.0));

        opts.traced = true;
        opts.workload = Workload::InprocBatch;
        let (mut traced, spans) = run(&opts);
        let rows = report::collect(&mut traced, true);
        assert_eq!(traced.failures, Vec::<String>::new());
        assert_eq!(rows.len(), spec::per_layer().len());
        assert!(!spans.spans().is_empty());
        // Same seed: identical inputs and answers, traced or not.
        assert_eq!(plain.digests, traced.digests);
        for exact in ["congest.sim.rounds", "congest.sim.messages"] {
            assert_eq!(plain.median(exact), traced.median(exact));
        }

        opts.seed = 12;
        let (other, _) = run(&opts);
        assert_ne!(other.digests["inputs"], plain.digests["inputs"]);
        let _ = std::fs::remove_dir_all(&out);
    }
}
