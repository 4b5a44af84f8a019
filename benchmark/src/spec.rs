//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is rendered
//! from these tables (`benchmark spec`), and `compare` reads its bounds
//! from them, so the file, the runner and the comparison cannot drift.

use std::fmt::Write as _;

/// Seconds one run spends repeating its workload's own phase.
pub const RUN_SECONDS: u64 = 6;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (throughputs, speed-ups).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One of the four workloads: which phase of the pipeline a run repeats
/// for its time budget. Every run executes the whole pipeline once, so
/// every metric exists on every workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Build, snapshot and CONGEST-simulator work.
    BuildWeighted,
    /// In-process batch and scalar queries.
    InprocBatch,
    /// Large `EstimateMany` frames over one loopback connection.
    SocketBulk,
    /// 8-pair requests, direct and through the admission batcher.
    SocketPoint,
}

impl Workload {
    /// All workloads, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::BuildWeighted,
        Workload::InprocBatch,
        Workload::SocketBulk,
        Workload::SocketPoint,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildWeighted => "build-weighted",
            Workload::InprocBatch => "inproc-batch",
            Workload::SocketBulk => "socket-bulk",
            Workload::SocketPoint => "socket-point",
        }
    }

    /// Why the workload exists (one line, ≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BuildWeighted => "weighted partial-regime builds, v3 save/cold load and CONGEST-simulated builds repeat; kernel, serve and net run once as probes, so only build-side changes should move it",
            Workload::InprocBatch => "shuffled 262144-pair batches and a scalar stream on freshly re-loaded snapshots repeat: schedule + grouped kernel + scatter dominate, no socket; scalar bypasses the schedule",
            Workload::SocketBulk => "32768-pair frames, window 4, one loopback connection repeat: per-byte encode/decode/copy work sits beside the kernel; wire-bound on flooding, kernel-bound on truncated",
            Workload::SocketPoint => "8-pair requests repeat, pipelined direct (framing, syscalls, lease) and one-at-a-time through the admission Batcher: what helps bulk frames can hurt these, and only here admission wait shows",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An end-to-end metric: gated by `bound`, the share of the parent's
/// median by which it may get worse.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, emitted by every untraced run: the ones
/// whose run-to-run spread on the reference box stays well inside the
/// largest bound the contract allows. The other timed figures the issue
/// names are reported under the same names in the per-layer set (see
/// README, "noise protocol").
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.08),
    e2e("artifact_kib_per_node", "KiB", Better::Lower, 0.03),
    e2e("partial_kib_per_node", "KiB", Better::Lower, 0.04),
    e2e("admit_rps", "req/s", Better::Higher, 0.25),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The four full-coverage built oracles (`<b>` in metric names).
pub const BUILT: [&str; 4] = ["pde", "rtc", "compact", "truncated"];

/// The served set (`<o>` in metric names).
pub const SERVED: [&str; 6] = [
    "pde",
    "rtc",
    "compact",
    "truncated",
    "flooding",
    "pde_partial",
];

/// Open-loop offered rates, requests per second (`<r>` in metric names).
pub const OPEN_RATES: [(&str, u64); 3] = [("r5k", 5_000), ("r20k", 20_000), ("r40k", 40_000)];

/// Which family of suffixes a per-layer metric name expands over.
#[derive(Clone, Copy)]
enum Over {
    One,
    Built,
    BuiltAndPartial,
    Served,
    Rates,
}

use Better::{Higher, Lower};

/// Per-layer metrics, taken in the traced run: `(stem, unit, direction,
/// expansion)`, grouped by the layer (crate) they observe.
const PER_LAYER: &[(&str, &str, Better, Over)] = &[
    // whole-run figures too noisy on the reference box to gate
    ("cpu_s", "s", Lower, Over::One),
    ("build_s", "s", Lower, Over::One),
    ("sim_build_s", "s", Lower, Over::One),
    ("cold_load_ms", "ms", Lower, Over::One),
    ("batch_qps", "pairs/s", Higher, Over::One),
    ("batch_qps_mt", "pairs/s", Higher, Over::One),
    ("point_ns", "ns", Lower, Over::One),
    ("socket_qps", "pairs/s", Higher, Over::One),
    ("point_rps", "req/s", Higher, Over::One),
    // graphs
    ("graphs.gen_s", "s", Lower, Over::One),
    ("graphs.apsp_s", "s", Lower, Over::One),
    // sourcedetect, pde_core
    ("sourcedetect.native_detect_s", "s", Lower, Over::One),
    ("pde_core.run_pde_s", "s", Lower, Over::One),
    ("pde_core.run_pde_t1_s", "s", Lower, Over::One),
    // congest
    ("congest.sim.rounds", "count", Lower, Over::One),
    ("congest.sim.messages", "count", Lower, Over::One),
    ("congest.sim.msgs_per_s", "1/s", Higher, Over::One),
    // routing, compact, treeroute, spanner — through the oracle builder
    ("oracle.build_s", "s", Lower, Over::Built),
    ("oracle.build_t1_s", "s", Lower, Over::Built),
    ("oracle.build_auto_speedup", "ratio", Higher, Over::One),
    ("oracle.flatten_s.pde", "s", Lower, Over::One),
    ("oracle.build_partial_s", "s", Lower, Over::One),
    // oracle snapshot
    ("oracle.save_ms", "ms", Lower, Over::Built),
    ("oracle.load_ms", "ms", Lower, Over::Built),
    (
        "oracle.artifact_bytes",
        "bytes",
        Lower,
        Over::BuiltAndPartial,
    ),
    (
        "oracle.size_bits_ratio",
        "ratio",
        Lower,
        Over::BuiltAndPartial,
    ),
    ("oracle.partial.covered_share", "ratio", Higher, Over::One),
    // pde_core schedule
    ("pde_core.schedule_build_ns", "ns", Lower, Over::One),
    ("pde_core.scatter_ns", "ns", Lower, Over::One),
    ("pde_core.schedule_groups", "count", Lower, Over::One),
    // oracle kernel
    ("oracle.grouped_ns", "ns", Lower, Over::Served),
    ("oracle.batch_ns", "ns", Lower, Over::Served),
    ("oracle.batch_mt_ns", "ns", Lower, Over::Served),
    ("oracle.batch_sorted_ns", "ns", Lower, Over::Served),
    ("oracle.small_batch_ns", "ns", Lower, Over::Served),
    ("oracle.scalar_ns", "ns", Lower, Over::Served),
    ("oracle.mt_speedup", "ratio", Higher, Over::One),
    ("oracle.batch_unattributed_share", "ratio", Lower, Over::One),
    // serve
    ("serve.query_overhead_ns", "ns", Lower, Over::One),
    ("serve.batcher_submit_overhead_ns", "ns", Lower, Over::One),
    ("serve.batcher_occupancy", "ratio", Higher, Over::One),
    ("serve.batcher_group_pairs", "count", Higher, Over::One),
    // net, bulk frames
    ("net.bulk_qps", "pairs/s", Higher, Over::Served),
    ("net.bulk_over_inproc", "ratio", Higher, Over::One),
    ("net.client_queue_ns", "ns", Lower, Over::One),
    ("net.client_recv_ns", "ns", Lower, Over::One),
    ("net.server_service_p50_ns", "ns", Lower, Over::One),
    ("net.server_service_p99_ns", "ns", Lower, Over::One),
    ("net.bytes_in_per_pair", "bytes", Lower, Over::One),
    ("net.bytes_out_per_pair", "bytes", Lower, Over::One),
    ("net.bulk_cpu_ns", "ns", Lower, Over::One),
    // net, point requests
    ("net.point_cpu_us", "us", Lower, Over::One),
    ("net.point_client_queue_us", "us", Lower, Over::One),
    ("net.point_client_recv_us", "us", Lower, Over::One),
    ("net.point_service_p50_ns", "ns", Lower, Over::One),
    ("net.point_service_p99_ns", "ns", Lower, Over::One),
    ("net.point_bytes_in_per_req", "bytes", Lower, Over::One),
    ("net.point_bytes_out_per_req", "bytes", Lower, Over::One),
    ("net.single_rtt_p50_us", "us", Lower, Over::One),
    ("net.single_rtt_p99_us", "us", Lower, Over::One),
    ("net.admit_rtt_p50_us", "us", Lower, Over::One),
    ("net.admit_rtt_p99_us", "us", Lower, Over::One),
    ("net.open_p50_us", "us", Lower, Over::Rates),
    ("net.open_p99_us", "us", Lower, Over::Rates),
    ("net.open_late_max_us", "us", Lower, Over::Rates),
    // the harness itself
    ("bench.trace_overhead_share", "ratio", Lower, Over::One),
];

/// A per-layer metric: reported, never gated.
#[derive(Clone, Debug)]
pub struct PerLayer {
    /// Full metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Every per-layer metric name, expanded, in table order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for &(stem, unit, better, over) in PER_LAYER {
        let mut push = |name: String| out.push(PerLayer { name, unit, better });
        match over {
            Over::One => push(stem.to_string()),
            Over::Built => BUILT.iter().for_each(|b| push(format!("{stem}.{b}"))),
            Over::BuiltAndPartial => {
                BUILT.iter().for_each(|b| push(format!("{stem}.{b}")));
                push(format!("{stem}.pde_partial"));
            }
            Over::Served => SERVED.iter().for_each(|o| push(format!("{stem}.{o}"))),
            Over::Rates => OPEN_RATES
                .iter()
                .for_each(|(r, _)| push(format!("{stem}.{r}"))),
        }
    }
    out
}

/// Which direction is an improvement, for every metric of either set.
pub fn directions() -> std::collections::BTreeMap<String, Better> {
    let gated = END_TO_END.iter().map(|m| (m.name.to_string(), m.better));
    let layers = per_layer().into_iter().map(|m| (m.name, m.better));
    gated.chain(layers).collect()
}

/// The command the driver runs, before `--workload … --trace …`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [");
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = write!(
        out,
        "{}],\n  \"paths\": [\"benchmark\"],\n",
        command.join(", ")
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let _ = write!(out, "{}\n  ],\n  \"end_to_end\": [\n", rows.join(",\n"));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    let _ = write!(out, "{}\n  ],\n  \"per_layer\": [\n", rows.join(",\n"));
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    let _ = write!(out, "{}\n  ]\n}}\n", rows.join(",\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && names.insert(w.name().to_string()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name.to_string()));
            assert!((0.0..=0.25).contains(&m.bound));
            assert!(m.unit.len() <= 16);
        }
        for m in &layers {
            assert!(
                valid_name(&m.name) && names.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(m.unit.len() <= 16);
        }
        let directions = directions();
        assert_eq!(directions.get("batch_qps"), Some(&Better::Higher));
        assert_eq!(directions.get("setup_s"), Some(&Better::Lower));
        assert_eq!(directions.get("no.such.metric"), None);
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn rendered_file_parses_and_matches_the_repo_copy() {
        let rendered = benchmark_json();
        assert!(rendered.len() <= 64 * 1024);
        let doc = json::parse(&rendered).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let repo_copy = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&repo_copy).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk, rendered,
            "regenerate with `benchmark spec > BENCHMARK.json`"
        );
    }
}
