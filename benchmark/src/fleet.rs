//! The served set: six oracles built once per run with `OracleBuilder`
//! defaults, saved as v3 snapshots and re-opened with `load_path`, so
//! every query phase runs on the zero-copy views a server really serves.
//! Building it is the first build round of every run, and the
//! correctness gate checks every answer here, once, against exact
//! distances; every later path is compared with these answers.

use crate::inputs::{digest, Inputs, Pairs, EPS};
use crate::report::Report;
use crate::trace::Tracer;
use graphs::{NodeId, WGraph};
use oracle::{is_covered, Backend, DistanceOracle, Oracle, OracleBuilder};
use std::path::{Path, PathBuf};

/// One member of the served set.
#[derive(Clone, Copy, Debug)]
pub struct Member {
    /// Served name (and metric-name suffix).
    pub name: &'static str,
    /// Backend that answers it.
    pub backend: Backend,
    /// Whether it is the partial-regime PDE (σ ≪ n, h ≪ n, S ⊂ V).
    pub partial: bool,
    /// Whether it counts towards `build_s` / `artifact_kib_per_node` /
    /// `cold_load_ms` (the four sampled schemes).
    pub built: bool,
}

const fn member(name: &'static str, backend: Backend, partial: bool, built: bool) -> Member {
    Member {
        name,
        backend,
        partial,
        built,
    }
}

/// The served set, in `spec::SERVED` order.
pub const MEMBERS: [Member; 6] = [
    member("pde", Backend::Pde, false, true),
    member("rtc", Backend::Rtc, false, true),
    member("compact", Backend::Compact, false, true),
    member("truncated", Backend::Truncated, false, true),
    member("flooding", Backend::Flooding, false, false),
    member("pde_partial", Backend::Pde, true, false),
];

impl Member {
    /// The graph this member is built on.
    pub fn graph<'a>(&self, inputs: &'a Inputs) -> &'a WGraph {
        if self.partial {
            &inputs.partial
        } else {
            &inputs.full
        }
    }

    /// The query pairs this member is asked.
    pub fn pairs<'a>(&self, inputs: &'a Inputs) -> &'a Pairs {
        if self.partial {
            &inputs.partial_pairs
        } else {
            &inputs.full_pairs
        }
    }

    /// The builder: `OracleBuilder` defaults (`Native`, `threads = auto`,
    /// `eps 0.25`, `k 2`) plus the run's seed, and the partial knobs for
    /// `pde_partial`.
    pub fn builder(&self, inputs: &Inputs) -> OracleBuilder {
        let b = OracleBuilder::new(self.backend).seed(inputs.oracle_seed);
        if self.partial {
            b.sigma(inputs.scale.sigma)
                .horizon(inputs.scale.horizon)
                .sources(inputs.partial_truth.flags.clone())
        } else {
            b
        }
    }
}

/// A served oracle: its snapshot on disk and the gate-checked answers
/// every other path must reproduce.
pub struct Served {
    /// Which member.
    pub member: Member,
    /// The v3 snapshot file.
    pub path: PathBuf,
    /// Size of the snapshot file.
    pub bytes: u64,
    /// Wall-clock seconds of `OracleBuilder::build`.
    pub build_s: f64,
    /// `estimate` of the *built* oracle on every pair, in pair order.
    pub expected: Vec<u64>,
}

/// Scalar answers of `oracle` on `pairs`.
pub fn scalar_answers(oracle: &Oracle, pairs: &[(NodeId, NodeId)]) -> Vec<u64> {
    pairs.iter().map(|&(u, v)| oracle.estimate(u, v)).collect()
}

/// The correctness gate. Full coverage: `wd ≤ est ≤ stretch_bound()·wd`
/// for every pair. Partial: every covered answer is sound (`est ≥ wd`),
/// and every pair Def. 2.2 makes a promise about is covered and within
/// `(1+ε)`. Returns the share of pairs covered.
pub fn gate(
    inputs: &Inputs,
    member: Member,
    oracle: &Oracle,
    answers: &[u64],
    report: &mut Report,
) -> f64 {
    let pairs = member.pairs(inputs);
    let bound = oracle.stretch_bound();
    let (mut bad, mut covered) = (0u64, 0u64);
    let mut first_bad = None;
    for (&(u, v), &est) in pairs.iter().zip(answers) {
        let ok = if member.partial {
            let wd = inputs.partial_truth.dist(u, v);
            let promised = inputs.partial_truth.promised(u, v, inputs.scale.horizon);
            if is_covered(est) {
                covered += 1;
                est >= wd && (!promised || est as f64 <= (1.0 + EPS) * wd as f64 + 1e-9)
            } else {
                !promised
            }
        } else {
            let wd = inputs.full_truth.dist(u, v);
            covered += u64::from(is_covered(est));
            est >= wd && est as f64 <= bound * wd as f64 + 1e-9
        };
        if !ok {
            bad += 1;
            first_bad.get_or_insert((u, v, est));
        }
    }
    report.check(true, pairs.len() as u64 - bad, String::new);
    report.check(bad == 0, bad, || {
        format!(
            "{}: {bad} answers outside the guarantee, first {first_bad:?}",
            member.name
        )
    });
    covered as f64 / pairs.len().max(1) as f64
}

/// Builds, saves, re-loads and gates one member. Records the per-layer
/// build / save / load / size metrics.
pub fn build_member(
    inputs: &Inputs,
    member: Member,
    dir: &Path,
    report: &mut Report,
    tr: &mut Tracer,
) -> Served {
    let name = member.name;
    let g = member.graph(inputs);
    let pairs = member.pairs(inputs);
    let builder = member.builder(inputs);
    let (built, build_ns) = tr.span("oracle.build", name, 0, |_| builder.build(g));
    let path = dir.join(format!("{name}.v3"));
    let (saved, save_ns) = tr.span("oracle.save_path_v3", name, 0, |_| {
        built.save_path_v3(&path)
    });
    report.check(saved.is_ok(), 1, || {
        format!("{name}: save failed: {saved:?}")
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

    let expected = scalar_answers(&built, pairs);
    let covered_share = gate(inputs, member, &built, &expected, report);
    report
        .digests
        .insert(format!("{name}.answers"), digest(expected.iter().copied()));

    // Built vs re-loaded: the loaded view must answer byte-identically.
    let view = Oracle::load_path(&path).expect("re-open the snapshot just written");
    let mut reloaded = Vec::new();
    view.estimate_many_with(pairs, &mut reloaded, 1);
    report.check(reloaded == expected, pairs.len() as u64, || {
        format!("{name}: re-loaded snapshot answers differ from the built oracle")
    });

    let build_s = build_ns as f64 / 1e9;
    if member.partial {
        report.push("oracle.build_partial_s", build_s);
        report.push("oracle.partial.covered_share", covered_share);
    }
    if member.built {
        report.push(format!("oracle.build_s.{name}"), build_s);
        report.push(format!("oracle.save_ms.{name}"), save_ns as f64 / 1e6);
    }
    if member.built || member.partial {
        report.push(format!("oracle.artifact_bytes.{name}"), bytes as f64);
        report.push(
            format!("oracle.size_bits_ratio.{name}"),
            8.0 * bytes as f64 / built.size_bits().max(1) as f64,
        );
    }
    Served {
        member,
        path,
        bytes,
        build_s,
        expected,
    }
}

/// The whole served set.
pub struct Fleet {
    /// Members in `MEMBERS` order.
    pub served: Vec<Served>,
}

impl Fleet {
    /// Builds every member (the run's first build round) and records the
    /// end-to-end build and size metrics.
    pub fn build(inputs: &Inputs, dir: &Path, report: &mut Report, tr: &mut Tracer) -> Fleet {
        let served: Vec<Served> = MEMBERS
            .iter()
            .map(|&m| build_member(inputs, m, dir, report, tr))
            .collect();
        let built: Vec<&Served> = served.iter().filter(|s| s.member.built).collect();
        report.push("build_s", built.iter().map(|s| s.build_s).sum());
        let kib_per_node = |s: &Served, n: usize| s.bytes as f64 / 1024.0 / n as f64;
        report.push(
            "artifact_kib_per_node",
            built
                .iter()
                .map(|s| kib_per_node(s, inputs.scale.n_full))
                .sum::<f64>()
                / built.len() as f64,
        );
        let partial = served.iter().find(|s| s.member.partial).expect("partial");
        report.push(
            "partial_kib_per_node",
            kib_per_node(partial, inputs.scale.n_partial),
        );
        Fleet { served }
    }

    /// Fresh `load_path` views of every snapshot, so a round's
    /// allocation placement is re-sampled.
    pub fn reload(&self) -> Vec<Oracle> {
        self.served
            .iter()
            .map(|s| Oracle::load_path(&s.path).expect("re-open a served snapshot"))
            .collect()
    }
}
