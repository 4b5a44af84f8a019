//! E12 — the build engine: wall-clock build time of every backend under
//! `BuildMode::Simulated` vs `BuildMode::Native`, with the byte-identity
//! check over canonical artifacts.
//!
//! This is the workload recorded in `BENCH_builds.json`: connected
//! *unit-weight* G(n, p) with average degree ≈ 6 (the E11 graph family,
//! seed `0xE12`), `OracleBuilder` defaults at `k = 2`, median of
//! [`E12_RUNS`] builds per engine so warmup noise does not land in the
//! recorded numbers. Reproduce with
//! `cargo run --release -p bench --bin experiments -- builds`
//! (or `-- builds --smoke` for the tiny CI variant, which asserts
//! Native == Simulated canonical artifact bytes and query digests for all
//! 8 backends at threads ∈ {1, 2, 4} on the *weighted* G(n, p), whose
//! multi-rung ladder none of the three worker counts leaves idle).

use crate::table::{f, Fnv1a, Table};
use crate::workloads;
use graphs::NodeId;
use oracle::{Backend, BuildMode, DistanceOracle, Oracle, OracleBuilder};
use std::time::Instant;

/// The seed of the recorded benchmark workload.
pub const E12_SEED: u64 = 0xE12;

/// Timed builds per engine; the median is recorded.
pub const E12_RUNS: usize = 3;

/// One measured backend at one size.
#[derive(Clone, Debug)]
pub struct BuildRun {
    /// The backend built.
    pub backend: Backend,
    /// Number of nodes.
    pub n: usize,
    /// Median simulated build milliseconds (threads = auto).
    pub sim_ms: f64,
    /// Median native build milliseconds at `threads = 1`.
    pub native_t1_ms: f64,
    /// Median native build milliseconds at `threads = 0` (auto).
    pub native_auto_ms: f64,
    /// `sim_ms / native_auto_ms`.
    pub speedup: f64,
    /// FNV-1a digest over the canonical artifact bytes (identical for
    /// every engine and thread count, by the parity contract).
    pub artifact_digest: u64,
}

fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Fnv1a::new();
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        d.mix(u64::from_le_bytes(w));
    }
    d.finish()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn build(
    backend: Backend,
    g: &graphs::WGraph,
    seed: u64,
    mode: BuildMode,
    threads: usize,
) -> Oracle {
    OracleBuilder::new(backend)
        .seed(seed)
        .k(2)
        .build_mode(mode)
        .threads(threads)
        .build(g)
}

/// Builds `backend` [`E12_RUNS`] times per engine on the canonical E12
/// workload and returns the medians plus the shared artifact digest.
///
/// # Panics
///
/// Panics if the engines' canonical artifacts ever differ — the parity
/// contract is asserted on every run, not only in the smoke.
pub fn e12_run(backend: Backend, n: usize, seed: u64) -> BuildRun {
    let g = workloads::gnp_unit(n, seed);
    let timed = |mode: BuildMode, threads: usize| -> (f64, Oracle) {
        let mut times = Vec::with_capacity(E12_RUNS);
        let mut last = None;
        for _ in 0..E12_RUNS {
            let t0 = Instant::now();
            let o = build(backend, &g, seed, mode, threads);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            last = Some(o);
        }
        (median(times), last.expect("E12_RUNS >= 1"))
    };
    let (sim_ms, sim) = timed(BuildMode::Simulated, 0);
    let (native_t1_ms, nat1) = timed(BuildMode::Native, 1);
    let (native_auto_ms, nat) = timed(BuildMode::Native, 0);

    let sim_bytes = sim.artifact_bytes();
    let artifact_digest = digest_bytes(&sim_bytes);
    for (label, o) in [("native t1", &nat1), ("native auto", &nat)] {
        assert_eq!(
            o.artifact_bytes(),
            sim_bytes,
            "{backend} n={n}: {label} artifact diverged from simulated"
        );
    }
    BuildRun {
        backend,
        n,
        sim_ms,
        native_t1_ms,
        native_auto_ms,
        speedup: sim_ms / native_auto_ms.max(1e-9),
        artifact_digest,
    }
}

fn push_row(t: &mut Table, r: &BuildRun) {
    t.row(vec![
        r.backend.name().to_string(),
        r.n.to_string(),
        f(r.sim_ms),
        f(r.native_t1_ms),
        f(r.native_auto_ms),
        f(r.speedup),
        format!("{:016x}", r.artifact_digest),
    ]);
}

/// The E12 table: every backend at the given sizes; when `headline` is
/// set, adds the `BENCH_builds.json` rows (n = 4096 for rtc, compact and
/// truncated — the distributed schemes the acceptance bar tracks — plus
/// pde for context).
pub fn e12_builds(sizes: &[usize], headline: bool, seed: u64) -> Table {
    let mut t = Table::new(
        "E12 (build engine): simulated vs native build_ms on unit-weight G(n, ~6/n), k=2, median of 3",
        &[
            "backend", "n", "sim_ms", "native_t1_ms", "native_ms", "speedup", "artifact",
        ],
    );
    for &n in sizes {
        for backend in Backend::ALL {
            let r = e12_run(backend, n, seed);
            push_row(&mut t, &r);
        }
    }
    if headline {
        for backend in [
            Backend::Pde,
            Backend::Rtc,
            Backend::Compact,
            Backend::Truncated,
        ] {
            let r = e12_run(backend, 4096, seed);
            push_row(&mut t, &r);
        }
    }
    t
}

/// CI smoke: builds every backend at a tiny size under both engines and
/// threads ∈ {1, 2, 4}, asserting canonical-artifact byte identity and
/// identical batch answers — the cheap always-on version of
/// `tests/build_parity.rs`. The graph is weighted (w ≤ 32, a 14-rung
/// ladder at the default ε), so the worker counts include ones that do
/// and do not divide the ladder and rungs fold in varying orders.
///
/// # Panics
///
/// Panics loudly on any divergence (that is the point of the smoke).
pub fn e12_smoke(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E12 smoke: native == simulated canonical artifacts, threads ∈ {1, 2, 4}",
        &["backend", "bytes", "artifact", "checks"],
    );
    let g = workloads::gnp(n, seed);
    let pairs: Vec<(NodeId, NodeId)> = (0..n as u32)
        .flat_map(|u| (0..n as u32).map(move |v| (NodeId(u), NodeId(v))))
        .collect();
    for backend in Backend::ALL {
        let reference = build(backend, &g, seed, BuildMode::Simulated, 1);
        let bytes = reference.artifact_bytes();
        let mut want = Vec::new();
        reference.estimate_many(&pairs, &mut want);
        for (mode, threads) in [
            (BuildMode::Simulated, 2),
            (BuildMode::Simulated, 4),
            (BuildMode::Native, 1),
            (BuildMode::Native, 2),
            (BuildMode::Native, 4),
        ] {
            let o = build(backend, &g, seed, mode, threads);
            assert_eq!(
                o.artifact_bytes(),
                bytes,
                "{backend}: {mode:?} threads={threads} artifact diverged"
            );
            let mut got = Vec::new();
            o.estimate_many(&pairs, &mut got);
            assert_eq!(
                got, want,
                "{backend}: {mode:?} threads={threads} answers diverged"
            );
        }
        t.row(vec![
            backend.name().to_string(),
            bytes.len().to_string(),
            format!("{:016x}", digest_bytes(&bytes)),
            "sim==native, t∈{1,2,4} identical".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_run_reports_parity_and_speedup_fields() {
        let r = e12_run(Backend::Rtc, 48, E12_SEED);
        assert!(r.sim_ms > 0.0 && r.native_t1_ms > 0.0 && r.native_auto_ms > 0.0);
        assert!(r.speedup > 0.0);
        assert_ne!(r.artifact_digest, 0);
    }

    #[test]
    fn e12_smoke_passes_at_tiny_size() {
        let t = e12_smoke(20, E12_SEED);
        assert_eq!(t.rows.len(), Backend::ALL.len());
    }
}
