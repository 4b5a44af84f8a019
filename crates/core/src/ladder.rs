//! The reusable PDE **ladder kernel**: one description of the
//! rung-ladder semantics (Theorem 3.3), executable by two engines.
//!
//! [`run_pde`](crate::run_pde) used to be welded to the CONGEST round
//! loop. This module splits the *what* from the *how*:
//!
//! * [`LadderSpec`] describes a `(1+ε)`-approximate `(S, h, σ)`-estimation
//!   run — the integer rung ladder, the per-rung hop horizon `h'`, the
//!   list size σ and the optional message cap — as pure data.
//! * [`run_rung`] executes one rung in a [`BuildMode`]:
//!   [`BuildMode::Simulated`] runs the Lenzen–Peleg CONGEST program on
//!   the subdivided topology through `congest::Runtime` (the
//!   paper-faithful round/message measurement);
//!   [`BuildMode::Native`] runs the centralized σ-budgeted bucket search
//!   of [`sourcedetect::native_solve`] and charges no rounds.
//!
//! # The determinism contract
//!
//! Both engines produce **byte-identical artifacts** (lists and routing
//! archives, and therefore identical scheme snapshots and query answers):
//! the artifact is defined as the *canonical instant-pipelining fixpoint*
//! of the detection algorithm (see `sourcedetect::native` for the
//! semantics and the argument). In `Simulated` mode the rung still runs
//! the full CONGEST simulation and its rounds/messages/broadcast counts
//! are what the metrics report, but the artifact is read from the
//! canonical kernel; a `debug_assert` cross-checks that the simulated
//! lists match the canonical ones on every rung (they provably do — both
//! equal the exact top-σ lists).
//!
//! # A rung is its lists plus one neighbour pass
//!
//! [`run_rung`] returns a [`SolvedRung`]: the kernel's lists
//! (`min(σ, |S|)` slots of 8 B per node) and announcement counts, plus
//! the engine's per-node broadcast counts and metrics. A node's archive
//! row is the best `(dist + delay, port)` per source over its
//! neighbours' announced list prefixes, so [`SolvedRung::for_each_row`]
//! computes it in one pass over the node's arcs and hands it, with the
//! node's list, to a visitor. The rung merge of
//! [`run_pde`](crate::run_pde) folds a rung and drops it without a
//! whole-rung archive or a `DetectionOutput` ever being built.

use crate::rounding::subdivision_len;
use congest::{Metrics, Port, Topology};
use sourcedetect::{
    native_solve, run_detection, DetectParams, DetectionOutput, NativeSolution, SourceSpace,
};

/// How a build executes: round-accurate CONGEST simulation, or the
/// centralized native engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BuildMode {
    /// Execute every distributed phase on `congest::Runtime` and charge
    /// paper-faithful rounds and messages. The measurement path.
    #[default]
    Simulated,
    /// Execute the same staged pipeline centrally (bounded multi-source
    /// Dijkstra rungs, locally computed coordination/labeling); charges
    /// zero rounds and is the fast path for serving. Artifacts are
    /// byte-identical to `Simulated` builds.
    Native,
}

impl BuildMode {
    /// Stable lowercase name (used in tables).
    pub fn name(self) -> &'static str {
        match self {
            BuildMode::Simulated => "simulated",
            BuildMode::Native => "native",
        }
    }
}

/// A fully resolved ladder run description: which rungs to execute and
/// the per-rung detection parameters.
#[derive(Clone, Debug)]
pub struct LadderSpec {
    /// The integer rung values `b` (see [`crate::rounding::level_ladder`]).
    pub levels: Vec<u64>,
    /// The per-rung hop horizon `h'` (delay hops).
    pub horizon: u64,
    /// List size σ.
    pub sigma: usize,
    /// Optional per-node broadcast cap (Lemma 3.4 experiments).
    pub msg_cap: Option<u64>,
    /// Run rungs for their exact theoretical round budget (metrics only;
    /// never changes artifacts).
    pub exact_rounds: bool,
}

impl LadderSpec {
    /// The per-rung detection parameters.
    pub fn detect_params(&self) -> DetectParams {
        DetectParams {
            h: self.horizon,
            sigma: self.sigma,
            msg_cap: self.msg_cap,
            exact_rounds: self.exact_rounds,
        }
    }
}

/// One executed rung: its subdivided topology and the canonical
/// kernel's lists and announcement counts, from which
/// [`SolvedRung::for_each_row`] derives the archive, plus the engine's
/// measurements.
pub struct SolvedRung {
    /// The subdivided topology the rung ran on.
    topo: Topology,
    solution: NativeSolution,
    /// Per-node broadcast counts: simulated counts, or the
    /// idealized-schedule announcement counts in `Native` mode.
    pub msgs_per_node: Vec<u64>,
    /// The engine's metrics (zeroed in `Native` mode).
    pub metrics: Metrics,
    #[cfg(test)]
    _alive: residency::Alive,
}

impl SolvedRung {
    /// Visits the rung's canonical artifact node by node; see
    /// [`NativeSolution::for_each_row`] for the row shapes.
    pub fn for_each_row(&self, visit: impl FnMut(usize, &[(u32, u32)], &[(u32, u32, Port)])) {
        self.solution.for_each_row(&self.topo, visit);
    }
}

/// Executes one ladder rung (rung value `b`) on the base topology in the
/// given mode. Row indices of the result are into
/// `SourceSpace::new(sources, tags)`.
pub fn run_rung(
    topo: &Topology,
    b: u64,
    sources: &[bool],
    tags: &[bool],
    detect: &DetectParams,
    mode: BuildMode,
) -> SolvedRung {
    #[cfg(test)]
    let _alive = residency::Alive::enter(sources);
    let level_topo = topo.with_delays(|w| subdivision_len(w, b));
    let space = SourceSpace::new(sources, tags);
    let (solution, msgs_per_node, metrics) = match mode {
        BuildMode::Native => {
            let solution = native_solve(&level_topo, &space, detect);
            let msgs = solution.msgs_per_node().to_vec();
            (solution, msgs, Metrics::default())
        }
        BuildMode::Simulated => {
            // The simulated run is the measurement; its lists only feed the
            // debug cross-check below.
            let DetectionOutput {
                lists: sim_lists,
                msgs_per_node,
                metrics,
            } = run_detection(&level_topo, sources, tags, detect);
            let solution = native_solve(&level_topo, &space, detect);
            if cfg!(debug_assertions) {
                solution.for_each_row(&level_topo, |v, list, _| {
                    let canonical = list.iter().map(|&(dist, si)| space.entry(dist, si));
                    assert!(
                        canonical.eq(sim_lists[v].iter().copied()),
                        "simulated list of node {v} diverged from the canonical fixpoint (rung b={b})"
                    );
                });
            }
            (solution, msgs_per_node, metrics)
        }
    };
    SolvedRung {
        topo: level_topo,
        solution,
        msgs_per_node,
        metrics,
        #[cfg(test)]
        _alive,
    }
}

/// Test-only gauge of how many rungs are alive at once: [`run_rung`]
/// enters it before the search state is allocated and the returned
/// [`SolvedRung`] leaves it on drop. Only rungs over the probed `sources`
/// slice are counted, so tests running concurrently in this process
/// don't disturb a measurement.
#[cfg(test)]
pub(crate) mod residency {
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    static PROBE: AtomicUsize = AtomicUsize::new(0);
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    pub(crate) struct Alive(bool);

    impl Alive {
        pub(crate) fn enter(sources: &[bool]) -> Self {
            let counted = PROBE.load(SeqCst) == sources.as_ptr() as usize;
            if counted {
                PEAK.fetch_max(LIVE.fetch_add(1, SeqCst) + 1, SeqCst);
            }
            Alive(counted)
        }
    }

    impl Drop for Alive {
        fn drop(&mut self) {
            if self.0 {
                LIVE.fetch_sub(1, SeqCst);
            }
        }
    }

    /// Runs `f` and returns the most rungs over `sources` that were alive
    /// at any one time during it. One probe at a time: the statics are
    /// shared.
    pub(crate) fn peak_during(sources: &[bool], f: impl FnOnce()) -> usize {
        PEAK.store(0, SeqCst);
        PROBE.store(sources.as_ptr() as usize, SeqCst);
        f();
        PROBE.store(0, SeqCst);
        assert_eq!(LIVE.load(SeqCst), 0, "every counted rung was dropped");
        PEAK.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rows = Vec<(Vec<(u32, u32)>, Vec<(u32, u32, Port)>)>;

    fn rows(rung: &SolvedRung) -> Rows {
        let mut out = Rows::new();
        rung.for_each_row(|_, list, archive| out.push((list.to_vec(), archive.to_vec())));
        out
    }

    #[test]
    fn modes_produce_identical_artifacts_per_rung() {
        let topo = Topology::from_edges(
            7,
            &[
                (0, 1, 3),
                (1, 2, 5),
                (2, 3, 2),
                (3, 4, 7),
                (4, 5, 1),
                (5, 6, 4),
                (0, 6, 9),
            ],
        )
        .unwrap();
        let sources = [true, false, true, false, true, false, false];
        let tags = [false, false, true, false, false, false, false];
        let detect = DetectParams {
            h: 9,
            sigma: 2,
            msg_cap: None,
            exact_rounds: false,
        };
        for b in [1u64, 2, 4] {
            let sim = run_rung(&topo, b, &sources, &tags, &detect, BuildMode::Simulated);
            let nat = run_rung(&topo, b, &sources, &tags, &detect, BuildMode::Native);
            assert_eq!(rows(&sim), rows(&nat), "b={b}");
            assert!(sim.metrics.rounds > 0, "simulated mode must charge rounds");
            assert_eq!(nat.metrics.rounds, 0, "native mode charges no rounds");
        }
    }
}
