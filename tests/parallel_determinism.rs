//! Determinism of the parallel ladder: `run_pde` must produce *identical*
//! `lists`, `routes` and message/round metrics for every thread count, and
//! across repeated runs — the rungs are independent instances folded into
//! the merge tables by a commutative minimum as they finish, so scheduling
//! must be unobservable.

use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::WGraph;
use pde_repro::pde_core::{run_pde, BuildMode, PdeOutput, PdeParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run(g: &WGraph, sources: &[bool], threads: usize) -> PdeOutput {
    run_in(g, sources, threads, BuildMode::Simulated)
}

fn run_in(g: &WGraph, sources: &[bool], threads: usize, mode: BuildMode) -> PdeOutput {
    let params = PdeParams::new(8, 4, 0.25)
        .with_threads(threads)
        .with_mode(mode);
    run_pde(g, sources, &vec![false; g.len()], &params)
}

/// Full structural equality of two PDE outputs, including metrics.
fn assert_identical(a: &PdeOutput, b: &PdeOutput, what: &str) {
    assert_eq!(a.lists, b.lists, "{what}: lists differ");
    assert_eq!(a.routes, b.routes, "{what}: routes differ");
    assert_eq!(a.levels, b.levels, "{what}: ladders differ");
    assert_eq!(a.horizon, b.horizon, "{what}: horizons differ");
    // Rounds, messages, per-rung rounds and the Lemma 3.4 statistic.
    assert_eq!(a.metrics, b.metrics, "{what}: metrics differ");
}

#[test]
fn threads_do_not_change_outputs_on_random_graphs() {
    for seed in [3u64, 17, 40] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::gnp_connected(72, 0.1, Weights::Uniform { lo: 1, hi: 32 }, &mut rng);
        let sources: Vec<bool> = (0..g.len()).map(|i| i % 5 == 0).collect();
        let seq = run(&g, &sources, 1);
        for threads in [2, 4, 9] {
            let par = run(&g, &sources, threads);
            assert_identical(&seq, &par, &format!("seed {seed}, {threads} threads"));
        }
    }
}

#[test]
fn streamed_fold_is_thread_count_invariant_in_both_modes() {
    // A 14-rung ladder (w ≤ 32, ε = 0.25) on worker counts that divide
    // it, don't divide it, and exceed what the machine has: rungs finish
    // and fold in a different order every time, the output must not move.
    let mut rng = SmallRng::seed_from_u64(29);
    let g = gen::gnp_connected(80, 0.09, Weights::Uniform { lo: 1, hi: 32 }, &mut rng);
    let sources: Vec<bool> = (0..g.len()).map(|i| i % 3 != 2).collect();
    for mode in [BuildMode::Simulated, BuildMode::Native] {
        let seq = run_in(&g, &sources, 1, mode);
        assert!(seq.levels.len() >= 14, "{} rungs", seq.levels.len());
        for threads in [2, 3, 8] {
            let par = run_in(&g, &sources, threads, mode);
            assert_identical(&seq, &par, &format!("{mode:?}, {threads} threads"));
        }
    }
}

#[test]
fn repeated_runs_are_identical() {
    // Same inputs → same outputs, run to run, for both the sequential and
    // the parallel path (no hidden global state, no map-iteration order).
    let mut rng = SmallRng::seed_from_u64(8);
    let g = gen::gnp_connected(64, 0.12, Weights::Uniform { lo: 1, hi: 48 }, &mut rng);
    let sources: Vec<bool> = (0..g.len()).map(|i| i % 3 == 0).collect();
    for threads in [1, 4] {
        let a = run(&g, &sources, threads);
        let b = run(&g, &sources, threads);
        assert_identical(&a, &b, &format!("repeat with {threads} threads"));
    }
}

#[test]
fn auto_threads_matches_sequential() {
    // threads = 0 (available_parallelism) must agree with threads = 1.
    let mut rng = SmallRng::seed_from_u64(21);
    let g = gen::grid(6, 6, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
    let sources: Vec<bool> = (0..g.len()).map(|i| i % 4 == 1).collect();
    let auto = run(&g, &sources, 0);
    let seq = run(&g, &sources, 1);
    assert_identical(&auto, &seq, "auto vs sequential");
}

#[test]
fn oracle_batch_queries_are_thread_count_invariant() {
    // The serving-side analogue of the ladder determinism: the
    // estimate_many_with pair shards write into disjoint, order-preserving
    // output regions, so every thread count (and repeated runs at the same
    // count) must produce identical answer vectors on every backend.
    use pde_repro::graphs::NodeId;
    use pde_repro::oracle::{Backend, DistanceOracle, OracleBuilder};
    use rand::Rng;

    let mut rng = SmallRng::seed_from_u64(0xBA7C4);
    let g = gen::gnp_connected(48, 0.12, Weights::Uniform { lo: 1, hi: 24 }, &mut rng);
    let n = g.len() as u32;
    // Big enough that the per-worker shard floor (~1k pairs) still yields
    // several workers — the parallel path must actually run here.
    let pairs: Vec<(NodeId, NodeId)> = (0..8192)
        .map(|_| {
            (
                NodeId(rng.random_range(0..n)),
                NodeId(rng.random_range(0..n)),
            )
        })
        .collect();
    for backend in [
        Backend::Pde,
        Backend::Rtc,
        Backend::Truncated,
        Backend::Flooding,
    ] {
        let oracle = OracleBuilder::new(backend).seed(5u64).k(2).build(&g);
        let mut seq = Vec::new();
        oracle.estimate_many_with(&pairs, &mut seq, 1);
        for threads in [2usize, 4, 9, 0] {
            let mut par = Vec::new();
            oracle.estimate_many_with(&pairs, &mut par, threads);
            assert_eq!(seq, par, "{backend}: threads={threads} changed answers");
        }
        let mut again = Vec::new();
        oracle.estimate_many_with(&pairs, &mut again, 4);
        assert_eq!(seq, again, "{backend}: repeat at threads=4 diverged");
    }
}
