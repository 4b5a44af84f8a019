//! Ablations for the design choices `pde_core`'s crate docs call out
//! ("Deviations from the paper"): the ε / round trade-off of the weight
//! ladder, quiescence versus the theoretical round budget, and the level
//! structure of a PDE run.

use pde_repro::graphs::algo::apsp;
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::pde_core::rounding::{horizon, level_ladder};
use pde_repro::pde_core::{approx_apsp, run_pde, PdeParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn graph(seed: u64, hi: u64) -> pde_repro::graphs::WGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    gen::gnp_connected(24, 0.2, Weights::Uniform { lo: 1, hi }, &mut rng)
}

#[test]
fn eps_trades_rounds_for_accuracy() {
    // Coarser ε ⇒ shorter horizons and fewer ladder rungs ⇒ fewer rounds;
    // accuracy bound loosens accordingly. Both directions must hold.
    let g = graph(1, 200);
    let exact = apsp(&g);
    let coarse = approx_apsp(&g, 1.0);
    let fine = approx_apsp(&g, 0.125);
    assert!(
        coarse.rounds() < fine.rounds(),
        "coarser eps must be cheaper: {} vs {}",
        coarse.rounds(),
        fine.rounds()
    );
    assert!(coarse.max_stretch(&exact) <= 2.0 + 1e-9);
    assert!(fine.max_stretch(&exact) <= 1.125 + 1e-9);
}

#[test]
fn ladder_density_follows_eps() {
    // The integer ladder has Θ(log_{1+ε} w_max) rungs: finer ε ⇒ more
    // rungs ⇒ more detection instances (the log n/ε factor of Cor 3.5).
    let coarse = level_ladder(1.0, 10_000).len();
    let fine = level_ladder(0.1, 10_000).len();
    assert!(fine > 3 * coarse, "ladders: fine {fine} vs coarse {coarse}");
    // And horizons scale inversely with ε.
    assert!(horizon(100, 0.1) > 3 * horizon(100, 0.5));
}

#[test]
fn quiescence_never_exceeds_theory_budget() {
    // The theoretical budget h' + σ per level is an upper bound; the
    // quiescence-stopped run must fit within the exact-budget run, with
    // identical outputs.
    let g = graph(2, 64);
    let sources: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
    let quiet = run_pde(&g, &sources, &[false; 24], &PdeParams::new(12, 4, 0.5));
    let exact_budget = run_pde(
        &g,
        &sources,
        &[false; 24],
        &PdeParams {
            exact_rounds: true,
            ..PdeParams::new(12, 4, 0.5)
        },
    );
    assert!(quiet.metrics.total.rounds <= exact_budget.metrics.total.rounds);
    for v in g.nodes() {
        assert_eq!(
            quiet.lists[v.index()],
            exact_budget.lists[v.index()],
            "outputs must not depend on the stopping rule (node {v})"
        );
    }
    // Per-level budget: h' + σ + 1 rounds each, never exceeded.
    let per_level_cap = quiet.horizon + 4 + 1;
    for (l, &r) in quiet.metrics.per_level_rounds.iter().enumerate() {
        assert!(r <= per_level_cap, "level {l} used {r} > {per_level_cap}");
    }
}

#[test]
fn unit_weight_graphs_skip_the_ladder() {
    // On unweighted inputs the reduction collapses to a single exact
    // instance — no approximation, minimal rounds (the [10] special case).
    let g = graph(3, 1);
    let exact = apsp(&g);
    let a = approx_apsp(&g, 0.25);
    assert_eq!(a.pde.levels, vec![1]);
    assert_eq!(a.max_stretch(&exact), 1.0);
}

#[test]
fn heavy_tails_use_more_ladder_rungs_than_uniform() {
    let g_small = graph(4, 4);
    let g_big = graph(4, 4000);
    let sources = vec![true; 24];
    let small = run_pde(&g_small, &sources, &[false; 24], &PdeParams::new(8, 4, 0.5));
    let big = run_pde(&g_big, &sources, &[false; 24], &PdeParams::new(8, 4, 0.5));
    assert!(big.levels.len() > small.levels.len());
    // More rungs ⇒ more sequential instances ⇒ more rounds.
    assert!(big.metrics.per_level_rounds.len() > small.metrics.per_level_rounds.len());
}
