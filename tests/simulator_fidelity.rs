//! Fidelity of the central simulation trick: running detection on a
//! delay-annotated topology must be *indistinguishable* (at real nodes)
//! from running it on the explicitly subdivided graph `G_i` with virtual
//! relay nodes — the equivalence `pde_core`'s crate docs ("Deviations
//! from the paper") rely on.

use pde_repro::congest::{NodeId, Topology};
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::WGraph;
use pde_repro::oracle::{Backend, DistanceOracle, OracleBuilder};
use pde_repro::pde_core::{run_pde, BuildMode, PdeParams};
use pde_repro::sourcedetect::{run_detection, DetectParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds the explicit subdivision: each edge of `g` with subdivision
/// length `L = ceil(w/b)` becomes a path of `L` unit edges through fresh
/// virtual nodes.
fn subdivide(g: &WGraph, b: u64) -> (Topology, usize) {
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    let mut next = g.len() as u32;
    for &(u, v, w) in g.edges() {
        let len = w.div_ceil(b);
        let mut prev = u;
        for step in 1..len {
            edges.push((prev, next, 1));
            prev = next;
            next += 1;
            let _ = step;
        }
        edges.push((prev, v, 1));
    }
    (
        Topology::from_edges(next as usize, &edges).expect("subdivision is valid"),
        next as usize,
    )
}

#[test]
fn delayed_topology_equals_explicit_subdivision() {
    // A graph with heterogeneous weights → interesting subdivision.
    let g = WGraph::from_edges(
        6,
        &[
            (0, 1, 7),
            (1, 2, 3),
            (2, 3, 9),
            (3, 4, 2),
            (4, 5, 5),
            (5, 0, 4),
            (1, 4, 6),
        ],
    )
    .unwrap();
    for b in [1u64, 2, 3, 5] {
        let delayed = g.to_topology().with_delays(|w| w.div_ceil(b));
        let (explicit, total_nodes) = subdivide(&g, b);

        let real_sources = [true, false, false, true, false, false];
        let mut explicit_sources = vec![false; total_nodes];
        explicit_sources[..6].copy_from_slice(&real_sources);

        for (h, sigma) in [(4u64, 1usize), (8, 2), (16, 3)] {
            let params = DetectParams {
                h,
                sigma,
                msg_cap: None,
                exact_rounds: false,
            };
            let a = run_detection(&delayed, &real_sources, &[false; 6], &params);
            let b_out = run_detection(
                &explicit,
                &explicit_sources,
                &vec![false; total_nodes],
                &params,
            );
            for v in 0..6 {
                let la: Vec<(u64, NodeId)> = a.lists[v].iter().map(|e| (e.dist, e.src)).collect();
                let lb: Vec<(u64, NodeId)> =
                    b_out.lists[v].iter().map(|e| (e.dist, e.src)).collect();
                assert_eq!(
                    la, lb,
                    "node {v} lists differ between delayed and explicit G_i (b={b}, h={h}, σ={sigma})"
                );
            }
        }
    }
}

#[test]
fn delayed_run_uses_no_more_rounds() {
    // The delayed simulation's round count matches the explicit one
    // (both bounded by the same h+σ budget and quiescing together).
    let g = WGraph::from_edges(4, &[(0, 1, 6), (1, 2, 4), (2, 3, 8)]).unwrap();
    let b = 2;
    let delayed = g.to_topology().with_delays(|w| w.div_ceil(b));
    let (explicit, total) = subdivide(&g, b);
    let params = DetectParams {
        h: 12,
        sigma: 2,
        msg_cap: None,
        exact_rounds: false,
    };
    let mut s1 = vec![false; 4];
    s1[0] = true;
    let mut s2 = vec![false; total];
    s2[0] = true;
    let a = run_detection(&delayed, &s1, &[false; 4], &params);
    let b_out = run_detection(&explicit, &s2, &vec![false; total], &params);
    // The delayed run may outlast the explicit one by up to one max
    // delay: an in-flight message that a virtual relay would have culled
    // (dist ≥ h mid-chain) is only discarded on arrival.
    assert!(a.metrics.rounds <= b_out.metrics.rounds + delayed.max_delay() + 2);
    // The delayed run sends at most as many messages per *real* node.
    for v in 0..4 {
        assert!(a.msgs_per_node[v] <= b_out.msgs_per_node[v] + params.sigma as u64);
    }
}

#[test]
fn simulated_meter_readings_are_pinned() {
    // The readings the paper's theorems bound, on a weighted graph in the
    // partial regime (σ ≪ |S|, h ≪ n). Exact functions of the seed: a
    // change to what the simulator records must leave every one of them
    // where it is.
    let mut rng = SmallRng::seed_from_u64(27);
    let g = gen::gnp_connected(96, 0.06, Weights::Uniform { lo: 1, hi: 32 }, &mut rng);
    let sources: Vec<bool> = (0..g.len()).map(|i| i % 2 == 0).collect();
    let out = run_pde(
        &g,
        &sources,
        &vec![false; g.len()],
        &PdeParams::new(6, 4, 0.5),
    );
    let m = &out.metrics;
    let readings = (
        m.total.rounds,
        m.total.messages,
        m.max_broadcasts_single_level,
    );
    assert_eq!(readings, (191, 27_545, 5));
    assert_eq!(m.per_level_rounds, [56, 30, 22, 18, 13, 11, 9, 8, 8]);

    for (backend, pinned) in [
        (Backend::Rtc, (1892, 1_046_756)),
        (Backend::Truncated, (2018, 1_109_103)),
    ] {
        let oracle = OracleBuilder::new(backend)
            .seed(5u64)
            .build_mode(BuildMode::Simulated)
            .build(&g);
        let bm = oracle.build_metrics();
        assert_eq!((bm.rounds, bm.messages), pinned, "{backend}");
    }
}
