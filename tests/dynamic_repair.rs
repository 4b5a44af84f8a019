//! The dynamic-graph contracts (ISSUE 7):
//!
//! * **Repair identity** — for every backend, `OracleBuilder::repair`
//!   on a delta produces an oracle whose canonical artifact bytes are
//!   identical to a from-scratch build on the mutated graph, property-
//!   tested across graph families × delta kinds × seeds. Incremental
//!   repairs (matrix backends on edge deltas) and honest rebuilds
//!   (sampling-coupled schemes, node failures) go through the same
//!   entry point and meet the same obligation.
//! * **Failover guarantees** — `route_with_failover` under an arbitrary
//!   liveness mask answers with a *simple* path (loop-freedom) over
//!   live edges only, reaches the destination whenever it is connected
//!   in the masked graph (completeness), and its weight is bounded by
//!   the simple-path ceiling `(n−1)·w_max` — the stretch is measured
//!   against the masked graph's true distances.

use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{GraphDelta, NodeId, WGraph};
use pde_repro::oracle::{route_with_failover, Backend, LivenessMask, OracleBuilder, TracedRoute};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn build_graph(family: u8, n: usize, weights: u8, seed: u64) -> WGraph {
    let w = match weights {
        0 => Weights::Unit,
        1 => Weights::Uniform { lo: 1, hi: 12 },
        _ => Weights::PowerOfTwo { max_exp: 6 },
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    match family {
        0 => gen::gnp_connected(n, 0.2, w, &mut rng),
        1 => gen::power_law(n, 2, w, &mut rng),
        2 => gen::ring_of_cliques(3 + n / 8, 4, w, &mut rng),
        _ => gen::hypercube(4, w, &mut rng), // 16 nodes
    }
}

/// Picks a delta of the requested kind deterministically from the graph:
/// a seed-picked weight raise (kind 0) or decrease (kind 3), or the first
/// edge/node (in seed-rotated order) whose failure keeps the graph
/// connected. Falls back to a raise when no failure is survivable
/// (bridge-only graphs) or the picked edge weighs 1.
fn pick_delta(g: &WGraph, kind: u8, seed: u64) -> GraphDelta {
    let edges = g.edges();
    match kind {
        0 => {
            let (u, v, w) = edges[(seed as usize) % edges.len()];
            GraphDelta::SetWeight {
                u: NodeId(u),
                v: NodeId(v),
                w: w + 1 + seed % 9,
            }
        }
        1 => {
            for off in 0..edges.len() {
                let (u, v, _) = edges[(seed as usize + off) % edges.len()];
                let delta = GraphDelta::FailEdge {
                    u: NodeId(u),
                    v: NodeId(v),
                };
                if g.apply_delta(&delta).is_ok() {
                    return delta;
                }
            }
            pick_delta(g, 0, seed)
        }
        2 => {
            for off in 0..g.len() {
                let v = NodeId(((seed as usize + off) % g.len()) as u32);
                let delta = GraphDelta::FailNode { v };
                if g.apply_delta(&delta).is_ok() {
                    return delta;
                }
            }
            pick_delta(g, 0, seed)
        }
        _ => match edges[(seed as usize) % edges.len()] {
            (u, v, w) if w >= 2 => GraphDelta::SetWeight {
                u: NodeId(u),
                v: NodeId(v),
                w: 1 + seed % (w - 1),
            },
            _ => pick_delta(g, 0, seed),
        },
    }
}

proptest! {
    // 32 cases reach every delta kind: five node failures, and four
    // decreases on weighted graphs (a decrease on unit weights is a raise).
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline repair contract: `repair(delta)` ≡ from-scratch
    /// rebuild on the mutated graph, byte for byte, for all 6 backends.
    #[test]
    fn repair_is_byte_identical_to_rebuild(
        case in ((0u8..4), (12usize..=22), (0u8..3), (0u64..1 << 40), (0u8..4))
    ) {
        let (family, n, weights, seed, kind) = case;
        let g = build_graph(family, n, weights, seed);
        let delta = pick_delta(&g, kind, seed);
        let g_after = g.apply_delta(&delta).unwrap();
        for backend in Backend::ALL {
            let builder = OracleBuilder::new(backend).seed(seed).k(2);
            let prev = builder.build(&g);
            let repaired = builder.repair(&g, &prev, &delta).unwrap();
            prop_assert_eq!(
                repaired.graph.edges(),
                g_after.edges(),
                "{} returned a different mutated graph", backend
            );
            let fresh = builder.build(&g_after);
            prop_assert_eq!(
                repaired.oracle.artifact_bytes(),
                fresh.artifact_bytes(),
                "{} repair diverged from rebuild ({}, family={}, n={}, w={}, seed={})",
                backend, delta, family, n, weights, seed
            );
            prop_assert_eq!(repaired.report.backend, backend);
        }
    }
}

/// Exact distances in the graph-minus-mask, by Dijkstra restricted to
/// live nodes and edges (`u64::MAX` = unreachable).
fn masked_dist(g: &WGraph, mask: &LivenessMask, s: NodeId) -> Vec<u64> {
    let n = g.len();
    let mut dist = vec![u64::MAX; n];
    if !mask.node_alive(s) {
        return dist;
    }
    dist[s.index()] = 0;
    let mut done = vec![false; n];
    loop {
        let mut best = usize::MAX;
        let mut bd = u64::MAX;
        for (i, d) in dist.iter().enumerate() {
            if !done[i] && *d < bd {
                bd = *d;
                best = i;
            }
        }
        if best == usize::MAX {
            return dist;
        }
        done[best] = true;
        let u = NodeId(best as u32);
        for (nbr, w) in g.neighbors(u) {
            if mask.edge_alive(u, nbr) && bd + w < dist[nbr.index()] {
                dist[nbr.index()] = bd + w;
            }
        }
    }
}

#[test]
fn failover_routes_are_loop_free_complete_and_stretch_bounded() {
    let mut rng = SmallRng::seed_from_u64(0xD1);
    let g = gen::gnp_connected(18, 0.18, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
    let n = g.len();
    let edges = g.edges();
    // An adversarial mask: two failed edges plus a failed node.
    let mut mask = LivenessMask::new(n);
    let (a, b, _) = edges[0];
    let (c, d, _) = edges[edges.len() / 2];
    mask.fail_edge(NodeId(a), NodeId(b));
    mask.fail_edge(NodeId(c), NodeId(d));
    let dead = NodeId(n as u32 - 1);
    mask.fail_node(dead);
    let live_edges: HashSet<(NodeId, NodeId)> = edges
        .iter()
        .filter(|&&(u, v, _)| mask.edge_alive(NodeId(u), NodeId(v)))
        .map(|&(u, v, _)| (NodeId(u.min(v)), NodeId(u.max(v))))
        .collect();
    let ceiling = (n as u64 - 1) * g.max_weight();

    for backend in Backend::ALL {
        let oracle = OracleBuilder::new(backend).seed(3).k(2).build(&g);
        let mut route = TracedRoute::default();
        let mut max_stretch = 1.0f64;
        for u in g.nodes() {
            let truth = masked_dist(&g, &mask, u);
            for v in g.nodes() {
                let outcome = route_with_failover(&oracle, &mask, u, v, &mut route);
                if u == v {
                    // Trivial pair — unless the node itself is dead.
                    assert_eq!(outcome.routed(), mask.node_alive(u), "{backend}: {u}→{u}");
                    continue;
                }
                let reachable = truth[v.index()] != u64::MAX;
                assert_eq!(
                    outcome.routed(),
                    reachable,
                    "{backend}: {u}→{v} routed ≠ masked-reachable"
                );
                if !reachable {
                    continue;
                }
                // Loop-freedom: the detour is a simple path.
                let distinct: HashSet<NodeId> = route.nodes.iter().copied().collect();
                assert_eq!(
                    distinct.len(),
                    route.nodes.len(),
                    "{backend}: {u}→{v} loops"
                );
                // Live edges only.
                for hop in route.nodes.windows(2) {
                    let key = (hop[0].min(hop[1]), hop[0].max(hop[1]));
                    assert!(
                        live_edges.contains(&key),
                        "{backend}: {u}→{v} crossed dead edge {key:?}"
                    );
                }
                // Bounded stretch: never below the masked truth, never
                // above the simple-path ceiling.
                assert!(route.weight >= truth[v.index()], "{backend}: {u}→{v}");
                assert!(
                    route.weight <= ceiling,
                    "{backend}: {u}→{v} weight {} over ceiling {ceiling}",
                    route.weight
                );
                max_stretch = max_stretch.max(route.weight as f64 / truth[v.index()].max(1) as f64);
            }
        }
        assert!(
            max_stretch >= 1.0 && max_stretch.is_finite(),
            "{backend}: stretch {max_stretch}"
        );
    }
}
