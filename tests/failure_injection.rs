//! Failure-injection scenarios: the model-level guard rails (bandwidth
//! enforcement, disconnected inputs, degenerate parameters, message
//! caps) fail loudly or degrade gracefully as documented, and — the
//! dynamic-graph suite — edge/node failures injected against a **live**
//! `OracleServer` never panic, detour around the failure immediately,
//! and leave no stale next-hop once the repaired snapshot swaps in.

use pde_repro::congest::{Config, Ctx, Message, NodeId, Program, Runtime, Topology};
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::WGraph;
use pde_repro::oracle::{
    Backend, BuildError, DistanceOracle, FailoverOutcome, GraphDelta, OracleBuilder, TracedRoute,
};
use pde_repro::pde_core::{run_pde, try_run_pde, BuildMode, PdeParams};
use pde_repro::serve::{DynamicOracle, OracleServer};
use pde_repro::sourcedetect::{run_detection, DetectParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[derive(Clone, Debug)]
struct FatMsg;
impl Message for FatMsg {
    fn bit_size(&self) -> usize {
        10_000 // way over any reasonable B
    }
}

struct FatSender {
    sent: bool,
}
impl Program for FatSender {
    type Msg = FatMsg;
    fn round(&mut self, ctx: &mut Ctx<'_, FatMsg>) {
        if !self.sent && ctx.node() == NodeId(0) {
            self.sent = true;
            ctx.broadcast(FatMsg);
        }
    }
}

#[test]
fn oversize_messages_are_counted() {
    let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
    let programs = vec![FatSender { sent: false }, FatSender { sent: true }];
    let mut rt = Runtime::new(&topo, programs, Config::default());
    rt.run();
    assert_eq!(rt.metrics().bandwidth_violations, 1);
}

#[test]
#[should_panic(expected = "exceeds bandwidth")]
fn strict_bandwidth_panics() {
    let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
    let programs = vec![FatSender { sent: false }, FatSender { sent: true }];
    let cfg = Config {
        strict_bandwidth: true,
        ..Config::default()
    };
    let mut rt = Runtime::new(&topo, programs, cfg);
    rt.run();
}

#[test]
fn detection_messages_fit_congest_bandwidth() {
    // The real point of B = Θ(log n): every protocol message must fit.
    let mut rng = SmallRng::seed_from_u64(4);
    let g = gen::gnp_connected(30, 0.2, Weights::Uniform { lo: 1, hi: 1000 }, &mut rng);
    let sources = vec![true; 30];
    let out = run_pde(&g, &sources, &[false; 30], &PdeParams::new(30, 30, 0.5));
    // (dist, id, tag): comfortably within a 256-bit B for n=30, w≤1000.
    assert!(out.metrics.total.max_message_bits <= 128);
    assert_eq!(out.metrics.total.bandwidth_violations, 0);
}

#[test]
fn pde_rejects_disconnected_graphs_with_typed_error() {
    let g = WGraph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
    let err = try_run_pde(&g, &[true; 4], &[false; 4], &PdeParams::new(2, 2, 0.5)).unwrap_err();
    assert!(
        matches!(err, BuildError::Disconnected { nodes: 4 }),
        "{err}"
    );
    // Every backend rejects the same input the same way, before any
    // pipeline stage can panic on it.
    for backend in Backend::ALL {
        let err = OracleBuilder::new(backend).try_build(&g).unwrap_err();
        assert!(
            matches!(err, BuildError::Disconnected { nodes: 4 }),
            "{backend}: {err}"
        );
    }
}

#[test]
fn sigma_one_detects_single_closest() {
    let mut rng = SmallRng::seed_from_u64(5);
    let g = gen::path(10, Weights::Unit, &mut rng);
    let topo = g.to_topology();
    let sources = [
        true, false, false, false, false, false, false, false, false, true,
    ];
    let out = run_detection(
        &topo,
        &sources,
        &[false; 10],
        &DetectParams {
            h: 10,
            sigma: 1,
            msg_cap: None,
            exact_rounds: false,
        },
    );
    for v in 0..10 {
        assert_eq!(out.lists[v].len(), 1);
        let want = if v <= 4 { NodeId(0) } else { NodeId(9) };
        assert_eq!(out.lists[v][0].src, want, "node {v}");
    }
}

#[test]
fn message_cap_trades_accuracy_never_soundness() {
    // With a brutal cap, lists may be incomplete — but the entries that do
    // appear still never underestimate (soundness is unconditional).
    let mut rng = SmallRng::seed_from_u64(6);
    let g = gen::gnp_connected(20, 0.2, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
    let sources = vec![true; 20];
    let capped = run_pde(
        &g,
        &sources,
        &[false; 20],
        &PdeParams {
            msg_cap: Some(2),
            ..PdeParams::new(20, 20, 0.5)
        },
    );
    let exact = pde_repro::graphs::algo::apsp(&g);
    for v in g.nodes() {
        for e in &capped.lists[v.index()] {
            assert!(e.est >= exact.dist(v, e.src));
        }
    }
}

#[test]
fn single_edge_graph_works_everywhere() {
    // Degenerate n=2: APSP, PDE, detection all behave.
    let g = WGraph::from_edges(2, &[(0, 1, 7)]).unwrap();
    let a = pde_repro::pde_core::approx_apsp(&g, 0.5);
    assert_eq!(a.dist(NodeId(0), NodeId(1)), 7);
    let exact = pde_repro::graphs::algo::apsp(&g);
    assert_eq!(a.max_stretch(&exact), 1.0);
}

#[test]
fn zero_eps_is_rejected_with_typed_error() {
    let g = WGraph::from_edges(2, &[(0, 1, 1)]).unwrap();
    let err = try_run_pde(&g, &[true; 2], &[false; 2], &PdeParams::new(1, 1, 0.0)).unwrap_err();
    assert!(matches!(err, BuildError::InvalidParam { .. }), "{err}");
    let err = OracleBuilder::new(Backend::Pde)
        .eps(0.0)
        .try_build(&g)
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidParam { .. }), "{err}");
}

#[test]
fn degenerate_sigma_and_horizon_are_typed_errors_in_both_modes() {
    // σ = 0, h = 0 and an h whose rung horizon h′ overflows the u32
    // detection state are refused before any rung runs, by both engines.
    let g = WGraph::from_edges(3, &[(0, 1, 2), (1, 2, 3)]).unwrap();
    let knobs: [fn(OracleBuilder) -> OracleBuilder; 4] = [
        |b| b.sigma(0),
        |b| b.horizon(0),
        |b| b.horizon(1 << 40),
        |b| b.horizon(u64::MAX),
    ];
    for mode in [BuildMode::Simulated, BuildMode::Native] {
        for knob in knobs {
            let builder = knob(OracleBuilder::new(Backend::Pde).build_mode(mode));
            let err = builder.try_build(&g).unwrap_err();
            assert!(
                matches!(err, BuildError::InvalidParam { .. }),
                "{mode:?}: {err}"
            );
        }
    }
}

#[test]
fn oversized_weights_are_rejected_with_typed_error() {
    // Path weights near u64::MAX would overflow `dist · b` inside a rung
    // worker; the builders must refuse the input up front instead.
    let w = u64::MAX / 3;
    let g = WGraph::from_edges(3, &[(0, 1, w), (1, 2, w)]).unwrap();
    for backend in [
        Backend::Pde,
        Backend::Rtc,
        Backend::Compact,
        Backend::Truncated,
    ] {
        for mode in [BuildMode::Simulated, BuildMode::Native] {
            let err = OracleBuilder::new(backend)
                .seed(1)
                .build_mode(mode)
                .try_build(&g)
                .unwrap_err();
            assert_eq!(
                err,
                BuildError::InvalidParam {
                    what: "weights too large: path weight overflows u64"
                },
                "{backend} {mode:?}"
            );
        }
    }
}

// ------------------------------------------- dynamic-graph scenarios --

/// A ring with a chord: sturdy enough that any single edge or node
/// failure leaves it connected, small enough for exact cross-checks.
fn chorded_ring(n: u32) -> WGraph {
    let mut edges: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, (i + 1) % n, 2)).collect();
    edges.push((0, n / 2, 3));
    WGraph::from_edges(n as usize, &edges).unwrap()
}

fn small_builder(backend: Backend) -> OracleBuilder {
    OracleBuilder::new(backend).seed(7)
}

/// No route served off the repaired snapshot may cross the failed edge:
/// the artifact itself must have forgotten it, not just the mask.
fn assert_no_stale_next_hop(server: &OracleServer, name: &str, dead: (NodeId, NodeId)) {
    let lease = server.lease(name).unwrap();
    let oracle = lease.oracle();
    let n = oracle.len() as u32;
    let mut route = TracedRoute::default();
    for u in 0..n {
        for v in 0..n {
            let (u, v) = (NodeId(u), NodeId(v));
            if u == v || !oracle.route_into(u, v, &mut route) {
                continue;
            }
            for hop in route.nodes.windows(2) {
                let key = (hop[0].min(hop[1]), hop[0].max(hop[1]));
                assert!(
                    key != dead,
                    "stale next-hop: {u} → {v} still crosses failed edge {dead:?}"
                );
            }
        }
    }
}

#[test]
fn edge_failure_mid_serving_across_all_backends() {
    let g = chorded_ring(12);
    let (a, b) = (NodeId(3), NodeId(4));
    let delta = GraphDelta::FailEdge { u: a, v: b };
    let g_after = g.apply_delta(&delta).unwrap();
    for backend in Backend::ALL {
        let server = OracleServer::new();
        let dyn_oracle =
            DynamicOracle::install(&server, "live", small_builder(backend), &g).unwrap();
        let mut out = Vec::new();
        server
            .query("live", &[(NodeId(0), NodeId(6))], &mut out, 1)
            .unwrap();

        // Failure lands mid-serving: routes must stop using the edge
        // *now*, even though the artifact still contains it.
        dyn_oracle.fail_edge(a, b).unwrap();
        let mut route = TracedRoute::default();
        let outcome = dyn_oracle.route(&server, a, b, &mut route).unwrap();
        assert!(
            matches!(outcome, FailoverOutcome::Detoured { .. }),
            "{backend}: {outcome:?}"
        );
        for hop in route.nodes.windows(2) {
            assert!(
                (hop[0].min(hop[1]), hop[0].max(hop[1])) != (a, b),
                "{backend}: detour crossed the failed edge"
            );
        }

        // Repair off the live snapshot and hot-swap.
        let report = dyn_oracle.repair_and_swap(&server, &delta).unwrap();
        assert!(report.stale_window_nanos > 0, "{backend}");
        assert!(dyn_oracle.mask().is_clear(), "{backend}");
        assert_no_stale_next_hop(&server, "live", (a, b));

        // The swapped artifact is byte-identical to a fresh build on the
        // mutated graph (queries now reflect the new topology).
        let fresh = small_builder(backend).build(&g_after);
        let lease = server.lease("live").unwrap();
        assert_eq!(
            lease.oracle().artifact_bytes(),
            fresh.artifact_bytes(),
            "{backend}"
        );
    }
}

#[test]
fn node_failure_mid_serving_across_all_backends() {
    let g = chorded_ring(10);
    let dead = NodeId(7);
    let delta = GraphDelta::FailNode { v: dead };
    let g_after = g.apply_delta(&delta).unwrap();
    for backend in Backend::ALL {
        let server = OracleServer::new();
        let dyn_oracle =
            DynamicOracle::install(&server, "live", small_builder(backend), &g).unwrap();
        dyn_oracle.fail_node(dead).unwrap();
        // Routes around the dead node (6 → 8 must not pass through 7).
        let mut route = TracedRoute::default();
        let outcome = dyn_oracle
            .route(&server, NodeId(6), NodeId(8), &mut route)
            .unwrap();
        assert!(outcome.routed(), "{backend}: {outcome:?}");
        assert!(
            route.nodes.iter().all(|&x| x != dead),
            "{backend}: routed through the failed node"
        );
        // Node repair is a rebuild everywhere (ids renumber), and the
        // mask resets to the new id space.
        let report = dyn_oracle.repair_and_swap(&server, &delta).unwrap();
        assert_eq!(report.repair.kind.tag(), "rebuilt", "{backend}");
        let mask = dyn_oracle.mask();
        assert!(mask.is_clear() && mask.len() == 9, "{backend}");
        let fresh = small_builder(backend).build(&g_after);
        let lease = server.lease("live").unwrap();
        assert_eq!(
            lease.oracle().artifact_bytes(),
            fresh.artifact_bytes(),
            "{backend}"
        );
    }
}

#[test]
fn concurrent_queries_survive_failure_and_swap() {
    // Hammer the server from reader threads while the main thread
    // injects a failure and swaps in the repaired snapshot: no panic,
    // every query answered, and the post-swap generation serves the
    // mutated graph.
    let g = chorded_ring(16);
    let delta = GraphDelta::FailEdge {
        u: NodeId(9),
        v: NodeId(10),
    };
    let server = OracleServer::new();
    let dyn_oracle =
        DynamicOracle::install(&server, "live", OracleBuilder::new(Backend::Flooding), &g).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        for t in 0..3 {
            let (server, stop) = (&server, &stop);
            scope.spawn(move || {
                let pairs = vec![(NodeId(t), NodeId(15 - t))];
                let mut out = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    server.query("live", &pairs, &mut out, 1).unwrap();
                    assert_eq!(out.len(), 1);
                }
            });
        }
        let report = dyn_oracle.repair_and_swap(&server, &delta).unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        report
    });
    assert_eq!(report.repair.kind.tag(), "incremental");
    assert!(report.stale_window_nanos > 0);
    let fresh = OracleBuilder::new(Backend::Flooding).build(&g.apply_delta(&delta).unwrap());
    let lease = server.lease("live").unwrap();
    assert_eq!(lease.generation(), report.generation);
    assert_eq!(lease.oracle().artifact_bytes(), fresh.artifact_bytes());
}

#[test]
fn socket_clients_survive_live_repair_and_swap() {
    // The same scenario pushed through real sockets: client threads
    // hammer estimate_many over TCP while an admin connection injects an
    // edge failure and swaps in the repaired snapshot. Required: no
    // panic on either side, no route through the dead edge after the
    // mask lands, and every socket reply coherent — the answer vector
    // must match the generation that claims to have served it, never a
    // mix of pre- and post-repair rows.
    use pde_repro::net::{Client, NetServer, RouteOutcome, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let g = chorded_ring(16);
    let (a, b) = (NodeId(9), NodeId(10));
    let delta = GraphDelta::FailEdge { u: a, v: b };
    let pairs: Vec<(NodeId, NodeId)> = (0..16u32)
        .map(|t| (NodeId(t), NodeId((t + 7) % 16)))
        .collect();

    // The only two coherent answer vectors: pre-repair (generation 1)
    // and post-repair (generation 2), computed from scratch.
    let mut pre = Vec::new();
    OracleBuilder::new(Backend::Flooding)
        .build(&g)
        .estimate_many_with(&pairs, &mut pre, 1);
    let mut post = Vec::new();
    OracleBuilder::new(Backend::Flooding)
        .build(&g.apply_delta(&delta).unwrap())
        .estimate_many_with(&pairs, &mut post, 1);
    assert_ne!(pre, post, "the delta must be visible in the answers");

    let registry = std::sync::Arc::new(OracleServer::new());
    let server = NetServer::bind(
        "127.0.0.1:0",
        std::sync::Arc::clone(&registry),
        ServerConfig::default(),
    )
    .unwrap();
    let dynamic =
        DynamicOracle::install(&registry, "live", OracleBuilder::new(Backend::Flooding), &g)
            .unwrap();
    server.register_dynamic(dynamic);
    let addr = server.local_addr();

    let stop = AtomicBool::new(false);
    let summary = std::thread::scope(|scope| {
        for _ in 0..3 {
            let (stop, pairs, pre, post) = (&stop, &pairs, &pre, &post);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let (ests, generation) = client.estimate_many("live", pairs, false).unwrap();
                    match generation {
                        1 => assert_eq!(&ests, pre, "generation 1 served mixed answers"),
                        2 => assert_eq!(&ests, post, "generation 2 served mixed answers"),
                        other => panic!("unexpected generation {other}"),
                    }
                }
            });
        }
        let mut admin = Client::connect(addr).unwrap();
        // Mask over the wire: routes must detour immediately, while the
        // readers keep getting coherent generation-1 estimates.
        admin.fail_edge("live", a, b).unwrap();
        let (outcome, route) = admin.route("live", a, b).unwrap();
        assert!(
            matches!(outcome, RouteOutcome::Detoured { .. }),
            "{outcome:?}"
        );
        for hop in route.unwrap().nodes.windows(2) {
            assert!(
                (hop[0].min(hop[1]), hop[0].max(hop[1])) != (a, b),
                "socket route crossed the failed edge"
            );
        }
        // Repair over the wire; the hot swap lands between batches.
        let summary = admin.repair_and_swap("live", &delta).unwrap();
        // Let the readers observe the new generation before stopping.
        let (_, generation) = admin.estimate_many("live", &pairs, false).unwrap();
        assert_eq!(generation, summary.generation);
        stop.store(true, Ordering::Relaxed);
        summary
    });
    assert_eq!(summary.generation, 2);
    assert!(summary.incremental, "flooding repairs incrementally");
    assert!(summary.stale_window_nanos > 0);
    assert_no_stale_next_hop(&registry, "live", (a, b));
    server.shutdown();
}
