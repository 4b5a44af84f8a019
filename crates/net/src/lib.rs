//! Socket serving for the oracle registry: a length-framed binary wire
//! protocol, a threaded TCP server over [`serve::OracleServer`], and a
//! pipelined blocking client — `std::net` and `std::thread` only, like
//! the rest of the workspace.
//!
//! # Protocol
//!
//! Each message is one [`congest::wire`] frame (`u32` little-endian
//! length prefix, bounded before allocation) whose payload starts with a
//! version byte. Requests carry an opcode ([`Op`]) and an opaque
//! correlation id; responses echo both, in request order per
//! connection, which is what makes pipelining positional and simple.
//! Ten ops cover serving ([`Op::Estimate`], [`Op::EstimateMany`],
//! [`Op::NextHop`], [`Op::Route`]) and administration ([`Op::Install`],
//! [`Op::Swap`], [`Op::FailEdge`], [`Op::FailNode`],
//! [`Op::RepairAndSwap`], [`Op::Stats`]). Errors travel as explicit
//! error frames: [`serve::ServeError`] and [`graphs::DeltaError`] cross
//! the wire with their variant intact (pinned by tests), everything
//! else degrades to a typed [`WireError`] — corruption never panics
//! either side.
//!
//! # Determinism contract
//!
//! A socket-served answer is **byte-identical** to the in-process one:
//! the server decodes each frame into the same [`serve::Request`] an
//! in-process caller builds and answers it with the same
//! [`serve::OracleServer::handle`] call ([`Client::call`] is its socket
//! twin), so batch answer digests match across process boundaries for
//! every backend, before and after hot swaps. `tests/serving_matrix.rs`
//! pins this equality for all six backends.
//!
//! # Robustness
//!
//! The identity contract has to hold on a network that misbehaves, so
//! the crate carries its own hardening on both sides of the socket.
//!
//! * **Client resilience** — [`RetryClient`] wraps a [`ReplicaSet`]
//!   (ordered replicas with health tracking and cooldown re-probing)
//!   and a [`RetryPolicy`] (bounded attempts, exponential backoff with
//!   deterministic seeded equal jitter). It retries an operation only
//!   when the underlying [`Client`] *poisoned* — a cut, stall, or
//!   refused dial, where the request provably produced no durable
//!   answer — and surfaces server-relayed typed errors untouched.
//! * **Overload protection** — [`NetServer`] refuses connections past
//!   [`ServerConfig::max_connections`] at the door and sheds oversized
//!   batches past [`ServerConfig::max_batch_pairs`], both with a typed
//!   [`WireError::Overloaded`]; slow-loris drips are bounded by a
//!   whole-frame deadline, and a handler panic is caught per request —
//!   the connection (and every lock) survives it.
//! * **Chaos harness** — [`ChaosProxy`] injects deterministic,
//!   replayable transport faults (cut or stalled reply streams on a
//!   seeded per-connection schedule) between a client and server;
//!   `tests/chaos_recovery.rs` drives every backend through it
//!   asserting identical answers and zero panics.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use congest::NodeId;
//! use graphs::WGraph;
//! use oracle::{Backend, OracleBuilder};
//! use serve::OracleServer;
//! use net::{Client, NetServer, ServerConfig};
//!
//! let g = WGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]).unwrap();
//! let registry = Arc::new(OracleServer::new());
//! registry.install("ring", OracleBuilder::new(Backend::Flooding).build(&g));
//!
//! let server = NetServer::bind("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default())
//!     .unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! assert_eq!(client.estimate("ring", NodeId(0), NodeId(2)).unwrap(), 2);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod chaos;
mod client;
mod metrics;
mod resilient;
mod server;
mod wire;

pub use chaos::{ChaosPlan, ChaosProxy};
pub use client::Client;
pub use metrics::{LatencyHistogram, NetMetrics};
pub use oracle::FailoverOutcome as RouteOutcome;
pub use resilient::{ReplicaSet, RetryClient, RetryPolicy};
pub use serve::{InstallSummary, OracleStats, RepairSummary, Request, Response, ServerStats};
pub use server::{NetServer, ServerConfig};
pub use wire::{Op, WireError, NET_VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use congest::NodeId;
    use graphs::{GraphDelta, WGraph};
    use oracle::{Backend, DistanceOracle, OracleBuilder};
    use serve::{DynamicOracle, OracleServer, ServeError};
    use std::sync::Arc;

    fn ring_with_chord(n: u32) -> WGraph {
        let mut edges: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, (i + 1) % n, 2)).collect();
        edges.push((0, n / 2, 3));
        WGraph::from_edges(n as usize, &edges).unwrap()
    }

    fn serve_ring(n: u32) -> (NetServer, Arc<OracleServer>, WGraph) {
        let g = ring_with_chord(n);
        let registry = Arc::new(OracleServer::new());
        registry.install("ring", OracleBuilder::new(Backend::Flooding).build(&g));
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
        )
        .unwrap();
        (server, registry, g)
    }

    #[test]
    fn estimates_match_in_process_answers_exactly() {
        let (server, registry, _g) = serve_ring(12);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = (0..12u32)
            .flat_map(|u| (0..12u32).map(move |v| (NodeId(u), NodeId(v))))
            .collect();
        let mut expected = Vec::new();
        let expected_gen = registry.query("ring", &pairs, &mut expected, 0).unwrap();
        // Singles.
        for &(u, v) in pairs.iter().take(5) {
            let lease = registry.lease("ring").unwrap();
            assert_eq!(
                client.estimate("ring", u, v).unwrap(),
                lease.oracle().estimate(u, v)
            );
        }
        // Direct batch and batched batch: identical bytes, one
        // generation.
        for batched in [false, true] {
            let (ests, generation) = client.estimate_many("ring", &pairs, batched).unwrap();
            assert_eq!(ests, expected);
            assert_eq!(generation, expected_gen);
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_submissions_come_back_in_order() {
        let (server, registry, _g) = serve_ring(10);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let shards: Vec<Vec<(NodeId, NodeId)>> = (0..8u32)
            .map(|s| (0..10u32).map(|v| (NodeId(s % 10), NodeId(v))).collect())
            .collect();
        for shard in &shards {
            client.queue_estimate_many("ring", shard, false).unwrap();
        }
        for shard in &shards {
            let (ests, _) = client.recv_estimate_many().unwrap();
            let mut expected = Vec::new();
            registry.query("ring", shard, &mut expected, 0).unwrap();
            assert_eq!(ests, expected);
        }
        assert_eq!(client.pending(), 0);
        // The connection is still healthy for direct calls.
        assert_eq!(client.estimate("ring", NodeId(0), NodeId(0)).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn routes_and_next_hops_cross_the_wire() {
        let (server, registry, _g) = serve_ring(8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let lease = registry.lease("ring").unwrap();
        let (u, v) = (NodeId(0), NodeId(3));
        assert_eq!(
            client.next_hop("ring", u, v).unwrap(),
            lease.oracle().next_hop(u, v)
        );
        let (outcome, route) = client.route("ring", u, v).unwrap();
        assert_eq!(outcome, RouteOutcome::Primary);
        assert_eq!(route, lease.oracle().route(u, v));
        server.shutdown();
    }

    #[test]
    fn swap_and_install_hot_swap_generations_over_the_wire() {
        let (server, registry, g) = serve_ring(8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let oracle = OracleBuilder::new(Backend::Rtc).build(&g);
        let mut snap = Vec::new();
        oracle.save(&mut snap).unwrap();
        let summary = client.swap("ring", &snap).unwrap();
        assert_eq!(summary.backend, Backend::Rtc);
        assert_eq!(summary.n, 8);
        assert!(summary.replaced.is_some(), "the flooding snapshot retired");
        // Install from a server-side file (the load_path cold start).
        let path =
            std::env::temp_dir().join(format!("net-test-install-{}.snap", std::process::id()));
        oracle.save_path_v3(&path).unwrap();
        let summary2 = client.install("ring", path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(summary2.generation > summary.generation);
        assert_eq!(
            registry.lease("ring").unwrap().generation(),
            summary2.generation
        );
        // A bad path is a typed remote error, and the connection
        // survives it.
        let err = client.install("ring", "/does/not/exist.snap").unwrap_err();
        assert!(matches!(err, WireError::Remote(_)), "got {err:?}");
        assert_eq!(client.estimate("ring", NodeId(0), NodeId(0)).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn serve_errors_cross_the_wire_variant_intact() {
        let (server, _registry, _g) = serve_ring(8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.estimate("nope", NodeId(0), NodeId(1)).unwrap_err();
        assert_eq!(
            err,
            WireError::Serve(ServeError::UnknownOracle("nope".into()))
        );
        // Per-request failure: the connection keeps serving.
        assert_eq!(client.estimate("ring", NodeId(0), NodeId(0)).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn dynamic_admin_ops_fail_route_and_repair() {
        let g = ring_with_chord(8);
        let registry = Arc::new(OracleServer::new());
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
        )
        .unwrap();
        let dynamic =
            DynamicOracle::install(&registry, "dyn", OracleBuilder::new(Backend::Flooding), &g)
                .unwrap();
        server.register_dynamic(dynamic);
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Non-dynamic admin ops on an unknown name are typed errors.
        assert!(matches!(
            client.fail_edge("ring", NodeId(0), NodeId(1)).unwrap_err(),
            WireError::Serve(ServeError::UnknownOracle(_))
        ));
        // Mask an edge over the wire: routes detour immediately.
        client.fail_edge("dyn", NodeId(0), NodeId(1)).unwrap();
        let (outcome, route) = client.route("dyn", NodeId(0), NodeId(1)).unwrap();
        assert!(
            matches!(outcome, RouteOutcome::Detoured { .. }),
            "{outcome:?}"
        );
        let route = route.unwrap();
        for pair in route.nodes.windows(2) {
            let crosses = (pair[0], pair[1]) == (NodeId(0), NodeId(1))
                || (pair[0], pair[1]) == (NodeId(1), NodeId(0));
            assert!(!crosses, "route crossed the failed edge: {:?}", route.nodes);
        }
        // Repair over the wire: generation advances, estimates reflect
        // the repaired graph, routes return to primary.
        let before = registry.lease("dyn").unwrap().generation();
        let summary = client
            .repair_and_swap(
                "dyn",
                &GraphDelta::FailEdge {
                    u: NodeId(0),
                    v: NodeId(1),
                },
            )
            .unwrap();
        assert!(summary.generation > before);
        let (outcome, _) = client.route("dyn", NodeId(0), NodeId(1)).unwrap();
        assert_eq!(outcome, RouteOutcome::Primary);
        // A delta against a now-unknown edge comes back as the typed
        // DeltaError variant.
        let err = client
            .repair_and_swap(
                "dyn",
                &GraphDelta::FailEdge {
                    u: NodeId(0),
                    v: NodeId(1),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            WireError::Delta(graphs::DeltaError::UnknownEdge {
                u: NodeId(0),
                v: NodeId(1)
            })
        );
        server.shutdown();
    }

    #[test]
    fn stats_report_serving_counters() {
        let (server, _registry, _g) = serve_ring(8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let pairs = [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(5))];
        client.estimate_many("ring", &pairs, true).unwrap();
        client.estimate("ring", NodeId(0), NodeId(4)).unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.requests >= 2);
        assert_eq!(stats.connections_active, 1);
        assert!(stats.conn_requests >= 2);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
        assert_eq!(stats.oracles.len(), 1);
        let oracle_stats = &stats.oracles[0];
        assert_eq!(oracle_stats.name, "ring");
        assert_eq!(oracle_stats.backend, Backend::Flooding);
        assert!(oracle_stats.queries_served >= 3);
        assert_eq!(oracle_stats.batch.submissions, 1);
        assert!(stats.p50_service_ns > 0);
        let metrics = server.metrics();
        assert_eq!(metrics.requests, stats.requests + 1); // + the Stats call
        server.shutdown();
    }

    #[test]
    fn idle_stats_report_no_leases_in_flight() {
        let (server, _registry, _g) = serve_ring(8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.oracles[0].leases_in_flight, 0, "nothing is running");
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_and_eofs_clients() {
        let (server, _registry, _g) = serve_ring(8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.estimate("ring", NodeId(0), NodeId(0)).unwrap(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
        let err = client.estimate("ring", NodeId(0), NodeId(1)).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated | WireError::Io(..)),
            "got {err:?}"
        );
    }

    #[test]
    fn version_mismatch_is_reported_then_fatal() {
        use std::io::Write as _;
        let (server, _registry, _g) = serve_ring(8);
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        // A frame with a bogus version byte.
        let payload = [9u8, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        congest::wire::write_frame(&mut raw, &payload).unwrap();
        raw.flush().unwrap();
        let reply = congest::wire::read_frame(&mut raw, 1 << 20)
            .unwrap()
            .expect("an error frame before the close");
        let (req_id, _op, body) = wire::decode_response(&reply).unwrap();
        assert_eq!(req_id, 0, "pre-decode failures carry no request id");
        assert_eq!(body.unwrap_err(), WireError::BadVersion { got: 9 });
        // The server closed the connection afterwards.
        assert_eq!(congest::wire::read_frame(&mut raw, 1 << 20).unwrap(), None);
        server.shutdown();
    }
}
