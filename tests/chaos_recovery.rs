//! Crash-recovery identity: a serving process that dies after live
//! repairs must come back — from its checkpoint plus delta WAL — with a
//! byte-identical oracle artifact, for every backend. Also pins the two
//! recovery edge cases the format was designed around: a torn WAL tail
//! (crash mid-append) and a stale WAL left by a crash between
//! checkpoint write and WAL reset.
//!
//! The second half is recovery on the transport side: a
//! `net::RetryClient` over a `net::ReplicaSet` must return the fault-free
//! answers through a seeded `net::ChaosProxy`, past a saturated replica,
//! and across a connection kill — and must *not* replay a request the
//! server answered with a typed refusal.

use congest::NodeId;
use graphs::{GraphDelta, WGraph};
use net::{
    ChaosPlan, ChaosProxy, Client, NetServer, ReplicaSet, RetryClient, RetryPolicy, ServerConfig,
    WireError,
};
use oracle::{Backend, DistanceOracle, OracleBuilder};
use serve::{DeltaWal, DynamicOracle, OracleServer};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A ring (weight 2) with three chords (weight 5). Failing a chord
/// never disconnects the graph, so every chord is a survivable
/// `FailEdge` delta.
fn chorded_ring(n: u32) -> WGraph {
    let mut edges: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, (i + 1) % n, 2)).collect();
    edges.push((0, n / 2, 5));
    edges.push((1, n / 2 + 2, 5));
    edges.push((2, n / 2 + 4, 5));
    WGraph::from_edges(n as usize, &edges).unwrap()
}

fn chord_failures() -> [GraphDelta; 2] {
    [
        GraphDelta::FailEdge {
            u: NodeId(0),
            v: NodeId(6),
        },
        GraphDelta::FailEdge {
            u: NodeId(1),
            v: NodeId(8),
        },
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pde-chaos-recovery-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn live_artifact(registry: &OracleServer, name: &str) -> Vec<u8> {
    registry.lease(name).unwrap().oracle().artifact_bytes()
}

#[test]
fn recovery_is_byte_identical_for_every_backend() {
    let g = chorded_ring(12);
    for backend in Backend::ALL {
        let name = format!("rec-{}", backend.name());
        let dir = temp_dir(&name);
        let live = OracleServer::new();
        let dynamic =
            DynamicOracle::install_persistent(&live, &name, OracleBuilder::new(backend), &g, &dir)
                .unwrap();
        for delta in &chord_failures() {
            dynamic.repair_and_swap(&live, delta).unwrap();
        }
        assert_eq!(dynamic.wal_records(), 2, "{backend}: wal records");
        let live_bytes = live_artifact(&live, &name);
        // Crash: the process state is gone, only the files remain.
        drop(dynamic);
        drop(live);
        let cold = OracleServer::new();
        let (recovered, report) =
            DynamicOracle::recover(&cold, &name, OracleBuilder::new(backend), &dir).unwrap();
        assert_eq!(report.deltas_replayed, 2, "{backend}: replay count");
        assert!(!report.torn_tail, "{backend}: clean wal read as torn");
        assert!(!report.stale_wal_discarded, "{backend}: wal read as stale");
        assert_eq!(
            live_artifact(&cold, &name),
            live_bytes,
            "{backend}: recovered artifact differs from the live one"
        );
        // The recovered lifecycle keeps working: one more repair.
        recovered
            .repair_and_swap(
                &cold,
                &GraphDelta::FailEdge {
                    u: NodeId(2),
                    v: NodeId(10),
                },
            )
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_folds_the_wal_and_recovery_replays_only_the_tail() {
    let g = chorded_ring(12);
    let dir = temp_dir("fold");
    let live = OracleServer::new();
    let dynamic = DynamicOracle::install_persistent(
        &live,
        "fold",
        OracleBuilder::new(Backend::Flooding),
        &g,
        &dir,
    )
    .unwrap();
    let [first, second] = chord_failures();
    dynamic.repair_and_swap(&live, &first).unwrap();
    let folded = dynamic.checkpoint(&live).unwrap();
    assert_eq!(folded, 1, "checkpoint folded one delta");
    assert_eq!(dynamic.wal_records(), 0, "wal is empty after a fold");
    dynamic.repair_and_swap(&live, &second).unwrap();
    let live_bytes = live_artifact(&live, "fold");
    drop(dynamic);
    drop(live);
    let cold = OracleServer::new();
    let (_, report) =
        DynamicOracle::recover(&cold, "fold", OracleBuilder::new(Backend::Flooding), &dir).unwrap();
    assert_eq!(
        report.deltas_replayed, 1,
        "only the post-checkpoint delta replays"
    );
    assert_eq!(live_artifact(&cold, "fold"), live_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let g = chorded_ring(12);
    let dir = temp_dir("torn");
    let live = OracleServer::new();
    let dynamic = DynamicOracle::install_persistent(
        &live,
        "torn",
        OracleBuilder::new(Backend::Flooding),
        &g,
        &dir,
    )
    .unwrap();
    for delta in &chord_failures() {
        dynamic.repair_and_swap(&live, delta).unwrap();
    }
    let live_bytes = live_artifact(&live, "torn");
    drop(dynamic);
    drop(live);
    // Crash mid-append: a half-written frame at the tail.
    let wal_path = dir.join("torn.wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0x2C, 0x00, 0x00, 0x00, 0xDE, 0xAD]);
    std::fs::write(&wal_path, bytes).unwrap();
    let cold = OracleServer::new();
    let (_, report) =
        DynamicOracle::recover(&cold, "torn", OracleBuilder::new(Backend::Flooding), &dir).unwrap();
    assert!(report.torn_tail, "the torn tail must be reported");
    assert_eq!(report.deltas_replayed, 2, "whole records still replay");
    assert_eq!(live_artifact(&cold, "torn"), live_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_wal_from_an_interrupted_checkpoint_is_discarded() {
    let g = chorded_ring(12);
    let dir = temp_dir("stale");
    let live = OracleServer::new();
    let dynamic = DynamicOracle::install_persistent(
        &live,
        "stale",
        OracleBuilder::new(Backend::Flooding),
        &g,
        &dir,
    )
    .unwrap();
    let [first, _] = chord_failures();
    dynamic.repair_and_swap(&live, &first).unwrap();
    // Fold the delta into a new checkpoint (epoch 2, WAL reset)...
    dynamic.checkpoint(&live).unwrap();
    let live_bytes = live_artifact(&live, "stale");
    drop(dynamic);
    drop(live);
    // ...then simulate the crash window *between* checkpoint write and
    // WAL reset: put back an epoch-1 WAL still carrying the folded
    // delta. Replaying it would double-apply the failure.
    let wal_path = dir.join("stale.wal");
    let mut stale = DeltaWal::create(&wal_path, 1).unwrap();
    stale.append(&first).unwrap();
    drop(stale);
    let cold = OracleServer::new();
    let (_, report) =
        DynamicOracle::recover(&cold, "stale", OracleBuilder::new(Backend::Flooding), &dir)
            .unwrap();
    assert!(
        report.stale_wal_discarded,
        "the epoch-1 wal must be recognised as already folded"
    );
    assert_eq!(report.deltas_replayed, 0, "stale deltas must not replay");
    assert_eq!(live_artifact(&cold, "stale"), live_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `backend` built on the 24-node ring and installed as `"o"`, every
/// ordered pair of distinct nodes, and the in-process answers to them.
fn served_ring(backend: Backend) -> (Arc<OracleServer>, Vec<(NodeId, NodeId)>, Vec<u64>) {
    let oracle = OracleBuilder::new(backend).build(&chorded_ring(24));
    let pairs: Vec<(NodeId, NodeId)> = (0..24u32)
        .flat_map(|u| (0..24u32).map(move |v| (NodeId(u), NodeId(v))))
        .filter(|(u, v)| u != v)
        .collect();
    let mut want = Vec::new();
    oracle.estimate_many_with(&pairs, &mut want, 1);
    let registry = Arc::new(OracleServer::new());
    registry.install("o", oracle);
    (registry, pairs, want)
}

fn bind(registry: &Arc<OracleServer>, cfg: ServerConfig) -> NetServer {
    NetServer::bind("127.0.0.1:0", Arc::clone(registry), cfg).unwrap()
}

fn retry_client(replicas: &[SocketAddr]) -> RetryClient {
    let replicas = ReplicaSet::new(replicas)
        .unwrap()
        .with_reprobe(Duration::from_millis(20));
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        jitter_seed: 0xC4A0_5EED,
    };
    let mut client = RetryClient::connect(replicas, policy).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    client
}

#[test]
fn retry_client_answers_identically_through_the_chaos_proxy_for_every_backend() {
    for backend in Backend::ALL {
        let (registry, pairs, want) = served_ring(backend);
        let server = bind(&registry, ServerConfig::default());
        // Replies are cut or stalled 32–512 bytes in, so single estimates
        // and the 4 KiB batch reply both get torn.
        let plan = ChaosPlan {
            seed: 0xC4A0_5EED ^ backend as u64,
            min_prefix: 32,
            max_prefix: 512,
            ..ChaosPlan::default()
        };
        let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();
        let mut client = retry_client(&[proxy.local_addr()]);
        for (&(u, v), &est) in pairs.iter().zip(&want).take(64) {
            assert_eq!(
                client.estimate("o", u, v).unwrap(),
                est,
                "{backend}: {u} → {v} diverged under chaos"
            );
        }
        let (ests, _) = client.estimate_many("o", &pairs, false).unwrap();
        assert_eq!(ests, want, "{backend}: batch diverged under chaos");
        assert!(
            proxy.faults_injected() > 0,
            "{backend}: the proxy injected nothing"
        );
        assert!(client.retries() > 0, "{backend}: nothing needed a retry");
        proxy.shutdown();
        server.shutdown();
    }
}

#[test]
fn saturated_replica_refuses_typed_and_the_retry_client_fails_over() {
    let (registry, pairs, want) = served_ring(Backend::Flooding);
    let capped = bind(
        &registry,
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );
    let healthy = bind(&registry, ServerConfig::default());
    let (u, v) = pairs[0];
    // One connection holds the capped replica's only slot...
    let mut holder = Client::connect(capped.local_addr()).unwrap();
    assert_eq!(holder.estimate("o", u, v).unwrap(), want[0]);
    // ...so a plain client is refused at the door with the typed error,
    let mut refused = Client::connect(capped.local_addr()).unwrap();
    let err = refused.estimate("o", u, v).unwrap_err();
    assert!(
        matches!(err, WireError::Overloaded { .. }),
        "door refusal was {err:?}"
    );
    // and a retry client that knows a second replica moves over to it.
    let mut client = retry_client(&[capped.local_addr(), healthy.local_addr()]);
    let (ests, _) = client.estimate_many("o", &pairs, false).unwrap();
    assert_eq!(ests, want, "failover answers diverged");
    assert_eq!(client.current_replica(), Some(healthy.local_addr()));
    assert!(
        capped.metrics().connections_refused >= 2,
        "refusals counted"
    );
    assert_eq!(
        holder.estimate("o", u, v).unwrap(),
        want[0],
        "holder survived"
    );
    capped.shutdown();
    healthy.shutdown();
}

#[test]
fn shed_batch_surfaces_through_the_retry_client_and_is_not_replayed() {
    let (registry, pairs, want) = served_ring(Backend::Flooding);
    let server = bind(
        &registry,
        ServerConfig {
            max_batch_pairs: 8,
            ..ServerConfig::default()
        },
    );
    let mut client = retry_client(&[server.local_addr()]);
    let err = client.estimate_many("o", &pairs, false).unwrap_err();
    assert!(
        matches!(err, WireError::Overloaded { cap: 8, .. }),
        "oversized batch got {err:?}"
    );
    assert_eq!(
        (client.retries(), client.reconnects()),
        (0, 0),
        "the server answered: nothing to retry, connection kept"
    );
    let (small, _) = client.estimate_many("o", &pairs[..4], false).unwrap();
    assert_eq!(small, want[..4], "post-shed answers diverged");
    assert_eq!(server.metrics().requests_shed, 1);
    server.shutdown();
}

#[test]
fn connections_killed_mid_traffic_fail_over_to_the_second_replica() {
    let (registry, pairs, want) = served_ring(Backend::Flooding);
    let first = bind(&registry, ServerConfig::default());
    let second = bind(&registry, ServerConfig::default());
    // Every proxied connection is clean: the kill is the only fault.
    let plan = ChaosPlan {
        clean_every: 1,
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(first.local_addr(), plan).unwrap();
    let mut client = retry_client(&[proxy.local_addr(), second.local_addr()]);
    for (&(u, v), &est) in pairs.iter().zip(&want).take(8) {
        assert_eq!(
            client.estimate("o", u, v).unwrap(),
            est,
            "pre-kill {u} → {v}"
        );
    }
    assert_eq!(client.reconnects(), 0, "no fault before the kill");
    proxy.kill_live_connections();
    proxy.shutdown(); // the first replica is gone for good
    let (ests, _) = client.estimate_many("o", &pairs, false).unwrap();
    assert_eq!(ests, want, "post-kill answers diverged");
    assert!(client.reconnects() >= 1, "the kill must force a reconnect");
    assert_eq!(client.current_replica(), Some(second.local_addr()));
    first.shutdown();
    second.shutdown();
}
