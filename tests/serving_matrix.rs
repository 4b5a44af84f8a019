//! Serving identity, per backend: the answers an oracle gives in process
//! are the answers it gives from a `serve::OracleServer` (install,
//! hot swap, admission `Batcher`) and over a `net::NetServer`
//! loopback socket (inline swap, file install, direct and batched
//! frames, a grouped-kernel-sized frame in two orders, `next_hop` and
//! `route`). Each backend is built once and walked through all three.

use congest::NodeId;
use graphs::gen::{self, Weights};
use net::{Client, NetServer, RouteOutcome, ServerConfig};
use oracle::{Backend, DistanceOracle, OracleBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::{Batcher, OracleServer};
use std::sync::Arc;
use std::time::Duration;

const N: u32 = 24;
const SEED: u64 = 0xE11;

fn random_pairs(count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let u = rng.random_range(0..N);
            (NodeId(u), NodeId((u + rng.random_range(1..N)) % N))
        })
        .collect()
}

#[test]
fn every_backend_answers_identically_in_process_served_and_over_loopback() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let g = gen::gnp_connected(N as usize, 0.25, Weights::Unit, &mut rng);
    let pairs = random_pairs(512, SEED ^ 1);
    // Above 4096 pairs the server answers through the grouped kernel;
    // `perm` is the (u, v)-sorted order of the same frame.
    let big = random_pairs(6_000, SEED ^ 2);
    let mut perm: Vec<usize> = (0..big.len()).collect();
    perm.sort_by_key(|&i| (big[i].0 .0, big[i].1 .0));
    let big_sorted: Vec<(NodeId, NodeId)> = perm.iter().map(|&i| big[i]).collect();

    let registry = Arc::new(OracleServer::new());
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for backend in Backend::ALL {
        let oracle = OracleBuilder::new(backend).seed(SEED).k(2).build(&g);
        let mut want = Vec::new();
        oracle.estimate_many_with(&pairs, &mut want, 1);
        let mut snap = Vec::new();
        oracle.save(&mut snap).unwrap();

        // In-process serving: install → query → hot swap → query →
        // admission batcher.
        let name = format!("served-{}", backend.name());
        let first = registry.install_from_bytes(&name, &snap).unwrap();
        assert_eq!(
            (first.backend, first.n),
            (backend, N as usize),
            "{backend}: install identity"
        );
        let mut got = Vec::new();
        registry.query(&name, &pairs, &mut got, 1).unwrap();
        assert_eq!(got, want, "{backend}: served answers ≠ in-process");
        let second = registry.install_from_bytes(&name, &snap).unwrap();
        assert_eq!(
            second.replaced.map(|old| old.generation),
            Some(first.generation),
            "{backend}: hot swap retired the wrong snapshot"
        );
        let generation = registry.query(&name, &pairs, &mut got, 1).unwrap();
        assert_eq!(generation, second.generation, "{backend}: stale lease");
        assert_eq!(got, want, "{backend}: hot swap changed answers");
        let batcher = Batcher::new(&name, Duration::from_millis(1), 1);
        let (batched, _) = batcher.submit(&registry, pairs.clone()).unwrap();
        assert_eq!(batched, want, "{backend}: batcher changed answers");

        // Loopback socket: inline swap, then the file installed from the
        // server's disk as a hot swap.
        let name = format!("wire-{}", backend.name());
        let swapped = client.swap(&name, &snap).unwrap();
        assert_eq!(
            (swapped.backend, swapped.n),
            (backend, u64::from(N)),
            "{backend}: wire swap identity"
        );
        let (ests, generation) = client.estimate_many(&name, &pairs, false).unwrap();
        assert_eq!(generation, swapped.generation, "{backend}: stale wire swap");
        assert_eq!(ests, want, "{backend}: swap over the wire ≠ in-process");
        let path = std::env::temp_dir().join(format!(
            "pde-serving-matrix-{}-{name}.snap",
            std::process::id()
        ));
        oracle.save_path_v3(&path).unwrap();
        let installed = client.install(&name, path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            installed.replaced.map(|(generation, _)| generation),
            Some(swapped.generation),
            "{backend}: wire install must retire the swapped snapshot"
        );
        let (ests, generation) = client.estimate_many(&name, &pairs, false).unwrap();
        assert_eq!(generation, installed.generation, "{backend}: stale install");
        assert_eq!(ests, want, "{backend}: install over the wire ≠ in-process");
        let (batched, _) = client.estimate_many(&name, &pairs, true).unwrap();
        assert_eq!(batched, want, "{backend}: batched over the wire diverged");

        // Responses list answers in request order, so the sorted frame
        // is compared pair-for-pair through the permutation.
        let (shuffled, _) = client.estimate_many(&name, &big, false).unwrap();
        let (sorted, _) = client.estimate_many(&name, &big_sorted, false).unwrap();
        for (&i, &ans) in perm.iter().zip(&sorted) {
            let (u, v) = big[i];
            assert_eq!(
                [shuffled[i], ans],
                [oracle.estimate(u, v); 2],
                "{backend}: frame order changed {u} → {v}"
            );
        }

        for &(u, v) in &pairs[..16] {
            assert_eq!(
                client.next_hop(&name, u, v).unwrap(),
                oracle.next_hop(u, v),
                "{backend}: wire next_hop {u} → {v}"
            );
            let (outcome, route) = client.route(&name, u, v).unwrap();
            let expected = oracle.route(u, v);
            let expected_outcome = match expected {
                Some(_) => RouteOutcome::Primary,
                None => RouteOutcome::Unroutable,
            };
            assert_eq!(outcome, expected_outcome, "{backend}: wire route outcome");
            assert_eq!(route, expected, "{backend}: wire route {u} → {v}");
        }
    }
    server.shutdown();
}
