//! Backend matrix: every [`Backend`] built through [`OracleBuilder`] on
//! seeded random graphs (a) answers `estimate`/`estimate_many_with` through the
//! `DistanceOracle` trait, (b) satisfies its advertised `stretch_bound()`
//! against `graphs::algo::apsp` ground truth, and (c) round-trips through
//! `save`/`load` with bit-identical answers on 1k random queries.

use pde_repro::graphs::algo::apsp;
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{NodeId, Seed, WGraph};
use pde_repro::oracle::{evaluate, Backend, DistanceOracle, Oracle, OracleBuilder, PairSelection};

fn graph(seed: u64) -> WGraph {
    let mut rng = Seed(seed).rng();
    gen::gnp_connected(26, 0.18, Weights::Uniform { lo: 1, hi: 30 }, &mut rng)
}

fn build(backend: Backend, g: &WGraph, seed: u64) -> Oracle {
    OracleBuilder::new(backend).seed(seed).k(2).build(g)
}

#[test]
fn every_backend_meets_its_advertised_stretch_bound() {
    for graph_seed in [1u64, 2] {
        let g = graph(graph_seed);
        let exact = apsp(&g);
        for backend in Backend::ALL {
            let oracle = build(backend, &g, 7 + graph_seed);
            assert_eq!(oracle.len(), g.len());
            assert_eq!(oracle.backend(), backend);
            let report = evaluate(&oracle, &g, &exact, PairSelection::All);
            assert!(
                report.failures.is_empty(),
                "{backend} (graph {graph_seed}): {:?}",
                &report.failures[..report.failures.len().min(5)]
            );
            let bound = oracle.stretch_bound();
            assert!(
                report.max_estimate_stretch <= bound + 1e-9,
                "{backend}: estimate stretch {} exceeds advertised {bound}",
                report.max_estimate_stretch
            );
            assert_eq!(report.routed, report.pairs, "{backend}: partial routing");
            assert!(
                report.max_route_stretch <= bound + 1e-9,
                "{backend}: route stretch {} exceeds advertised {bound}",
                report.max_route_stretch
            );
            assert!(report.size_bits > 0, "{backend}: empty artifact");
            assert!(report.p50_stretch >= 1.0 - 1e-12 && report.p50_stretch <= bound + 1e-9);
            assert!(report.p99_stretch <= bound + 1e-9);
        }
    }
}

/// Absolute answer pins: scalar and grouped queries share one formula per
/// scheme, so "grouped ≡ scalar" cannot catch a wrong formula, and
/// `tests/build_parity.rs` pins artifacts, not answers. A change that
/// claims the answers did not move must pass these unedited.
#[test]
fn answers_match_pinned_digests() {
    // Small `c` and `l0 = 1` keep the short-range lists and bunches well
    // below `n`, so the long-range, pivot-level and upper-level terms
    // decide about a third of the pairs on each hierarchy backend.
    let mut rng = Seed(0x5eed).rng();
    let g = gen::gnp_connected(64, 0.06, Weights::Uniform { lo: 1, hi: 30 }, &mut rng);
    let builder = |backend| OracleBuilder::new(backend).seed(0x5eed).k(3).c(0.5).l0(1);
    let digest = |oracle: &Oracle| {
        g.nodes()
            .flat_map(|u| g.nodes().map(move |v| (u, v)))
            .flat_map(|(u, v)| oracle.estimate(u, v).to_le_bytes())
            .fold(0xcbf29ce484222325u64, |d, b| {
                (d ^ u64::from(b)).wrapping_mul(0x100000001b3)
            })
    };
    let exact = 0x74c0dffac37cd885; // every pair's true distance
    let pins: [u64; 5] = [
        exact,              // pde
        0x97d88f34d94bc1bc, // rtc
        0xb5e2c1e126a693fc, // compact
        0x409c4e1b2b9ad159, // truncated
        exact,              // flooding
    ];
    for (backend, pin) in Backend::ALL.into_iter().zip(pins) {
        let got = digest(&builder(backend).build(&g));
        assert_eq!(got, pin, "{backend}: got {got:#018x}");
    }
    // A partial row set: σ ≪ n, h ≪ n, sources ⊂ V.
    let partial = builder(Backend::Pde)
        .sigma(3)
        .horizon(4)
        .sources((0..g.len()).map(|v| v % 3 == 0).collect())
        .build(&g);
    // The table serves σ-list entries only (pde_partial was
    // 0x020d8e4c3157448b while it served the whole routing archive).
    let got = digest(&partial);
    assert_eq!(got, 0x9adea34560aafbe9, "pde_partial: got {got:#018x}");
    // Truncated with a lower pivot level (l0 = 2), which l0 = 1 never
    // reaches: level 1's pivots, trees and options below the skeleton.
    let got = digest(&builder(Backend::Truncated).l0(2).build(&g));
    assert_eq!(got, 0xb5e2c1e126a693fc, "truncated l0 = 2: got {got:#018x}");
}

/// The routes beside the answers: on the graph and builders of
/// [`answers_match_pinned_digests`], the FNV digest of every ordered
/// pair's `route_into` node sequence (a `u32::MAX` word for a pair that
/// does not route). `estimate` never reads a stored port, so this is what
/// pins them.
#[test]
fn routes_match_pinned_digests() {
    let mut rng = Seed(0x5eed).rng();
    let g = gen::gnp_connected(64, 0.06, Weights::Uniform { lo: 1, hi: 30 }, &mut rng);
    let builder = |backend| OracleBuilder::new(backend).seed(0x5eed).k(3).c(0.5).l0(1);
    let digest = |oracle: &Oracle| {
        let mut route = pde_repro::oracle::TracedRoute::default();
        let mut words = Vec::new();
        for u in g.nodes() {
            for v in g.nodes() {
                match oracle.route_into(u, v, &mut route) {
                    true => words.extend(route.nodes.iter().map(|x| x.0)),
                    false => words.push(u32::MAX),
                }
            }
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf29ce484222325u64, |d, b| {
                (d ^ u64::from(b)).wrapping_mul(0x100000001b3)
            })
    };
    let pins: [u64; 5] = [
        0xf3a45158fa286530, // pde
        0xa98979b3deb2f1cd, // rtc
        0x39bc7dc16ab0a259, // compact
        0x5e98df62b43a7c19, // truncated
        0x4c25f26be05db70a, // flooding
    ];
    for (backend, pin) in Backend::ALL.into_iter().zip(pins) {
        let got = digest(&builder(backend).build(&g));
        assert_eq!(got, pin, "{backend}: got {got:#018x}");
    }
    let partial = builder(Backend::Pde)
        .sigma(3)
        .horizon(4)
        .sources((0..g.len()).map(|v| v % 3 == 0).collect())
        .build(&g);
    // Unlisted pairs route only through transit hops now
    // (0x2eaa607b1262bb0e while every archive pair routed).
    let got = digest(&partial);
    assert_eq!(got, 0xdf79aefc20b9efa8, "pde_partial: got {got:#018x}");
    let got = digest(&builder(Backend::Truncated).l0(2).build(&g));
    assert_eq!(got, 0x9f57e5f9dd311c45, "truncated l0 = 2: got {got:#018x}");
}

/// Theorem 4.1 is PDE at `S = V`, `h = σ = n` — `Backend::Pde`'s
/// defaults — so default `Pde` must answer, route and charge exactly as
/// `pde_core::approx_apsp`, the library's one definition of it, on
/// weighted graphs where rounding is in play, in both build modes and at
/// every thread count.
#[test]
fn approx_apsp_is_pde_at_its_defaults() {
    use pde_repro::oracle::{BuildMode, TracedRoute};
    use pde_repro::pde_core::approx_apsp;
    let mut rng = Seed(7).rng();
    let graphs = [
        gen::gnp_connected(40, 0.1, Weights::Uniform { lo: 1, hi: 1000 }, &mut rng),
        gen::gnp_connected(36, 0.12, Weights::PowerOfTwo { max_exp: 12 }, &mut rng),
        gen::grid(5, 7, Weights::Uniform { lo: 1, hi: 64 }, &mut rng),
    ];
    let (mut pairs_seen, mut inexact) = (0usize, 0usize);
    for g in &graphs {
        let (exact, topo) = (apsp(g), g.to_topology());
        let square: Vec<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|u| g.nodes().map(move |v| (u, v)))
            .collect();
        // Tiled past the grouping gate, so the batch runs the schedule.
        let batch: Vec<(NodeId, NodeId)> = square
            .iter()
            .cycle()
            .take(4 * square.len())
            .copied()
            .collect();
        for eps in [0.125, 0.5] {
            let aps = approx_apsp(g, eps);
            let want: Vec<u64> = batch.iter().map(|&(u, v)| aps.dist(u, v)).collect();
            for mode in [BuildMode::Simulated, BuildMode::Native] {
                let pde = OracleBuilder::new(Backend::Pde)
                    .eps(eps)
                    .build_mode(mode)
                    .build(g);
                let at = format!("n={} eps={eps} {mode:?}", g.len());
                let mut route = TracedRoute::default();
                for &(u, v) in &square {
                    let est = pde.estimate(u, v);
                    assert_eq!(est, aps.dist(u, v), "{at} estimate ({u},{v})");
                    if u != v {
                        let (nodes, weight) = aps.pde.trace_route(&topo, u, v).unwrap();
                        assert!(pde.route_into(u, v, &mut route), "{at} ({u},{v})");
                        assert_eq!((&route.nodes, route.weight), (&nodes, weight), "{at}");
                    }
                    pairs_seen += 1;
                    inexact += usize::from(est != exact.dist(u, v));
                }
                for threads in [1usize, 0] {
                    let mut got = Vec::new();
                    pde.estimate_many_with(&batch, &mut got, threads);
                    assert_eq!(got, want, "{at} threads={threads}");
                }
                let m = pde.build_metrics();
                match mode {
                    BuildMode::Simulated => {
                        let total = aps.pde.metrics.total;
                        assert_eq!(
                            (m.rounds, m.messages),
                            (total.rounds, total.messages),
                            "{at}"
                        );
                    }
                    BuildMode::Native => assert_eq!(m.rounds, 0, "{at}: native charges no rounds"),
                }
            }
        }
    }
    // At h = n the grid and the power-of-two graph are almost exact; the
    // Uniform{1..1000} graph carries the rounding (≈ 22 % overall).
    assert!(
        5 * inexact >= pairs_seen,
        "only {inexact} of {pairs_seen} pairs inexact: rounding barely exercised"
    );
}

#[test]
fn batch_queries_agree_with_point_queries() {
    let g = graph(3);
    let pairs: Vec<(NodeId, NodeId)> = (0..g.len() as u32)
        .flat_map(|u| (0..g.len() as u32).map(move |v| (NodeId(u), NodeId(v))))
        .collect();
    for backend in Backend::ALL {
        let oracle = build(backend, &g, 11);
        let mut batch = Vec::new();
        oracle.estimate_many_with(&pairs, &mut batch, 1);
        assert_eq!(batch.len(), pairs.len(), "{backend}");
        for (&(u, v), &b) in pairs.iter().zip(&batch) {
            assert_eq!(b, oracle.estimate(u, v), "{backend} ({u},{v})");
            if u == v {
                assert_eq!(b, 0, "{backend}: nonzero diagonal");
            }
        }
    }
}

#[test]
fn batch_answers_are_identical_for_every_thread_count() {
    // The estimate_many_with determinism contract: the pair slice is
    // sharded into contiguous chunks with order-preserving writes, so
    // threads ∈ {1, 4, auto} must produce byte-identical outputs for
    // every backend (and agree with the sequential call).
    let g = graph(7);
    let square: Vec<(NodeId, NodeId)> = (0..g.len() as u32)
        .flat_map(|u| (0..g.len() as u32).map(move |v| (NodeId(u), NodeId(v))))
        .collect();
    // Tile past the per-worker shard floor (~1k pairs each) so the scoped
    // workers actually spawn.
    let pairs: Vec<(NodeId, NodeId)> = square
        .iter()
        .cycle()
        .take(8 * square.len())
        .copied()
        .collect();
    for backend in Backend::ALL {
        let oracle = build(backend, &g, 17);
        let mut seq = Vec::new();
        oracle.estimate_many_with(&pairs, &mut seq, 1);
        for threads in [1usize, 4, 0] {
            let mut par = Vec::new();
            oracle.estimate_many_with(&pairs, &mut par, threads);
            assert_eq!(seq, par, "{backend}: threads={threads} changed answers");
        }
    }
}

#[test]
fn route_into_reuses_buffers_and_matches_route() {
    let g = graph(8);
    let mut buf = pde_repro::oracle::TracedRoute::default();
    for backend in Backend::ALL {
        let oracle = build(backend, &g, 19);
        for u in g.nodes().take(8) {
            for v in g.nodes().take(8) {
                let fresh = oracle.route(u, v);
                let ok = oracle.route_into(u, v, &mut buf);
                match fresh {
                    Some(r) => {
                        assert!(ok, "{backend} ({u},{v}): route_into disagrees with route");
                        assert_eq!(r, buf, "{backend} ({u},{v})");
                    }
                    None => assert!(!ok, "{backend} ({u},{v}): route_into found a phantom route"),
                }
            }
        }
    }
}

/// 1k seeded random pairs over `g`.
fn random_queries(g: &WGraph) -> Vec<(NodeId, NodeId)> {
    use rand::Rng;
    let mut rng = Seed(0xDEC0DE).rng();
    let n = g.len() as u32;
    (0..1000)
        .map(|_| {
            (
                NodeId(rng.random_range(0..n)),
                NodeId(rng.random_range(0..n)),
            )
        })
        .collect()
}

/// `loaded` is `oracle` again: identity, bit-identical point, batch and
/// routing answers, and the metrics and bounds that ride in a snapshot.
fn assert_reloaded(oracle: &Oracle, loaded: &Oracle, queries: &[(NodeId, NodeId)], how: &str) {
    let backend = oracle.backend();
    assert_eq!(loaded.backend(), backend);
    assert_eq!(loaded.len(), oracle.len());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    oracle.estimate_many_with(queries, &mut a, 1);
    loaded.estimate_many_with(queries, &mut b, 1);
    assert_eq!(a, b, "{backend}: {how} batch answers diverge");
    for &(u, v) in queries {
        let at = format!("{backend} {how} ({u},{v})");
        assert_eq!(oracle.estimate(u, v), loaded.estimate(u, v), "{at}");
        assert_eq!(oracle.next_hop(u, v), loaded.next_hop(u, v), "{at}");
        assert_eq!(oracle.route(u, v), loaded.route(u, v), "{at}");
    }
    assert_eq!(
        oracle.build_metrics().rounds,
        loaded.build_metrics().rounds,
        "{backend} {how}"
    );
    assert_eq!(
        oracle.stretch_bound(),
        loaded.stretch_bound(),
        "{backend} {how}"
    );
}

#[test]
fn save_load_round_trips_bit_identically_on_1k_random_queries() {
    let g = graph(4);
    let queries = random_queries(&g);
    for backend in Backend::ALL {
        let oracle = build(backend, &g, 13);
        let mut bytes = Vec::new();
        oracle.save(&mut bytes).expect("save succeeds");
        assert_eq!(
            oracle.size_bits(),
            8 * bytes.len() as u64,
            "{backend}: size_bits must equal the serialized artifact size"
        );
        let loaded = Oracle::load(&mut &bytes[..]).expect("load succeeds");
        assert_reloaded(&oracle, &loaded, &queries, "load");

        // Re-saving the loaded oracle reproduces the byte stream.
        let mut bytes2 = Vec::new();
        loaded.save(&mut bytes2).expect("re-save succeeds");
        assert_eq!(bytes, bytes2, "{backend}: snapshot is not canonical");
    }
}

#[test]
fn v3_snapshots_round_trip_and_answer_identically_to_v2() {
    // One format, three ways in (the name dates from when there were two
    // formats): for every backend the stream `load`, the in-memory
    // `load_bytes` and the file `load_path` must each hand back the
    // built oracle, and re-save the bytes they were loaded from.
    let g = graph(4);
    let queries = random_queries(&g);
    for backend in Backend::ALL {
        let oracle = build(backend, &g, 13);
        let (snap, loaded) = every_load(&oracle, "v3");
        for (how, loaded) in &loaded {
            assert_reloaded(&oracle, loaded, &queries, how);
            let mut again = Vec::new();
            loaded.save(&mut again).expect("re-save succeeds");
            assert_eq!(snap, again, "{backend}: {how} re-save is not canonical");
        }
    }
}

/// `oracle`'s snapshot, and the oracle loaded back from it through each
/// entry point: `load`, `load_bytes`, `load_path`.
fn every_load(oracle: &Oracle, tag: &str) -> (Vec<u8>, [(&'static str, Oracle); 3]) {
    let mut snap = Vec::new();
    oracle.save(&mut snap).expect("save succeeds");
    let path = std::env::temp_dir().join(format!(
        "pde-oracle-matrix-{}-{tag}-{}.snap",
        std::process::id(),
        oracle.backend().name()
    ));
    oracle.save_path_v3(&path).expect("save_path_v3 succeeds");
    assert_eq!(std::fs::read(&path).unwrap(), snap, "file ≠ stream");
    let loaded = [
        ("load", Oracle::load(&mut &snap[..]).expect("load succeeds")),
        (
            "load_bytes",
            Oracle::load_bytes(&snap).expect("load_bytes succeeds"),
        ),
        (
            "load_path",
            Oracle::load_path(&path).expect("load_path succeeds"),
        ),
    ];
    std::fs::remove_file(&path).ok();
    (snap, loaded)
}

#[test]
fn heavy_weights_answer_identically_from_every_snapshot_form() {
    // Weights ≈ 2⁴⁰ put every estimate above the narrow tables' 32-bit
    // field (each entry takes the escape) and every edge above
    // DIAL_WEIGHT_LIMIT (heap Dijkstra, hash-row fallbacks). Exact
    // answers must not depend on which form serves them: the built
    // oracle and its `load`, `load_bytes` and `load_path` reloads agree
    // on everything.
    use pde_repro::graphs::algo::DIAL_WEIGHT_LIMIT;
    let lo = 1u64 << 40;
    assert!(lo > DIAL_WEIGHT_LIMIT);
    let mut rng = Seed(21).rng();
    let g = gen::gnp_connected(20, 0.2, Weights::Uniform { lo, hi: lo + 30 }, &mut rng);
    let square: Vec<(NodeId, NodeId)> = (0..g.len() as u32)
        .flat_map(|u| (0..g.len() as u32).map(move |v| (NodeId(u), NodeId(v))))
        .collect();
    // Tiled past the grouping gate and the per-worker shard floor.
    let batch: Vec<(NodeId, NodeId)> = square
        .iter()
        .cycle()
        .take(12 * square.len())
        .copied()
        .collect();
    for backend in Backend::ALL {
        let built = build(backend, &g, 23);
        let (snap, loaded) = every_load(&built, "heavy");
        let artifact = built.artifact_bytes();
        let mut want = Vec::new();
        built.estimate_many_with(&batch, &mut want, 1);
        assert!(
            square
                .iter()
                .zip(&want)
                .all(|(&(u, v), &est)| u == v || est >= lo),
            "{backend}: an estimate below the lightest edge"
        );
        let (mut route, mut other) = Default::default();
        for (how, loaded) in &loaded {
            let mut again = Vec::new();
            loaded.save(&mut again).expect("re-save succeeds");
            assert_eq!(snap, again, "{backend}: {how} re-save is not canonical");
            assert_eq!(loaded.artifact_bytes(), artifact, "{backend} {how}");
            for threads in [1usize, 4] {
                let mut got = Vec::new();
                loaded.estimate_many_with(&batch, &mut got, threads);
                assert_eq!(want, got, "{backend} {how}: threads={threads}");
            }
            for &(u, v) in &square {
                assert_eq!(
                    built.estimate(u, v),
                    loaded.estimate(u, v),
                    "{backend} {how} ({u},{v})"
                );
                assert_eq!(
                    built.next_hop(u, v),
                    loaded.next_hop(u, v),
                    "{backend} {how} ({u},{v})"
                );
                let ok = built.route_into(u, v, &mut route);
                assert_eq!(
                    ok,
                    loaded.route_into(u, v, &mut other),
                    "{backend} {how} ({u},{v})"
                );
                if ok {
                    assert_eq!(route, other, "{backend} {how} ({u},{v})");
                }
            }
        }
    }
}

#[test]
fn corrupted_snapshots_are_rejected() {
    let g = graph(5);
    let oracle = build(Backend::Pde, &g, 1);
    let mut bytes = Vec::new();
    oracle.save(&mut bytes).unwrap();
    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(Oracle::load(&mut &bad[..]).is_err());
    // Bad version.
    let mut bad = bytes.clone();
    bad[4] = 0xFF;
    assert!(Oracle::load(&mut &bad[..]).is_err());
    // Truncated payload.
    let half = &bytes[..bytes.len() / 2];
    assert!(Oracle::load(&mut &half[..]).is_err());
    // Tampered section count: an arena claiming an absurd directory must
    // come back as InvalidData, not abort on a huge allocation. The count
    // is the u64 right after the 40-byte header, here of flooding's
    // exact route table.
    let flooding = build(Backend::Flooding, &g, 1);
    let mut bytes = Vec::new();
    flooding.save(&mut bytes).unwrap();
    bytes[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(Oracle::load(&mut &bytes[..]).is_err());
}

#[test]
fn pde_backend_supports_partial_source_sets() {
    let g = graph(6);
    let n = g.len();
    let sources: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let oracle = OracleBuilder::new(Backend::Pde)
        .sources(sources.clone())
        .horizon(n as u64)
        .build(&g);
    let exact = apsp(&g);
    for u in g.nodes() {
        for v in g.nodes() {
            let est = oracle.estimate(u, v);
            if u == v {
                assert_eq!(est, 0);
            } else if sources[v.index()] {
                assert!(est >= exact.dist(u, v), "({u},{v}) underestimates");
                assert!(
                    est as f64 <= oracle.stretch_bound() * exact.dist(u, v) as f64 + 1e-9,
                    "({u},{v}): est {est} vs wd {}",
                    exact.dist(u, v)
                );
                // Route tracing straight from the trait — no Topology
                // plumbing on the caller side.
                let route = oracle.route(u, v).expect("covered pair routes");
                assert_eq!(*route.nodes.last().unwrap(), v);
                assert_eq!(route.hops(), route.nodes.len() - 1);
                assert!(route.weight <= est, "route heavier than estimate");
            } else {
                assert_eq!(est, pde_repro::graphs::INF, "non-source {v} covered?");
            }
        }
    }
}
