//! Build-mode parity: for every backend, `BuildMode::Native` and
//! `BuildMode::Simulated` builds of the same graph/seed/knobs must
//! produce **byte-identical canonical artifacts** and identical query
//! answers, at every thread count — the determinism contract of the
//! native build engine (ISSUE 5).
//!
//! Property-tested over random graph families (G(n,p), Barabási–Albert,
//! ring of cliques, hypercube), weight ranges, and seeds; threads ∈
//! {1, 4}. The canonical artifact bytes ([`Oracle::artifact_bytes`]) are
//! the `save` stream with volatile measurement fields zeroed, so the
//! comparison covers the full serialized query state: topology, labels,
//! flat route tables, trees, long-range matrices.

use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::NodeId;
use pde_repro::graphs::WGraph;
use pde_repro::oracle::{Backend, BuildMode, DistanceOracle, Oracle, OracleBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over a byte stream.
fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf29ce484222325u64, |d, b| {
        (d ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// FNV-1a over a batch of query answers.
fn digest(values: &[u64]) -> u64 {
    fnv(values.iter().flat_map(|x| x.to_le_bytes()))
}

/// A generated parity case: graph family index, size, weight choice and
/// seed.
type Case = (u8, usize, u8, u64);

fn cases() -> impl Strategy<Value = Case> {
    ((0u8..4), (12usize..=26), (0u8..3), (0u64..1 << 40))
}

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

fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n as u32)
        .flat_map(|u| (0..n as u32).map(move |v| (NodeId(u), NodeId(v))))
        .collect()
}

fn build(backend: Backend, g: &WGraph, seed: u64, mode: BuildMode, threads: usize) -> Oracle {
    OracleBuilder::new(backend)
        .seed(seed)
        .k(2)
        .build_mode(mode)
        .threads(threads)
        .build(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline contract: for all 6 backends, canonical artifact
    /// bytes and full query digests agree between Simulated and Native
    /// builds at threads ∈ {1, 4}.
    #[test]
    fn native_builds_are_byte_identical_to_simulated(case in cases()) {
        let (family, n, weights, seed) = case;
        let g = build_graph(family, n, weights, seed);
        let pairs = all_pairs(g.len());
        for backend in Backend::ALL {
            let reference = build(backend, &g, seed, BuildMode::Simulated, 1);
            let ref_bytes = reference.artifact_bytes();
            let mut out = Vec::new();
            reference.estimate_many_with(&pairs, &mut out, 1);
            let ref_digest = digest(&out);
            for (mode, threads) in [
                (BuildMode::Simulated, 4),
                (BuildMode::Native, 1),
                (BuildMode::Native, 4),
            ] {
                let other = build(backend, &g, seed, mode, threads);
                prop_assert_eq!(
                    other.artifact_bytes(),
                    ref_bytes.clone(),
                    "{} artifact bytes diverged ({:?}, threads={}, family={}, n={}, w={}, seed={})",
                    backend, mode, threads, family, n, weights, seed
                );
                other.estimate_many_with(&pairs, &mut out, 1);
                prop_assert_eq!(
                    digest(&out),
                    ref_digest,
                    "{} query digest diverged ({:?}, threads={})",
                    backend, mode, threads
                );
            }
        }
    }
}

/// The canonical artifact stream is itself a loadable snapshot that
/// answers identically (metrics read back as zeros).
#[test]
fn canonical_artifact_bytes_are_loadable() {
    let g = build_graph(0, 20, 1, 7);
    let pairs = all_pairs(g.len());
    for backend in Backend::ALL {
        let oracle = build(backend, &g, 7, BuildMode::Simulated, 1);
        let bytes = oracle.artifact_bytes();
        let loaded = Oracle::load(&mut &bytes[..]).expect("canonical bytes load");
        assert_eq!(loaded.build_metrics().rounds, 0, "{backend}");
        assert_eq!(loaded.artifact_bytes(), bytes, "{backend}");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        oracle.estimate_many_with(&pairs, &mut a, 1);
        loaded.estimate_many_with(&pairs, &mut b, 1);
        assert_eq!(a, b, "{backend}: canonical reload changed answers");
    }
}

/// Routing answers (next hops) also agree across modes — the archive
/// ports are part of the canonical artifact, so this is implied by byte
/// identity, but check through the query surface too.
#[test]
fn native_builds_route_identically() {
    let g = build_graph(1, 24, 1, 21);
    let sim = build(Backend::Rtc, &g, 21, BuildMode::Simulated, 1);
    let nat = build(Backend::Rtc, &g, 21, BuildMode::Native, 4);
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(sim.next_hop(u, v), nat.next_hop(u, v), "({u},{v})");
            assert_eq!(sim.route(u, v), nat.route(u, v), "({u},{v})");
        }
    }
    assert!(sim.build_metrics().rounds > 0, "simulated charges rounds");
    assert_eq!(nat.build_metrics().rounds, 0, "native charges none");
}

/// Absolute pins: every other identity test here is relative (Simulated
/// ≡ Native, threads 1 ≡ 4), so a change that moves both sides the same
/// way passes them all. A change that claims byte identity must pass
/// these unedited; a deliberate format change re-records them and says so.
#[test]
fn artifact_bytes_match_pinned_digests() {
    let g = build_graph(0, 40, 1, 0x5eed);
    let builder = |backend| {
        OracleBuilder::new(backend)
            .seed(0x5eed)
            .k(2)
            .build_mode(BuildMode::Native)
            .threads(1)
    };
    // Re-recorded for arena tag 13 (a keyed record's key, the ranks and
    // the edge list each at the narrowest width their data needs). Tag
    // 12 values: pde 0x3b7721752cdeedb5, approx_apsp 0x2709a1caa98a6f80,
    // rtc 0x270b592b6f0ad861, compact 0xc197c298abc5cc4c, truncated
    // 0x1e5ce4000b93663e, flooding 0xfd39e32384d6b286, pde_partial
    // 0x790160907a201878. Every backend changes layout, not only the
    // header's version bytes: each artifact carries an edge list, now
    // at 1-byte endpoints and weights on this 40-node graph.
    // Tag 12 was recorded for a partial PDE table keeping only its
    // σ-list entries, with its transit hops in two sections before it.
    // Tag 11 values: pde 0x4ea351ed92f169d7, approx_apsp
    // 0x8a1dd529248b97ca, rtc 0x1ba2f7bc0fbd5c8e, compact
    // 0x3ee364e48ecd3f93, truncated 0xaa5fc2a8ab909f45, flooding
    // 0x37316b1750164530, pde_partial 0x1e988101c723bac6. rtc, compact
    // and truncated differ from tag 11 only in the header's version
    // bytes, and pde, approx_apsp and flooding in those and the two empty
    // transit sections' directory entries (with both dropped and byte 4
    // set back to 11 they hash to their tag-11 values); pde_partial
    // changes layout.
    // Tag 11 was recorded for route rows keyed by source rank, each
    // table followed by its source map: member ids and per-node ranks,
    // both empty when the rows name every node. Tag 10 values:
    // pde 0x9fe2ea257fee833a, approx_apsp 0x115117fd73a4919f, rtc
    // 0x8fad9ebd29293ab2, compact 0x6b79385114dbaf4c, truncated
    // 0xb4375f72969a4eb5, flooding 0x1711c1152e6cbec7, pde_partial
    // 0x84b9158fd7e40b2b. pde, approx_apsp, rtc and flooding differ from
    // tag 10 only in the header's version bytes and the two empty map
    // sections' directory entries (with both dropped and byte 4 set back
    // to 10 they hash to their tag-10 values); compact and truncated
    // (whose upper-level table covers a level sample) and pde_partial
    // change layout.
    // Tag 10 was re-recorded once itself, for each route slot as one
    // packed word `port | hops | level`. Tag 9 values: pde
    // 0xa2ffeac3e290d130, approx_apsp 0xc56fab87be65690d, rtc
    // 0x169c20a6728721d1, compact 0x92ac0091bb2acc7f, truncated
    // 0xd1ff626eacca4610, flooding 0x8aadc0624fccd771, pde_partial
    // 0xbc769e954aa619dd; flooding's tag-10 matrix value (before it
    // became the PDE layout over exact rows) was 0x65014cf9568993ba.
    // approx_apsp (backend tag 1, retired) pinned 0x9ac267501172fbba:
    // pde's bytes under its own header tag.
    let pins: [u64; 5] = [
        0x8c2995bc32e812d3, // pde
        0xeb6b4d7e1a94ae9b, // rtc
        0x58ef678ed2903182, // compact
        0xb92c93a12b6bea89, // truncated
        0x3224c30ad15facd3, // flooding
    ];
    for (backend, pin) in Backend::ALL.into_iter().zip(pins) {
        let got = fnv(builder(backend).build(&g).artifact_bytes().into_iter());
        assert_eq!(got, pin, "{backend}: got {got:#018x}");
    }
    // A partial row set: σ ≪ n, h ≪ n, sources ⊂ V.
    let partial = builder(Backend::Pde)
        .sigma(3)
        .horizon(4)
        .sources((0..g.len()).map(|v| v % 3 == 0).collect())
        .build(&g);
    let got = fnv(partial.artifact_bytes().into_iter());
    assert_eq!(got, 0x9034691b0917b4e2, "pde_partial: got {got:#018x}");
}
