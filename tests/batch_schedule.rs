//! Property-based tests for the source-grouped batch query kernel
//! (PR 10): for every backend, grouped == ungrouped == scalar answers,
//! byte-identically, across batch orders (sorted, shuffled, reversed,
//! duplicate pairs, the diagonal) and thread counts ∈ {1, 4}.
//!
//! Two layers are pinned. [`DistanceOracle::estimate_grouped`] is probed
//! directly against a schedule built from random pairs — its scattered
//! answers must equal a scalar `estimate` sweep. And the full
//! `estimate_many_with` path is driven with batches large enough to
//! cross the grouping gate, in every order and at both thread counts,
//! asserting the submission-order answers never change.

use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::NodeId;
use pde_repro::oracle::{Backend, DistanceOracle, Oracle, OracleBuilder};
use pde_repro::pde_core::BatchSchedule;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const N: usize = 40;

/// One build per backend for the whole test binary — the properties are
/// about the query path, so the (expensive) builds are shared.
fn oracles() -> &'static Vec<(Backend, Oracle)> {
    static ORACLES: OnceLock<Vec<(Backend, Oracle)>> = OnceLock::new();
    ORACLES.get_or_init(|| {
        let mut rng = SmallRng::seed_from_u64(0xBA7C5);
        let g = gen::gnp_connected(N, 0.14, Weights::Uniform { lo: 1, hi: 24 }, &mut rng);
        Backend::ALL
            .into_iter()
            .map(|b| (b, OracleBuilder::new(b).seed(7u64).k(2).build(&g)))
            .collect()
    })
}

/// Scalar ground truth in submission order.
fn scalar(o: &Oracle, pairs: &[(NodeId, NodeId)]) -> Vec<u64> {
    pairs.iter().map(|&(u, v)| o.estimate(u, v)).collect()
}

/// Applies `perm` to `pairs`, runs the batch, and un-permutes the
/// answers back to submission order.
fn run_permuted(o: &Oracle, pairs: &[(NodeId, NodeId)], perm: &[u32], threads: usize) -> Vec<u64> {
    let permuted: Vec<(NodeId, NodeId)> = perm.iter().map(|&i| pairs[i as usize]).collect();
    let mut out = Vec::new();
    o.estimate_many_with(&permuted, &mut out, threads);
    let mut unpermuted = vec![0u64; pairs.len()];
    for (&i, &ans) in perm.iter().zip(&out) {
        unpermuted[i as usize] = ans;
    }
    unpermuted
}

/// Random pairs over the node range, diagonal and duplicates included
/// (the generator happily repeats pairs; the diagonal is forced below).
fn pair_vec(len: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    proptest::collection::vec(((0..N as u32), (0..N as u32)), len).prop_map(|raw| {
        raw.into_iter()
            .map(|(u, v)| (NodeId(u), NodeId(v)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `estimate_grouped` + scatter equals a scalar sweep on every
    /// backend, for schedules built from arbitrary (duplicate-heavy)
    /// batches.
    #[test]
    fn grouped_kernel_matches_scalar(pairs in pair_vec(120), dup in 0usize..120) {
        // Force a duplicated pair and a diagonal entry into every case.
        let mut pairs = pairs;
        let d = pairs[dup % pairs.len()];
        pairs.push(d);
        pairs.push((d.0, d.0));
        let sched = BatchSchedule::build(&pairs, N);
        // Two more orders a kernel must answer: a shard that starts inside
        // a source's group (the forced duplicates guarantee one), and the
        // unsorted identity order.
        let order = sched.order();
        let mid = (1..order.len())
            .find(|&i| pairs[order[i] as usize].0 == pairs[order[i - 1] as usize].0)
            .expect("the duplicated pair and its diagonal share a source");
        let identity: Vec<u32> = (0..pairs.len() as u32).collect();
        for (backend, o) in oracles() {
            let want = scalar(o, &pairs);
            let mut grouped = vec![0u64; pairs.len()];
            o.estimate_grouped(&pairs, sched.order(), &mut grouped);
            let mut got = vec![0u64; pairs.len()];
            sched.scatter(&grouped, &mut got);
            prop_assert_eq!(&got, &want, "{}: grouped kernel diverged", backend);
            for part in [&order[mid..], &identity[..]] {
                let mut grouped = vec![0u64; part.len()];
                o.estimate_grouped(&pairs, part, &mut grouped);
                let want_part: Vec<u64> = part.iter().map(|&i| want[i as usize]).collect();
                prop_assert_eq!(&grouped, &want_part, "{}: partial order diverged", backend);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full batch path answers identically for every batch order and
    /// thread count — including batches below the grouping gate, where
    /// the direct path must agree with the scheduled one.
    #[test]
    fn batch_orders_and_threads_are_unobservable(pairs in pair_vec(64), shuffle_seed in 0u64..1000) {
        let mut shuffled: Vec<u32> = (0..pairs.len() as u32).collect();
        let mut rng = SmallRng::seed_from_u64(shuffle_seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.random_range(0..=i));
        }
        let mut sorted: Vec<u32> = (0..pairs.len() as u32).collect();
        sorted.sort_by_key(|&i| {
            let (u, v) = pairs[i as usize];
            (u.0, v.0)
        });
        let reversed: Vec<u32> = (0..pairs.len() as u32).rev().collect();
        for (backend, o) in oracles() {
            let want = scalar(o, &pairs);
            for perm in [&shuffled, &sorted, &reversed] {
                for threads in [1usize, 4] {
                    let got = run_permuted(o, &pairs, perm, threads);
                    prop_assert_eq!(
                        &got, &want,
                        "{}: batch order/threads={} changed answers", backend, threads
                    );
                }
            }
        }
    }
}

/// The kernel's shape contract is checked in release builds too: a short
/// output slice must panic, not silently skip the tail.
#[test]
fn estimate_grouped_rejects_mismatched_slot_counts() {
    let pairs = [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))];
    for (backend, o) in oracles() {
        let short = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            o.estimate_grouped(&pairs, &[0, 1], &mut [0u64; 1]);
        }));
        let msg = short.expect_err("a short output slice must panic");
        let msg = msg.downcast_ref::<String>().expect("formatted assert");
        assert!(
            msg.contains("one answer slot per query"),
            "{backend}: {msg}"
        );
    }
}

/// The grouping gate is crossed: a batch comfortably above ~4k pairs
/// runs the scheduled path (sequentially and sharded across 4 workers)
/// and must still answer byte-identically in every order.
#[test]
fn large_batches_cross_the_grouping_gate_deterministically() {
    let mut rng = SmallRng::seed_from_u64(0x5CED);
    let mut pairs: Vec<(NodeId, NodeId)> = (0..6_000)
        .map(|_| {
            (
                NodeId(rng.random_range(0..N as u32)),
                NodeId(rng.random_range(0..N as u32)),
            )
        })
        .collect();
    pairs.extend((0..N as u32).map(|u| (NodeId(u), NodeId(u))));

    let mut shuffled: Vec<u32> = (0..pairs.len() as u32).collect();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.random_range(0..=i));
    }
    let mut sorted: Vec<u32> = (0..pairs.len() as u32).collect();
    sorted.sort_by_key(|&i| {
        let (u, v) = pairs[i as usize];
        (u.0, v.0)
    });
    let reversed: Vec<u32> = (0..pairs.len() as u32).rev().collect();

    for (backend, o) in oracles() {
        let mut want = Vec::new();
        o.estimate_many_with(&pairs, &mut want, 1);
        assert_eq!(
            want,
            scalar(o, &pairs),
            "{backend}: batch diverged from scalar"
        );
        for (name, perm) in [
            ("shuffled", &shuffled),
            ("sorted", &sorted),
            ("reversed", &reversed),
        ] {
            for threads in [1usize, 4] {
                let got = run_permuted(o, &pairs, perm, threads);
                assert_eq!(
                    got, want,
                    "{backend}: {name} order at threads={threads} changed answers"
                );
            }
        }
    }
}
