//! The shared staged **build pipeline**: everything the scheme builders
//! (`routing::build_rtc`, `compact::build_hierarchy`,
//! `compact::build_truncated`) have in common, in one place.
//!
//! Before this module each builder re-implemented the same skeleton:
//! sample a skeleton / level assignment, run PDE ladders, select pivots,
//! assemble a virtual skeleton graph from mutual estimates, trace
//! next-hop chains into detection trees, and label them. Those stages now
//! live here, so a builder is a *declarative list of stage calls* over
//! the ladder kernel (`crate::ladder`), executable in either
//! [`BuildMode`]:
//!
//! * `Simulated` — distributed phases run on `congest::Runtime` and
//!   charge their measured rounds (the paper-faithful path);
//! * `Native` — the same stages computed centrally (ladders via the
//!   native kernel, labeling via the already-central DFS of
//!   [`treeroute::TreeSet::build`], broadcasts skipped), charging zero
//!   rounds and producing **byte-identical scheme artifacts**.
//!
//! Failed w.h.p. events (a node that sees no skeleton node, a
//! disconnected skeleton graph, a missing pivot) are no longer panics:
//! stages report them as [`BuildError`]s, and [`with_resample`] retries a
//! build once on a [`Seed::derive`]d resample before giving up —
//! surfaced through `oracle::OracleBuilder::try_build`.
//!
//! Because every stage is a pure function of the canonical ladder
//! artifacts and the seed, the *entire build* — including retry behavior,
//! sampling attempts, and every tie-break — is identical across modes and
//! thread counts (pinned by `tests/build_parity.rs`).

use crate::ladder::BuildMode;
use crate::tables::FlatTables;
use congest::{NodeId, Topology};
use graphs::{DenseIndex, Seed, WGraph};
use rand::Rng;
use std::fmt;
use treeroute::{label_forest, TreeSet};

/// The worker-count rule the builders share with the exact reference
/// kernels (defined in [`congest::parallel`]).
pub use congest::parallel::resolve_threads;

/// A recoverable build failure: a with-high-probability event that did
/// not hold for this sample at this scale. Retrying on a fresh sample
/// (see [`with_resample`]) usually succeeds; persistently failing builds
/// need a larger sampling constant `c`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A node's routing archive contains no skeleton node (the RTC home
    /// selection of Theorem 4.5 needs one within the detection horizon).
    NoSkeletonSeen {
        /// The uncovered node.
        node: NodeId,
        /// The horizon/list size `h = σ` that was used.
        h: u64,
    },
    /// A node has no pivot at some hierarchy level (Lemma 4.7 / 4.10).
    NoPivot {
        /// The uncovered node.
        node: NodeId,
        /// The hierarchy level missing a pivot.
        level: u32,
    },
    /// The virtual skeleton graph built from mutual estimates is
    /// disconnected.
    SkeletonDisconnected {
        /// Which virtual graph (e.g. `"skeleton graph"`, `"G̃(l0)"`).
        what: &'static str,
        /// Its node count `|S|`.
        size: usize,
    },
    /// The **input** graph is not connected. Every scheme in this
    /// workspace builds on a connected graph, so builders reject the
    /// input up front instead of panicking mid-pipeline.
    Disconnected {
        /// Number of nodes in the rejected input.
        nodes: usize,
    },
    /// A build parameter is outside its valid range (e.g. ε ∉ (0, 8]).
    /// Unlike the sampling failures above, resampling cannot fix this.
    InvalidParam {
        /// What is wrong with the parameter.
        what: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoSkeletonSeen { node, h } => {
                write!(f, "node {node} saw no skeleton node within h={h}; raise c")
            }
            BuildError::NoPivot { node, level } => {
                write!(f, "node {node} has no level-{level} pivot; raise c")
            }
            BuildError::SkeletonDisconnected { what, size } => {
                write!(f, "{what} disconnected (|S|={size}); raise c")
            }
            BuildError::Disconnected { nodes } => {
                write!(f, "input graph is not connected (n={nodes})")
            }
            BuildError::InvalidParam { what } => write!(f, "invalid build parameter: {what}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The derivation stream used for the one retry of [`with_resample`]
/// (an arbitrary fixed constant; see [`Seed::derive`]).
pub const RESAMPLE_STREAM: u64 = 0x7E5A_5EED;

/// Runs `build` with `seed`; on a sampling [`BuildError`], retries
/// **once** with the [`Seed::derive`]d resample stream before returning
/// the error. Input errors ([`BuildError::Disconnected`],
/// [`BuildError::InvalidParam`]) are returned immediately — a fresh
/// sample cannot connect a disconnected input or fix a knob.
///
/// The retry is part of the deterministic build contract: whether a
/// build retries depends only on the canonical artifacts of the first
/// attempt, so both build modes and all thread counts retry identically.
///
/// # Errors
///
/// Returns the second attempt's error when both attempts fail.
pub fn with_resample<T>(
    seed: Seed,
    mut build: impl FnMut(Seed, u32) -> Result<T, BuildError>,
) -> Result<T, BuildError> {
    match build(seed, 1) {
        Ok(t) => Ok(t),
        Err(e @ (BuildError::Disconnected { .. } | BuildError::InvalidParam { .. })) => Err(e),
        Err(_) => build(seed.derive(RESAMPLE_STREAM), 2),
    }
}

// ------------------------------------------------------------ sampling --

/// Samples each node into the skeleton independently with probability `p`,
/// retrying (fresh coins) until the skeleton is nonempty. The coins come
/// from `seed`'s own stream, so the sample is a pure function of
/// `(n, p, seed)`.
///
/// The paper conditions on `S ≠ ∅` ("for convenience, we assume that
/// always `S ≠ ∅`, which holds w.h.p."); at simulation scale an empty
/// sample can actually happen, so we retry and report the attempt count.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1]` or after 1000 failed attempts
/// (p astronomically small for the given n — a caller bug).
pub fn sample_skeleton(n: usize, p: f64, seed: Seed) -> (Vec<bool>, u32) {
    assert!(p > 0.0 && p <= 1.0, "sampling probability out of range");
    let mut rng = seed.rng();
    for attempt in 1..=1000 {
        let flags: Vec<bool> = (0..n).map(|_| rng.random_bool(p)).collect();
        if flags.iter().any(|&f| f) {
            return (flags, attempt);
        }
    }
    panic!("skeleton sampling failed 1000 times (n={n}, p={p})");
}

/// Samples a level for every node: `Pr[level(v) ≥ l] = n^{−l/k}` for
/// `l ∈ {0, …, k−1}` (Section 4.3, step 1), retrying with fresh coins
/// until the top set `S_{k−1}` is nonempty (the paper conditions on this
/// w.h.p. event). The coins come from `seed`'s own stream, so the levels
/// are a pure function of `(n, k, seed)`.
///
/// Returns `(levels, attempts)`.
///
/// # Panics
///
/// Panics if `k == 0` or after 1000 failed attempts.
pub fn sample_levels(n: usize, k: u32, seed: Seed) -> (Vec<u32>, u32) {
    assert!(k >= 1, "k must be ≥ 1");
    let mut rng = seed.rng();
    let p = (n as f64).powf(-1.0 / f64::from(k));
    for attempt in 1..=1000 {
        let levels: Vec<u32> = (0..n)
            .map(|_| {
                let mut l = 0;
                while l < k - 1 && rng.random_bool(p) {
                    l += 1;
                }
                l
            })
            .collect();
        if k == 1 || levels.iter().any(|&l| l == k - 1) {
            return (levels, attempt);
        }
    }
    panic!("level sampling failed 1000 times (n={n}, k={k})");
}

/// The member list of `S_l` given per-node levels.
pub fn level_set(levels: &[u32], l: u32) -> Vec<NodeId> {
    levels
        .iter()
        .enumerate()
        .filter(|&(_, &lv)| lv >= l)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

/// Membership flags for `S_l`.
pub fn level_flags(levels: &[u32], l: u32) -> Vec<bool> {
    levels.iter().map(|&lv| lv >= l).collect()
}

// ------------------------------------------------- virtual skeleton graph --

/// The virtual skeleton graph's edge list, in skeleton-index space:
/// `{i, j}` iff both endpoints hold an estimate of each other, with
/// weight `max` of the two (both are routable upper bounds). Returned
/// sorted (rows are source-sorted, so the final sort only moves anything
/// when `skel_ids` is not increasing).
pub fn mutual_edges(
    routes: &FlatTables,
    skel_ids: &[NodeId],
    index: &DenseIndex,
) -> Vec<(u32, u32, u64)> {
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    for (i, &s) in skel_ids.iter().enumerate() {
        for e in routes.row_iter(s) {
            let t = NodeId(e.src);
            if let Some(j) = index.get(t).filter(|&j| j > i) {
                if let Some(back) = routes.est(t, s) {
                    edges.push((i as u32, j as u32, e.est.max(back)));
                }
            }
        }
    }
    edges.sort_unstable();
    edges
}

/// Builds the virtual skeleton graph over `m` skeleton nodes and checks
/// connectivity (the w.h.p. event the constructions condition on).
///
/// # Errors
///
/// [`BuildError::SkeletonDisconnected`] when `m > 1` and the mutual
/// estimates do not connect the skeleton.
///
/// # Panics
///
/// Panics if the edge list is malformed (duplicate or out-of-range
/// entries) — that is a builder bug, not a sampling failure.
pub fn virtual_graph(
    m: usize,
    edges: &[(u32, u32, u64)],
    what: &'static str,
) -> Result<WGraph, BuildError> {
    let g = WGraph::from_edges(m.max(1), edges).expect("mutual-estimate edges are valid");
    if m > 1 && !g.is_connected() {
        return Err(BuildError::SkeletonDisconnected { what, size: m });
    }
    Ok(g)
}

// ------------------------------------------------------------- pivots --

/// The closest tagged source in `v`'s routing archive: `min (est, source)`
/// over entries whose source is flagged in `tagged` — the RTC home
/// (`s'_v`) selection.
pub fn closest_tagged(routes: &FlatTables, v: NodeId, tagged: &[bool]) -> Option<(NodeId, u64)> {
    routes
        .row_iter(v)
        .filter(|e| tagged[e.src as usize])
        .map(|e| (e.est, NodeId(e.src)))
        .min()
        .map(|(e, s)| (s, e))
}

// ----------------------------------------------------- chains and trees --

/// Walks the next-hop chain `from → … → to` through the route rows (the
/// Lemma 4.4-style greedy descent): the visited nodes and the total
/// weight of the hops taken. [`trace_chain`] and
/// `PdeOutput::trace_route` are thin callers.
///
/// # Errors
///
/// Returns a description if a node on the way has no entry for `to`, the
/// estimate fails to decrease strictly hop over hop, or the walk exceeds
/// `4·n` hops — each would falsify the archive's greedy-forwarding invariant.
pub fn trace_route(
    routes: &FlatTables,
    topo: &Topology,
    from: NodeId,
    to: NodeId,
) -> Result<(Vec<NodeId>, u64), String> {
    let mut path = vec![from];
    let mut weight = 0u64;
    let mut cur = from;
    let mut est = u64::MAX;
    while cur != to {
        let e = routes
            .get(cur, to)
            .ok_or_else(|| format!("broken chain: {cur} has no entry for {to}"))?;
        if e.est >= est {
            return Err(format!("chain stalled at {cur} (est {est} -> {})", e.est));
        }
        est = e.est;
        weight += topo.weight(cur, e.port);
        cur = topo.neighbor(cur, e.port);
        path.push(cur);
        if path.len() > topo.len() * 4 {
            return Err("chain exceeded hop cap".into());
        }
    }
    Ok((path, weight))
}

/// The nodes of the next-hop chain `from → … → to` (what the schemes
/// grow their detection trees from).
///
/// # Panics
///
/// Panics with [`trace_route`]'s description if the chain is broken or
/// stalls — builders and tests treat that as a hard failure.
pub fn trace_chain(routes: &FlatTables, topo: &Topology, from: NodeId, to: NodeId) -> Vec<NodeId> {
    let walk = trace_route(routes, topo, from, to);
    walk.unwrap_or_else(|e| panic!("{e}")).0
}

/// Labels a built [`TreeSet`] in the given mode and returns the rounds
/// charged: `Simulated` runs the distributed forest-labeling protocol
/// (which asserts its result equals the centrally computed DFS labels the
/// schemes actually read from the `TreeSet`); `Native` charges nothing —
/// the labels are already the central DFS labels, so the artifacts are
/// identical by construction.
pub fn label_trees(topo: &Topology, set: &TreeSet, mode: BuildMode) -> congest::Metrics {
    match mode {
        BuildMode::Simulated => label_forest(topo, set).metrics,
        BuildMode::Native => congest::Metrics::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skeleton_sample_is_nonempty_and_deterministic() {
        for s in 0..50u64 {
            let (flags, _) = sample_skeleton(30, 0.05, Seed(s));
            assert!(flags.iter().any(|&f| f));
            assert_eq!(flags.len(), 30);
            assert_eq!(flags, sample_skeleton(30, 0.05, Seed(s)).0);
        }
    }

    #[test]
    fn skeleton_sample_rate_tracks_p() {
        let (flags, _) = sample_skeleton(20_000, 0.1, Seed(2));
        let count = flags.iter().filter(|&&f| f).count();
        assert!(
            (1600..=2400).contains(&count),
            "count {count} far from 2000"
        );
    }

    #[test]
    fn level_sampling_is_nested_and_deterministic() {
        let (levels, _) = sample_levels(200, 4, Seed(3));
        for l in 1..4 {
            let upper = level_set(&levels, l);
            let lower = level_set(&levels, l - 1);
            assert!(upper.iter().all(|v| lower.contains(v)));
        }
        assert_eq!(level_set(&levels, 0).len(), 200);
        assert_eq!(levels, sample_levels(200, 4, Seed(3)).0);
    }

    #[test]
    fn resample_retries_exactly_once() {
        let mut seeds = Vec::new();
        let err = BuildError::NoPivot {
            node: NodeId(0),
            level: 1,
        };
        let out: Result<(), _> = with_resample(Seed(7), |seed, attempt| {
            seeds.push((seed, attempt));
            Err(err.clone())
        });
        assert_eq!(out, Err(err));
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0], (Seed(7), 1));
        assert_eq!(seeds[1], (Seed(7).derive(RESAMPLE_STREAM), 2));
        let ok: Result<u32, _> = with_resample(Seed(7), |_, attempt| {
            if attempt == 1 {
                Err(BuildError::NoSkeletonSeen {
                    node: NodeId(1),
                    h: 3,
                })
            } else {
                Ok(42)
            }
        });
        assert_eq!(ok, Ok(42));
    }

    #[test]
    fn mutual_edges_are_sorted_and_symmetric() {
        use crate::pde::RouteInfo;
        // Skeleton {0, 2, 3}; 0↔2 mutual (weight max(4,6)=6), 0→3 one-way.
        let rows: [&[(u32, u64)]; 4] = [&[(2, 4), (3, 9)], &[], &[(0, 6)], &[]];
        let routes = FlatTables::from_rows(4, 3, (9, &[1]), |v, row| {
            row.extend(rows[v].iter().map(|&(s, est)| {
                let (port, level) = (0, 0);
                (NodeId(s), RouteInfo { est, port, level })
            }));
        });
        let skel_ids = vec![NodeId(0), NodeId(2), NodeId(3)];
        let index = DenseIndex::new(4, &skel_ids);
        let edges = mutual_edges(&routes, &skel_ids, &index);
        assert_eq!(edges, vec![(0, 1, 6)]);
        let g = virtual_graph(3, &edges, "test skeleton");
        assert_eq!(
            g.unwrap_err(),
            BuildError::SkeletonDisconnected {
                what: "test skeleton",
                size: 3
            }
        );
    }

    #[test]
    fn top_level_nonempty() {
        for s in 0..20u64 {
            let (levels, _) = sample_levels(50, 3, Seed(4).derive(s));
            assert!(!level_set(&levels, 2).is_empty());
        }
    }

    #[test]
    fn set_sizes_shrink_geometrically() {
        let (levels, _) = sample_levels(10_000, 2, Seed(5));
        let s1 = level_set(&levels, 1).len();
        // E[|S_1|] = 10000^{1/2} = 100.
        assert!((40..=220).contains(&s1), "|S_1| = {s1} far from 100");
    }

    #[test]
    fn k1_is_trivial() {
        let (levels, attempts) = sample_levels(10, 1, Seed(6));
        assert!(levels.iter().all(|&l| l == 0));
        assert_eq!(attempts, 1);
        assert_eq!(level_flags(&levels, 0), vec![true; 10]);
    }
}
