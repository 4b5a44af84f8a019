//! Everything a run measures on, derived from `--seed` alone: the three
//! graphs, the query pair lists and the exact reference distances the
//! correctness gate compares against.

use graphs::algo::{apsp, dijkstra, Apsp};
use graphs::gen::{self, Weights};
use graphs::{NodeId, WGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A query batch.
pub type Pairs = Vec<(NodeId, NodeId)>;

/// Sizes of one run. [`Scale::full`] is the benchmark; [`Scale::smoke`]
/// drives the same code paths and checks in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Prefix of the files a run at this scale writes (`""` for the
    /// benchmark itself, so `compare` never mixes scales).
    pub file_prefix: &'static str,
    /// Nodes of the full-coverage graph.
    pub n_full: usize,
    /// Nodes of the partial-regime graph served as `pde_partial`.
    pub n_partial: usize,
    /// Nodes of the graph the CONGEST-simulated partial build runs on.
    pub n_sim: usize,
    /// Every `source_stride`-th node of a partial graph is a source.
    pub source_stride: usize,
    /// List size σ of the partial builds.
    pub sigma: usize,
    /// Hop horizon `h` of the partial builds.
    pub horizon: u64,
    /// Pairs per in-process batch and per bulk sweep, per oracle.
    pub batch: usize,
    /// Pairs per bulk `EstimateMany` frame.
    pub frame: usize,
    /// Pairs per small in-process batch (below the grouping gate).
    pub small_batch: usize,
    /// Direct point requests per round, per oracle.
    pub point_requests: usize,
    /// Admitted point requests per round, per oracle and connection.
    pub admit_requests: usize,
    /// Seconds each open-loop rate is offered for.
    pub open_seconds: f64,
    /// Closed-loop single `estimate` round trips.
    pub single_rtts: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const fn full() -> Scale {
        Scale {
            file_prefix: "",
            n_full: 1024,
            n_partial: 4096,
            n_sim: 2048,
            source_stride: 16,
            sigma: 32,
            horizon: 16,
            batch: 262_144,
            frame: 32_768,
            small_batch: 1024,
            point_requests: 2048,
            admit_requests: 96,
            open_seconds: 0.5,
            single_rtts: 2000,
        }
    }

    /// Tiny sizes for `smoke` and the unit tests.
    pub const fn smoke() -> Scale {
        Scale {
            file_prefix: "smoke-",
            n_full: 64,
            n_partial: 256,
            n_sim: 128,
            source_stride: 4,
            sigma: 8,
            horizon: 4,
            batch: 8192,
            frame: 2048,
            small_batch: 1024,
            point_requests: 64,
            admit_requests: 8,
            open_seconds: 0.05,
            single_rtts: 100,
        }
    }
}

/// Weights of every benchmark graph: several rungs of the PDE ladder.
pub const WEIGHTS: Weights = Weights::Uniform { lo: 1, hi: 32 };

/// ε of every build (the `OracleBuilder` default, pinned here because
/// the gate checks answers against it).
pub const EPS: f64 = 0.25;

/// Pairs per point request.
pub const POINT_PAIRS: usize = 8;

/// Independent seed streams derived from `--seed` (splitmix64 finaliser).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Connected `G(n, 6/n)` with [`WEIGHTS`].
pub fn graph(n: usize, seed: u64) -> WGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    gen::gnp_connected(n, (6.0 / n as f64).min(0.9), WEIGHTS, &mut rng)
}

/// `count` uniform ordered pairs with `u != v`.
pub fn uniform_pairs(n: usize, count: usize, seed: u64) -> Pairs {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let u = rng.random_range(0..n as u32);
            let mut v = rng.random_range(0..n as u32);
            while v == u {
                v = rng.random_range(0..n as u32);
            }
            (NodeId(u), NodeId(v))
        })
        .collect()
}

/// `count` pairs of a uniform node and a uniform source (`u != v`).
pub fn source_pairs(n: usize, sources: &[NodeId], count: usize, seed: u64) -> Pairs {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| loop {
            let u = NodeId(rng.random_range(0..n as u32));
            let s = sources[rng.random_range(0..sources.len())];
            if u != s {
                break (u, s);
            }
        })
        .collect()
}

/// FNV-1a over a stream of `u64` words — the answer digest compared
/// across every path that should return the same bytes.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Digest of a pair list.
pub fn pairs_digest(pairs: &[(NodeId, NodeId)]) -> u64 {
    digest(
        pairs
            .iter()
            .map(|&(u, v)| (u64::from(u.0) << 32) | u64::from(v.0)),
    )
}

/// Digest of a graph's edge list.
pub fn graph_digest(g: &WGraph) -> u64 {
    digest(
        g.edges()
            .iter()
            .flat_map(|&(u, v, w)| [(u64::from(u) << 32) | u64::from(v), w]),
    )
}

/// Exact distances from every source of a partial graph, plus what Def.
/// 2.2 promises each node: its σ nearest sources.
pub struct PartialTruth {
    /// The sources, ascending.
    pub sources: Vec<NodeId>,
    /// Source flags, one per node.
    pub flags: Vec<bool>,
    /// `dist[i][v]` = `wd(v, sources[i])`.
    dist: Vec<Vec<u64>>,
    /// `hops[i][v]` = minimum hops among shortest `v`–`sources[i]` paths.
    hops: Vec<Vec<u32>>,
    /// Per node, the `(wd, source)` of its σ-th nearest source.
    sigma_cut: Vec<(u64, u32)>,
}

impl PartialTruth {
    fn new(g: &WGraph, stride: usize, sigma: usize) -> PartialTruth {
        let n = g.len();
        let flags: Vec<bool> = (0..n).map(|i| i % stride == 0).collect();
        let sources: Vec<NodeId> = (0..n as u32).step_by(stride).map(NodeId).collect();
        let (dist, hops): (Vec<_>, Vec<_>) = sources
            .iter()
            .map(|&s| {
                let sssp = dijkstra(g, s);
                (sssp.dist, sssp.hops)
            })
            .unzip();
        let sigma_cut = (0..n)
            .map(|v| {
                let mut ranked: Vec<(u64, u32)> = sources
                    .iter()
                    .zip(&dist)
                    .map(|(s, d)| (d[v], s.0))
                    .collect();
                ranked.sort_unstable();
                ranked[sigma.min(ranked.len()) - 1]
            })
            .collect();
        PartialTruth {
            sources,
            flags,
            dist,
            hops,
            sigma_cut,
        }
    }

    fn index(&self, s: NodeId) -> usize {
        self.sources
            .binary_search(&s)
            .expect("pair targets a source")
    }

    /// `wd(v, s)`.
    pub fn dist(&self, v: NodeId, s: NodeId) -> u64 {
        self.dist[self.index(s)][v.index()]
    }

    /// Whether Def. 2.2 promises `v` a `(1+ε)` estimate of `s`: `s` is one
    /// of `v`'s σ nearest sources and their shortest path fits the hop
    /// horizon. (Other pairs may be answered from the routing archive,
    /// soundly but without the accuracy promise, or not at all.)
    pub fn promised(&self, v: NodeId, s: NodeId, horizon: u64) -> bool {
        let i = self.index(s);
        (self.dist[i][v.index()], s.0) <= self.sigma_cut[v.index()]
            && u64::from(self.hops[i][v.index()]) <= horizon
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The sizes they were generated at.
    pub scale: Scale,
    /// Seed handed to every `OracleBuilder`.
    pub oracle_seed: u64,
    /// Full-coverage graph.
    pub full: WGraph,
    /// Partial-regime graph.
    pub partial: WGraph,
    /// Graph of the simulated build.
    pub sim: WGraph,
    /// Source flags of the simulated build.
    pub sim_sources: Vec<bool>,
    /// Query pairs on the full graph.
    pub full_pairs: Pairs,
    /// `(node, source)` query pairs on the partial graph.
    pub partial_pairs: Pairs,
    /// Exact APSP of the full graph.
    pub full_truth: Apsp,
    /// Exact source distances of the partial graph.
    pub partial_truth: PartialTruth,
    /// Seconds spent generating the three graphs.
    pub gen_s: f64,
    /// Seconds spent in `graphs::algo::apsp` on the full graph.
    pub apsp_s: f64,
}

impl Inputs {
    /// Generates every input from `seed`.
    pub fn generate(scale: Scale, seed: u64) -> Inputs {
        let t = std::time::Instant::now();
        let full = graph(scale.n_full, derive(seed, 1));
        let partial = graph(scale.n_partial, derive(seed, 2));
        let sim = graph(scale.n_sim, derive(seed, 3));
        let gen_s = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let full_truth = apsp(&full);
        let apsp_s = t.elapsed().as_secs_f64();
        let partial_truth = PartialTruth::new(&partial, scale.source_stride, scale.sigma);
        let full_pairs = uniform_pairs(scale.n_full, scale.batch, derive(seed, 4));
        let partial_pairs = source_pairs(
            scale.n_partial,
            &partial_truth.sources,
            scale.batch,
            derive(seed, 5),
        );
        Inputs {
            scale,
            oracle_seed: derive(seed, 6),
            sim_sources: (0..scale.n_sim)
                .map(|i| i % scale.source_stride == 0)
                .collect(),
            full,
            partial,
            sim,
            full_pairs,
            partial_pairs,
            full_truth,
            partial_truth,
            gen_s,
            apsp_s,
        }
    }

    /// Digest over everything generated — equal seeds must give equal
    /// inputs.
    pub fn digest(&self) -> u64 {
        digest([
            graph_digest(&self.full),
            graph_digest(&self.partial),
            graph_digest(&self.sim),
            pairs_digest(&self.full_pairs),
            pairs_digest(&self.partial_pairs),
            self.oracle_seed,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(Scale::smoke(), 11);
        let b = Inputs::generate(Scale::smoke(), 11);
        let c = Inputs::generate(Scale::smoke(), 12);
        assert_eq!(graph_digest(&a.full), graph_digest(&b.full));
        assert_eq!(pairs_digest(&a.full_pairs), pairs_digest(&b.full_pairs));
        assert_eq!(
            pairs_digest(&a.partial_pairs),
            pairs_digest(&b.partial_pairs)
        );
        assert_eq!(a.digest(), b.digest());
        assert_ne!(graph_digest(&a.full), graph_digest(&c.full));
        assert_ne!(pairs_digest(&a.full_pairs), pairs_digest(&c.full_pairs));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn pairs_are_well_formed() {
        let inputs = Inputs::generate(Scale::smoke(), 3);
        assert_eq!(inputs.full_pairs.len(), inputs.scale.batch);
        assert!(inputs.full_pairs.iter().all(|&(u, v)| u != v));
        assert!(inputs
            .partial_pairs
            .iter()
            .all(|&(u, s)| u != s && inputs.partial_truth.flags[s.index()]));
        assert!(inputs.full.is_connected() && inputs.partial.is_connected());
    }

    #[test]
    fn promise_covers_exactly_the_sigma_nearest_within_the_horizon() {
        let inputs = Inputs::generate(Scale::smoke(), 5);
        let truth = &inputs.partial_truth;
        let v = NodeId(1);
        let promised = truth
            .sources
            .iter()
            .filter(|&&s| truth.promised(v, s, u64::MAX))
            .count();
        assert_eq!(promised, inputs.scale.sigma);
        assert!(truth.sources.iter().all(|&s| !truth.promised(v, s, 0)));
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive(11, 1), derive(11, 2));
        assert_ne!(derive(11, 1), derive(12, 1));
        assert_eq!(derive(11, 1), derive(11, 1));
    }
}
