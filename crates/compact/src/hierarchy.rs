//! The per-level hierarchy construction (Lemma 4.7 / Theorem 4.8).
//!
//! [`build_hierarchy`] is a declarative stage list over the shared build
//! pipeline: level sampling → one PDE ladder per level → pivots → trees.
//! Both [`BuildMode`]s produce byte-identical schemes; the simulated
//! build charges the Lemma 4.7 rounds (per level in
//! [`CompactBuildMetrics`]).

use congest::{label_record_bits, Metrics, NodeId, Topology};
use graphs::{Seed, WGraph};
use pde_core::pipeline::{
    self, level_flags, sample_levels, trace_chain, with_resample, BuildError,
};
use pde_core::{run_pde, BuildMode, FlatTables, PdeParams};
use treeroute::TreeSet;

/// How per-level detection horizons are chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HorizonMode {
    /// Lemma 4.7: `h_{l+1} = c · n^{(l+1)/k} · ln n` for the level-`l` run.
    Lemma47,
    /// Theorem 4.8: a uniform horizon `h = SPD` (the caller supplies the
    /// bound — the paper assumes an upper bound on `SPD` is known).
    Spd(u64),
}

/// Parameters for [`build_hierarchy`].
#[derive(Clone, Debug)]
pub struct CompactParams {
    /// Number of hierarchy levels `k` (stretch `4k−3+o(1)`).
    pub k: u32,
    /// PDE approximation parameter ε.
    pub eps: f64,
    /// Constant `c` in horizons and list sizes.
    pub c: f64,
    /// RNG seed for level sampling.
    pub seed: Seed,
    /// Horizon selection (Lemma 4.7 vs Theorem 4.8).
    pub horizon: HorizonMode,
    /// Build engine (see [`BuildMode`]); artifacts are identical across
    /// modes.
    pub mode: BuildMode,
    /// Worker threads for ladder rungs and native stages (`0` = auto,
    /// `1` = sequential); outputs are identical for every value.
    pub threads: usize,
}

impl CompactParams {
    /// Defaults for a given `k` (Lemma 4.7 horizons, simulated build,
    /// auto threads).
    pub fn new(k: u32) -> Self {
        CompactParams {
            k,
            eps: 0.25,
            c: 2.0,
            seed: Seed(0xBEEF),
            horizon: HorizonMode::Lemma47,
            mode: BuildMode::Simulated,
            threads: 0,
        }
    }

    /// Sets the build engine.
    #[must_use]
    pub fn with_mode(mut self, mode: BuildMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A node's label: `O(k log n)` bits (Theorem 4.8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactLabel {
    /// The node's own id.
    pub id: NodeId,
    /// For each level `l ∈ {1, …, k−1}` (index `l−1`): the pivot
    /// `s'_l(w)`, the estimate `wd'_l(w, s'_l(w))`, and `w`'s DFS label in
    /// the detection tree `T_{s'_l(w)}`.
    pub pivots: Vec<(NodeId, u64, u64)>,
}

impl CompactLabel {
    /// Semantic label size in bits: the node's own id plus one
    /// `(pivot id, distance, DFS index)` record per level, via the shared
    /// [`congest::label_record_bits`] formula.
    pub fn bits(&self, n: usize) -> usize {
        let n = n as u64;
        label_record_bits(n, 1, &[])
            + self
                .pivots
                .iter()
                .map(|&(_, d, f)| label_record_bits(n, 1, &[d, f]))
                .sum::<usize>()
    }
}

/// Build metrics for the hierarchy. Measurement metadata, not artifact:
/// snapshots do not carry them, so a reloaded scheme holds the default.
#[derive(Clone, Debug, Default)]
pub struct CompactBuildMetrics {
    /// Total rounds over all stages.
    pub total_rounds: u64,
    /// Rounds per PDE level run (index = level `l`).
    pub per_level_rounds: Vec<u64>,
    /// Rounds of distributed tree labeling (all levels).
    pub tree_label_rounds: u64,
    /// Aggregate simulator metrics.
    pub total: Metrics,
    /// `|S_l|` for each level.
    pub level_sizes: Vec<usize>,
    /// Level re-sampling attempts.
    pub sample_attempts: u32,
    /// The horizons used per level run.
    pub horizons: Vec<u64>,
    /// The list size σ used.
    pub sigma: usize,
}

/// The constructed compact scheme: all `k` levels of Lemma 4.7, or the
/// first `l0` inside a [`crate::TruncatedScheme`].
#[derive(Debug)]
pub struct CompactScheme {
    pub(crate) topo: Topology,
    /// `routes[l]`: the level-`l` PDE routing archive (sources `S_l`),
    /// source-sorted per-node rows; one per level built.
    pub routes: Vec<FlatTables>,
    /// `bunch_sizes[v]`: Σ_l |S'_l(v)| — the paper-sized table entries.
    pub bunch_sizes: Vec<u32>,
    /// Detection-tree sets, one per pivot level `l ≥ 1` built (index
    /// `l−1`).
    pub trees: Vec<TreeSet>,
    /// Per-node labels.
    pub labels: Vec<CompactLabel>,
    /// Build metrics.
    pub metrics: CompactBuildMetrics,
}

impl CompactScheme {
    /// The topology the scheme was built on (shared with route tracing
    /// and snapshot serialization, so callers need no separate copy).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// Builds the Lemma 4.7 / Theorem 4.8 hierarchy on `g`, panicking on
/// unrecoverable sampling failures (see [`try_build_hierarchy`]).
///
/// # Panics
///
/// Panics on disconnected inputs and — with advice to raise `c` — when a
/// w.h.p. event (a node missing a pivot at some level) fails on both the
/// primary sample and the one derived resample.
pub fn build_hierarchy(g: &WGraph, params: &CompactParams) -> CompactScheme {
    try_build_hierarchy(g, params).unwrap_or_else(|e| {
        panic!("hierarchy build failed after one resample: {e} (CompactParams::c)")
    })
}

/// Builds the hierarchy, retrying once on a [`Seed::derive`]d resample
/// when a w.h.p. event fails.
///
/// # Errors
///
/// Returns the second attempt's [`BuildError`] when both samples fail.
///
/// # Panics
///
/// Panics on structurally invalid inputs (fewer than two nodes, `k == 0`,
/// a disconnected graph).
pub fn try_build_hierarchy(
    g: &WGraph,
    params: &CompactParams,
) -> Result<CompactScheme, BuildError> {
    assert!(g.len() >= 2, "need at least two nodes");
    assert!(params.k >= 1, "k must be ≥ 1");
    with_resample(params.seed, |seed, _attempt| {
        let (levels, sample_attempts) = sample_levels(g.len(), params.k, seed);
        let mut scheme = build_levels(g, params, &levels, params.k)?;
        scheme.metrics.sample_attempts = sample_attempts;
        Ok(scheme)
    })
}

/// Lemma 4.7's stage over the level sample `levels`: levels `0..depth` of
/// the `params.k`-level hierarchy — one PDE ladder per level, pivots,
/// bunches, detection trees and labels. [`try_build_hierarchy`] builds
/// all `k` levels; [`crate::try_build_truncated`] the `l0` below its
/// skeleton.
pub(crate) fn build_levels(
    g: &WGraph,
    params: &CompactParams,
    levels: &[u32],
    depth: u32,
) -> Result<CompactScheme, BuildError> {
    let n = g.len();
    let k = params.k;
    let mode = params.mode;
    let topo = g.to_topology();
    let mut total = Metrics::default();

    let level_sizes: Vec<usize> = (0..k)
        .map(|l| levels.iter().filter(|&&lv| lv >= l).count())
        .collect();

    let ln_n = (n as f64).ln().max(1.0);
    let sigma_base =
        ((params.c * (n as f64).powf(1.0 / f64::from(k)) * ln_n).ceil() as usize).clamp(1, n);

    // One PDE run per level l, sources S_l, tags = membership in S_{l+1}.
    let mut routes = Vec::with_capacity(depth as usize);
    let mut lists = Vec::with_capacity(depth as usize);
    let mut per_level_rounds = Vec::with_capacity(depth as usize);
    let mut horizons = Vec::with_capacity(depth as usize);
    for l in 0..depth {
        let sources = level_flags(levels, l);
        let tags = if l + 1 < k {
            level_flags(levels, l + 1)
        } else {
            vec![false; n]
        };
        let h = match params.horizon {
            HorizonMode::Lemma47 => {
                ((params.c * (n as f64).powf(f64::from(l + 1) / f64::from(k)) * ln_n).ceil() as u64)
                    .clamp(1, 2 * n as u64)
            }
            HorizonMode::Spd(spd) => spd.max(1),
        };
        let sigma = if l == k - 1 {
            sigma_base.max(level_sizes[l as usize])
        } else {
            sigma_base
        };
        horizons.push(h);
        let pde = run_pde(
            g,
            &sources,
            &tags,
            &PdeParams::new(h, sigma, params.eps)
                .with_threads(params.threads)
                .with_mode(mode),
        );
        per_level_rounds.push(pde.metrics.total.rounds);
        total.absorb(&pde.metrics.total);
        routes.push(pde.routes);
        lists.push(pde.lists);
    }

    // Bunches: entries of the level-l list strictly below the level-(l+1)
    // pivot (by (est, src) order); the full list at the top level, whose
    // run tags nothing.
    let mut bunch_sizes = vec![0u32; n];
    for run in &lists {
        for v in g.nodes() {
            let list = &run[v.index()];
            let cut = list.iter().find(|e| e.tag).map(|e| (e.est, e.src));
            bunch_sizes[v.index()] += match cut {
                Some(c) => list.iter().take_while(|e| (e.est, e.src) < c).count(),
                None => list.len(),
            } as u32;
        }
    }

    // Pivots s'_l(v) for l in 1..depth: the first entry of v's level-l
    // list (all sources of run l are S_l, so the first entry is the
    // closest). Detection trees per pivot level; labels are the central
    // DFS labels of each TreeSet, validated by (and charged as) the
    // distributed labeling protocol in simulated builds.
    let mut pivots: Vec<Vec<(NodeId, u64)>> = Vec::with_capacity(depth as usize);
    let mut trees = Vec::with_capacity(depth as usize);
    let mut tree_label_rounds = 0u64;
    for l in 1..depth {
        let run = &lists[l as usize];
        let mut pv: Vec<(NodeId, u64)> = Vec::with_capacity(n);
        let mut set = TreeSet::new();
        for v in g.nodes() {
            let Some(e) = run[v.index()].first() else {
                return Err(BuildError::NoPivot { node: v, level: l });
            };
            pv.push((e.src, e.est));
            set.add_chain(&trace_chain(&routes[l as usize], &topo, v, e.src));
        }
        set.build();
        let labeling = pipeline::label_trees(&topo, &set, mode);
        tree_label_rounds += labeling.rounds;
        total.absorb(&labeling);
        trees.push(set);
        pivots.push(pv);
    }

    let labels: Vec<CompactLabel> = g
        .nodes()
        .map(|v| {
            let per: Vec<(NodeId, u64, u64)> = pivots
                .iter()
                .zip(&trees)
                .map(|(pv, set)| {
                    let (s, d) = pv[v.index()];
                    let dfs = set.trees[&s]
                        .label(v)
                        .expect("node labeled in its pivot tree");
                    (s, d, dfs)
                })
                .collect();
            CompactLabel { id: v, pivots: per }
        })
        .collect();

    let metrics = CompactBuildMetrics {
        total_rounds: total.rounds,
        per_level_rounds,
        tree_label_rounds,
        total,
        level_sizes,
        horizons,
        sigma: sigma_base,
        ..Default::default()
    };

    Ok(CompactScheme {
        topo,
        routes,
        bunch_sizes,
        trees,
        labels,
        metrics,
    })
}
