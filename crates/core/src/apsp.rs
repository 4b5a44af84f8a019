//! Deterministic `(1+ε)`-approximate APSP (Theorem 4.1): PDE with `S = V`
//! and `h = σ = n`, answered from its rows. [`approx_apsp`] is the one
//! definition of that configuration; `oracle`'s `Backend::Pde` at its
//! defaults builds the same rows.

use crate::pde::{try_run_pde, PdeOutput, PdeParams};
use congest::NodeId;
use graphs::algo::Apsp;
use graphs::{WGraph, INF};

/// Result of the `(1+ε)`-approximate APSP computation.
///
/// Since `h_{v,w} < n` for every pair, every node's row covers all `n`
/// nodes with `(1+ε)`-approximate distances (Theorem 4.1),
/// deterministically, in `O(n/ε² · log n)` rounds.
#[derive(Debug)]
pub struct ApspApprox {
    /// The underlying PDE output (routing rows, metrics, ladder).
    pub pde: PdeOutput,
}

impl ApspApprox {
    /// The distance estimate `wd'(u, v)` (0 on the diagonal).
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u64 {
        self.pde.estimate(u, v).unwrap_or(INF)
    }

    /// Total rounds consumed (levels + `O(D)` coordination).
    pub fn rounds(&self) -> u64 {
        self.pde.metrics.total.rounds
    }

    /// The maximum multiplicative error versus exact APSP
    /// (`max wd'/wd` over all pairs; 1.0 means exact).
    ///
    /// # Panics
    ///
    /// Panics if any estimate is missing or underestimates — both would
    /// falsify Theorem 4.1.
    pub fn max_stretch(&self, exact: &Apsp) -> f64 {
        let n = self.pde.routes.len_nodes() as u32;
        let mut worst = 1.0f64;
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (NodeId(u), NodeId(v));
                if u == v {
                    continue;
                }
                let wd = exact.dist(u, v);
                let est = self.dist(u, v);
                assert_ne!(est, INF, "missing estimate for ({u}, {v})");
                assert!(est >= wd, "underestimate for ({u}, {v}): {est} < {wd}");
                worst = worst.max(est as f64 / wd as f64);
            }
        }
        worst
    }
}

/// Runs Theorem 4.1 at [`PdeParams::new`]'s defaults (simulated mode,
/// automatic threads); rows are identical for every thread count and
/// build mode, only rounds differ.
///
/// # Panics
///
/// On the inputs [`try_run_pde`] rejects, and if a pair ends up without
/// an estimate (would falsify Theorem 4.1).
pub fn approx_apsp(g: &WGraph, eps: f64) -> ApspApprox {
    let n = g.len();
    let params = PdeParams::new(n as u64, n, eps);
    let pde = try_run_pde(g, &vec![true; n], &vec![false; n], &params)
        .expect("approximate APSP build failed");
    assert!(
        (0..n).all(|v| pde.routes.row_iter(NodeId::from_index(v)).count() == n),
        "APSP rows incomplete"
    );
    ApspApprox { pde }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::algo;
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn stretch_within_eps_on_random_graph() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = gen::gnp_connected(24, 0.12, Weights::Uniform { lo: 1, hi: 64 }, &mut rng);
        let exact = algo::apsp(&g);
        for eps in [0.5, 0.25] {
            let approx = approx_apsp(&g, eps);
            let s = approx.max_stretch(&exact);
            assert!(s <= 1.0 + eps + 1e-9, "stretch {s} > 1+{eps}");
        }
    }

    #[test]
    fn stretch_on_structured_graphs() {
        let mut rng = SmallRng::seed_from_u64(9);
        let grid = gen::grid(4, 5, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
        let exact = algo::apsp(&grid);
        let approx = approx_apsp(&grid, 0.25);
        assert!(approx.max_stretch(&exact) <= 1.25 + 1e-9);

        let clique = gen::weighted_clique_multihop(12);
        let exact = algo::apsp(&clique);
        let approx = approx_apsp(&clique, 0.5);
        assert!(approx.max_stretch(&exact) <= 1.5 + 1e-9);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = gen::gnp_connected(16, 0.2, Weights::Uniform { lo: 1, hi: 30 }, &mut rng);
        let a = approx_apsp(&g, 0.5);
        let b = approx_apsp(&g, 0.5);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(a.dist(u, v), b.dist(u, v), "APSP must be deterministic");
            }
        }
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn rounds_scale_linearly_in_n() {
        // Theorem 4.1: O(n/ε²·log n). Check the ratio rounds/n stays
        // within a small factor when n doubles (same family, same ε).
        let mut rng = SmallRng::seed_from_u64(6);
        let g1 = gen::cycle(12, Weights::Uniform { lo: 1, hi: 16 }, &mut rng);
        let g2 = gen::cycle(24, Weights::Uniform { lo: 1, hi: 16 }, &mut rng);
        let r1 = approx_apsp(&g1, 0.5).rounds() as f64 / 12.0;
        let r2 = approx_apsp(&g2, 0.5).rounds() as f64 / 24.0;
        assert!(
            r2 / r1 < 3.0,
            "rounds-per-n grew superlinearly: {r1} vs {r2}"
        );
    }
}
