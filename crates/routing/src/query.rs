//! Stateless routing and distance queries for the Theorem 4.5 scheme.
//!
//! Every decision here uses only (a) the queried node's own tables and
//! (b) the destination's label — the stateless model of Section 2.3. The
//! forwarding function is *total* and *loop-free* by a potential argument:
//! outside the destination's tree, the next hop strictly decreases
//!
//! ```text
//! Φ(x) = min( wd'(x, w),                                   — short range
//!             min_t [ wd'_S(x, t) + d_spanner(t, s'_w) ]
//!               + wd'(w, s'_w) )                            — long range
//! ```
//!
//! by at least the traversed edge weight (each term rides a PDE next-hop
//! chain whose estimates shrink by ≥ the edge weight per hop; spanner
//! edges decompose into such chains). Once the walk enters `T_{s'_w}` at a
//! node whose subtree contains `w`, DFS-interval descent finishes the job.

use crate::eval::RoutingScheme;
use crate::scheme::{RtcLabel, RtcScheme};
use congest::NodeId;
use graphs::INF;

impl RtcScheme {
    /// The label of `v` (what the paper publishes as `λ(v)`).
    pub fn label(&self, v: NodeId) -> &RtcLabel {
        &self.labels[v.index()]
    }

    /// The long-range option at `x` for destination label `label`:
    /// `(total_estimate, next_hop)` via the best skeleton entry point.
    ///
    /// One load from the precomputed `n × |S|` reduction (see
    /// `scheme::build_long_range`) plus the label's `dist_home` — the
    /// per-entry loop ran at build time, with ties broken on the smaller
    /// next-hop id, so answers are bit-identical to recomputing it here
    /// (and independent of routing-table iteration order, which keeps
    /// queries bit-identical across snapshot save/load).
    fn skeleton_option(&self, x: NodeId, label: &RtcLabel) -> Option<(u64, NodeId)> {
        let m = self.skel_ids.len();
        let home = self.skel_index.get(label.home)?;
        let d = self.long_dist.get(x.index() * m + home);
        if d == INF {
            return None;
        }
        let hop = NodeId(self.long_hop.get(x.index() * m + home));
        Some((d.saturating_add(label.dist_home), hop))
    }

    /// The source-grouped batch kernel behind
    /// `oracle::DistanceOracle::estimate_grouped`: answers
    /// `pairs[order[i]]` into `out[i]`, resolving the queried node's
    /// short-range row cursor and long-range matrix row once per
    /// equal-source group. Computes exactly
    /// [`RoutingScheme::estimate`] per pair.
    pub fn estimate_grouped(&self, pairs: &[(NodeId, NodeId)], order: &[u32], out: &mut [u64]) {
        assert_eq!(order.len(), out.len(), "one answer slot per query");
        let m = self.skel_ids.len();
        let mut start = 0usize;
        while start < order.len() {
            let end = pde_core::schedule::group_end(pairs, order, start);
            let x = pairs[order[start] as usize].0;
            let short_row = self.short.cursor(x);
            let long_row = x.index() * m;
            for (slot, &i) in out[start..end].iter_mut().zip(&order[start..end]) {
                let dest = pairs[i as usize].1;
                if x == dest {
                    *slot = 0;
                    continue;
                }
                let label = &self.labels[dest.index()];
                let direct = short_row.est(dest).unwrap_or(INF);
                let long = self.skel_index.get(label.home).map_or(INF, |home| {
                    let d = self.long_dist.get(long_row + home);
                    if d == INF {
                        INF
                    } else {
                        d.saturating_add(label.dist_home)
                    }
                });
                *slot = direct.min(long);
            }
            start = end;
        }
    }
}

impl RoutingScheme for RtcScheme {
    fn len(&self) -> usize {
        self.labels.len()
    }

    fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
        let label = &self.labels[dest.index()];
        if x == dest {
            return None;
        }
        // Tree mode: inside T_{s'_w} with w in our subtree → descend.
        if let Some(tree) = self.trees.trees.get(&label.home) {
            if tree.in_subtree(x, label.tree_dfs) {
                return tree.next_hop_down(x, label.tree_dfs);
            }
        }
        // Short range beats long range when available; pick min potential.
        let direct = self
            .short
            .get(x, dest)
            .map(|e| (e.est, self.topo.neighbor(x, e.port)));
        let long = self.skeleton_option(x, label);
        match (direct, long) {
            (Some((de, dh)), Some((le, lh))) => Some(if de <= le { dh } else { lh }),
            (Some((_, dh)), None) => Some(dh),
            (None, Some((_, lh))) => Some(lh),
            (None, None) => None,
        }
    }

    fn estimate(&self, x: NodeId, dest: NodeId) -> u64 {
        if x == dest {
            return 0;
        }
        let label = &self.labels[dest.index()];
        let direct = self.short.est(x, dest).unwrap_or(INF);
        let long = self.skeleton_option(x, label).map_or(INF, |(e, _)| e);
        direct.min(long)
    }

    fn label_bits(&self, v: NodeId) -> usize {
        self.labels[v.index()].bits(self.labels.len())
    }

    fn table_entries(&self, v: NodeId) -> usize {
        // Paper-sized tables: the top-σ short-range list, the skeleton
        // table, the (globally known) spanner, and per-tree interval rows.
        let tree_rows: usize = self
            .trees
            .trees
            .values()
            .filter_map(|t| t.children.get(&v).map(|ch| 1 + ch.len()))
            .sum();
        self.short_lists.row_len(v) + self.skel_routes.row_len(v) + tree_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{build_rtc, RtcParams};
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn self_route_is_empty_and_estimate_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::gnp_connected(20, 0.2, Weights::Uniform { lo: 1, hi: 10 }, &mut rng);
        let scheme = build_rtc(&g, &RtcParams::new(2));
        for v in g.nodes() {
            assert_eq!(scheme.next_hop(v, v), None);
            assert_eq!(scheme.estimate(v, v), 0);
        }
    }

    #[test]
    fn labels_are_logarithmic() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = gen::gnp_connected(30, 0.15, Weights::Uniform { lo: 1, hi: 100 }, &mut rng);
        let scheme = build_rtc(&g, &RtcParams::new(2));
        for v in g.nodes() {
            // 2 ids + distance + dfs: comfortably within a few dozen bits.
            assert!(scheme.label_bits(v) <= 4 * 64);
            assert!(scheme.label_bits(v) >= 2);
        }
    }
}
