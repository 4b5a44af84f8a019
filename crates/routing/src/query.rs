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
use pde_core::schedule::RowEstimate;
use pde_core::RowCursor;

impl RtcScheme {
    /// The label of `v` (what the paper publishes as `λ(v)`).
    pub fn label(&self, v: NodeId) -> &RtcLabel {
        &self.labels[v.index()]
    }

    /// The long-range term at `x` for destination label `label`: the
    /// total estimate via the best skeleton entry point, and the cell of
    /// the precomputed `n × |S|` reduction it was loaded from (see
    /// `scheme::build_long_range`).
    ///
    /// The per-entry loop ran at build time, with ties broken on the
    /// smaller next-hop id, so answers are bit-identical to recomputing
    /// it here (and independent of routing-table iteration order, which
    /// keeps queries bit-identical across snapshot save/load).
    fn long_range(&self, x: NodeId, label: &RtcLabel) -> Option<(u64, usize)> {
        let cell = x.index() * self.skel_ids.len() + self.skel_index.get(label.home)?;
        let d = self.long_dist.get(cell);
        (d != INF).then(|| (d.saturating_add(label.dist_home), cell))
    }

    /// The long-range option at `x` for destination label `label`:
    /// `(total_estimate, next_hop)`.
    fn skeleton_option(&self, x: NodeId, label: &RtcLabel) -> Option<(u64, NodeId)> {
        let (est, cell) = self.long_range(x, label)?;
        Some((est, NodeId(self.long_hop.get(cell))))
    }
}

/// A row is the queried node and its short-range row cursor: both fit on
/// the stack, so the scalar estimate opens a row too.
impl RowEstimate for RtcScheme {
    type Row<'a> = (NodeId, Option<RowCursor<'a>>);

    #[inline]
    fn open<'a>(&'a self, x: NodeId, row: &mut Self::Row<'a>) {
        *row = (x, Some(self.short.cursor(x)));
    }

    /// Theorem 4.5's estimate: the short-range entry or the long-range
    /// term, whichever is smaller.
    #[inline]
    fn est(&self, &(x, short): &Self::Row<'_>, dest: NodeId) -> u64 {
        if x == dest {
            return 0;
        }
        let direct = short.and_then(|row| row.est(dest)).unwrap_or(INF);
        let long = self.long_range(x, &self.labels[dest.index()]);
        direct.min(long.map_or(INF, |(est, _)| est))
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
        if let Some(child) = self.trees.descend(label.home, x, label.tree_dfs) {
            return Some(child);
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
        let mut row = Default::default();
        self.open(x, &mut row);
        self.est(&row, dest)
    }

    fn label_bits(&self, v: NodeId) -> usize {
        self.labels[v.index()].bits(self.labels.len())
    }

    fn table_entries(&self, v: NodeId) -> usize {
        self.table_sizes[v.index()] as usize
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
