//! Stateless routing and distance queries for the compact hierarchy.
//!
//! The forwarding potential at node `x` for destination `w` is
//!
//! ```text
//! Φ(x) = min over levels l of:
//!          l = 0:        wd'_0(x, w)
//!          l ∈ 1..k−1:   wd'_l(x, s'_l(w)) + wd'_l(w, s'_l(w))
//! ```
//!
//! where the second summand comes from `w`'s label. Following the chosen
//! level's next-hop chain decreases Φ by at least the traversed edge
//! weight, so the walk reaches some pivot `s'_l(w)` (or `w` directly);
//! there, DFS-interval descent of `T_{s'_l(w)}` takes over (tree mode has
//! priority and is self-sustaining). Lemma 4.6 bounds the resulting
//! stretch by `4k−3+o(1)`.

use crate::hierarchy::CompactScheme;
use congest::NodeId;
use graphs::INF;
use pde_core::schedule::RowEstimate;
use pde_core::RowCursor;
use routing::RoutingScheme;

impl CompactScheme {
    /// The label of `v`.
    pub fn label(&self, v: NodeId) -> &crate::hierarchy::CompactLabel {
        &self.labels[v.index()]
    }

    /// The level-`l` potential option at `x` for destination `dest`:
    /// `(estimate, next hop)`.
    pub(crate) fn option(&self, x: NodeId, dest: NodeId, l: u32) -> Option<(u64, NodeId)> {
        if l == 0 {
            return self.routes[0]
                .get(x, dest)
                .map(|e| (e.est, self.topo.neighbor(x, e.port)));
        }
        let (pivot, d_w, _) = self.labels[dest.index()].pivots[(l - 1) as usize];
        if x == pivot {
            return None; // already there; tree mode handles descent
        }
        self.routes[l as usize]
            .get(x, pivot)
            .map(|e| (e.est.saturating_add(d_w), self.topo.neighbor(x, e.port)))
    }

    /// Lemma 4.6's estimate, written once: the minimum over the level
    /// options of [`CompactScheme::option`], without resolving next hops
    /// (the minimum is independent of the hop tie-break, so no per-level
    /// `Topology` loads). `probe(l, s)` reads `x`'s level-`l` estimate
    /// towards `s`.
    #[inline]
    fn estimate_by(
        &self,
        x: NodeId,
        dest: NodeId,
        probe: impl Fn(usize, NodeId) -> Option<u64>,
    ) -> u64 {
        if x == dest {
            return 0;
        }
        let mut best = probe(0, dest).unwrap_or(INF);
        for (i, &(pivot, d_w, _)) in self.labels[dest.index()].pivots.iter().enumerate() {
            // If x *is* the level's pivot of dest, the estimate is the
            // label distance itself.
            let here = if x == pivot {
                0
            } else {
                probe(i + 1, pivot).unwrap_or(INF)
            };
            best = best.min(here.saturating_add(d_w));
        }
        best
    }
}

/// A row is the queried node and its row cursor in each level's table.
impl RowEstimate for CompactScheme {
    type Row<'a> = (NodeId, Vec<RowCursor<'a>>);

    #[inline]
    fn open<'a>(&'a self, x: NodeId, (at, levels): &mut Self::Row<'a>) {
        *at = x;
        levels.clear();
        levels.extend(self.routes.iter().map(|t| t.cursor(x)));
    }

    #[inline]
    fn est(&self, (x, levels): &Self::Row<'_>, dest: NodeId) -> u64 {
        self.estimate_by(*x, dest, |l, s| levels[l].est(s))
    }
}

impl RoutingScheme for CompactScheme {
    fn len(&self) -> usize {
        self.labels.len()
    }

    fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
        if x == dest {
            return None;
        }
        let label = &self.labels[dest.index()];
        // Tree mode: if x sits in some pivot tree of dest with dest in its
        // subtree, descend the cheapest such tree.
        let mut tree_best: Option<(u64, NodeId)> = None;
        for (&(pivot, d_w, dfs), set) in label.pivots.iter().zip(&self.trees) {
            if let Some(child) = set.descend(pivot, x, dfs) {
                if tree_best.is_none_or(|(b, _)| d_w < b) {
                    tree_best = Some((d_w, child));
                }
            }
        }
        if let Some((_, child)) = tree_best {
            return Some(child);
        }
        // Φ mode: the minimum over level options.
        let mut best: Option<(u64, NodeId)> = None;
        for l in 0..self.routes.len() as u32 {
            if let Some((est, hop)) = self.option(x, dest, l) {
                if best.is_none_or(|(b, _)| est < b) {
                    best = Some((est, hop));
                }
            }
        }
        best.map(|(_, hop)| hop)
    }

    fn estimate(&self, x: NodeId, dest: NodeId) -> u64 {
        self.estimate_by(x, dest, |l, s| self.routes[l].est(x, s))
    }

    fn label_bits(&self, v: NodeId) -> usize {
        self.labels[v.index()].bits(self.labels.len())
    }

    fn table_entries(&self, v: NodeId) -> usize {
        // Paper-sized tables: bunches plus per-tree interval rows.
        let tree_rows: usize = self.trees.iter().map(|set| set.rows_at(v)).sum();
        self.bunch_sizes[v.index()] as usize + tree_rows
    }
}

#[cfg(test)]
mod tests {
    use crate::hierarchy::{build_hierarchy, CompactParams};
    use graphs::gen::{self, Weights};
    use graphs::Seed;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use routing::RoutingScheme;

    #[test]
    fn self_queries_are_trivial() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::gnp_connected(20, 0.2, Weights::Uniform { lo: 1, hi: 10 }, &mut rng);
        let scheme = build_hierarchy(&g, &CompactParams::new(2));
        for v in g.nodes() {
            assert_eq!(scheme.next_hop(v, v), None);
            assert_eq!(scheme.estimate(v, v), 0);
        }
    }

    #[test]
    fn labels_have_k_minus_1_pivots() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = gen::gnp_connected(24, 0.2, Weights::Uniform { lo: 1, hi: 10 }, &mut rng);
        for k in [1u32, 2, 3] {
            let mut p = CompactParams::new(k);
            p.seed = Seed(99);
            let scheme = build_hierarchy(&g, &p);
            for v in g.nodes() {
                assert_eq!(scheme.label(v).pivots.len(), (k - 1) as usize);
            }
        }
    }
}
