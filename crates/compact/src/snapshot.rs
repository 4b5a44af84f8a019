//! Binary snapshot codecs for the compact hierarchies (Theorems 4.8 and
//! 4.13): [`congest::arena`] sections, with the handwritten little-endian
//! framing of [`congest::wire`] for the small embedded streams.
//!
//! Route archives are serialized as [`FlatTables`] CSR rows and the
//! truncated upper-level maps as [`PairTable`]s — both written *as
//! stored* (rows are sorted by construction), so reload → re-save is
//! byte-identical and reloaded schemes answer queries bit-identically to
//! the originals. Build metrics are not persisted (the oracle header
//! carries the round, message and wall-clock totals); a reloaded scheme's
//! `metrics` is the default.

use crate::hierarchy::{CompactLabel, CompactScheme};
use crate::truncated::{TruncLabel, TruncatedScheme, UpperPivot};
use congest::wire::{clamped_capacity, invalid_data, WireReader, WireWriter};
use congest::{NodeId, Topology};
use graphs::{DenseIndex, WGraph};
use pde_core::{FlatTables, PairTable};
use std::io::{self, Read, Write};
use treeroute::TreeSet;

fn write_tree_sets(sink: &mut dyn Write, sets: &[TreeSet]) -> io::Result<()> {
    WireWriter::new(sink).len(sets.len())?;
    for set in sets {
        set.write_into(sink)?;
    }
    Ok(())
}

fn read_tree_sets(source: &mut dyn Read) -> io::Result<Vec<TreeSet>> {
    let count = WireReader::new(source).len64(congest::wire::MAX_SEQ_LEN)?;
    let mut sets = Vec::with_capacity(clamped_capacity(count));
    for _ in 0..count {
        sets.push(TreeSet::read_from(source)?);
    }
    Ok(sets)
}

impl CompactScheme {
    /// Emits the hierarchy into an arena: per-level route archives and
    /// per-node arrays as typed sections, detection trees as an embedded
    /// wire stream.
    ///
    /// # Errors
    ///
    /// Propagates errors from the embedded stream writer.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) -> io::Result<()> {
        self.topo.write_arena(a);
        a.u64s(&[u64::from(self.k)]);
        a.u32s(&self.levels);
        let bunches: Vec<u64> = self.bunch_sizes.iter().map(|&b| b as u64).collect();
        a.u64s(&bunches);
        let ids: Vec<u32> = self.labels.iter().map(|l| l.id.0).collect();
        let piv_s: Vec<u32> = self
            .labels
            .iter()
            .flat_map(|l| l.pivots.iter().map(|&(s, _, _)| s.0))
            .collect();
        let piv_d: Vec<u64> = self
            .labels
            .iter()
            .flat_map(|l| l.pivots.iter().map(|&(_, d, _)| d))
            .collect();
        let piv_f: Vec<u64> = self
            .labels
            .iter()
            .flat_map(|l| l.pivots.iter().map(|&(_, _, f)| f))
            .collect();
        a.u32s(&ids);
        a.u32s(&piv_s);
        a.u64s(&piv_d);
        a.u64s(&piv_f);
        for run in &self.routes {
            run.write_arena(a);
        }
        a.stream(|sink| write_tree_sets(sink, &self.trees))
    }

    /// Reads what [`CompactScheme::write_arena`] wrote. Queries index
    /// `levels[v]`, `routes[l]` row `v`, `labels[v].pivots[l-1]` and
    /// `trees[l-1]`, so all per-node tables must cover every node and all
    /// per-level tables every level — a short table fails here, not at
    /// query time.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let topo = Topology::read_arena(c)?;
        let n = topo.len();
        let meta = c.u64s()?;
        let [k] = meta[..] else {
            return Err(invalid_data("compact meta section misshapen"));
        };
        let k = u32::try_from(k).map_err(|_| invalid_data("compact k overflow"))?;
        if k == 0 {
            return Err(invalid_data("compact snapshot with k = 0"));
        }
        let levels = c.u32s()?;
        if levels.len() != n {
            return Err(invalid_data("compact level table shorter than n"));
        }
        let bunch_sizes: Vec<usize> = c
            .u64s()?
            .into_iter()
            .map(|b| usize::try_from(b).map_err(|_| invalid_data("bunch size overflow")))
            .collect::<io::Result<_>>()?;
        if bunch_sizes.len() != n {
            return Err(invalid_data("compact bunch table shorter than n"));
        }
        let ids = c.u32s()?;
        let piv_s = c.u32s()?;
        let piv_d = c.u64s()?;
        let piv_f = c.u64s()?;
        let stride = (k - 1) as usize;
        let total = congest::wire::seq_product(n, stride, "compact pivot table")?;
        if ids.len() != n || piv_s.len() != total || piv_d.len() != total || piv_f.len() != total {
            return Err(invalid_data("compact label sections disagree on length"));
        }
        let labels: Vec<CompactLabel> = (0..n)
            .map(|v| CompactLabel {
                id: NodeId(ids[v]),
                pivots: (v * stride..(v + 1) * stride)
                    .map(|i| (NodeId(piv_s[i]), piv_d[i], piv_f[i]))
                    .collect(),
            })
            .collect();
        let mut routes = Vec::with_capacity(k as usize);
        for _ in 0..k {
            let run = FlatTables::read_arena(c)?;
            run.validate(&topo)?;
            routes.push(run);
        }
        let trees = read_tree_sets(&mut c.bytes()?)?;
        if trees.len() != (k - 1) as usize {
            return Err(invalid_data("compact tree set count mismatch"));
        }
        Ok(CompactScheme {
            topo,
            k,
            levels,
            routes,
            bunch_sizes,
            trees,
            labels,
            metrics: Default::default(),
        })
    }
}

impl TruncatedScheme {
    /// Emits the truncated scheme into an arena: route archives, pair
    /// tables, the skeleton graph and the per-node label arrays as typed
    /// sections; detection trees as embedded wire streams.
    ///
    /// # Errors
    ///
    /// Propagates errors from the embedded stream writers.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) -> io::Result<()> {
        self.topo.write_arena(a);
        a.u64s(&[u64::from(self.l0), self.upper_est.len() as u64]);
        let skel: Vec<u32> = self.skel_ids.iter().map(|s| s.0).collect();
        a.u32s(&skel);
        for run in &self.lower_routes {
            run.write_arena(a);
        }
        self.base_routes.write_arena(a);
        self.gt_graph.write_arena(a);
        for table in &self.upper_est {
            table.write_arena(a);
        }
        for table in &self.upper_next {
            table.write_arena(a);
        }
        a.stream(|sink| write_tree_sets(sink, &self.lower_trees))?;
        a.stream(|sink| self.base_trees.write_into(sink))?;
        let ids: Vec<u32> = self.labels.iter().map(|l| l.id.0).collect();
        let lo_s: Vec<u32> = self
            .labels
            .iter()
            .flat_map(|l| l.lower.iter().map(|&(s, _, _)| s.0))
            .collect();
        let lo_d: Vec<u64> = self
            .labels
            .iter()
            .flat_map(|l| l.lower.iter().map(|&(_, d, _)| d))
            .collect();
        let lo_f: Vec<u64> = self
            .labels
            .iter()
            .flat_map(|l| l.lower.iter().map(|&(_, _, f)| f))
            .collect();
        let up_pivot: Vec<u32> = self
            .labels
            .iter()
            .flat_map(|l| l.upper.iter().map(|u| u.pivot.0))
            .collect();
        let up_est: Vec<u64> = self
            .labels
            .iter()
            .flat_map(|l| l.upper.iter().map(|u| u.est))
            .collect();
        let up_t_star: Vec<u32> = self
            .labels
            .iter()
            .flat_map(|l| l.upper.iter().map(|u| u.t_star.0))
            .collect();
        let up_est_base: Vec<u64> = self
            .labels
            .iter()
            .flat_map(|l| l.upper.iter().map(|u| u.est_base))
            .collect();
        let up_base_dfs: Vec<u64> = self
            .labels
            .iter()
            .flat_map(|l| l.upper.iter().map(|u| u.base_dfs))
            .collect();
        a.u32s(&ids);
        a.u32s(&lo_s);
        a.u64s(&lo_d);
        a.u64s(&lo_f);
        a.u32s(&up_pivot);
        a.u64s(&up_est);
        a.u32s(&up_t_star);
        a.u64s(&up_est_base);
        a.u64s(&up_base_dfs);
        let bunches: Vec<u64> = self.bunch_sizes.iter().map(|&b| b as u64).collect();
        a.u64s(&bunches);
        Ok(())
    }

    /// Reads what [`TruncatedScheme::write_arena`] wrote. Shape checks
    /// mirror the query paths — `lower_routes[l]` for `l < l0`,
    /// `base_routes` rows, `labels[v]` with `l0 − 1` lower and
    /// `|upper_est|` upper records whose pivots are skeleton members — so
    /// short or foreign tables fail here, not at query time.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let topo = Topology::read_arena(c)?;
        let n = topo.len();
        let meta = c.u64s()?;
        let [l0, ne] = meta[..] else {
            return Err(invalid_data("truncated meta section misshapen"));
        };
        let l0 = u32::try_from(l0).map_err(|_| invalid_data("truncated l0 overflow"))?;
        if l0 == 0 {
            return Err(invalid_data("truncated snapshot with l0 = 0"));
        }
        let ne = usize::try_from(ne).map_err(|_| invalid_data("upper map count overflow"))?;
        if ne > n {
            return Err(invalid_data("upper map count exceeds n"));
        }
        let skel_raw = c.u32s()?;
        let m = skel_raw.len();
        if m > n {
            return Err(invalid_data("skeleton larger than n"));
        }
        let mut skel_ids = Vec::with_capacity(m);
        let mut seen = vec![false; n];
        for id in skel_raw {
            let id = NodeId(id);
            if id.index() >= n {
                return Err(invalid_data("skeleton id out of range"));
            }
            // Duplicates would panic in DenseIndex::new below; corrupted
            // bytes must come back as InvalidData, never an abort.
            if std::mem::replace(&mut seen[id.index()], true) {
                return Err(invalid_data("duplicate skeleton id"));
            }
            skel_ids.push(id);
        }
        let skel_index = DenseIndex::new(n, &skel_ids);
        let mut lower_routes = Vec::with_capacity(l0 as usize);
        for _ in 0..l0 {
            let run = FlatTables::read_arena(c)?;
            run.validate(&topo)?;
            lower_routes.push(run);
        }
        let base_routes = FlatTables::read_arena(c)?;
        base_routes.validate(&topo)?;
        let gt_graph = WGraph::read_arena(c)?;
        if gt_graph.len() != m.max(1) {
            return Err(invalid_data("truncated skeleton graph size mismatch"));
        }
        let read_pair_tables = |c: &mut congest::arena::ArenaCursor<'_>,
                                check_next: bool|
         -> io::Result<Vec<PairTable>> {
            let mut tables = Vec::with_capacity(ne);
            for _ in 0..ne {
                let t = PairTable::read_arena(c)?;
                if t.k() != m.max(1) {
                    return Err(invalid_data("pair table side length mismatch"));
                }
                if check_next {
                    for (_, _, v) in t.iter() {
                        if v >= m.max(1) as u64 {
                            return Err(invalid_data("upper_next index out of range"));
                        }
                    }
                }
                tables.push(t);
            }
            Ok(tables)
        };
        let upper_est = read_pair_tables(c, false)?;
        let upper_next = read_pair_tables(c, true)?;
        let lower_trees = read_tree_sets(&mut c.bytes()?)?;
        if lower_trees.len() != (l0 - 1) as usize {
            return Err(invalid_data("truncated lower tree count mismatch"));
        }
        let base_trees = TreeSet::read_from(&mut c.bytes()?)?;
        let ids = c.u32s()?;
        let lo_s = c.u32s()?;
        let lo_d = c.u64s()?;
        let lo_f = c.u64s()?;
        let up_pivot = c.u32s()?;
        let up_est = c.u64s()?;
        let up_t_star = c.u32s()?;
        let up_est_base = c.u64s()?;
        let up_base_dfs = c.u64s()?;
        let lo_stride = (l0 - 1) as usize;
        let lo_total = congest::wire::seq_product(n, lo_stride, "truncated lower labels")?;
        let up_total = congest::wire::seq_product(n, ne, "truncated upper labels")?;
        if ids.len() != n
            || lo_s.len() != lo_total
            || lo_d.len() != lo_total
            || lo_f.len() != lo_total
            || up_pivot.len() != up_total
            || up_est.len() != up_total
            || up_t_star.len() != up_total
            || up_est_base.len() != up_total
            || up_base_dfs.len() != up_total
        {
            return Err(invalid_data("truncated label sections disagree on length"));
        }
        let mut labels = Vec::with_capacity(n);
        for (v, &id) in ids.iter().enumerate() {
            let lower: Vec<(NodeId, u64, u64)> = (v * lo_stride..(v + 1) * lo_stride)
                .map(|i| (NodeId(lo_s[i]), lo_d[i], lo_f[i]))
                .collect();
            let mut upper = Vec::with_capacity(ne);
            for i in v * ne..(v + 1) * ne {
                let up = UpperPivot {
                    pivot: NodeId(up_pivot[i]),
                    est: up_est[i],
                    t_star: NodeId(up_t_star[i]),
                    est_base: up_est_base[i],
                    base_dfs: up_base_dfs[i],
                };
                if up.pivot.index() >= n
                    || up.t_star.index() >= n
                    || !skel_index.contains(up.pivot)
                    || !skel_index.contains(up.t_star)
                {
                    return Err(invalid_data("label upper pivot not in skeleton"));
                }
                upper.push(up);
            }
            labels.push(TruncLabel {
                id: NodeId(id),
                lower,
                upper,
            });
        }
        let bunch_sizes: Vec<usize> = c
            .u64s()?
            .into_iter()
            .map(|b| usize::try_from(b).map_err(|_| invalid_data("bunch size overflow")))
            .collect::<io::Result<_>>()?;
        if bunch_sizes.len() != n {
            return Err(invalid_data("truncated bunch table shorter than n"));
        }
        let base_row_idx = pde_core::resolve_entry_indices(&base_routes, &skel_index);
        Ok(TruncatedScheme {
            topo,
            l0,
            lower_routes,
            base_routes,
            base_row_idx,
            skel_ids,
            skel_index,
            gt_graph,
            upper_est,
            upper_next,
            lower_trees,
            base_trees,
            labels,
            bunch_sizes,
            metrics: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{build_hierarchy, CompactParams};
    use crate::truncated::{build_truncated, UpperMode};
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use routing::RoutingScheme;

    fn assert_query_identical<S: RoutingScheme>(g: &WGraph, a: &S, b: &S) {
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(a.estimate(u, v), b.estimate(u, v), "({u},{v})");
                assert_eq!(a.next_hop(u, v), b.next_hop(u, v), "({u},{v})");
            }
            assert_eq!(a.label_bits(u), b.label_bits(u));
            assert_eq!(a.table_entries(u), b.table_entries(u));
        }
    }

    #[test]
    fn arena_round_trips_are_query_and_byte_identical() {
        let mut rng = SmallRng::seed_from_u64(47);
        let g = gen::gnp_connected(24, 0.2, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);

        let scheme = build_hierarchy(&g, &CompactParams::new(3));
        let mut a = congest::arena::ArenaWriter::new();
        scheme.write_arena(&mut a).unwrap();
        let mut bytes = Vec::new();
        a.finish(&mut bytes).unwrap();
        let reader = congest::arena::ArenaReader::parse(congest::arena::SharedBytes::from_vec(
            bytes.clone(),
        ))
        .unwrap();
        let mut c = reader.cursor();
        let back = CompactScheme::read_arena(&mut c).unwrap();
        c.expect_end().unwrap();
        assert_query_identical(&g, &scheme, &back);
        let mut a2 = congest::arena::ArenaWriter::new();
        back.write_arena(&mut a2).unwrap();
        let mut bytes2 = Vec::new();
        a2.finish(&mut bytes2).unwrap();
        assert_eq!(bytes, bytes2);

        for mode in [UpperMode::Local, UpperMode::Simulated] {
            let scheme = build_truncated(&g, &CompactParams::new(2), 1, mode);
            let mut a = congest::arena::ArenaWriter::new();
            scheme.write_arena(&mut a).unwrap();
            let mut bytes = Vec::new();
            a.finish(&mut bytes).unwrap();
            let reader = congest::arena::ArenaReader::parse(congest::arena::SharedBytes::from_vec(
                bytes.clone(),
            ))
            .unwrap();
            let mut c = reader.cursor();
            let back = TruncatedScheme::read_arena(&mut c).unwrap();
            c.expect_end().unwrap();
            assert_query_identical(&g, &scheme, &back);
            let mut a2 = congest::arena::ArenaWriter::new();
            back.write_arena(&mut a2).unwrap();
            let mut bytes2 = Vec::new();
            a2.finish(&mut bytes2).unwrap();
            assert_eq!(bytes, bytes2, "{mode:?}");
        }
    }
}
