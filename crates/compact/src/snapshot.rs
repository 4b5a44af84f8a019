//! Binary snapshot codecs for the compact hierarchies (Theorems 4.8 and
//! 4.13): [`congest::arena`] sections, with the handwritten little-endian
//! framing of [`congest::wire`] for the small embedded streams. A
//! truncated arena is its nested hierarchy's arena followed by the upper
//! sections, so the level, label, tree and bunch codecs exist once.
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
use congest::wire::{invalid_data, WireReader, WireWriter};
use congest::{NodeId, Topology};
use graphs::{DenseIndex, WGraph};
use pde_core::{FlatTables, PairTable};
use std::io;
use treeroute::TreeSet;

impl CompactScheme {
    /// Emits the hierarchy into an arena: the level count, per-level route
    /// archives and per-node arrays as typed sections, detection trees as
    /// an embedded wire stream.
    ///
    /// # Errors
    ///
    /// Propagates errors from the embedded stream writer.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) -> io::Result<()> {
        self.topo.write_arena(a);
        a.u64s(&[self.routes.len() as u64]);
        a.u32s(&self.bunch_sizes);
        let pivots = || self.labels.iter().flat_map(|l| &l.pivots);
        a.u32s(&self.labels.iter().map(|l| l.id.0).collect::<Vec<_>>());
        a.u32s(&pivots().map(|&(s, _, _)| s.0).collect::<Vec<_>>());
        a.u64s(&pivots().map(|&(_, d, _)| d).collect::<Vec<_>>());
        a.u64s(&pivots().map(|&(_, _, f)| f).collect::<Vec<_>>());
        for run in &self.routes {
            run.write_arena(a);
        }
        a.stream(|sink| {
            WireWriter::new(sink).len(self.trees.len())?;
            self.trees.iter().try_for_each(|set| set.write_into(sink))
        })
    }

    /// Reads what [`CompactScheme::write_arena`] wrote. Queries index
    /// `routes[l]` row `v`, `labels[v].pivots[l-1]`, `trees[l-1]` and
    /// `bunch_sizes[v]`, so all per-node tables must cover every node and
    /// all per-level tables every level — a short table fails here, not at
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
        let bunch_sizes = c.u32s()?;
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
        let mut stream = c.bytes()?;
        let count = WireReader::new(&mut stream).len64(congest::wire::MAX_SEQ_LEN)?;
        let trees = (0..count)
            .map(|_| TreeSet::read_from(&mut stream))
            .collect::<io::Result<Vec<_>>>()?;
        if trees.len() != (k - 1) as usize {
            return Err(invalid_data("compact tree set count mismatch"));
        }
        Ok(CompactScheme {
            topo,
            routes,
            bunch_sizes,
            trees,
            labels,
            metrics: Default::default(),
        })
    }
}

impl TruncatedScheme {
    /// Emits the truncated scheme into an arena: the nested hierarchy's
    /// sections, then the upper-level count, the skeleton, the base route
    /// archive, `G̃`, the pair tables and the per-node upper label and
    /// connector arrays as typed sections, base trees as an embedded wire
    /// stream.
    ///
    /// # Errors
    ///
    /// Propagates errors from the embedded stream writers.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) -> io::Result<()> {
        self.lower.write_arena(a)?;
        a.u64s(&[self.upper_est.len() as u64]);
        let skel: Vec<u32> = self.skel_ids.iter().map(|s| s.0).collect();
        a.u32s(&skel);
        self.base_routes.write_arena(a);
        self.gt_graph.write_arena(a);
        for table in self.upper_est.iter().chain(&self.upper_next) {
            table.write_arena(a);
        }
        a.stream(|sink| self.base_trees.write_into(sink))?;
        let ups = || self.labels.iter().flat_map(|l| &l.upper);
        a.u32s(&ups().map(|u| u.pivot.0).collect::<Vec<_>>());
        a.u64s(&ups().map(|u| u.est).collect::<Vec<_>>());
        a.u32s(&ups().map(|u| u.t_star.0).collect::<Vec<_>>());
        a.u64s(&ups().map(|u| u.est_base).collect::<Vec<_>>());
        a.u64s(&ups().map(|u| u.base_dfs).collect::<Vec<_>>());
        a.u32s(&self.connectors);
        Ok(())
    }

    /// Reads what [`TruncatedScheme::write_arena`] wrote. Shape checks
    /// mirror the query paths — the nested hierarchy's own, `base_routes`
    /// rows, `labels[v]` with `|upper_est|` upper records whose pivots are
    /// skeleton members, `connectors[v]` — so short or foreign tables fail
    /// here, not at query time.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let lower = CompactScheme::read_arena(c)?;
        let topo = &lower.topo;
        let n = topo.len();
        let meta = c.u64s()?;
        let [ne] = meta[..] else {
            return Err(invalid_data("truncated meta section misshapen"));
        };
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
        let base_routes = FlatTables::read_arena(c)?;
        base_routes.validate(topo)?;
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
        let base_trees = TreeSet::read_from(&mut c.bytes()?)?;
        let up_pivot = c.u32s()?;
        let up_est = c.u64s()?;
        let up_t_star = c.u32s()?;
        let up_est_base = c.u64s()?;
        let up_base_dfs = c.u64s()?;
        let up_total = congest::wire::seq_product(n, ne, "truncated upper labels")?;
        if up_pivot.len() != up_total
            || up_est.len() != up_total
            || up_t_star.len() != up_total
            || up_est_base.len() != up_total
            || up_base_dfs.len() != up_total
        {
            return Err(invalid_data("truncated label sections disagree on length"));
        }
        let mut labels = Vec::with_capacity(n);
        for v in 0..n {
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
            labels.push(TruncLabel { upper });
        }
        let connectors = c.u32s()?;
        if connectors.len() != n {
            return Err(invalid_data("truncated connector table shorter than n"));
        }
        let base_slots = pde_core::resolve_entries(&base_routes, &skel_index);
        Ok(TruncatedScheme {
            lower,
            base_routes,
            base_slots,
            skel_ids,
            skel_index,
            gt_graph,
            upper_est,
            upper_next,
            base_trees,
            labels,
            connectors,
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
