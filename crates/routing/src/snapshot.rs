//! Binary snapshot codec for the Theorem 4.5 scheme.
//!
//! A built [`RtcScheme`] is a pure query artifact: everything
//! [`crate::eval::RoutingScheme`] needs is laid out here as
//! [`congest::arena`] sections, so an oracle can be constructed once (the
//! expensive distributed build) and then served from disk. Query answers
//! of a reloaded scheme are bit-identical to the original, and reload →
//! re-save reproduces the bytes: the flat tables are serialized *as
//! stored* (their rows are sorted by construction), so no
//! canonicalization pass is needed on either side.
//!
//! Build metrics are not persisted (the oracle header carries the round,
//! message and wall-clock totals); a reloaded scheme's
//! [`RtcScheme::metrics`] is the default.

use crate::scheme::{RtcLabel, RtcScheme};
use congest::wire::invalid_data;
use congest::{NodeId, Topology};
use graphs::DenseIndex;
use pde_core::FlatTables;
use std::io;
use treeroute::TreeSet;

impl RtcScheme {
    /// Emits the scheme into an arena. Every table queries touch is a
    /// typed section — **including the derived long-range reduction**
    /// (`long_dist`/`long_hop`) and the per-node table counts, so a load
    /// only bulk-decodes and shape-checks. The detection trees ride along
    /// as an embedded wire stream.
    ///
    /// # Errors
    ///
    /// Propagates errors from the embedded stream writer.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) -> io::Result<()> {
        self.topo.write_arena(a);
        let ids: Vec<u32> = self.labels.iter().map(|l| l.id.0).collect();
        let homes: Vec<u32> = self.labels.iter().map(|l| l.home.0).collect();
        let dist_homes: Vec<u64> = self.labels.iter().map(|l| l.dist_home).collect();
        let tree_dfs: Vec<u64> = self.labels.iter().map(|l| l.tree_dfs).collect();
        a.u32s(&ids);
        a.u32s(&homes);
        a.u64s(&dist_homes);
        a.u64s(&tree_dfs);
        let skeleton: Vec<u8> = self.skeleton.iter().map(|&f| u8::from(f)).collect();
        a.u8s(&skeleton);
        self.short.write_arena(a);
        a.u32s(&self.table_sizes);
        a.section(self.long_dist.as_bytes());
        a.section(self.long_hop.as_bytes());
        a.stream(|sink| self.trees.write_into(sink))
    }

    /// Reads what [`RtcScheme::write_arena`] wrote: bulk section decodes
    /// and linear shape checks; no per-element parsing and no
    /// long-range recomputation.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let topo = Topology::read_arena(c)?;
        let n = topo.len();
        let ids = c.u32s()?;
        let homes = c.u32s()?;
        let dist_homes = c.u64s()?;
        let tree_dfs = c.u64s()?;
        if ids.len() != n || homes.len() != n || dist_homes.len() != n || tree_dfs.len() != n {
            return Err(invalid_data("rtc label sections disagree on length"));
        }
        // Queries index the skeleton table by a destination's home.
        if homes.iter().any(|&h| h as usize >= n) {
            return Err(invalid_data("rtc home out of range"));
        }
        let labels: Vec<RtcLabel> = (0..n)
            .map(|i| RtcLabel {
                id: NodeId(ids[i]),
                home: NodeId(homes[i]),
                dist_home: dist_homes[i],
                tree_dfs: tree_dfs[i],
            })
            .collect();
        let skeleton = c.bools()?;
        if skeleton.len() != n {
            return Err(invalid_data("rtc skeleton section misshapen"));
        }
        let short = FlatTables::read_arena(c)?;
        short.validate(&topo)?;
        let table_sizes = c.u32s()?;
        if table_sizes.len() != n {
            return Err(invalid_data("rtc table-size section misshapen"));
        }
        let skel_ids: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|v| skeleton[v.index()])
            .collect();
        let long_cells = congest::wire::seq_product(n, skel_ids.len(), "long-range matrix")?;
        let long_dist = c.u64v()?;
        let long_hop = c.u32v()?;
        if long_dist.len() != long_cells || long_hop.len() != long_cells {
            return Err(invalid_data("long-range cell count mismatch"));
        }
        // A stored hop must be a node id or the sentinel: the route path
        // feeds it straight into `NodeId` without further checks.
        if long_hop.iter().any(|h| h != u32::MAX && h as usize >= n) {
            return Err(invalid_data("long-range hop out of range"));
        }
        let trees = TreeSet::read_from(&mut c.bytes()?)?;
        let skel_index = DenseIndex::new(n, &skel_ids);
        Ok(RtcScheme {
            topo,
            labels,
            short,
            skeleton,
            skel_ids,
            trees,
            metrics: Default::default(),
            table_sizes,
            skel_index,
            long_dist,
            long_hop,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::RoutingScheme;
    use crate::scheme::{build_rtc, RtcParams};
    use crate::BuildMode;
    use congest::arena::ArenaWriter;
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn arena_round_trip_is_query_and_byte_identical() {
        let mut rng = SmallRng::seed_from_u64(35);
        let g = gen::gnp_connected(24, 0.2, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
        let scheme = build_rtc(&g, &RtcParams::new(2));
        let mut a = congest::arena::ArenaWriter::new();
        scheme.write_arena(&mut a).unwrap();
        let mut buf = Vec::new();
        a.finish(&mut buf).unwrap();
        let r =
            congest::arena::ArenaReader::parse(congest::arena::SharedBytes::from_vec(buf.clone()))
                .unwrap();
        let mut c = r.cursor();
        let back = super::RtcScheme::read_arena(&mut c).unwrap();
        c.expect_end().unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(scheme.estimate(u, v), back.estimate(u, v), "({u},{v})");
                assert_eq!(scheme.next_hop(u, v), back.next_hop(u, v), "({u},{v})");
            }
            assert_eq!(scheme.label_bits(u), back.label_bits(u));
            assert_eq!(scheme.table_entries(u), back.table_entries(u));
        }
        // Re-emitting the arena is byte-identical (all sections stored).
        let mut a2 = congest::arena::ArenaWriter::new();
        back.write_arena(&mut a2).unwrap();
        let mut buf2 = Vec::new();
        a2.finish(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn arena_stores_no_sigma_lists() {
        // At n = 256 and k = 2 the horizon h = ⌈c·ln n / p⌉ exceeds n, so
        // σ = n, and stored top-σ lists (9 bytes an entry) would cost
        // 9·n·σ. Everything but the short-range archive stays below that.
        let n = 256;
        let mut rng = SmallRng::seed_from_u64(41);
        let g = gen::gnp_connected(n, 0.03, Weights::Uniform { lo: 1, hi: 20 }, &mut rng);
        let scheme = build_rtc(&g, &RtcParams::new(2).with_mode(BuildMode::Native));
        let sigma = (scheme.metrics.h as usize).min(n);
        assert_eq!(sigma, n);
        let arena_len = |write: &dyn Fn(&mut ArenaWriter)| {
            let mut a = ArenaWriter::counting();
            write(&mut a);
            a.finished_len()
        };
        let all = arena_len(&|a| scheme.write_arena(a).unwrap());
        let short = arena_len(&|a| scheme.short.write_arena(a));
        assert!(
            all - short < 9 * n * sigma,
            "{all} - {short} bytes beside the short-range archive"
        );
    }
}
