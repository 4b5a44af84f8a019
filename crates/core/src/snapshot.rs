//! Wire codecs for PDE state shared by every scheme snapshot.
//!
//! Route tables are serialized sorted by source id and re-inserted in that
//! order on load; together with the deterministic [`congest::FxHasher`]
//! this makes reload → re-save byte-identical.

use crate::pde::{PdeEntry, RouteInfo, RouteTable};
use crate::tables::{Escapes, EST_ESCAPE};
use congest::arena::{SharedBytes, U32View, U64View};
use congest::wire::{clamped_capacity, invalid_data, WireReader, WireWriter};
use congest::{NodeId, Topology};
use std::io::{self, Read, Write};

/// Serializes a per-node vector of route tables.
///
/// # Errors
///
/// Propagates I/O errors from the sink.
pub fn write_route_tables(sink: &mut dyn Write, tables: &[RouteTable]) -> io::Result<()> {
    let mut w = WireWriter::new(sink);
    w.len(tables.len())?;
    for table in tables {
        let mut entries: Vec<(NodeId, RouteInfo)> =
            table.iter().map(|(&s, &info)| (s, info)).collect();
        entries.sort_unstable_by_key(|&(s, _)| s);
        w.len(entries.len())?;
        for (src, info) in entries {
            w.u32(src.0)?;
            w.u64(info.est)?;
            w.u32(info.port)?;
            w.u32(info.level)?;
        }
    }
    Ok(())
}

/// Deserializes what [`write_route_tables`] wrote.
///
/// # Errors
///
/// Returns `InvalidData` on malformed bytes.
pub fn read_route_tables(source: &mut dyn Read) -> io::Result<Vec<RouteTable>> {
    let mut r = WireReader::new(source);
    let n = r.len64(congest::wire::MAX_SEQ_LEN)?;
    let mut tables = Vec::with_capacity(clamped_capacity(n));
    for _ in 0..n {
        let entries = r.len64(congest::wire::MAX_SEQ_LEN)?;
        let mut table = RouteTable::default();
        table.reserve(clamped_capacity(entries));
        for _ in 0..entries {
            let src = NodeId(r.u32()?);
            let est = r.u64()?;
            let port = r.u32()?;
            let level = r.u32()?;
            table.insert(src, RouteInfo { est, port, level });
        }
        tables.push(table);
    }
    Ok(tables)
}

/// Validates deserialized route tables against the topology they will be
/// queried on: one table per node, every source id in range, every port
/// within its node's degree.
///
/// [`congest::Topology::neighbor`] only debug-asserts its port argument,
/// so an out-of-range port from a corrupted snapshot would silently
/// resolve to a *wrong neighbor* in release builds — this check turns
/// that into `InvalidData` at load time.
///
/// # Errors
///
/// Returns `InvalidData` on any out-of-range source or port.
pub fn validate_route_tables(tables: &[RouteTable], topo: &Topology) -> io::Result<()> {
    if tables.len() != topo.len() {
        return Err(invalid_data("route table count mismatch"));
    }
    for (v, table) in tables.iter().enumerate() {
        let deg = topo.degree(NodeId::from_index(v)) as u32;
        for (&src, info) in table {
            if src.index() >= topo.len() {
                return Err(invalid_data(format!("route source {src} out of range")));
            }
            if info.port >= deg {
                return Err(invalid_data(format!(
                    "route port {} out of range at node {v} (degree {deg})",
                    info.port
                )));
            }
        }
    }
    Ok(())
}

/// Serializes per-node combined lists (`PdeOutput::lists`).
///
/// # Errors
///
/// Propagates I/O errors from the sink.
pub fn write_lists(sink: &mut dyn Write, lists: &[Vec<PdeEntry>]) -> io::Result<()> {
    let mut w = WireWriter::new(sink);
    w.len(lists.len())?;
    for list in lists {
        w.len(list.len())?;
        for e in list {
            w.u64(e.est)?;
            w.u32(e.src.0)?;
            w.bool(e.tag)?;
        }
    }
    Ok(())
}

/// Deserializes what [`write_lists`] wrote.
///
/// # Errors
///
/// Returns `InvalidData` on malformed bytes.
pub fn read_lists(source: &mut dyn Read) -> io::Result<Vec<Vec<PdeEntry>>> {
    let mut r = WireReader::new(source);
    let n = r.len64(congest::wire::MAX_SEQ_LEN)?;
    let mut lists = Vec::with_capacity(clamped_capacity(n));
    for _ in 0..n {
        let len = r.len64(congest::wire::MAX_SEQ_LEN)?;
        let mut list = Vec::with_capacity(clamped_capacity(len));
        for _ in 0..len {
            let est = r.u64()?;
            let src = NodeId(r.u32()?);
            let tag = r.bool()?;
            list.push(PdeEntry { est, src, tag });
        }
        lists.push(list);
    }
    Ok(lists)
}

/// Per-node combined lists (`PdeOutput::lists`) flattened behind
/// zero-copy views — the query-side replacement for `Vec<Vec<PdeEntry>>`
/// where the lists are hot state of a scheme (RTC's short-range lists).
/// Nine bytes per entry, split SoA (`est u32`, `src u32`, `tag u8`) under
/// `u64` row offsets; an estimate `≥ u32::MAX` stores the all-ones marker
/// and its true value in an escape section pair (the same escape as
/// [`crate::FlatTables`]). A v3 load is views plus an offsets check and
/// one scan of the tag and estimate sections, and load → re-save is a
/// byte passthrough.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatLists {
    /// `starts[v]..starts[v + 1]` delimits node `v`'s list (`n + 1`
    /// offsets).
    starts: U64View,
    /// All estimates back to back ([`EST_ESCAPE`] where escaped).
    ests: U32View,
    /// Sources, parallel to `ests`.
    srcs: U32View,
    /// Truncation tags (one byte each, 0/1), parallel to `ests`.
    tags: SharedBytes,
    /// True estimates of the marked entries, one word each.
    wide: Escapes,
}

impl FlatLists {
    /// Flattens owned per-node lists (the build-side constructor).
    ///
    /// # Panics
    ///
    /// Panics if the total entry count exceeds `u32::MAX` (escape indices
    /// are 4 bytes, as in [`crate::FlatTables`]).
    pub fn from_lists(lists: &[Vec<PdeEntry>]) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        u32::try_from(total).expect("flat lists fit u32 indices");
        let mut starts = Vec::with_capacity(lists.len() + 1);
        let mut ests: Vec<u32> = Vec::with_capacity(total);
        let mut srcs: Vec<u32> = Vec::with_capacity(total);
        let mut tags = Vec::with_capacity(total);
        let (mut wide_idx, mut wide_vals) = (Vec::new(), Vec::new());
        starts.push(0u64);
        for list in lists {
            for e in list {
                let est = u32::try_from(e.est).unwrap_or(EST_ESCAPE);
                if est == EST_ESCAPE {
                    wide_idx.push(tags.len() as u32);
                    wide_vals.push(e.est);
                }
                ests.push(est);
                srcs.push(e.src.0);
                tags.push(u8::from(e.tag));
            }
            starts.push(tags.len() as u64);
        }
        FlatLists {
            starts: U64View::from_vals(&starts),
            ests: U32View::from_vals(&ests),
            srcs: U32View::from_vals(&srcs),
            tags: SharedBytes::from_vec(tags),
            wide: Escapes::from_vals(&wide_idx, &wide_vals),
        }
    }

    /// Number of nodes covered (rows).
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// `true` when no node is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of node `v`'s list.
    #[inline]
    pub fn row_len(&self, v: NodeId) -> usize {
        (self.starts.get(v.index() + 1) - self.starts.get(v.index())) as usize
    }

    /// The estimate of arena entry `i`. [`FlatLists::read_arena`] pairs
    /// every marker with a record, so the fallback is never taken.
    fn est(&self, i: usize) -> u64 {
        match self.ests.get(i) {
            EST_ESCAPE => self
                .wide
                .find(i)
                .map_or(u64::from(EST_ESCAPE), |at| self.wide.word(at)),
            est => u64::from(est),
        }
    }

    /// Iterates node `v`'s list in stored order.
    #[inline]
    pub fn iter_row(&self, v: NodeId) -> impl Iterator<Item = PdeEntry> + '_ {
        let lo = self.starts.get(v.index()) as usize;
        let hi = self.starts.get(v.index() + 1) as usize;
        (lo..hi).map(|i| PdeEntry {
            est: self.est(i),
            src: NodeId(self.srcs.get(i)),
            tag: self.tags.as_slice()[i] != 0,
        })
    }

    /// Decodes back into owned per-node lists (tests and cold paths).
    pub fn to_lists(&self) -> Vec<Vec<PdeEntry>> {
        (0..self.len())
            .map(|v| self.iter_row(NodeId::from_index(v)).collect())
            .collect()
    }

    /// Serializes with the exact [`write_lists`] v2 framing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_into(&self, sink: &mut dyn Write) -> io::Result<()> {
        let mut w = WireWriter::new(sink);
        w.len(self.len())?;
        for v in 0..self.len() {
            let v = NodeId::from_index(v);
            w.len(self.row_len(v))?;
            for e in self.iter_row(v) {
                w.u64(e.est)?;
                w.u32(e.src.0)?;
                w.bool(e.tag)?;
            }
        }
        Ok(())
    }

    /// Deserializes what [`FlatLists::write_into`] (or [`write_lists`])
    /// wrote.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed bytes.
    pub fn read_from(source: &mut dyn Read) -> io::Result<Self> {
        Ok(FlatLists::from_lists(&read_lists(source)?))
    }

    /// Emits the lists into a v3 arena, the views' backing bytes
    /// verbatim: row offsets, estimates, sources, tags, escapes.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) {
        a.section(self.starts.as_bytes());
        a.section(self.ests.as_bytes());
        a.section(self.srcs.as_bytes());
        a.section(self.tags.as_slice());
        self.wide.write_arena(a);
    }

    /// Reads what [`FlatLists::write_arena`] wrote: zero-copy views plus
    /// O(n) offset checks, a tag byte scan and the marker ↔ escape-record
    /// correspondence.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let starts = c.u64v()?;
        let ests = c.u32v()?;
        let srcs = c.u32v()?;
        let tags = c.shared()?;
        let n = starts
            .len()
            .checked_sub(1)
            .ok_or_else(|| invalid_data("list starts section empty"))?;
        let total = ests.len();
        if srcs.len() != total || tags.len() != total {
            return Err(invalid_data("list SoA sections disagree on length"));
        }
        let wide = Escapes::read_arena(c, total, 1)?;
        if starts.get(0) != 0
            || (0..n).any(|v| starts.get(v) > starts.get(v + 1))
            || starts.get(n) != total as u64
        {
            return Err(invalid_data("list offsets inconsistent"));
        }
        if tags.as_slice().iter().any(|&b| b > 1) {
            return Err(invalid_data("invalid list tag byte"));
        }
        // Distinct in-range records, each on a marker, as many as there
        // are markers: every marker has its record.
        if wide.indices().any(|i| ests.get(i as usize) != EST_ESCAPE)
            || ests.iter().filter(|&e| e == EST_ESCAPE).count() != wide.len()
        {
            return Err(invalid_data("list escapes do not match the markers"));
        }
        Ok(FlatLists {
            starts,
            ests,
            srcs,
            tags,
            wide,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_tables_round_trip_byte_identically() {
        let mut t0 = RouteTable::default();
        t0.insert(
            NodeId(3),
            RouteInfo {
                est: 10,
                port: 1,
                level: 0,
            },
        );
        t0.insert(
            NodeId(1),
            RouteInfo {
                est: 7,
                port: 0,
                level: 2,
            },
        );
        let tables = vec![t0, RouteTable::default()];
        let mut buf = Vec::new();
        write_route_tables(&mut buf, &tables).unwrap();
        let back = read_route_tables(&mut &buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].len(), 2);
        assert_eq!(back[0][&NodeId(1)].est, 7);
        assert_eq!(back[0][&NodeId(3)].port, 1);
        assert!(back[1].is_empty());
        let mut buf2 = Vec::new();
        write_route_tables(&mut buf2, &back).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn lists_round_trip() {
        let lists = vec![
            vec![
                PdeEntry {
                    est: 4,
                    src: NodeId(2),
                    tag: true,
                },
                PdeEntry {
                    est: 9,
                    src: NodeId(5),
                    tag: false,
                },
            ],
            vec![],
        ];
        let mut buf = Vec::new();
        write_lists(&mut buf, &lists).unwrap();
        let back = read_lists(&mut &buf[..]).unwrap();
        assert_eq!(back, lists);
    }

    #[test]
    fn flat_lists_round_trip_both_codecs() {
        let lists = vec![
            vec![
                PdeEntry {
                    est: 4,
                    src: NodeId(2),
                    tag: true,
                },
                // The marker value itself and a 2⁴⁰ estimate take the
                // escape; one below the marker stays inline.
                PdeEntry {
                    est: u64::from(u32::MAX),
                    src: NodeId(5),
                    tag: false,
                },
            ],
            vec![],
            vec![
                PdeEntry {
                    est: u64::from(u32::MAX) - 1,
                    src: NodeId(0),
                    tag: false,
                },
                PdeEntry {
                    est: 1 << 40,
                    src: NodeId(1),
                    tag: true,
                },
            ],
        ];
        let fl = FlatLists::from_lists(&lists);
        assert_eq!(fl.len(), 3);
        assert_eq!(fl.row_len(NodeId(0)), 2);
        assert_eq!(fl.row_len(NodeId(1)), 0);
        assert_eq!(fl.to_lists(), lists);

        // v2 framing is byte-identical with the free functions.
        let mut a = Vec::new();
        write_lists(&mut a, &lists).unwrap();
        let mut b = Vec::new();
        fl.write_into(&mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(FlatLists::read_from(&mut &b[..]).unwrap(), fl);

        // v3 arena round trip is a byte passthrough.
        let mut aw = congest::arena::ArenaWriter::new();
        fl.write_arena(&mut aw);
        let mut buf = Vec::new();
        aw.finish(&mut buf).unwrap();
        let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf.clone())).unwrap();
        let back = FlatLists::read_arena(&mut r.cursor()).unwrap();
        assert_eq!(back, fl);
        assert_eq!(back.to_lists(), lists);
        let mut aw2 = congest::arena::ArenaWriter::new();
        back.write_arena(&mut aw2);
        let mut buf2 = Vec::new();
        aw2.finish(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn hostile_flat_list_arenas_are_rejected() {
        let entry = |est, src| PdeEntry {
            est,
            src: NodeId(src),
            tag: false,
        };
        let fl = FlatLists::from_lists(&[vec![entry(3, 0), entry(1 << 40, 1)], vec![entry(5, 2)]]);
        // Sections: starts, ests, srcs, tags, escape indices, escape values.
        let load = |mutate: &dyn Fn(&mut [Vec<u8>])| {
            let mut aw = congest::arena::ArenaWriter::new();
            fl.write_arena(&mut aw);
            let mut buf = Vec::new();
            aw.finish(&mut buf).unwrap();
            let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf)).unwrap();
            let mut sections: Vec<Vec<u8>> =
                (0..6).map(|i| r.section(i).unwrap().to_vec()).collect();
            mutate(&mut sections);
            let mut aw = congest::arena::ArenaWriter::new();
            for s in &sections {
                aw.section(s);
            }
            let mut buf = Vec::new();
            aw.finish(&mut buf).unwrap();
            let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf)).unwrap();
            let loaded = FlatLists::read_arena(&mut r.cursor());
            loaded
        };
        assert_eq!(load(&|_| {}).unwrap(), fl);
        let marker = u32::MAX.to_le_bytes();
        // A marker with no record; a record on a non-marker; a record
        // past the arena; sections that disagree on length.
        assert!(load(&|s| s[1][..4].copy_from_slice(&marker)).is_err());
        assert!(load(&|s| s[4][..4].copy_from_slice(&0u32.to_le_bytes())).is_err());
        assert!(load(&|s| s[4][..4].copy_from_slice(&3u32.to_le_bytes())).is_err());
        assert!(load(&|s| s[5].clear()).is_err());
        assert!(load(&|s| s[3].push(0)).is_err());
        assert!(load(&|s| s[3][0] = 2).is_err());
    }
}
