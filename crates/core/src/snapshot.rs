//! PDE state shared by every scheme snapshot: the flattened per-node
//! lists and their arena codec.

use crate::pde::PdeEntry;
use crate::tables::{Escapes, EST_ESCAPE};
use congest::arena::{SharedBytes, U32View, U64View};
use congest::wire::invalid_data;
use congest::NodeId;
use std::io;

/// Per-node combined lists (`PdeOutput::lists`) flattened behind
/// zero-copy views — the query-side replacement for `Vec<Vec<PdeEntry>>`
/// where the lists are hot state of a scheme (RTC's short-range lists).
/// Nine bytes per entry, split SoA (`est u32`, `src u32`, `tag u8`) under
/// `u64` row offsets; an estimate `≥ u32::MAX` stores the all-ones marker
/// and its true value in an escape section pair (the same escape as
/// [`crate::FlatTables`]). A load is views plus an offsets check and
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

    /// Emits the lists into an arena, the views' backing bytes
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
    fn flat_lists_round_trip_through_the_arena() {
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
        let to_lists = |fl: &FlatLists| -> Vec<Vec<PdeEntry>> {
            let rows = (0..fl.len()).map(NodeId::from_index);
            rows.map(|v| fl.iter_row(v).collect()).collect()
        };
        let fl = FlatLists::from_lists(&lists);
        assert_eq!(fl.len(), 3);
        assert_eq!(fl.row_len(NodeId(0)), 2);
        assert_eq!(fl.row_len(NodeId(1)), 0);
        assert_eq!(to_lists(&fl), lists);

        // The arena round trip is a byte passthrough.
        let mut aw = congest::arena::ArenaWriter::new();
        fl.write_arena(&mut aw);
        let mut buf = Vec::new();
        aw.finish(&mut buf).unwrap();
        let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf.clone())).unwrap();
        let back = FlatLists::read_arena(&mut r.cursor()).unwrap();
        assert_eq!(back, fl);
        assert_eq!(to_lists(&back), lists);
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
