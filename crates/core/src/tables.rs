//! Flat structure-of-arrays query tables.
//!
//! Serving millions of queries wants every probe to be a short,
//! predictable chain of loads from dense, contiguous memory — no hashing,
//! no per-query allocation — and the builders read the same rows (pivot
//! selection, mutual-estimate edges, next-hop chains), so the rung merge
//! writes this form directly ([`FlatTables::from_rows`]) and nothing
//! converts it afterwards. The two layouts every scheme shares:
//!
//! * [`FlatTables`] — per-node route rows in one CSR arena, each row
//!   sorted by source id. A dense row is an array indexed by source
//!   offset; in any other row one multiply predicts where a source sits,
//!   and a short sweep around the prediction finds it (see
//!   [`RowCursor`]); "iterate everything `v` knows" is a contiguous
//!   walk. The arrays live behind zero-copy [`congest::arena`] views, so
//!   a snapshot load *is* the in-memory form: no decode pass, no copy.
//! * [`PairTable`] — a `k × k` partial map in either dense
//!   (`row * k + col` indexed, [`ABSENT`] sentinel) or row-sorted CSR
//!   form; [`PairTable::auto`] picks dense unless the table is large and
//!   sparse. Lookups agree exactly with a `HashMap` model (pinned by
//!   proptests in `tests/flat_tables.rs`).
//!
//! # The narrow record format
//!
//! The paper's table entries are `O(log n)` bits (weights are poly(n)),
//! and the batch kernel is memory-bound, so a [`FlatTables`] entry is
//! split by temperature, and each row takes the smaller of two forms:
//! *keyed* (11 bytes per entry) or *direct* (7 bytes per source id in
//! `[lo_src, hi_src]`), direct whenever `span · 7 ≤ len · 11`. Every
//! Theorem 4.1 row over all of `V` is direct.
//!
//! | section | bytes | read by |
//! |---|---|---|
//! | hot record: keyed `src u32 \| est u32` (one LE `u64`), direct `est u32` | 8 / entry, 4 / slot | every probe |
//! | `port u16`, slot-aligned | 2 / slot | `next_hop` / `route_into` |
//! | `level u8`, slot-aligned | 1 / slot | [`FlatTables::row_routes`] |
//! | row word (one LE `u64`) | 8 / row | [`FlatTables::cursor`] |
//!
//! A *slot* is a keyed entry or one source offset of a direct row; the
//! CSR offsets, side sections, escape indices and every arena index a
//! caller sees count slots. **Direct rows: no keys, no fit.** Source `k`
//! sits in slot `k − lo_src`, so a probe is one bounds check and one
//! load. An absent slot stores all three markers (below) and no escape
//! record: a miss, `INF` in [`FlatTables::ests_in`], `NONE` in
//! [`resolve_entry_indices`], skipped by [`FlatTables::entries_in`].
//!
//! **Keyed rows: no stored index.** Where a source sits in its sorted
//! row is a function of the source id that one multiply computes: entry
//! `i` of a row holding source `k` satisfies `p + lo ≤ i < p + lo + win`
//! with `p = (k · mul) >> 31`. `mul` is the row's density in Q1.31
//! (`len / (max_src + 1)`, at most 2³¹) and `[lo, lo + win)` is the
//! *measured* range of `i − p` over the row's own entries, so the window
//! is exact by construction — integer-only, the same formula at encode
//! and at probe time — and [`FlatTables::validate`] re-proves it for
//! every entry of a loaded arena. Rows of at most 16 entries skip it.
//!
//! **The row word** of a keyed row is its fit `mul u32 | lo i16 | win
//! u16`. A low half above 2³¹, which no `mul` reaches, marks an offset
//! word: the high half counts the direct slots before the row (which
//! places its records), the low half is `0xC000_0000 | lo_src` for a
//! direct row, or `0xA000_0000` for a keyed row after one (which gives up
//! its fit). [`FlatTables::read_arena`] proves every word exact.
//!
//! **One escape, always on:** a value that does not fit its field
//! (`est ≥ u32::MAX`, `port ≥ u16::MAX`, `level ≥ u8::MAX`) stores the
//! field's all-ones marker, and the entry's true `(est, port, level)`
//! goes to the table's one escape section pair, keyed by slot index
//! and binary-searched only when a marker is read. Heavy-weight graphs
//! stay exactly correct and merely slower; poly(n) weights never take the
//! escape. The format is private to this module; everything else sees
//! [`FlatEntry`] values.
//!
//! Both layouts serialize *directly* (their snapshot bytes are the
//! in-memory layout, already canonical because rows are sorted), so
//! reload → re-save stays byte-identical without any sort-on-write step.

use crate::pde::RouteInfo;
use congest::arena::{ArenaCursor, ArenaWriter, SharedBytes, U32View, U64View};
use congest::wire::invalid_data;
use congest::{NodeId, Port, Topology};
use graphs::INF;
use std::io;
use std::ops::Range;

/// Sentinel for "no entry" in dense [`PairTable`] storage (never a valid
/// stored value: estimates in pair maps are finite and next-hop indices
/// fit `u32`).
pub const ABSENT: u64 = u64::MAX;

/// One decoded routing entry: the destination source, the estimate and
/// the out-port — the fields query loops read. (The stored form is
/// narrower; see the module docs.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlatEntry {
    /// Source node id (the row's sort key).
    pub src: u32,
    /// Port towards the neighbor that announced the estimate.
    pub port: Port,
    /// Distance estimate for this source.
    pub est: u64,
}

/// Bytes per keyed hot record (`src u32 | est u32`).
const REC_BYTES: usize = 8;
/// Bytes per direct hot record (`est u32`).
const EST_BYTES: usize = 4;
/// Low halves of the offset words (see the module docs): a direct row's,
/// or'd with its `lo_src` (the low bits), and a keyed row's.
const DIRECT_WORD: u32 = 0xC000_0000;
const KEYED_WORD: u32 = 0xA000_0000;
const LO_SRC_BITS: u32 = congest::wire::MAX_SNAPSHOT_NODES as u32 - 1;
/// Marker of an escaped estimate.
const EST_ESCAPE: u32 = u32::MAX;
/// Marker of an escaped port.
const PORT_ESCAPE: u16 = u16::MAX;
/// Marker of an escaped ladder level.
const LEVEL_ESCAPE: u8 = u8::MAX;

/// One hot record as its `u64` word (`src` low, `est` high).
#[inline]
fn rec_word(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec.try_into().expect("8 bytes"))
}

/// One row's interpolation fit (see the module docs): the stored word is
/// `mul | lo << 32 | win << 48`. `win == 0` says the row has no usable
/// fit (its residuals do not fit `i16`/`u16`, or it is empty) and stands
/// for "anywhere in the row".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Fit {
    mul: u32,
    lo: i16,
    win: u16,
}

impl Fit {
    /// Measures the fit of a row sorted by (distinct) source.
    fn of_row(row: &[(NodeId, RouteInfo)]) -> Fit {
        let Some((last, _)) = row.last() else {
            return Fit::default();
        };
        let mul = ((row.len() as u64) << 31) / (u64::from(last.0) + 1);
        let mut fit = Fit {
            mul: u32::try_from(mul).expect("distinct sources: len ≤ max_src + 1"),
            ..Fit::default()
        };
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (i, (src, _)) in row.iter().enumerate() {
            let residual = i as i64 - fit.predict(src.0);
            lo = lo.min(residual);
            hi = hi.max(residual);
        }
        if let (Ok(lo), Ok(win)) = (i16::try_from(lo), u16::try_from(hi - lo + 1)) {
            fit.lo = lo;
            fit.win = win;
        }
        fit
    }

    #[inline]
    fn from_word(word: u64) -> Fit {
        Fit {
            mul: word as u32,
            lo: (word >> 32) as u16 as i16,
            win: (word >> 48) as u16,
        }
    }

    fn word(self) -> u64 {
        u64::from(self.mul) | u64::from(self.lo as u16) << 32 | u64::from(self.win) << 48
    }

    /// Predicted row index of `key`, before the `lo` correction (below
    /// 2³³ for any `mul`, so the arithmetic cannot overflow).
    #[inline]
    fn predict(self, key: u32) -> i64 {
        ((u64::from(key) * u64::from(self.mul)) >> 31) as i64
    }

    /// The row-relative indices `key` can occupy in a row of `row_len`
    /// entries, clamped to the row whatever the fit says.
    #[inline]
    fn window(self, key: u32, row_len: usize) -> Range<usize> {
        if self.win == 0 {
            return 0..row_len;
        }
        let from = self.predict(key) + i64::from(self.lo);
        let clamp = |i: i64| i.clamp(0, row_len as i64) as usize;
        clamp(from)..clamp(from + i64::from(self.win))
    }
}

/// How a row is stored, as its row word says (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Form {
    /// One record per entry, placed by the fit.
    Keyed(Fit),
    /// One slot per source id from `lo_src`.
    Direct(u32),
}

impl Form {
    /// The word of a row stored as `self` after `before` direct slots.
    fn word(self, before: u32) -> u64 {
        let low = match self {
            Form::Keyed(fit) if before == 0 => return fit.word(),
            Form::Keyed(_) => KEYED_WORD,
            Form::Direct(lo) => DIRECT_WORD | lo,
        };
        u64::from(low) | u64::from(before) << 32
    }

    /// The form and the direct slots before the row, from its word.
    #[inline(always)]
    fn of_word(word: u64) -> (Form, u32) {
        let (low, before) = (word as u32, (word >> 32) as u32);
        if low <= 1 << 31 {
            (Form::Keyed(Fit::from_word(word)), 0)
        } else if low & DIRECT_WORD == DIRECT_WORD {
            (Form::Direct(low & LO_SRC_BITS), before)
        } else {
            (Form::Keyed(Fit::default()), before)
        }
    }
}

/// The one escape of the narrow layout: the true values of the entries
/// whose stored field is an all-ones marker, as a section pair — strictly
/// increasing arena indices, and a fixed number of `u64` value words per
/// index. Only a marker read searches it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Escapes {
    idx: U32View,
    vals: U64View,
}

impl Escapes {
    /// Wraps build-side vectors (`vals` holds a fixed number of words per
    /// index, in index order).
    fn from_vals(idx: &[u32], vals: &[u64]) -> Self {
        Escapes {
            idx: U32View::from_vals(idx),
            vals: U64View::from_vals(vals),
        }
    }

    /// Number of escaped entries.
    fn len(&self) -> usize {
        self.idx.len()
    }

    /// Position of arena entry `i`'s record, if it has one.
    #[cold]
    fn find(&self, i: usize) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.idx.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match (self.idx.get(mid) as usize).cmp(&i) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Value word `at` (records are back to back).
    fn word(&self, at: usize) -> u64 {
        self.vals.get(at)
    }

    /// Emits the section pair.
    fn write_arena(&self, a: &mut ArenaWriter) {
        a.section(self.idx.as_bytes());
        a.section(self.vals.as_bytes());
    }

    /// Reads the section pair for a table of `entries` entries with
    /// `words` value words per record.
    ///
    /// # Errors
    ///
    /// `InvalidData` unless the indices are strictly increasing, below
    /// `entries`, and matched by exactly `words` values each.
    fn read_arena(c: &mut ArenaCursor<'_>, entries: usize, words: usize) -> io::Result<Self> {
        let idx = c.u32v()?;
        let vals = c.u64v()?;
        if idx.len().checked_mul(words) != Some(vals.len()) {
            return Err(invalid_data("escape sections disagree on length"));
        }
        let mut prev = None;
        for i in idx.iter() {
            if prev.is_some_and(|p| p >= i) || i as usize >= entries {
                return Err(invalid_data("escape indices unsorted or out of range"));
            }
            prev = Some(i);
        }
        Ok(Escapes { idx, vals })
    }
}

/// Per-node routing tables in one source-sorted entry arena with CSR
/// row offsets: the form the rung merge writes, the builders read and
/// the query paths serve. Every array is a zero-copy view: a table
/// decoded from a snapshot keeps pointing into the snapshot buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatTables {
    /// `starts[v]..starts[v + 1]` delimits node `v`'s row (`n + 1` offsets).
    starts: U32View,
    /// All rows back to back as hot records: keyed rows' sorted by `src`,
    /// direct rows' by source offset.
    recs: SharedBytes,
    /// Out-port of each slot (`u16` LE).
    ports: SharedBytes,
    /// Ladder level of each slot (`u8`).
    levels: SharedBytes,
    /// One row word per row: a [`Fit`] or an offset word (see [`Form`]).
    words: U64View,
    /// True `(est, port | level << 32)` of the entries carrying a marker.
    wide: Escapes,
}

/// Value words per [`FlatTables`] escape record.
const WIDE_WORDS: usize = 2;

impl FlatTables {
    /// Builds the table from `n` rows of `entries` entries in total,
    /// handed over in node order (the one constructor): `fill(v, row)`
    /// appends node `v`'s `(source, route)` entries, strictly sorted by
    /// source, to the (cleared) scratch row. Each row takes the smaller
    /// form (see the module docs) and is written straight from it, so the
    /// only transient state is one row.
    ///
    /// # Panics
    ///
    /// Panics if a row is not strictly sorted by source (the fit and every
    /// probe assume it), if the rows do not add up to `entries`, or if
    /// that exceeds `u32::MAX` (offsets stay 4 bytes on purpose; a row
    /// whose direct slots would pass it stays keyed).
    pub fn from_rows(
        n: usize,
        entries: usize,
        mut fill: impl FnMut(usize, &mut Vec<(NodeId, RouteInfo)>),
    ) -> Self {
        // Sections are reserved once at their form-independent bounds (a
        // direct row spans at most 11/7 of its entries); untouched
        // capacity costs no resident memory.
        let max_slots = entries + entries * 4 / 7;
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0u32);
        let mut recs: Vec<u8> = Vec::with_capacity(entries * REC_BYTES);
        let mut ports: Vec<u8> = Vec::with_capacity(2 * max_slots);
        let mut levels: Vec<u8> = Vec::with_capacity(max_slots);
        let (mut words, mut wide_idx, mut wide_vals) = (Vec::with_capacity(n), vec![], vec![]);
        let (mut row, mut seen) = (Vec::new(), 0);
        for v in 0..n {
            row.clear();
            fill(v, &mut row);
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "row {v} is not strictly sorted by source"
            );
            seen += row.len();
            // Records are 8 bytes a keyed slot and 4 a direct one.
            let before = ((REC_BYTES * levels.len() - recs.len()) / EST_BYTES) as u32;
            let ends = row
                .first()
                .zip(row.last())
                .map(|(lo, hi)| (lo.0 .0, hi.0 .0));
            let direct = ends.filter(|&(lo, hi)| {
                let span = (hi - lo) as usize + 1;
                let room = levels.len() + span + entries.saturating_sub(seen) <= u32::MAX as usize;
                span * 7 <= row.len() * 11 && lo <= LO_SRC_BITS && room
            });
            let form = match direct {
                Some((lo, _)) => Form::Direct(lo),
                None if before == 0 => Form::Keyed(Fit::of_row(&row)),
                None => Form::Keyed(Fit::default()),
            };
            words.push(form.word(before));
            // Each slot's key and route: a keyed row's entries, or every
            // id of a direct row's span (`None` in a hole).
            let mut present = row.iter().peekable();
            let slots: Box<dyn Iterator<Item = (u32, Option<RouteInfo>)>> = match direct {
                Some((lo, hi)) => Box::new(
                    (lo..=hi).map(move |k| (k, present.next_if(|e| e.0 .0 == k).map(|e| e.1))),
                ),
                None => Box::new(row.iter().map(|&(s, r)| (s.0, Some(r)))),
            };
            for (key, r) in slots {
                // An absent slot stores all three markers; a value too wide
                // for its field stores the marker and takes the escape.
                let (est, port, level) = r.map_or((EST_ESCAPE, PORT_ESCAPE, LEVEL_ESCAPE), |r| {
                    let narrow = (
                        u32::try_from(r.est).unwrap_or(EST_ESCAPE),
                        u16::try_from(r.port).unwrap_or(PORT_ESCAPE),
                        u8::try_from(r.level).unwrap_or(LEVEL_ESCAPE),
                    );
                    if narrow.0 == EST_ESCAPE || narrow.1 == PORT_ESCAPE || narrow.2 == LEVEL_ESCAPE
                    {
                        wide_idx.push(levels.len() as u32);
                        wide_vals.extend([r.est, u64::from(r.port) | u64::from(r.level) << 32]);
                    }
                    narrow
                });
                if direct.is_none() {
                    recs.extend(key.to_le_bytes());
                }
                recs.extend(est.to_le_bytes());
                ports.extend(port.to_le_bytes());
                levels.push(level);
            }
            starts.push(u32::try_from(levels.len()).expect("flat table fits u32 offsets"));
        }
        assert_eq!(seen, entries, "rows do not add up to `entries`");
        FlatTables {
            starts: U32View::from_vals(&starts),
            recs: SharedBytes::from_vec(recs),
            ports: SharedBytes::from_vec(ports),
            levels: SharedBytes::from_vec(levels),
            words: U64View::from_vals(&words),
            wide: Escapes::from_vals(&wide_idx, &wide_vals),
        }
    }

    /// Number of nodes covered (rows).
    #[inline]
    pub fn len_nodes(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Total slots across all rows — every keyed entry and every source
    /// offset of a direct row, present or absent: the arena index space
    /// of [`FlatTables::row_range`] and [`resolve_entry_indices`].
    #[inline]
    pub fn len_entries(&self) -> usize {
        self.levels.len()
    }

    /// Iterates node `v`'s row: every `(src, est, port)` it knows, sorted
    /// by source id.
    #[inline]
    pub fn row_iter(&self, v: NodeId) -> impl Iterator<Item = FlatEntry> + '_ {
        self.entries_in(self.row_range(v))
    }

    /// Point lookup: `v`'s entry for source `s`, if present.
    ///
    /// Resolves the row's metadata and delegates to one
    /// [`RowCursor::get`] probe — batch kernels that issue many lookups
    /// against the same row should hold a [`FlatTables::cursor`] instead,
    /// which resolves that metadata once per row group.
    #[inline]
    pub fn get(&self, v: NodeId, s: NodeId) -> Option<FlatEntry> {
        self.cursor(v).get(s)
    }

    /// Estimate-only point lookup: `v`'s estimate for source `s`, if
    /// present, from the hot record alone (see [`RowCursor::est`]).
    #[inline]
    pub fn est(&self, v: NodeId, s: NodeId) -> Option<u64> {
        self.cursor(v).est(s)
    }

    /// Resolves node `v`'s row metadata (CSR start, length, row word)
    /// once, returning a cursor for repeated key probes against that row.
    /// This is the schedule-aware half of the batch kernel: a
    /// source-grouped batch resolves one cursor per group instead of
    /// re-deriving the metadata per query.
    #[inline(always)]
    pub fn cursor(&self, v: NodeId) -> RowCursor<'_> {
        let range = self.row_range(v);
        let (form, before) = Form::of_word(self.words.get(v.index()));
        RowCursor {
            tab: self,
            row_start: range.start,
            row_len: range.end.saturating_sub(range.start),
            hot: (range.start * REC_BYTES).saturating_sub(before as usize * EST_BYTES),
            form,
        }
    }

    /// The slot range of node `v`'s row within the arena (for callers
    /// that keep per-slot side tables aligned with the arena, e.g.
    /// pre-resolved skeleton indices; see [`resolve_entry_indices`]).
    #[inline]
    pub fn row_range(&self, v: NodeId) -> Range<usize> {
        self.starts.get(v.index()) as usize..self.starts.get(v.index() + 1) as usize
    }

    /// `(arena index, hot word)` of every slot of `range`, absent ones
    /// included (see [`RowCursor::words`]).
    ///
    /// # Panics
    ///
    /// Panics if `range` leaves the row holding its first slot, unless
    /// every row is keyed (records 8 bytes a slot): then the table reads
    /// as one row.
    #[inline]
    fn slot_words(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u64)> + '_ {
        let mut row = RowCursor {
            tab: self,
            row_start: 0,
            row_len: self.len_entries(),
            hot: 0,
            form: Form::Keyed(Fit::default()),
        };
        if self.recs.len() != REC_BYTES * row.row_len && !range.is_empty() {
            // The first row ending past `range.start`.
            let (mut v, mut hi) = (0, self.len_nodes());
            while v < hi {
                let mid = (v + hi) / 2;
                match self.starts.get(mid + 1) as usize <= range.start {
                    true => v = mid + 1,
                    false => hi = mid,
                }
            }
            row = self.cursor(NodeId::from_index(v));
        }
        let js = range.start.saturating_sub(row.row_start)..range.end.saturating_sub(row.row_start);
        assert!(
            range.is_empty() || js.end <= row.row_len,
            "slots {range:?} span rows"
        );
        row.words(if range.is_empty() { 0..0 } else { js })
    }

    /// Stored (possibly marker) port of entry `i`.
    #[inline]
    fn port16(&self, i: usize) -> u16 {
        let b = &self.ports.as_slice()[2 * i..2 * i + 2];
        u16::from_le_bytes(b.try_into().expect("2 bytes"))
    }

    /// The escape record of entry `i`: its true `(est, port, level)`.
    fn wide(&self, i: usize) -> Option<(u64, u32, u32)> {
        let at = self.wide.find(i)? * WIDE_WORDS;
        let side = self.wide.word(at + 1);
        Some((self.wide.word(at), side as u32, (side >> 32) as u32))
    }

    /// The estimate of entry `i`, given its hot word. A marker whose
    /// escape record is missing (a hostile arena that skipped
    /// [`FlatTables::validate`]) reads as an absent entry.
    #[inline(always)]
    fn est_of(&self, i: usize, word: u64) -> Option<u64> {
        match (word >> 32) as u32 {
            EST_ESCAPE => self.wide(i).map(|w| w.0),
            est => Some(u64::from(est)),
        }
    }

    /// Decodes entry `i`, given its hot word (absent as in
    /// [`FlatTables::est_of`]).
    #[inline]
    fn entry_of(&self, i: usize, word: u64) -> Option<FlatEntry> {
        let (est, port) = ((word >> 32) as u32, self.port16(i));
        let (est, port) = if est == EST_ESCAPE || port == PORT_ESCAPE {
            let w = self.wide(i)?;
            (w.0, w.1)
        } else {
            (u64::from(est), Port::from(port))
        };
        Some(FlatEntry {
            src: word as u32,
            port,
            est,
        })
    }

    /// Node `v`'s row as the `(source, route)` entries
    /// [`FlatTables::from_rows`] was given — the one reader of the cold
    /// level section.
    pub fn row_routes(&self, v: NodeId) -> impl Iterator<Item = (NodeId, RouteInfo)> + '_ {
        self.slot_words(self.row_range(v)).filter_map(|(i, word)| {
            let FlatEntry { src, port, est } = self.entry_of(i, word)?;
            let level = match self.levels.as_slice()[i] {
                LEVEL_ESCAPE => self.wide(i)?.2,
                lvl => u32::from(lvl),
            };
            Some((NodeId(src), RouteInfo { est, port, level }))
        })
    }

    /// Iterates the entries stored in the slots of `range` — a row's
    /// [`FlatTables::row_range`] or part of it — skipping absent slots.
    /// (A table whose rows are all keyed reads any range.)
    #[inline]
    pub fn entries_in(&self, range: Range<usize>) -> impl Iterator<Item = FlatEntry> + '_ {
        self.slot_words(range)
            .filter_map(|(i, word)| self.entry_of(i, word))
    }

    /// Iterates the estimates of the slots of `range` (as in
    /// [`FlatTables::entries_in`]), one per slot — `INF` for an absent
    /// one, in lockstep with [`resolve_entry_indices`] — reading hot
    /// records only: the row-sweep counterpart of [`RowCursor::est`].
    #[inline]
    pub fn ests_in(&self, range: Range<usize>) -> impl Iterator<Item = u64> + '_ {
        self.slot_words(range)
            .map(|(i, word)| self.est_of(i, word).unwrap_or(INF))
    }

    /// Emits the table into an arena: one section per array,
    /// **including the derived row words** — a load rebuilds nothing.
    /// The sections are the views' backing bytes verbatim, so load →
    /// re-save is a passthrough.
    pub fn write_arena(&self, a: &mut ArenaWriter) {
        a.section(self.starts.as_bytes());
        a.section(self.recs.as_slice());
        a.section(self.ports.as_slice());
        a.section(self.levels.as_slice());
        a.section(self.words.as_bytes());
        self.wide.write_arena(a);
    }

    /// Reads what [`FlatTables::write_arena`] wrote: zero-copy views over
    /// the container plus shape checks on the CSR offsets (monotone and
    /// bounded), the section lengths, the escape indices and the row
    /// words (canonical, and counting the direct slots before each row
    /// exactly, so every row's records lie where its word puts them).
    /// Per-slot sweeps are *not* run here: [`FlatTables::validate`] owns
    /// them, the arena checksum owns integrity, and [`RowCursor`] bounds
    /// every probe by its row, so even a hostile fit or `lo_src` answers
    /// with a miss rather than a panic.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformed section or inconsistent
    /// shape.
    pub fn read_arena(c: &mut ArenaCursor<'_>) -> io::Result<Self> {
        let starts = c.u32v()?;
        let recs = c.shared()?;
        let ports = c.shared()?;
        let levels = c.shared()?;
        let words = c.u64v()?;
        let slots = levels.len();
        if ports.len() != 2 * slots {
            return Err(invalid_data("flat table sections disagree on length"));
        }
        let wide = Escapes::read_arena(c, slots, WIDE_WORDS)?;
        let n = starts
            .len()
            .checked_sub(1)
            .ok_or_else(|| invalid_data("flat table starts section empty"))?;
        if starts.get(0) != 0
            || (0..n).any(|v| starts.get(v) > starts.get(v + 1))
            || starts.get(n) as usize != slots
        {
            return Err(invalid_data("flat table offsets inconsistent"));
        }
        if words.len() != n {
            return Err(invalid_data("flat table row-word section misshapen"));
        }
        let mut direct = 0;
        for v in 0..n {
            let (form, before) = Form::of_word(words.get(v));
            if form.word(before) != words.get(v) || before as usize != direct {
                return Err(invalid_data("flat table row word inconsistent"));
            }
            if let Form::Direct(_) = form {
                direct += (starts.get(v + 1) - starts.get(v)) as usize;
            }
        }
        if recs.len() != REC_BYTES * slots - (REC_BYTES - EST_BYTES) * direct {
            return Err(invalid_data("flat table record section misshapen"));
        }
        Ok(FlatTables {
            starts,
            recs,
            ports,
            levels,
            words,
            wide,
        })
    }

    /// Validates rows against the topology they will be queried on: one
    /// row per node, sources in range and strictly increasing within each
    /// row (the key scan, the binary search and canonical re-save assume
    /// it), every keyed entry inside the window its row's fit predicts
    /// for its source (so a probe can never miss a stored entry), ports
    /// within each node's degree ([`Topology::neighbor`] only
    /// debug-asserts its port, so a corrupted port would silently resolve
    /// to a wrong neighbor in release builds), and escape records matching
    /// the marked slots one to one (an absent direct slot: all three
    /// markers, no record).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any out-of-range source or port, an
    /// unsorted row, an entry outside its predicted window, a marker
    /// without an escape record (outside an absent slot), or an escape
    /// record without a marker.
    pub fn validate(&self, topo: &Topology) -> io::Result<()> {
        if self.len_nodes() != topo.len() {
            return Err(invalid_data("flat table row count mismatch"));
        }
        let (ports, levels) = (self.ports.as_slice(), self.levels.as_slice());
        let mut marked = 0usize;
        for v in topo.nodes() {
            let deg = topo.degree(v) as u32;
            let row = self.cursor(v);
            // One sweep with the row's slices hoisted and the verdicts
            // accumulated, so the common slot costs no branch. Sorted rows
            // put the largest source last: one range check after the
            // sweep covers the row.
            let (mut prev, mut sorted, mut placed, mut ports_ok) = (-1, true, true, true);
            let slots = row.row_start..row.row_start + row.row_len;
            let sides = ports[2 * slots.start..2 * slots.end]
                .chunks_exact(2)
                .zip(&levels[slots]);
            for ((i, word), (port, &level)) in row.words(0..row.row_len).zip(sides) {
                let (src, est) = (word as u32, (word >> 32) as u32);
                let stored = u16::from_le_bytes(port.try_into().expect("2 bytes"));
                sorted &= prev < i64::from(src);
                prev = i64::from(src);
                if let Form::Keyed(fit) = row.form {
                    placed &= fit.window(src, row.row_len).contains(&(i - row.row_start));
                }
                let port = if est == EST_ESCAPE || stored == PORT_ESCAPE || level == LEVEL_ESCAPE {
                    let Some((_, wide_port, _)) = self.wide(i) else {
                        let absent =
                            (est, stored, level) == (EST_ESCAPE, PORT_ESCAPE, LEVEL_ESCAPE);
                        if absent && matches!(row.form, Form::Direct(_)) {
                            continue;
                        }
                        return Err(invalid_data(format!("flat route {i} lost its escape")));
                    };
                    marked += 1;
                    wide_port
                } else {
                    Port::from(stored)
                };
                ports_ok &= port < deg;
            }
            let fault = if !sorted {
                "is not sorted by source"
            } else if !placed {
                "has an entry outside the window its fit predicts"
            } else if prev >= topo.len() as i64 {
                "has a source out of range"
            } else if !ports_ok {
                "has a port at or above the node's degree"
            } else {
                continue;
            };
            return Err(invalid_data(format!("flat route row of {v} {fault}")));
        }
        if marked != self.wide.len() {
            return Err(invalid_data("flat table escape record without a marker"));
        }
        Ok(())
    }
}

/// Keyed rows at or below this many entries skip the fit: the whole row
/// sits in a couple of cache lines, and one branchless [`scan_keys`]
/// sweep of it is cheaper than predicting and clamping a window first.
const SMALL_ROW_SCAN: usize = 16;

/// Windows above this many records are binary-searched instead of swept
/// (see [`search_keys`]): uniform node-id rows need windows of 1 to a few
/// dozen records; only clustered ids or a row without a usable fit get
/// here.
const WIDE_WINDOW: usize = 64;

/// Branchless key scan over keyed hot records: compares the low-`u32`
/// source key of each 8-byte word and keeps the last hit as `(record
/// index, word)` — row keys are unique (strictly sorted), so "last" and
/// "first" coincide on valid data, and the word that matched already
/// carries the estimate. The loop has no early exit and no
/// data-dependent branch, so LLVM unrolls and vectorizes it (the
/// workspace forbids `unsafe`, so this shape — not intrinsics — is the
/// whole trick).
#[inline]
fn scan_keys(recs: &[u8], key: u32) -> Option<(usize, u64)> {
    let mut hit = usize::MAX;
    let mut hit_word = 0u64;
    for (i, rec) in recs.chunks_exact(REC_BYTES).enumerate() {
        let word = rec_word(rec);
        let eq = word as u32 == key;
        hit = if eq { i } else { hit };
        hit_word = if eq { word } else { hit_word };
    }
    (hit != usize::MAX).then_some((hit, hit_word))
}

/// Binary search for `key` over keyed hot records — what a probe falls
/// back to when its window is too wide to sweep, so clustered ids cost
/// `O(log)` instead of a long scan.
#[cold]
fn search_keys(recs: &[u8], key: u32) -> Option<(usize, u64)> {
    let (mut lo, mut hi) = (0, recs.len() / REC_BYTES);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let word = rec_word(&recs[mid * REC_BYTES..][..REC_BYTES]);
        match (word as u32).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some((mid, word)),
        }
    }
    None
}

/// Resolved per-row lookup state for [`FlatTables`]: the CSR start, slot
/// count, hot-record offset and form of one node's row, captured once by
/// [`FlatTables::cursor`] so a source-grouped batch re-reads none of it
/// per query.
#[derive(Clone, Copy, Debug)]
pub struct RowCursor<'a> {
    tab: &'a FlatTables,
    row_start: usize,
    row_len: usize,
    /// Byte offset of the row's first hot record.
    hot: usize,
    form: Form,
}

impl<'a> RowCursor<'a> {
    /// `(arena index, hot word)` of the row's slots `js`, in one sweep of
    /// their records; a hot word reads as a keyed record `src | est << 32`
    /// (a direct row's source is `lo_src + j`).
    #[inline]
    fn words(self, js: Range<usize>) -> impl Iterator<Item = (usize, u64)> + 'a {
        let width = match self.form {
            Form::Keyed(_) => REC_BYTES,
            Form::Direct(_) => EST_BYTES,
        };
        let recs =
            &self.tab.recs.as_slice()[self.hot + js.start * width..self.hot + js.end * width];
        recs.chunks_exact(width).zip(js).map(move |(rec, j)| {
            let word = match self.form {
                Form::Keyed(_) => rec_word(rec),
                Form::Direct(lo) => {
                    let est = u32::from_le_bytes(rec.try_into().expect("4 bytes"));
                    u64::from(lo.wrapping_add(j as u32)) | u64::from(est) << 32
                }
            };
            (self.row_start + j, word)
        })
    }

    /// Locates source `s` in the cursor's row: `(arena index, hot word)`.
    ///
    /// A direct row takes one bounds check and one load. Small keyed rows
    /// take one branchless sweep of the whole row; larger ones take one
    /// multiply and the same sweep over the window the fit predicts — no
    /// load depends on another until the records themselves. The window
    /// is clamped to the row: the arena checksum owns integrity and
    /// [`FlatTables::validate`] the fit, and a fit that is wrong anyway
    /// answers with a miss, never a panic.
    #[inline(always)]
    fn find(&self, s: NodeId) -> Option<(usize, u64)> {
        let key = s.0;
        let (j, word) = match self.form {
            Form::Direct(lo) => {
                let j = key.wrapping_sub(lo) as usize;
                return (j < self.row_len).then(|| self.words(j..j + 1).next())?;
            }
            Form::Keyed(fit) => {
                let window = if self.row_len <= SMALL_ROW_SCAN {
                    0..self.row_len
                } else {
                    fit.window(key, self.row_len)
                };
                let recs = &self.tab.recs.as_slice()
                    [self.hot + window.start * REC_BYTES..self.hot + window.end * REC_BYTES];
                let (j, word) = if window.len() > WIDE_WINDOW {
                    search_keys(recs, key)
                } else {
                    scan_keys(recs, key)
                }?;
                (window.start + j, word)
            }
        };
        Some((self.row_start + j, word))
    }

    /// Point lookup within the cursor's row (same answers as
    /// [`FlatTables::get`] on the same row, by construction). Reads the
    /// port side array; estimate-only callers use [`RowCursor::est`].
    #[inline]
    pub fn get(&self, s: NodeId) -> Option<FlatEntry> {
        let (i, word) = self.find(s)?;
        self.tab.entry_of(i, word)
    }

    /// The estimate for source `s`, if present: the key scan's matching
    /// word already holds it, so the probe touches no side array (and the
    /// escape section only on a marker).
    #[inline(always)]
    pub fn est(&self, s: NodeId) -> Option<u64> {
        let (i, word) = self.find(s)?;
        self.tab.est_of(i, word)
    }
}

/// Pre-resolves each slot's source through a [`graphs::DenseIndex`]
/// (sentinel [`graphs::DenseIndex::NONE`] for non-members and absent
/// slots) so query loops read an arena-aligned side table, zipped with
/// [`FlatTables::ests_in`] slot by slot, instead of probing the index per
/// entry.
pub fn resolve_entry_indices(tables: &FlatTables, index: &graphs::DenseIndex) -> Vec<u32> {
    (0..tables.len_nodes())
        .flat_map(|v| tables.slot_words(tables.row_range(NodeId::from_index(v))))
        .map(|(i, word)| {
            tables
                .est_of(i, word)
                .and_then(|_| index.get(NodeId(word as u32)))
                .map_or(graphs::DenseIndex::NONE, |i| i as u32)
        })
        .collect()
}

/// A partial `k × k` map keyed by `(row, col)` pairs — the truncated
/// hierarchy's upper-level `(node, source)` tables.
///
/// Dense form is one `k²` value array with [`ABSENT`] sentinels (a lookup
/// is a single indexed load); CSR form stores row-sorted `(col, value)`
/// pairs (a lookup is a binary search within the row). Representation is
/// part of the value: snapshots record it, so reload → re-save is
/// byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairTable {
    /// `values[row * k + col]`, [`ABSENT`] where no entry exists.
    Dense {
        /// Side length `k`.
        k: usize,
        /// `k²` values.
        values: Vec<u64>,
    },
    /// Row-sorted compressed sparse rows.
    Csr {
        /// Side length `k`.
        k: usize,
        /// `k + 1` row offsets.
        starts: Vec<u32>,
        /// Column ids, sorted within each row.
        cols: Vec<u32>,
        /// Values, parallel to `cols`.
        vals: Vec<u64>,
    },
}

/// Above this many cells, [`PairTable::auto`] considers CSR.
const DENSE_CELL_FLOOR: usize = 1 << 12;
/// `auto` stays dense while entries fill at least 1/8 of the cells.
const DENSE_FILL_SHIFT: u32 = 3;

impl PairTable {
    /// Builds the representation [`PairTable::auto`] deems best: dense for
    /// small or well-filled tables, CSR for large sparse ones. The rule is
    /// deterministic (a pure function of `k` and the entry count), so
    /// identical builds pick identical layouts.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range keys, duplicate keys, or [`ABSENT`] values
    /// (builder bugs, not data).
    pub fn auto(k: usize, entries: &[(u32, u32, u64)]) -> Self {
        let cells = k.saturating_mul(k);
        if cells <= DENSE_CELL_FLOOR || entries.len() >= cells >> DENSE_FILL_SHIFT {
            Self::dense(k, entries)
        } else {
            Self::csr(k, entries)
        }
    }

    /// Builds the dense representation.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range keys, duplicates, or [`ABSENT`] values.
    pub fn dense(k: usize, entries: &[(u32, u32, u64)]) -> Self {
        let mut values = vec![ABSENT; k * k];
        for &(r, c, v) in entries {
            assert!(
                (r as usize) < k && (c as usize) < k,
                "pair key out of range"
            );
            assert_ne!(v, ABSENT, "ABSENT is reserved");
            let cell = &mut values[r as usize * k + c as usize];
            assert_eq!(*cell, ABSENT, "duplicate pair key ({r}, {c})");
            *cell = v;
        }
        PairTable::Dense { k, values }
    }

    /// Builds the CSR representation.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range keys, duplicates, or [`ABSENT`] values.
    pub fn csr(k: usize, entries: &[(u32, u32, u64)]) -> Self {
        let mut sorted: Vec<(u32, u32, u64)> = entries.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut starts = Vec::with_capacity(k + 1);
        let mut cols = Vec::with_capacity(sorted.len());
        let mut vals = Vec::with_capacity(sorted.len());
        starts.push(0u32);
        let mut row = 0u32;
        for (i, &(r, c, v)) in sorted.iter().enumerate() {
            assert!(
                (r as usize) < k && (c as usize) < k,
                "pair key out of range"
            );
            assert_ne!(v, ABSENT, "ABSENT is reserved");
            if i > 0 {
                assert_ne!(
                    (r, c),
                    (sorted[i - 1].0, sorted[i - 1].1),
                    "duplicate pair key"
                );
            }
            while row < r {
                starts.push(cols.len() as u32);
                row += 1;
            }
            cols.push(c);
            vals.push(v);
        }
        while starts.len() < k + 1 {
            starts.push(cols.len() as u32);
        }
        PairTable::Csr {
            k,
            starts,
            cols,
            vals,
        }
    }

    /// Side length `k`.
    pub fn k(&self) -> usize {
        match self {
            PairTable::Dense { k, .. } | PairTable::Csr { k, .. } => *k,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        match self {
            PairTable::Dense { values, .. } => values.iter().filter(|&&v| v != ABSENT).count(),
            PairTable::Csr { cols, .. } => cols.len(),
        }
    }

    /// `true` if no entries are present.
    pub fn is_empty(&self) -> bool {
        match self {
            PairTable::Dense { values, .. } => values.iter().all(|&v| v == ABSENT),
            PairTable::Csr { cols, .. } => cols.is_empty(),
        }
    }

    /// The value at `(row, col)`, if present. Out-of-range keys are
    /// misses, matching the `HashMap` model.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<u64> {
        match self {
            PairTable::Dense { k, values } => {
                if row >= *k || col >= *k {
                    return None;
                }
                let v = values[row * k + col];
                (v != ABSENT).then_some(v)
            }
            PairTable::Csr {
                k,
                starts,
                cols,
                vals,
            } => {
                if row >= *k || col >= *k {
                    return None;
                }
                let lo = starts[row] as usize;
                let hi = starts[row + 1] as usize;
                cols[lo..hi]
                    .binary_search(&(col as u32))
                    .ok()
                    .map(|i| vals[lo + i])
            }
        }
    }

    /// Iterates present entries as `(row, col, value)`, row-major and
    /// column-sorted within each row.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u32, u32, u64)> + '_> {
        match self {
            PairTable::Dense { k, values } => {
                let k = *k;
                Box::new(
                    values
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| v != ABSENT)
                        .map(move |(i, &v)| ((i / k) as u32, (i % k) as u32, v)),
                )
            }
            PairTable::Csr {
                starts, cols, vals, ..
            } => Box::new((0..starts.len().saturating_sub(1)).flat_map(move |row| {
                (starts[row] as usize..starts[row + 1] as usize)
                    .map(move |i| (row as u32, cols[i], vals[i]))
            })),
        }
    }

    /// Emits the table into an arena: a `[tag, k]` meta section, then
    /// the representation's arrays as typed sections.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) {
        match self {
            PairTable::Dense { k, values } => {
                a.u64s(&[0, *k as u64]);
                a.u64s(values);
            }
            PairTable::Csr {
                k,
                starts,
                cols,
                vals,
            } => {
                a.u64s(&[1, *k as u64]);
                a.u32s(starts);
                a.u32s(cols);
                a.u64s(vals);
            }
        }
    }

    /// Reads what [`PairTable::write_arena`] wrote, validating shape
    /// (offsets monotone and bounded, columns sorted and in range).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> io::Result<Self> {
        let meta = c.u64s()?;
        let [tag, k] = meta[..] else {
            return Err(invalid_data("pair table meta section misshapen"));
        };
        let k = usize::try_from(k).map_err(|_| invalid_data("pair table k overflow"))?;
        if k > congest::wire::MAX_SNAPSHOT_NODES {
            return Err(invalid_data(format!("pair table claims k = {k}")));
        }
        match tag {
            0 => {
                let values = c.u64s()?;
                let cells = congest::wire::seq_product(k, k, "pair table")?;
                if values.len() != cells {
                    return Err(invalid_data("pair table cell count mismatch"));
                }
                Ok(PairTable::Dense { k, values })
            }
            1 => {
                let starts = c.u32s()?;
                let cols = c.u32s()?;
                let vals = c.u64s()?;
                if starts.len() != k + 1 || cols.len() != vals.len() {
                    return Err(invalid_data("pair table sections disagree on length"));
                }
                let m = cols.len();
                if starts[0] != 0
                    || starts.windows(2).any(|w| w[0] > w[1])
                    || *starts.last().expect("nonempty") as usize != m
                {
                    return Err(invalid_data("pair table offsets inconsistent"));
                }
                for row in 0..k {
                    let lo = starts[row] as usize;
                    let hi = starts[row + 1] as usize;
                    let r = &cols[lo..hi];
                    if r.windows(2).any(|w| w[0] >= w[1]) || r.iter().any(|&cv| cv as usize >= k) {
                        return Err(invalid_data("pair table row malformed"));
                    }
                }
                Ok(PairTable::Csr {
                    k,
                    starts,
                    cols,
                    vals,
                })
            }
            t => Err(invalid_data(format!("unknown pair table tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rows = Vec<Vec<(NodeId, RouteInfo)>>;

    fn flat(rows: &Rows) -> FlatTables {
        let entries = rows.iter().map(Vec::len).sum();
        FlatTables::from_rows(rows.len(), entries, |v, row| {
            row.extend_from_slice(&rows[v])
        })
    }

    #[test]
    fn flat_tables_look_up_sorted_rows() {
        let route = |src, est, port, level| (NodeId(src), RouteInfo { est, port, level });
        // Two entries over a span of four stay keyed.
        let ft = flat(&vec![vec![route(1, 7, 0, 2), route(4, 10, 1, 0)], vec![]]);
        assert_eq!(ft.len_nodes(), 2);
        assert_eq!(ft.len_entries(), 2);
        let srcs: Vec<u32> = ft.row_iter(NodeId(0)).map(|e| e.src).collect();
        assert_eq!(srcs, [1, 4]);
        assert_eq!(ft.get(NodeId(0), NodeId(4)).unwrap().est, 10);
        assert!(ft.get(NodeId(0), NodeId(2)).is_none());
        assert_eq!(ft.est(NodeId(0), NodeId(1)), Some(7));
        assert_eq!(ft.est(NodeId(0), NodeId(2)), None);
        assert_eq!(
            ft.ests_in(ft.row_range(NodeId(0))).collect::<Vec<_>>(),
            [7, 10]
        );
        assert_eq!(ft.row_range(NodeId(1)).len(), 0);
    }

    /// One row per probe class, keyed rows first so they keep their
    /// fits: a small-row sweep, a few-record window (quadratic ids), a
    /// wide window (two distant clusters) and no usable fit (residuals
    /// past `i16`/`u16`) — the last two binary-searched — then a dense
    /// row, stored direct.
    fn shaped_tables() -> Rows {
        let row = |srcs: &mut dyn Iterator<Item = u32>| {
            srcs.map(|s| {
                let r = RouteInfo {
                    est: u64::from(s) + 1,
                    port: s % 3,
                    level: s % 2,
                };
                (NodeId(s), r)
            })
            .collect()
        };
        vec![
            row(&mut (0..10).map(|i| 7 * i)),
            row(&mut (0..100).map(|i| i * i / 8 + i)),
            row(&mut (0..50).chain((1 << 30)..(1 << 30) + 50)),
            row(&mut (0..70_000).chain([u32::MAX - 1])),
            row(&mut (0..40)),
        ]
    }

    fn form_of(ft: &FlatTables, v: usize) -> (Form, u32) {
        Form::of_word(ft.words.get(v))
    }

    fn fit_of(ft: &FlatTables, v: usize) -> Fit {
        match form_of(ft, v) {
            (Form::Keyed(fit), 0) => fit,
            other => panic!("row {v} is stored as {other:?}"),
        }
    }

    #[test]
    fn fits_are_measured_per_row() {
        let ft = flat(&shaped_tables());
        assert!((2..=WIDE_WINDOW as u16).contains(&fit_of(&ft, 1).win));
        assert!(fit_of(&ft, 2).win as usize > WIDE_WINDOW);
        assert_eq!(fit_of(&ft, 3).win, 0, "residuals past u16 leave no fit");
        assert_eq!(form_of(&ft, 4), (Form::Direct(0), 0));
        assert_eq!(Fit::from_word(u64::MAX).word(), u64::MAX);
        let negative = Fit {
            mul: 3,
            lo: -2,
            win: 5,
        };
        assert_eq!(Fit::from_word(negative.word()), negative);
        assert_eq!(flat(&vec![vec![]]).words.get(0), 0);
        // Offset words round-trip; a keyed word never reads as one.
        for (form, before) in [
            (Form::Direct(LO_SRC_BITS), u32::MAX),
            (Form::Direct(0), 0),
            (Form::Keyed(Fit::default()), 7),
        ] {
            assert_eq!(Form::of_word(form.word(before)), (form, before));
        }
        let dense = Fit {
            mul: 1 << 31,
            lo: i16::MIN,
            win: u16::MAX,
        };
        assert_eq!(Form::of_word(dense.word()), (Form::Keyed(dense), 0));
    }

    /// The sections [`FlatTables::write_arena`] emits: starts, records,
    /// ports, levels, row words, escape indices and values.
    fn sections_of(ft: &FlatTables) -> Vec<Vec<u8>> {
        let mut aw = ArenaWriter::new();
        ft.write_arena(&mut aw);
        let mut buf = Vec::new();
        aw.finish(&mut buf).unwrap();
        let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf)).unwrap();
        (0..r.sections())
            .map(|i| r.section(i).unwrap().to_vec())
            .collect()
    }

    /// `read_arena` alone (no `validate`) over `sections`.
    fn reload(sections: &[Vec<u8>]) -> io::Result<FlatTables> {
        let mut aw = ArenaWriter::new();
        for section in sections {
            aw.section(section);
        }
        let mut buf = Vec::new();
        aw.finish(&mut buf).unwrap();
        let r = congest::arena::ArenaReader::parse(SharedBytes::from_vec(buf)).unwrap();
        FlatTables::read_arena(&mut r.cursor())
    }

    #[test]
    fn hostile_fits_answer_with_a_miss_or_the_entry_never_a_panic() {
        // Every keyed row's fit replaced by a hostile word, loaded through
        // `read_arena` alone (no `validate`): the window is clamped to
        // the row, so a probe finds the true entry or nothing — and a
        // word no fit can be (`mul` above 2³¹) is an offset word that
        // `read_arena` refuses outright.
        let model = shaped_tables();
        let sections = sections_of(&flat(&model));
        let fit = |mul, lo, win| Fit { mul, lo, win }.word();
        let hostile = [
            0,
            u64::MAX,
            fit(0, 0, 1),
            fit(u32::MAX, 0, 1),
            fit(u32::MAX, i16::MIN, u16::MAX),
            fit(1 << 31, i16::MAX, 1),
            fit(1 << 31, i16::MIN, 1),
            fit(1 << 31, -1, 1),
            fit(1 << 31, 0, u16::MAX),
            fit(1 << 20, 3, 70),
        ];
        for (case, word) in hostile.into_iter().enumerate() {
            let mut hostile = sections.clone();
            for row in hostile[4].chunks_exact_mut(8).take(model.len() - 1) {
                row.copy_from_slice(&word.to_le_bytes());
            }
            let loaded = match reload(&hostile) {
                Ok(loaded) => loaded,
                Err(_) if word as u32 > 1 << 31 => continue,
                Err(e) => panic!("case {case}: {e}"),
            };
            let mut hits = 0usize;
            for (v, table) in model.iter().enumerate() {
                let v = NodeId::from_index(v);
                let keys = table.iter().map(|(s, _)| s.0);
                for s in keys.chain([41, 1 << 29, u32::MAX]).map(NodeId) {
                    // Rows are sorted, so the model answers by binary search.
                    let want = table
                        .binary_search_by_key(&s, |&(src, _)| src)
                        .ok()
                        .map(|i| (table[i].1.est, table[i].1.port));
                    let got = loaded.get(v, s).map(|e| (e.est, e.port));
                    assert!(got.is_none() || got == want, "case {case}: ({v}, {s})");
                    assert_eq!(
                        loaded.est(v, s),
                        got.map(|g| g.0),
                        "case {case}: ({v}, {s})"
                    );
                    hits += usize::from(got.is_some());
                }
            }
            // The small row never consults its fit, the direct row has none.
            assert!(hits >= model[0].len() + model[4].len(), "case {case}");
        }
    }

    /// Three rows over 8 nodes: a direct row with a hole at source 3 and
    /// an escaped estimate at source 5, a keyed row after it, and a full
    /// direct row.
    fn holed_rows() -> Rows {
        let route = |s: u32, est| {
            let r = RouteInfo {
                est,
                port: s % 3,
                level: 0,
            };
            (NodeId(s), r)
        };
        let est = |s: u32| if s == 5 { 1 << 40 } else { u64::from(s) + 1 };
        let mut rows: Rows = vec![Vec::new(); 8];
        rows[0] = [1, 2, 4, 5, 6].map(|s| route(s, est(s))).to_vec();
        rows[1] = [0, 7].map(|s| route(s, est(s))).to_vec();
        rows[2] = (0..8).map(|s| route(s, est(s))).collect();
        rows
    }

    /// The complete graph on 8 nodes: every port below 7 is valid.
    fn k8() -> Topology {
        let edges: Vec<(u32, u32, u64)> = (0..8)
            .flat_map(|u| (u + 1..8).map(move |v| (u, v, 1)))
            .collect();
        graphs::WGraph::from_edges(8, &edges).unwrap().to_topology()
    }

    #[test]
    fn direct_rows_keep_slots_in_lockstep() {
        let rows = holed_rows();
        let ft = flat(&rows);
        assert_eq!(form_of(&ft, 0), (Form::Direct(1), 0));
        assert_eq!(form_of(&ft, 1), (Form::Keyed(Fit::default()), 6));
        assert_eq!(form_of(&ft, 2), (Form::Direct(0), 6));
        assert_eq!(ft.len_entries(), 6 + 2 + 8);
        ft.validate(&k8()).unwrap();

        // One slot per source offset: the hole reads as a miss and `INF`,
        // the escaped value comes back whole, `entries_in` skips the hole.
        let (v, row) = (NodeId(0), ft.row_range(NodeId(0)));
        assert_eq!(row, 0..6);
        let ests: Vec<u64> = ft.ests_in(row.clone()).collect();
        assert_eq!(ests, [2, 3, INF, 5, 1 << 40, 7]);
        let srcs: Vec<u32> = ft.entries_in(row).map(|e| e.src).collect();
        assert_eq!(srcs, [1, 2, 4, 5, 6]);
        assert_eq!(ft.get(v, NodeId(3)), None);
        assert_eq!(ft.est(v, NodeId(3)), None);
        assert_eq!(ft.est(v, NodeId(5)), Some(1 << 40));
        assert_eq!(ft.get(v, NodeId(7)), None);
        // A part of a row reads as that part.
        let part: Vec<u64> = ft.ests_in(4..6).collect();
        assert_eq!(part, [1 << 40, 7]);

        // The index table is per slot too, `NONE` at the hole, so it zips
        // with `ests_in` in lockstep.
        let members = [NodeId(2), NodeId(5), NodeId(7)];
        let idx = resolve_entry_indices(&ft, &graphs::DenseIndex::new(8, &members));
        let none = graphs::DenseIndex::NONE;
        assert_eq!(idx[..8], [none, 0, none, none, 1, none, none, 2]);
        for v in (0..3).map(NodeId) {
            let row = ft.row_range(v);
            for (est, &i) in ft.ests_in(row.clone()).zip(&idx[row]) {
                if i != none {
                    assert_eq!(Some(est), ft.est(v, members[i as usize]), "{v}");
                }
            }
        }

        // Every row comes back as it went in.
        for (v, want) in rows.iter().enumerate() {
            let got: Vec<_> = ft.row_routes(NodeId::from_index(v)).collect();
            assert_eq!(&got, want, "row {v}");
        }
    }

    #[test]
    fn hostile_direct_rows_answer_with_a_miss_or_the_entry_never_a_panic() {
        // Sections: starts, recs, ports, levels, words, escape pair.
        let rows = holed_rows();
        let sections = sections_of(&flat(&rows));
        fn set_word(s: &mut [Vec<u8>], v: usize, word: u64) {
            s[4][8 * v..8 * v + 8].copy_from_slice(&word.to_le_bytes());
        }
        // The hole of row 0 is slot 2; its escaped entry is slot 4. Each
        // case is refused by `read_arena` (`None`), or loads and then
        // fails `validate` (`Some(false)`) or passes it (`Some(true)`: a
        // record on an absent slot is a well-formed escaped entry).
        type Mutate = dyn Fn(&mut [Vec<u8>]);
        let cases: [(&str, Option<bool>, &Mutate); 8] = [
            ("lo_src + span past n", Some(false), &|s| {
                set_word(s, 0, Form::Direct(5).word(0));
            }),
            ("lo_src at the top of its field", Some(false), &|s| {
                set_word(s, 0, Form::Direct(LO_SRC_BITS).word(0));
            }),
            ("direct slots before a row miscounted", None, &|s| {
                set_word(s, 2, Form::Direct(0).word(7));
            }),
            ("keyed row read as direct, past the section", None, &|s| {
                set_word(s, 1, Form::Direct(0).word(6));
            }),
            ("direct row read as keyed", None, &|s| set_word(s, 0, 0)),
            ("absent slot with a non-marker port", Some(false), &|s| {
                s[2][4..6].copy_from_slice(&0u16.to_le_bytes());
            }),
            ("absent slot with a non-marker level", Some(false), &|s| {
                s[3][2] = 0
            }),
            ("escape record on an absent slot", Some(true), &|s| {
                s[5].splice(0..0, 2u32.to_le_bytes());
                s[6].splice(0..0, [3u64, 0].iter().flat_map(|w| w.to_le_bytes()));
            }),
        ];
        let topo = k8();
        for (what, valid, mutate) in cases {
            let mut hostile = sections.clone();
            mutate(&mut hostile);
            let loaded = match reload(&hostile) {
                Ok(loaded) => loaded,
                Err(e) => {
                    assert_eq!(valid, None, "{what}: {e}");
                    continue;
                }
            };
            assert_eq!(Some(loaded.validate(&topo).is_ok()), valid, "{what}");
            for (v, row) in rows.iter().enumerate() {
                let v = NodeId::from_index(v);
                // What the row stores, and the record a case planted.
                let stored: Vec<u64> = row.iter().map(|r| r.1.est).chain([3]).collect();
                for s in (0..16).chain([u32::MAX]).map(NodeId) {
                    let got = loaded.get(v, s);
                    assert_eq!(loaded.est(v, s), got.map(|e| e.est), "{what}: ({v}, {s})");
                    assert!(
                        got.is_none_or(|e| stored.contains(&e.est)),
                        "{what}: ({v}, {s}) answered {got:?}"
                    );
                }
                let range = loaded.row_range(v);
                assert_eq!(loaded.ests_in(range.clone()).count(), range.len());
                let _ = loaded.entries_in(range).count() + loaded.row_routes(v).count();
            }
        }
    }

    #[test]
    fn pair_table_reps_agree() {
        let entries = &[(0u32, 2u32, 5u64), (1, 0, 9), (1, 3, 2), (3, 3, 7)];
        let d = PairTable::dense(4, entries);
        let c = PairTable::csr(4, entries);
        for row in 0..5 {
            for col in 0..5 {
                assert_eq!(d.get(row, col), c.get(row, col), "({row}, {col})");
            }
        }
        assert_eq!(d.len(), 4);
        assert_eq!(c.len(), 4);
        assert!(!d.is_empty());
    }

    #[test]
    fn auto_picks_dense_for_small_and_csr_for_large_sparse() {
        assert!(matches!(
            PairTable::auto(4, &[(0, 0, 1)]),
            PairTable::Dense { .. }
        ));
        // 100×100 = 10_000 cells > floor, 1 entry ≪ 1/8 fill.
        assert!(matches!(
            PairTable::auto(100, &[(0, 0, 1)]),
            PairTable::Csr { .. }
        ));
        // Same size, well filled → dense.
        let filled: Vec<(u32, u32, u64)> = (0..100u32)
            .flat_map(|r| (0..20u32).map(move |c| (r, c, 1u64)))
            .collect();
        assert!(matches!(
            PairTable::auto(100, &filled),
            PairTable::Dense { .. }
        ));
    }
}
