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
//! # The ladder record format
//!
//! Every estimate the rung merge produces is `hops · b_level`, whole
//! subdivided hops `hops ≤ h′` on one rung of the ladder
//! ([`crate::rounding`]): the paper's `O(log(h/ε))`-bit entries. A slot
//! stores that pair and its next-hop port as one packed *word* `port <<
//! (lb + hb) | hops << lb | level`, and a read multiplies: `est = hops ·
//! rungs[level]`. Every field width is derived from the table's own
//! rows, never configured: `lb = bits(rungs.len() − 1)`, `hb = bits(max
//! hops + 1)` and `pb = bits(max port + 1)`, so the all-ones value of the
//! hops and port fields is never a real one. A word takes
//! `w = ⌈(pb + hb + lb) / 8⌉` bytes (1 to 4). A keyed record's key
//! takes `kb` bytes, derived the same way from the table's *key count*
//! (below): 1 up to 2⁸ keys, 2 up to 2¹⁶, else 4. `kb` rides in the
//! widths word's fourth byte, beside `pb | hb | lb`.
//!
//! **Rows are keyed by source rank.** The table's *members* are the sources
//! its rows name, and a row stores each source as its *key*: its rank among
//! the members. A row is *direct* (one slot per key in `[lo_src, hi_src]`)
//! when `span · w ≤ len · (kb + w)` (`span ≤ 1.5 · len` at `w = 2` and
//! 1-byte keys), else *keyed*. A probe maps the node id to its key first (a
//! non-member is a miss), and every read that hands out entries maps the
//! key back, so callers only ever see node ids. The map is derived like the
//! widths: when the members are exactly `0..n` — every full-coverage table
//! — a key is the node id itself and both map sections are empty, so such a
//! table pays nothing for it. A partial table (sources `S ⊂ V`, every 16th
//! node say) gets ranks `0..|S|`, so a row of a few hundred entries spans
//! about that many keys instead of the whole id space and goes direct, and
//! a sparse row's keys take one byte while `|S| ≤ 256`. The key count is
//! the member count in a mapped table and `n` in an identity one. A table
//! that names a source at or past its row count (only a synthetic one:
//! [`FlatTables::validate`] refuses it against any topology) keeps node ids
//! as keys too, at 4 bytes.
//!
//! | section | bytes | read by |
//! |---|---|---|
//! | records: keyed `key \| word`, direct `word`, then `8 − w` zero bytes | `kb + w` / `w` a slot | every probe |
//! | row word (one LE `u64`) | 8 / row | [`FlatTables::cursor`] |
//! | ladder `[pb \| hb << 8 \| lb << 16 \| kb << 24, h′, rungs…]` (LE `u64`s) | 8 / rung | every estimate |
//! | escape indices (`u32`) and values (`hops \| port << 32`) | 12 / escaped slot | a marker read |
//! | members: the sources' node ids, increasing (`u32`) | 4 / member | rank → id |
//! | ranks: each node's key, all ones for a non-member | `rb` / node | id → rank, every probe |
//!
//! Both map sections are empty when keys are node ids. The ranks take
//! `rb` bytes, the narrowest of 1, 2 or 4 whose all-ones sentinel sits
//! above every rank: 2 at 256 members. [`FlatTables::read_arena`] takes
//! no other `rb`, and [`FlatTables::validate`] no `kb` but the key
//! count's, so every table has one encoding.
//!
//! The tail padding lets a probe read any record with one little-endian
//! `u64` load and a mask. A *slot* is a keyed entry or one source offset
//! of a direct row; the CSR offsets, escape indices and every arena index
//! a caller sees count slots. **Direct rows: no keys, no fit.** Key `k`
//! sits in slot `k − lo_src`, so a probe is one bounds check and one
//! load. An absent slot stores the all-ones word and no escape record: a
//! miss, `(NONE, INF)` in [`resolve_entries`], skipped by
//! [`FlatTables::row_iter`].
//!
//! **Keyed rows: no stored index.** Where a key sits in its sorted row
//! is a function of the key that one multiply computes: entry `i` of a
//! row holding key `k` satisfies `p + lo ≤ i < p + lo + win` with
//! `p = (k · mul) >> 31`. `mul` is the row's density in Q1.31
//! (`len / (max_key + 1)`, at most 2³¹) and `[lo, lo + win)` is the
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
//! **One escape, always on:** a word holds at most 32 bits. When the
//! widest hop count and port do not fit one beside the level (a hub's
//! port and a long hop count, say), the two split the `32 − lb` bits
//! evenly. A value too wide for its field stores the field's all-ones
//! marker and the slot's true `hops | port << 32` goes to the one escape
//! section pair, binary-searched only when a marker is read. Loading
//! checks the ladder (`h′ ≤ u32::MAX`, at most 2¹⁶ rungs rising strictly
//! from 1) and the widths (`lb = bits(rungs.len() − 1)`, `hb, pb ≥ 1`, at
//! most 32 bits together); [`FlatTables::validate`] proves every word on
//! the ladder (`level < rungs.len()`, `hops ≤ h′`) and inside its
//! fields. The format is private to this module; everything else sees
//! [`FlatEntry`] values.
//!
//! **Encode once, pack in place.** `fill` drains the merge, so it runs
//! once, before the widths and the members are known:
//! [`FlatTables::from_rows`] writes every entry as an 8-byte `src u32 |
//! word u32` record at the even split (escaping what overflows), then
//! decodes each row, rewrites each source as its key and the row at the
//! derived widths, in its smaller form, earlier in the same buffer.
//! No row grows (`len · (kb + w)` and `span · w` direct are both at most
//! `8 · len`), so no second buffer is needed.
//!
//! Both layouts serialize *directly* (their snapshot bytes are the
//! in-memory layout, already canonical because rows are sorted), so
//! reload → re-save stays byte-identical without any sort-on-write step.

use crate::pde::RouteInfo;
use congest::arena::{
    width_for, ArenaCursor, ArenaWriter, SharedBytes, U32View, U64View, UintView,
};
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

/// Low halves of the offset words (see the module docs): a direct row's,
/// or'd with its `lo_src` (the low bits), and a keyed row's.
const DIRECT_WORD: u32 = 0xC000_0000;
const KEYED_WORD: u32 = 0xA000_0000;
const LO_SRC_BITS: u32 = congest::wire::MAX_SNAPSHOT_NODES as u32 - 1;

/// The little-endian `u64` at the start of `b`.
#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// Bits `x` needs (none for 0).
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Bytes of a key among `count` keys: 1 up to 2⁸ keys, 2 up to 2¹⁶,
/// else 4.
fn key_bytes(count: u64) -> u32 {
    width_for(count.saturating_sub(1)) as u32
}

/// The source key at the start of a keyed record of `kb`-byte keys.
#[inline(always)]
fn key_at(rec: &[u8], kb: usize) -> u32 {
    let mut key = [0; 4];
    key[..kb].copy_from_slice(&rec[..kb]);
    u32::from_le_bytes(key)
}

/// Whether `[h′, rungs…]` is a ladder a table decodes over (see the
/// module docs; at most 2¹⁶ rungs, so a level fits 16 bits).
fn ladder_ok(ladder: &[u64]) -> bool {
    matches!(ladder, [h, rungs @ ..] if *h <= u64::from(u32::MAX)
        && rungs.first() == Some(&1)
        && rungs.len() <= 1 << 16
        && rungs.windows(2).all(|w| w[0] < w[1]))
}

/// A slot's fields: whole `hops` on rung `level`, through `port`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fields {
    hops: u32,
    level: u32,
    port: Port,
}

/// A table's record layout (see the module docs): the low `lb` bits of
/// a word hold the level, the next `hb` the hops and the top `pb` the
/// port, and a keyed record's key takes `kb` bytes before its word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Layout {
    lb: u32,
    hb: u32,
    pb: u32,
    kb: u32,
}

impl Layout {
    /// The layout a section word spells, if it is one a table over
    /// `rungs` rungs can have (see the module docs).
    fn of_word(word: u64, rungs: usize) -> Option<Layout> {
        let [pb, hb, lb, kb] = [0, 8, 16, 24].map(|at| (word >> at) as u32 & 0xFF);
        let l = Layout { lb, hb, pb, kb };
        let fits = lb == bits(rungs as u64 - 1) && hb * pb > 0 && l.bits() <= 32;
        (fits && matches!(kb, 1 | 2 | 4) && l.word() == word).then_some(l)
    }

    /// The ladder section's first word.
    fn word(self) -> u64 {
        let [pb, hb, lb, kb] = [self.pb, self.hb, self.lb, self.kb].map(u64::from);
        pb | hb << 8 | lb << 16 | kb << 24
    }

    /// Bits of a word.
    #[inline(always)]
    fn bits(self) -> u32 {
        self.lb + self.hb + self.pb
    }

    /// Bytes of a word: `w`.
    #[inline(always)]
    fn bytes(self) -> usize {
        self.bits().div_ceil(8) as usize
    }

    /// Bytes of a keyed record (`keyed`) or a direct slot.
    #[inline(always)]
    fn width(self, keyed: bool) -> usize {
        self.bytes() + self.kb as usize * usize::from(keyed)
    }

    /// The all-ones word: an absent slot.
    fn all(self) -> u32 {
        (u64::MAX >> (64 - self.bits())) as u32
    }

    /// The hops and port fields' all-ones markers.
    #[inline(always)]
    fn markers(self) -> (u32, u32) {
        ((1 << self.hb) - 1, (1 << self.pb) - 1)
    }

    /// Whether `f` (as stored) holds a marker.
    #[inline(always)]
    fn marked(self, f: Fields) -> bool {
        let (hops, port) = self.markers();
        f.hops == hops || f.port == port
    }

    /// The fields of a stored word, markers as they are.
    #[inline(always)]
    fn split(self, word: u32) -> Fields {
        let (hops, port) = self.markers();
        Fields {
            hops: word >> self.lb & hops,
            level: word & ((1 << self.lb) - 1),
            port: word >> (self.lb + self.hb) & port,
        }
    }

    /// `f` packed into a word. A hop count or port too wide for its field
    /// stores the field's marker, and `escape` gets the true `hops | port
    /// << 32`.
    fn pack(self, f: Fields, escape: impl FnOnce(u64)) -> u32 {
        let (hops, port) = self.markers();
        if f.hops >= hops || f.port >= port {
            escape(u64::from(f.hops) | u64::from(f.port) << 32);
        }
        f.port.min(port) << (self.lb + self.hb) | f.hops.min(hops) << self.lb | f.level
    }
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
    fn of_row<T>(row: &[(u32, T)]) -> Fit {
        let Some((last, _)) = row.last() else {
            return Fit::default();
        };
        let mul = ((row.len() as u64) << 31) / (u64::from(*last) + 1);
        let mut fit = Fit {
            mul: u32::try_from(mul).expect("distinct sources: len ≤ max_src + 1"),
            ..Fit::default()
        };
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (i, (src, _)) in row.iter().enumerate() {
            let residual = i as i64 - fit.predict(*src);
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

    /// `(src, word)` of slot `j` of a row stored as `self` whose records
    /// start `recs`: one LE `u64` load (the section's padding keeps it in
    /// bounds) and a mask, the source implied in a direct row.
    #[inline(always)]
    fn slot(self, recs: &[u8], layout: Layout, j: usize) -> Slot {
        let (src, word) = match self {
            Form::Keyed(_) => {
                let (rec, kbits) = (le64(&recs[j * layout.width(true)..]), 8 * layout.kb);
                ((rec & ((1 << kbits) - 1)) as u32, rec >> kbits)
            }
            Form::Direct(lo) => (lo.wrapping_add(j as u32), le64(&recs[j * layout.bytes()..])),
        };
        let word = word as u32 & u32::MAX >> (32 - 8 * layout.bytes() as u32);
        Slot { src, word }
    }
}

/// Per-node routing tables in one source-sorted entry arena with CSR
/// row offsets: the form the rung merge writes, the builders read and
/// the query paths serve. Every large array is a zero-copy view: a table
/// decoded from a snapshot keeps pointing into the snapshot buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatTables {
    /// `starts[v]..starts[v + 1]` delimits node `v`'s row (`n + 1` offsets).
    starts: U32View,
    /// All rows back to back as records (keyed rows' sorted by `src`,
    /// direct rows' by source offset), then the tail padding.
    recs: SharedBytes,
    /// One row word per row: a [`Fit`] or an offset word (see [`Form`]).
    words: U64View,
    /// `[h′, rungs…]`: what every word decodes over.
    ladder: Vec<u64>,
    /// The one escape (see the module docs): strictly increasing indices
    /// of the slots carrying a marker, and their true `hops | port << 32`.
    wide_idx: U32View,
    wide_vals: U64View,
    /// The field widths, derived from the rows.
    layout: Layout,
    /// The source map (see the module docs): the members' node ids,
    /// increasing, and each node's key (the all-ones value of the ranks'
    /// width for a non-member); both empty when keys are node ids.
    members: U32View,
    ranks: UintView,
}

/// One slot as stored, markers included: its source's key (implied in a
/// direct row) and its word.
#[derive(Clone, Copy, Debug)]
struct Slot {
    src: u32,
    word: u32,
}

impl FlatTables {
    /// Builds the table from `n` rows of `entries` entries in total,
    /// handed over in node order (the one constructor): `fill(v, row)`
    /// appends node `v`'s `(source, route)` entries, strictly sorted by
    /// source and each whole hops `≤ h′` on its rung of `ladder = (h′,
    /// rungs)`, to the (cleared) scratch row. Entries are written as
    /// 8-byte records as they come, then packed in place at the widths
    /// they need and keyed by source rank (see the module docs), so the
    /// only transient state is one row and the map.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is malformed (see the module docs) or a
    /// route's estimate is not `hops · rungs[level]` with `hops ≤ h′`, if
    /// a row is not strictly sorted by source (the fit and every probe
    /// assume it), if the rows do not add up to `entries`, or if that
    /// exceeds `u32::MAX` (offsets stay 4 bytes on purpose; a row whose
    /// direct slots would pass it stays keyed).
    pub fn from_rows(
        n: usize,
        entries: usize,
        (horizon, rungs): (u64, &[u64]),
        mut fill: impl FnMut(usize, &mut Vec<(NodeId, RouteInfo)>),
    ) -> Self {
        let ladder = [&[horizon], rungs].concat();
        assert!(ladder_ok(&ladder), "malformed ladder (h′ {horizon})");
        // The first pass: one `src u32 | word u32` record per entry, the
        // `32 − lb` bits shared evenly (what overflows escapes), and the
        // widths each entry needs counted.
        let lb = bits(rungs.len() as u64 - 1);
        let (pb, hb) = ((32 - lb) / 2, (33 - lb) / 2);
        let first = Layout { lb, hb, pb, kb: 4 };
        let mut recs = Vec::with_capacity(8 * entries + 8);
        let rec = |key: u32, word: u32| (u64::from(key) | u64::from(word) << 32).to_le_bytes();
        let (mut ends, mut wide, mut routes) = (Vec::with_capacity(n), Vec::new(), Vec::new());
        let (mut widest_port, mut widest_hops) = (0, 0);
        let (mut named, mut past_n) = (vec![false; n], false);
        for v in 0..n {
            routes.clear();
            fill(v, &mut routes);
            assert!(
                routes.windows(2).all(|w| w[0].0 < w[1].0),
                "row {v} is not strictly sorted by source"
            );
            for &(s, r) in &routes {
                match named.get_mut(s.index()) {
                    Some(named) => *named = true,
                    None => past_n = true,
                }
                let rung = ladder.get(1 + r.level as usize).copied();
                let on = rung.filter(|&b| r.est % b == 0 && r.est / b <= horizon);
                let hops = r.est / on.unwrap_or_else(|| panic!("{r:?} is off the ladder"));
                let (hops, level, port) = (hops as u32, r.level, r.port);
                (widest_port, widest_hops) = (widest_port.max(port), widest_hops.max(hops));
                let word = first.pack(Fields { hops, level, port }, |w| wide.push(w));
                recs.extend(rec(s.0, word));
            }
            ends.push(recs.len() / 8);
        }
        assert_eq!(recs.len() / 8, entries, "rows do not add up to `entries`");

        // The map: ranks among the named sources, unless those are `0..n`
        // (or pass it) and the keys stay node ids — any `u32` past `n`.
        let mut members: Vec<u32> = (0..n as u32).filter(|&v| named[v as usize]).collect();
        let keys = if past_n {
            1 << 32
        } else {
            members.len() as u64
        };
        let identity = past_n || members.len() == n;
        if identity {
            members.clear();
        }
        let (rb, mut ranks) = (width_for(members.len() as u64), Vec::new());
        if !identity {
            ranks = vec![u64::MAX >> (64 - 8 * rb); n];
            for (rank, &id) in members.iter().enumerate() {
                ranks[id as usize] = rank as u64;
            }
        }
        let key = |id: u32| ranks.get(id as usize).map_or(id, |&rank| rank as u32);

        // The pack: the widths the rows need if they fit 32 bits, else
        // the first pass's; each row decoded, then written at or before
        // where it was read, in its smaller form.
        let exact = Layout {
            lb,
            hb: bits(u64::from(widest_hops) + 1),
            pb: bits(u64::from(widest_port) + 1),
            kb: key_bytes(keys),
        };
        let l = match exact.bits() <= 32 {
            true => exact,
            false => Layout {
                kb: exact.kb,
                ..first
            },
        };
        let (mut starts, mut words) = (vec![0u32], Vec::with_capacity(n));
        let (mut wide_idx, mut wide_vals) = (Vec::new(), Vec::new());
        let (mut wide, mut row) = (wide.into_iter(), Vec::new());
        let (mut start, mut write, mut before) = (0, 0, 0);
        for end in ends {
            row.clear();
            row.extend(recs[8 * start..8 * end].chunks_exact(8).map(|rec| {
                let rec = le64(rec);
                let mut f = first.split((rec >> 32) as u32);
                if first.marked(f) {
                    let wide = wide.next().expect("an escape per marker");
                    (f.hops, f.port) = (wide as u32, (wide >> 32) as Port);
                }
                (key(rec as u32), f)
            }));
            let len = starts[starts.len() - 1] as usize;
            let direct = row.first().zip(row.last()).and_then(|(lo, hi)| {
                let span = (hi.0 - lo.0) as usize + 1;
                let room = len + span + entries - end <= u32::MAX as usize;
                let smaller = span * l.width(false) <= row.len() * l.width(true);
                (smaller && lo.0 <= LO_SRC_BITS && room).then_some((lo.0, span))
            });
            let form = match direct {
                Some((lo, _)) => Form::Direct(lo),
                None if before == 0 => Form::Keyed(Fit::of_row(&row)),
                None => Form::Keyed(Fit::default()),
            };
            words.push(form.word(before));
            // A direct slot is a keyed record without its key; a direct
            // row's holes keep the all-ones word.
            let (slots, width) = (direct.map_or(row.len(), |d| d.1), l.width(direct.is_none()));
            let kbits = 8 * (width - l.bytes());
            let stored = |key: u32, word: u32| {
                (u64::from(key) & ((1 << kbits) - 1) | u64::from(word) << kbits).to_le_bytes()
            };
            assert!(write + slots * width <= 8 * end, "a packed row grew");
            let out = &mut recs[write..write + slots * width];
            for hole in out.chunks_exact_mut(width) {
                hole.copy_from_slice(&stored(0, l.all())[..width]);
            }
            for (i, &(key, f)) in row.iter().enumerate() {
                let j = direct.map_or(i, |(lo, _)| (key - lo) as usize);
                let word = l.pack(f, |x| {
                    wide_idx.push((len + j) as u32);
                    wide_vals.push(x);
                });
                out[j * width..][..width].copy_from_slice(&stored(key, word)[..width]);
            }
            starts.push(u32::try_from(len + slots).expect("flat table fits u32 offsets"));
            before += direct.map_or(0, |d| d.1 as u32);
            (start, write) = (end, write + slots * width);
        }
        recs.truncate(write);
        recs.resize(write + 8 - l.bytes(), 0);
        recs.shrink_to_fit();
        FlatTables {
            starts: U32View::from_vals(&starts),
            recs: SharedBytes::from_vec(recs),
            words: U64View::from_vals(&words),
            ladder,
            wide_idx: U32View::from_vals(&wide_idx),
            wide_vals: U64View::from_vals(&wide_vals),
            layout: l,
            members: U32View::from_vals(&members),
            ranks: UintView::from_vals(ranks, rb),
        }
    }

    /// Number of nodes covered (rows).
    #[inline]
    pub fn len_nodes(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Total slots across all rows — every keyed entry and every source
    /// offset of a direct row, present or absent: the arena index space
    /// of [`FlatTables::row_range`] and [`resolve_entries`].
    #[inline]
    pub fn len_entries(&self) -> usize {
        self.starts.get(self.len_nodes()) as usize
    }

    /// Iterates node `v`'s row: every `(src, est, port)` it knows, sorted
    /// by source id.
    #[inline]
    pub fn row_iter(&self, v: NodeId) -> impl Iterator<Item = FlatEntry> + '_ {
        self.cursor(v)
            .slots()
            .filter_map(|(i, slot)| self.entry_of(i, slot, self.id_of(slot.src)?))
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
    /// present (see [`RowCursor::est`]).
    #[inline(always)]
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
        // A direct slot is a keyed record without its key; `read_arena`
        // proved every row's records lie inside the section.
        let (width, kb) = (self.layout.width(true), self.layout.kb as usize);
        let hot = (range.start * width).saturating_sub(before as usize * kb);
        RowCursor {
            tab: self,
            row_start: range.start,
            row_len: range.len(),
            recs: &self.recs.as_slice()[hot..],
            form,
        }
    }

    /// The slot range of node `v`'s row within the arena (for callers
    /// that keep per-slot side tables aligned with the arena, e.g.
    /// pre-resolved skeleton indices; see [`resolve_entries`]).
    #[inline]
    pub fn row_range(&self, v: NodeId) -> Range<usize> {
        self.starts.get(v.index()) as usize..self.starts.get(v.index() + 1) as usize
    }

    /// Source `s`'s key (see the module docs), if it is a member.
    #[inline(always)]
    fn key_of(&self, s: NodeId) -> Option<u32> {
        if self.ranks.is_empty() {
            return Some(s.0);
        }
        let rank = (s.index() < self.ranks.len()).then(|| self.ranks.get(s.index()))?;
        (rank != self.ranks.ones()).then_some(rank as u32)
    }

    /// The node id of the source stored as `key` (`None` past the
    /// members, which only a hostile table that skipped
    /// [`FlatTables::validate`] stores: its entry reads as a miss).
    #[inline(always)]
    fn id_of(&self, key: u32) -> Option<u32> {
        if self.ranks.is_empty() {
            return Some(key);
        }
        ((key as usize) < self.members.len()).then(|| self.members.get(key as usize))
    }

    /// Slot `i`'s true `(hops, port)`, if it has an escape record.
    #[cold]
    fn wide(&self, i: usize) -> Option<(u32, Port)> {
        let (mut lo, mut hi) = (0, self.wide_idx.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match (self.wide_idx.get(mid) as usize) < i {
                true => lo = mid + 1,
                false => hi = mid,
            }
        }
        let word = (lo < self.wide_idx.len() && self.wide_idx.get(lo) as usize == i)
            .then(|| self.wide_vals.get(lo))?;
        Some((word as u32, (word >> 32) as Port))
    }

    /// Slot `i`'s fields, a marked hop count and port from its escape
    /// record (`None` for a marker without one: a hole, or damage).
    #[inline(always)]
    fn fields(&self, i: usize, slot: Slot) -> Option<Fields> {
        let mut f = self.layout.split(slot.word);
        if self.layout.marked(f) {
            (f.hops, f.port) = self.wide(i)?;
        }
        Some(f)
    }

    /// Slot `i`, of source id `src`, as a [`FlatEntry`]: `est = hops ·
    /// rungs[level]` and the port. An absent slot — or, in a hostile
    /// table that skipped [`FlatTables::validate`], a marker without its
    /// record, a level off the ladder or a product past `u64` — reads as
    /// a miss.
    #[inline(always)]
    fn entry_of(&self, i: usize, slot: Slot, src: u32) -> Option<FlatEntry> {
        let Fields { hops, level, port } = self.fields(i, slot)?;
        let est = u64::from(hops).checked_mul(*self.ladder.get(1 + level as usize)?)?;
        Some(FlatEntry { src, port, est })
    }

    /// Node `v`'s row as the `(source, route)` entries
    /// [`FlatTables::from_rows`] was given.
    pub fn row_routes(&self, v: NodeId) -> impl Iterator<Item = (NodeId, RouteInfo)> + '_ {
        self.cursor(v).slots().filter_map(|(i, slot)| {
            let FlatEntry { src, port, est } = self.entry_of(i, slot, self.id_of(slot.src)?)?;
            let level = self.layout.split(slot.word).level;
            Some((NodeId(src), RouteInfo { est, port, level }))
        })
    }

    /// Emits the table into an arena: one section per array,
    /// **including the derived row words** — a load rebuilds nothing.
    /// The sections are the views' backing bytes verbatim, so load →
    /// re-save is a passthrough.
    pub fn write_arena(&self, a: &mut ArenaWriter) {
        a.section(self.starts.as_bytes());
        a.section(self.recs.as_slice());
        a.section(self.words.as_bytes());
        a.u64s(&[&[self.layout.word()], &self.ladder[..]].concat());
        a.section(self.wide_idx.as_bytes());
        a.section(self.wide_vals.as_bytes());
        a.section(self.members.as_bytes());
        a.section(self.ranks.as_bytes());
    }

    /// Reads what [`FlatTables::write_arena`] wrote: zero-copy views over
    /// the container plus shape checks on the CSR offsets (monotone and
    /// bounded), the ladder and the field widths, the record section's
    /// length (which the widths and row words fix, tail padding
    /// included), the escape indices and the row words (canonical, and
    /// counting the direct slots before each row exactly, so every row's
    /// records lie where its word puts them) and the map's (both sections
    /// empty, or one rank per node at the width the member count needs
    /// beside fewer members than nodes).
    /// Per-slot sweeps are *not*
    /// run here: [`FlatTables::validate`] owns them, the arena checksum
    /// owns integrity, and [`RowCursor`] bounds every probe by its row
    /// and the ladder, so even a hostile fit, `lo_src` or word answers
    /// with a miss rather than a panic.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformed section or inconsistent
    /// shape.
    pub fn read_arena(c: &mut ArenaCursor<'_>) -> io::Result<Self> {
        let starts = c.u32v()?;
        let recs = c.shared()?;
        let words = c.u64v()?;
        let ladder = c.u64s()?;
        let (wide_idx, wide_vals) = (c.u32v()?, c.u64v()?);
        let (members, ranks) = (c.u32v()?, c.shared()?);
        let n = starts
            .len()
            .checked_sub(1)
            .ok_or_else(|| invalid_data("flat table starts section empty"))?;
        if starts.get(0) != 0 || (0..n).any(|v| starts.get(v) > starts.get(v + 1)) {
            return Err(invalid_data("flat table offsets inconsistent"));
        }
        let slots = starts.get(n) as usize;
        // Escape indices strictly increase below `slots`, one value each.
        let mut prev = None;
        let increasing = wide_idx
            .iter()
            .all(|i| (prev.replace(i).is_none_or(|p| p < i)) && (i as usize) < slots);
        if !increasing || wide_idx.len() != wide_vals.len() {
            return Err(invalid_data("flat table escape sections malformed"));
        }
        let Some((&layout, ladder)) = ladder.split_first().filter(|(_, l)| ladder_ok(l)) else {
            return Err(invalid_data("flat table ladder malformed"));
        };
        let layout = Layout::of_word(layout, ladder.len() - 1)
            .ok_or_else(|| invalid_data("flat table field widths malformed"))?;
        if words.len() != n {
            return Err(invalid_data("flat table row-word section misshapen"));
        }
        // One rank per node at the width that holds the members' count,
        // the non-members' all-ones sentinel above every rank.
        let rb = width_for(members.len() as u64);
        let ranks = UintView::new(ranks, rb)?;
        let identity = ranks.is_empty() && members.is_empty();
        if !identity && (ranks.len() != n || members.len() >= n) {
            return Err(invalid_data("flat table source map misshapen"));
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
        let body = layout.width(false) * direct + layout.width(true) * (slots - direct);
        let padded = recs.len() == body + 8 - layout.bytes();
        if !padded || recs.as_slice()[body..].iter().any(|&b| b != 0) {
            return Err(invalid_data("flat table record section misshapen"));
        }
        Ok(FlatTables {
            starts,
            recs,
            words,
            ladder: ladder.to_vec(),
            wide_idx,
            wide_vals,
            layout,
            members,
            ranks,
        })
    }

    /// Validates rows against the topology they will be queried on: one row per
    /// node; the source map, if any, a bijection between its members (node ids,
    /// strictly increasing) and the ranks below their count; keys at the width
    /// their count needs, in range (below the member count, or `n` without a
    /// map) and strictly increasing within each row (the key scan, the binary
    /// search and canonical re-save assume it), every keyed entry inside the
    /// window its row's fit predicts for its key (so a probe can never miss a
    /// stored entry), ports within each node's degree ([`Topology::neighbor`]
    /// only debug-asserts its port, so a corrupted port would silently resolve
    /// to a wrong neighbor in release builds), every word inside its fields and
    /// on the ladder (`level < rungs.len()`, `hops ≤ h′`), and escape records
    /// matching the marked slots one to one (an absent direct slot: the
    /// all-ones word, no record).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a source map that is not such a
    /// bijection, a key width other than its count's, any out-of-range
    /// key or port, an unsorted row, an
    /// entry outside its predicted window, a word with bits past its
    /// fields or off the ladder, a marker without an escape record
    /// (outside an absent slot), or an escape record without a marker.
    pub fn validate(&self, topo: &Topology) -> io::Result<()> {
        if self.len_nodes() != topo.len() {
            return Err(invalid_data("flat table row count mismatch"));
        }
        // `read_arena` fixed the map's shape; here each member must be a
        // node id past the one before, whose rank names it back, and no
        // other node may have a rank.
        let mut last = None;
        for (rank, id) in self.members.iter().enumerate() {
            let back = (id as usize) < topo.len() && self.ranks.get(id as usize) == rank as u64;
            if !back || last.replace(id).is_some_and(|l| l >= id) {
                return Err(invalid_data("flat table source map is not a bijection"));
            }
        }
        let no_rank = self.ranks.ones();
        if self.ranks.iter().filter(|&r| r != no_rank).count() != self.members.len() {
            return Err(invalid_data("flat table ranks a node outside its members"));
        }
        let keys = match self.ranks.is_empty() {
            true => topo.len(),
            false => self.members.len(),
        };
        if self.layout.kb != key_bytes(keys as u64) {
            return Err(invalid_data(format!(
                "flat table keys {keys} sources at {} bytes, not the width their count needs",
                self.layout.kb
            )));
        }
        let (l, horizon, rungs) = (self.layout, self.ladder[0], &self.ladder[1..]);
        let all = l.all();
        let mut marked = 0usize;
        for v in topo.nodes() {
            let deg = topo.degree(v) as u32;
            let row = self.cursor(v);
            // One sweep with the verdicts accumulated, so the common slot
            // costs no branch. Sorted rows put the largest source last:
            // one range check after the sweep covers the row.
            let (mut prev, mut sorted, mut placed) = (-1, true, true);
            let (mut ports_ok, mut on_ladder) = (true, true);
            for (i, slot) in row.slots() {
                sorted &= prev < i64::from(slot.src);
                prev = i64::from(slot.src);
                if let Form::Keyed(fit) = row.form {
                    placed &= fit
                        .window(slot.src, row.row_len)
                        .contains(&(i - row.row_start));
                }
                let mut f = l.split(slot.word);
                if l.marked(f) {
                    match self.wide(i) {
                        Some(wide) => (f.hops, f.port) = wide,
                        None if slot.word == all && matches!(row.form, Form::Direct(_)) => continue,
                        None => {
                            return Err(invalid_data(format!("flat route {i} lost its escape")))
                        }
                    }
                    marked += 1;
                }
                // Rungs are positive, so `0` stands for a level off the ladder.
                let (hops, rung) = (u64::from(f.hops), rungs.get(f.level as usize).copied());
                let rung = rung.unwrap_or(0);
                ports_ok &= f.port < deg;
                on_ladder &= rung > 0 && hops <= horizon && hops.checked_mul(rung).is_some();
                on_ladder &= slot.word <= all;
            }
            let fault = if !sorted {
                "is not sorted by source"
            } else if !placed {
                "has an entry outside the window its fit predicts"
            } else if prev >= keys as i64 {
                "has a source key out of range"
            } else if !ports_ok {
                "has a port at or above the node's degree"
            } else if !on_ladder {
                "has a word off the ladder (bits past its fields, level past the rungs or hops past h′)"
            } else {
                continue;
            };
            return Err(invalid_data(format!("flat route row of {v} {fault}")));
        }
        if marked != self.wide_idx.len() {
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

/// Branchless key scan over keyed records of `R` bytes: compares each
/// record's leading `K`-byte source key and keeps the last hit's index — row
/// keys are unique (strictly sorted), so "last" and "first" coincide on
/// valid data. The loop has no early exit and no data-dependent branch,
/// so LLVM unrolls and vectorizes it (the workspace forbids `unsafe`, so
/// this shape — not intrinsics — is the whole trick).
#[inline]
fn scan_keys<const R: usize, const K: usize>(recs: &[u8], key: u32) -> Option<usize> {
    let mut hit = usize::MAX;
    for (i, rec) in recs.chunks_exact(R).enumerate() {
        hit = if key_at(rec, K) == key { i } else { hit };
    }
    (hit != usize::MAX).then_some(hit)
}

/// Binary search for `key` over keyed records of `width` bytes with
/// `kb`-byte keys — what a probe falls back to when its window is too
/// wide to sweep (so clustered ids cost `O(log)` instead of a long scan),
/// or its records have no swept width.
#[cold]
fn search_keys(recs: &[u8], (width, kb): (usize, usize), key: u32) -> Option<usize> {
    let (mut lo, mut hi) = (0, recs.len() / width);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match key_at(&recs[mid * width..], kb).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(mid),
        }
    }
    None
}

/// Resolved per-row lookup state for [`FlatTables`]: the CSR start, slot
/// count, records and form of one node's row, captured once by
/// [`FlatTables::cursor`] so a source-grouped batch re-reads none of it
/// per query.
#[derive(Clone, Copy, Debug)]
pub struct RowCursor<'a> {
    tab: &'a FlatTables,
    row_start: usize,
    row_len: usize,
    /// The record section from the row's first record on.
    recs: &'a [u8],
    form: Form,
}

impl<'a> RowCursor<'a> {
    /// `(arena index, slot)` of the row's slot `j`, read straight off its
    /// record (see [`Form::slot`]).
    #[inline(always)]
    fn slot(self, j: usize) -> (usize, Slot) {
        let slot = self.form.slot(self.recs, self.tab.layout, j);
        (self.row_start + j, slot)
    }

    /// [`RowCursor::slot`] of each of the row's slots, absent ones
    /// included.
    #[inline]
    fn slots(self) -> impl Iterator<Item = (usize, Slot)> + 'a {
        (0..self.row_len).map(move |j| self.slot(j))
    }

    /// Locates source `s` in the cursor's row: `(arena index, slot)`.
    ///
    /// The node id becomes its key first (a load from the ranks section
    /// in a mapped table; a non-member is a miss). A direct row then
    /// takes one bounds check and one load. Small keyed rows
    /// take one branchless sweep of the whole row; larger ones take one
    /// multiply and the same sweep over the window the fit predicts — no
    /// load depends on another until the records themselves. The window
    /// is clamped to the row: the arena checksum owns integrity and
    /// [`FlatTables::validate`] the fit, and a fit that is wrong anyway
    /// answers with a miss, never a panic.
    #[inline(always)]
    fn find(&self, s: NodeId) -> Option<(usize, Slot)> {
        let key = self.tab.key_of(s)?;
        let fit = match self.form {
            Form::Direct(lo) => {
                let j = key.wrapping_sub(lo) as usize;
                return (j < self.row_len).then(|| self.slot(j));
            }
            Form::Keyed(fit) => fit,
        };
        let window = if self.row_len <= SMALL_ROW_SCAN {
            0..self.row_len
        } else {
            fit.window(key, self.row_len)
        };
        let shape = (self.tab.layout.width(true), self.tab.layout.kb as usize);
        let recs = &self.recs[window.start * shape.0..window.end * shape.0];
        let j = match shape {
            _ if window.len() > WIDE_WINDOW => search_keys(recs, shape, key),
            (3, 1) => scan_keys::<3, 1>(recs, key),
            (6, 4) => scan_keys::<6, 4>(recs, key),
            (8, 4) => scan_keys::<8, 4>(recs, key),
            _ => search_keys(recs, shape, key),
        }?;
        Some(self.slot(window.start + j))
    }

    /// Point lookup within the cursor's row (same answers as
    /// [`FlatTables::get`] on the same row, by construction).
    #[inline]
    pub fn get(&self, s: NodeId) -> Option<FlatEntry> {
        let (i, slot) = self.find(s)?;
        self.tab.entry_of(i, slot, s.0)
    }

    /// [`RowCursor::get`] as the `(estimate, port, level)` that
    /// [`FlatTables::from_rows`] was given.
    #[inline]
    pub fn route(&self, s: NodeId) -> Option<RouteInfo> {
        let (i, slot) = self.find(s)?;
        let FlatEntry { est, port, .. } = self.tab.entry_of(i, slot, s.0)?;
        let level = self.tab.layout.split(slot.word).level;
        Some(RouteInfo { est, port, level })
    }

    /// The estimate for source `s`, if present: the matching word's hops
    /// times its rung, its port left packed (the escape section only on a
    /// hops marker).
    #[inline(always)]
    pub fn est(&self, s: NodeId) -> Option<u64> {
        let ((i, slot), l) = (self.find(s)?, self.tab.layout);
        let f = l.split(slot.word);
        let hops = match f.hops == l.markers().0 {
            true => self.tab.wide(i)?.0,
            false => f.hops,
        };
        u64::from(hops).checked_mul(*self.tab.ladder.get(1 + f.level as usize)?)
    }
}

/// Pre-resolves each slot's source through a [`graphs::DenseIndex`] and
/// decodes its estimate, so query loops read one arena-aligned side
/// table instead of probing the index and decoding a word per entry:
/// `(index, est)` per slot, with [`graphs::DenseIndex::NONE`] for a
/// non-member and `(NONE, INF)` for an absent slot.
pub fn resolve_entries(tables: &FlatTables, index: &graphs::DenseIndex) -> Vec<(u32, u64)> {
    let none = graphs::DenseIndex::NONE;
    (0..tables.len_nodes())
        .flat_map(|v| tables.cursor(NodeId::from_index(v)).slots())
        .map(|(i, slot)| {
            let id = tables.id_of(slot.src);
            match id.and_then(|src| tables.entry_of(i, slot, src)) {
                Some(e) => (index.get(NodeId(e.src)).map_or(none, |i| i as u32), e.est),
                None => (none, INF),
            }
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

    /// The test ladder: three rungs (two level bits, so level 3 is off
    /// it) under the widest horizon a table takes.
    const RUNGS: [u64; 3] = [1, 2, 3];
    const HORIZON: u64 = u32::MAX as u64;

    /// `hops` hops on rung `level`, through `port`, from `src`.
    fn route(src: u32, hops: u64, port: Port, level: u32) -> (NodeId, RouteInfo) {
        let est = hops * RUNGS[level as usize];
        (NodeId(src), RouteInfo { est, port, level })
    }

    fn flat(rows: &Rows) -> FlatTables {
        let entries = rows.iter().map(Vec::len).sum();
        FlatTables::from_rows(rows.len(), entries, (HORIZON, &RUNGS), |v, row| {
            row.extend_from_slice(&rows[v])
        })
    }

    #[test]
    fn flat_tables_look_up_sorted_rows() {
        // Ports below 2, hops below 11 and three rungs: 2 + 4 + 2 bits,
        // a 1-byte word, so two entries over a span of fifteen stay keyed
        // (15 direct bytes against 2 · 5 keyed).
        let ft = flat(&vec![vec![route(1, 7, 0, 2), route(15, 10, 1, 0)], vec![]]);
        assert_eq!(ft.len_nodes(), 2);
        assert_eq!(ft.len_entries(), 2);
        assert_eq!(
            ft.layout,
            Layout {
                lb: 2,
                hb: 4,
                pb: 2,
                kb: 4
            }
        );
        assert_eq!(sections_of(&ft)[1].len(), 2 * 5 + 7);
        let srcs: Vec<u32> = ft.row_iter(NodeId(0)).map(|e| e.src).collect();
        assert_eq!(srcs, [1, 15]);
        assert_eq!(ft.get(NodeId(0), NodeId(15)).unwrap().est, 10);
        assert!(ft.get(NodeId(0), NodeId(2)).is_none());
        assert_eq!(ft.est(NodeId(0), NodeId(1)), Some(21));
        assert_eq!(ft.est(NodeId(0), NodeId(2)), None);
        let ests: Vec<u64> = ft.row_iter(NodeId(0)).map(|e| e.est).collect();
        assert_eq!(ests, [21, 10]);
        assert_eq!(ft.row_range(NodeId(1)).len(), 0);
    }

    #[test]
    fn widths_follow_the_widest_hop_count_and_port() {
        // Two level bits; `(hops, port)` of the second entry beside
        // `(5, 0)`, and the word bytes and escapes that follow. The widest
        // fields fit 32 bits together up to 2²⁸ − 2 hops beside a 2-bit
        // port; past that each takes 15 of the 30 bits left by the level
        // and the values too wide for them escape.
        for (hops, port, bytes, escaped) in [
            (5, 2, 1, 0),
            (63, 2, 2, 0),
            (1 << 20, 2, 4, 0),
            ((1 << 28) - 2, 2, 4, 0),
            ((1 << 28) - 1, 2, 4, 1),
            (5, 1 << 16, 3, 0),
            (5, u32::MAX, 4, 1),
            (u64::from(u32::MAX), u32::MAX, 4, 1),
        ] {
            let ft = flat(&vec![vec![route(0, 5, 0, 1), route(9, hops, port, 2)]]);
            let at = format!("{hops} hops, port {port}");
            assert_eq!(
                (ft.layout.bytes(), ft.wide_idx.len()),
                (bytes, escaped),
                "{at}"
            );
            assert_eq!(ft.est(NodeId(0), NodeId(9)), Some(hops * 3), "{at}");
            let ports = ft.row_iter(NodeId(0)).map(|e| e.port);
            assert_eq!(ports.collect::<Vec<_>>(), [0, port], "{at}");
        }
    }

    #[test]
    #[should_panic(expected = "off the ladder")]
    fn routes_off_the_ladder_panic_in_the_constructor() {
        let (est, port, level) = (7, 0, 1);
        flat(&vec![vec![(NodeId(0), RouteInfo { est, port, level })]]);
    }

    /// One row per probe class, keyed rows first so they keep their
    /// fits: a small-row sweep, a few-record window (quadratic ids), a
    /// wide window (two distant clusters) and no usable fit (residuals
    /// past `i16`/`u16`) — the last two binary-searched — then a dense
    /// row, stored direct.
    fn shaped_tables() -> Rows {
        let row = |srcs: &mut dyn Iterator<Item = u32>| {
            srcs.map(|s| route(s, u64::from(s % 1000) + 1, s % 3, s % 3))
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
    /// row words, ladder, escape indices and values.
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
            for row in hostile[2].chunks_exact_mut(8).take(model.len() - 1) {
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

    /// Hops of the escaped entries in [`holed_rows`]: 30 bits, which do
    /// not fit one word beside two level bits and the rows' 2-bit ports,
    /// so hops and port get 15 of the 30 bits left each and these take
    /// the escape.
    const ESCAPED: u64 = (1 << 30) - 1;

    /// Three rows over 8 nodes: a direct row with a hole at source 3 and
    /// an escaped hop count at source 5, a keyed row after it, and a full
    /// direct row — 4-byte words `port << 17 | hops << 2 | level`, so a
    /// direct slot is 4 bytes.
    fn holed_rows() -> Rows {
        let hops = |s: u32| if s == 5 { ESCAPED } else { u64::from(s) + 1 };
        let mut rows: Rows = vec![Vec::new(); 8];
        rows[0] = [1, 2, 4, 5, 6]
            .map(|s| route(s, hops(s), s % 3, 0))
            .to_vec();
        rows[1] = [0, 7].map(|s| route(s, hops(s), s % 3, 0)).to_vec();
        rows[2] = (0..8).map(|s| route(s, hops(s), s % 3, 0)).collect();
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
        assert_eq!(
            ft.layout,
            Layout {
                lb: 2,
                hb: 15,
                pb: 15,
                kb: 1
            }
        );
        assert_eq!(ft.wide_idx.len(), 2);
        ft.validate(&k8()).unwrap();

        // One slot per source offset: the hole reads as a miss, the
        // escaped value comes back whole, `row_iter` skips the hole.
        let (v, row) = (NodeId(0), ft.row_range(NodeId(0)));
        assert_eq!(row, 0..6);
        let srcs: Vec<u32> = ft.row_iter(v).map(|e| e.src).collect();
        assert_eq!(srcs, [1, 2, 4, 5, 6]);
        assert_eq!(ft.get(v, NodeId(3)), None);
        assert_eq!(ft.est(v, NodeId(3)), None);
        assert_eq!(ft.est(v, NodeId(5)), Some(ESCAPED));
        assert_eq!(ft.get(v, NodeId(7)), None);

        // The resolved side table is per slot too, `(NONE, INF)` at the
        // hole, so it lines up with the arena.
        let members = [NodeId(2), NodeId(5), NodeId(7)];
        let resolved = resolve_entries(&ft, &graphs::DenseIndex::new(8, &members));
        let none = graphs::DenseIndex::NONE;
        let ests: Vec<u64> = resolved[row].iter().map(|r| r.1).collect();
        assert_eq!(ests, [2, 3, INF, 5, ESCAPED, 7]);
        let idx: Vec<u32> = resolved[..8].iter().map(|r| r.0).collect();
        assert_eq!(idx, [none, 0, none, none, 1, none, none, 2]);
        for v in (0..3).map(NodeId) {
            for &(i, est) in &resolved[ft.row_range(v)] {
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
        // Sections: starts, records, words, ladder, escape pair.
        let rows = holed_rows();
        let sections = sections_of(&flat(&rows));
        fn set_word(s: &mut [Vec<u8>], v: usize, word: u64) {
            s[2][8 * v..8 * v + 8].copy_from_slice(&word.to_le_bytes());
        }
        // The ladder section after its widths word.
        fn set_ladder(s: &mut [Vec<u8>], ladder: &[u64]) {
            s[3].truncate(8);
            s[3].extend(ladder.iter().flat_map(|w| w.to_le_bytes()));
        }
        fn set_widths(s: &mut [Vec<u8>], (lb, hb, pb): (u64, u64, u64)) {
            s[3][..8].copy_from_slice(&(pb | hb << 8 | lb << 16 | 1 << 24).to_le_bytes());
        }
        // Row 0's slot `j` is record bytes `4j..4j + 4`: the word
        // `port << 30 | hops << 2 | level`.
        fn set_code(s: &mut [Vec<u8>], j: usize, word: u32) {
            s[1][4 * j..4 * j + 4].copy_from_slice(&word.to_le_bytes());
        }
        // The hole of row 0 is slot 2; its escaped entry is slot 4. Each
        // case is refused by `read_arena` (`None`), or loads and then
        // fails `validate` (`Some(false)`) or passes it (`Some(true)`: a
        // record on an absent slot is a well-formed escaped entry, at
        // level 3 — on the ladder once it has four rungs).
        type Mutate = dyn Fn(&mut [Vec<u8>]);
        let cases: [(&str, Option<bool>, &Mutate); 23] = [
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
                set_code(s, 2, u32::MAX >> 2);
            }),
            (
                "absent slot with a non-marker hop count",
                Some(false),
                &|s| {
                    set_code(s, 2, u32::MAX - 4);
                },
            ),
            ("escape record on an absent slot", Some(true), &|s| {
                set_ladder(s, &[HORIZON, 1, 2, 3, 4]);
                s[4].splice(0..0, 2u32.to_le_bytes());
                s[5].splice(0..0, 3u64.to_le_bytes());
            }),
            (
                "escape record on an absent slot, level off",
                Some(false),
                &|s| {
                    s[4].splice(0..0, 2u32.to_le_bytes());
                    s[5].splice(0..0, 3u64.to_le_bytes());
                },
            ),
            ("level past the rungs", Some(false), &|s| {
                set_code(s, 0, 2 << 2 | 3)
            }),
            ("hops past h′", Some(false), &|s| {
                set_ladder(s, &[6, 1, 2, 3])
            }),
            ("empty ladder", None, &|s| set_ladder(s, &[HORIZON])),
            ("no ladder at all", None, &|s| set_ladder(s, &[])),
            ("no widths either", None, &|s| s[3].clear()),
            ("widths past 32 bits", None, &|s| set_widths(s, (2, 29, 2))),
            ("level field narrower than the rungs need", None, &|s| {
                set_widths(s, (1, 28, 2))
            }),
            ("widths of a 3-byte word over 4-byte records", None, &|s| {
                set_widths(s, (2, 20, 2))
            }),
            ("hops field of no bits", None, &|s| set_widths(s, (2, 0, 2))),
            ("tail padding missing", None, &|s| {
                s[1].truncate(s[1].len() - 4)
            }),
            ("tail padding not zero", None, &|s| {
                *s[1].last_mut().unwrap() = 1
            }),
            ("ladder not from 1", None, &|s| {
                set_ladder(s, &[HORIZON, 2, 3, 4])
            }),
            ("ladder not increasing", None, &|s| {
                set_ladder(s, &[HORIZON, 1, 3, 3])
            }),
            ("h′ past u32", None, &|s| {
                set_ladder(s, &[HORIZON + 1, 1, 2, 3])
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
                let stored: Vec<u64> = row.iter().map(|r| r.1.est).chain([12]).collect();
                for s in (0..16).chain([u32::MAX]).map(NodeId) {
                    let got = loaded.get(v, s);
                    assert_eq!(loaded.est(v, s), got.map(|e| e.est), "{what}: ({v}, {s})");
                    assert!(
                        got.is_none_or(|e| stored.contains(&e.est)),
                        "{what}: ({v}, {s}) answered {got:?}"
                    );
                }
                let _ = loaded.row_iter(v).count() + loaded.row_routes(v).count();
            }
        }
    }

    /// Eight rows naming sources 1, 3, 4 and 6 of 8 nodes: a proper
    /// subset, so the table keys rows by rank `0..4`. Row 0 holds every
    /// member, row 1 members 1 and 6 (ranks 0 and 3), row 2 none.
    fn mapped_rows() -> Rows {
        let mut rows: Rows = vec![Vec::new(); 8];
        rows[0] = [1, 3, 4, 6]
            .map(|s| route(s, u64::from(s), s % 3, 0))
            .to_vec();
        rows[1] = [1, 6].map(|s| route(s, 2, 1, 1)).to_vec();
        rows
    }

    #[test]
    fn rows_naming_a_subset_are_keyed_by_rank() {
        let rows = mapped_rows();
        let ft = flat(&rows);
        assert_eq!(ft.members.to_vec(), [1, 3, 4, 6]);
        let none = 0xFF;
        let ranks: Vec<u64> = ft.ranks.iter().collect();
        assert_eq!(ranks, [none, 0, none, 1, 2, none, 3, none]);
        // Row 0 spans ranks 0..=3 and row 1 ranks 0..=3 with two holes:
        // both direct, at one slot per rank.
        assert_eq!(form_of(&ft, 0), (Form::Direct(0), 0));
        assert_eq!(form_of(&ft, 1), (Form::Direct(0), 4));
        assert_eq!(ft.len_entries(), 8);
        ft.validate(&k8()).unwrap();
        for (v, want) in rows.iter().enumerate() {
            let v = NodeId::from_index(v);
            let got: Vec<_> = ft.row_routes(v).collect();
            assert_eq!(&got, want, "row {v}");
            for s in (0..10).chain([u32::MAX]).map(NodeId) {
                let want = want.iter().find(|r| r.0 == s).map(|r| r.1.est);
                assert_eq!(ft.est(v, s), want, "({v}, {s})");
                assert_eq!(ft.get(v, s).map(|e| (e.src, e.est)), want.map(|e| (s.0, e)));
            }
        }
        let index = graphs::DenseIndex::new(8, &[NodeId(6), NodeId(3)]);
        let resolved = resolve_entries(&ft, &index);
        let idx: Vec<u32> = resolved[4..8].iter().map(|r| r.0).collect();
        let none = graphs::DenseIndex::NONE;
        assert_eq!(idx, [none, none, none, 0]);
        // Rows naming every node keep node ids as keys: no map.
        let full = flat(&holed_rows());
        assert!(full.members.is_empty() && full.ranks.is_empty());
    }

    #[test]
    fn hostile_maps_are_refused_or_answer_with_a_miss_never_a_panic() {
        // Sections: starts, records, words, ladder, escape pair, then
        // members and ranks (one byte each: four members and the 0xFF
        // sentinel fit it). Each case is refused by `read_arena`
        // (`None`), or loads and fails `validate` (`Some(false)`); either
        // way no probe of a loaded table panics.
        let rows = mapped_rows();
        let sections = sections_of(&flat(&rows));
        fn u32s(xs: &[u32]) -> Vec<u8> {
            xs.iter().flat_map(|x| x.to_le_bytes()).collect()
        }
        type Mutate = dyn Fn(&mut [Vec<u8>]);
        let cases: [(&str, Option<bool>, &Mutate); 12] = [
            ("members out of order", Some(false), &|s| {
                s[6] = u32s(&[1, 4, 3, 6]);
                s[7] = vec![!0, 0, !0, 2, 1, !0, 3, !0];
            }),
            ("member past n", Some(false), &|s| {
                s[6] = u32s(&[1, 3, 4, 8])
            }),
            ("rank past the members", Some(false), &|s| {
                s[7] = vec![!0, 0, !0, 1, 2, !0, 9, !0];
            }),
            ("a non-member ranked", Some(false), &|s| {
                s[7] = vec![3, 0, !0, 1, 2, !0, 3, !0];
            }),
            ("keys past the members", Some(false), &|s| s[6].truncate(8)),
            ("no map under rank keys", Some(true), &|s| {
                s[6].clear();
                s[7].clear();
            }),
            ("ranks one node short", None, &|s| s[7].truncate(7)),
            ("ranks wider than the members need", None, &|s| {
                s[7] = s[7].iter().flat_map(|&r| [r, 0]).collect();
            }),
            ("2-byte keys for four members", Some(false), &|s| {
                s[3][3] = 2
            }),
            ("keys of no width", None, &|s| s[3][3] = 0),
            ("ranks without any member", Some(false), &|s| {
                s[6].clear();
            }),
            ("as many members as nodes", None, &|s| {
                s[6] = u32s(&[0, 1, 2, 3, 4, 5, 6, 7]);
                s[7] = vec![0, 1, 2, 3, 4, 5, 6, 7];
            }),
        ];
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
            assert_eq!(Some(loaded.validate(&k8()).is_ok()), valid, "{what}");
            for v in (0..8).map(NodeId) {
                for s in (0..10).chain([u32::MAX]).map(NodeId) {
                    let got = loaded.get(v, s);
                    assert_eq!(loaded.est(v, s), got.map(|e| e.est), "{what}: ({v}, {s})");
                }
                let _ = loaded.row_iter(v).count() + loaded.row_routes(v).count();
            }
        }
    }

    /// A path over `n` nodes: port 0 is valid at every node.
    fn path(n: usize) -> Topology {
        let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (v - 1, v, 1)).collect();
        graphs::WGraph::from_edges(n, &edges).unwrap().to_topology()
    }

    /// Round trips at the key widths' boundaries — 1, 255, 256, 257,
    /// 65 535, 65 536 and 65 537 keys — as node ids (`count` nodes, each
    /// named) and as ranks (members skipping every third id, so the last
    /// node is never named), with and without an escaped hop count. Row 0
    /// holds every key (direct), row 1 every seventh and the last (keyed
    /// past seven keys), row 2 the last key with the escape case's hop
    /// count and row 3 keys 0, 1, 2 and 4 (direct, with a hole).
    #[test]
    fn key_widths_round_trip_at_their_boundaries() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for count in [1usize, 255, 256, 257, 65_535, 65_536, 65_537] {
            for (mapped, escape) in cases {
                let at = format!("{count} keys, mapped {mapped}, escape {escape}");
                let id = |k: usize| (if mapped { k + k / 2 } else { k }) as u32;
                let n = if mapped {
                    id(count - 1) as usize + 2
                } else {
                    count
                };
                let entry = |k: usize| route(id(k), (k % 13) as u64 + 1, 0, k as u32 % 3);
                let mut rows: Rows = vec![Vec::new(); n];
                rows[0] = (0..count).map(entry).collect();
                if n > 1 {
                    let sparse = (0..count).filter(|k| k % 7 == 0 || k + 1 == count);
                    rows[1] = sparse.map(entry).collect();
                }
                if n > 2 {
                    let hops = if escape { HORIZON } else { 5 };
                    rows[2] = vec![route(id(count - 1), hops, 0, 0)];
                }
                if n > 3 && count > 4 {
                    rows[3] = [0, 1, 2, 4].map(entry).to_vec();
                }
                let ft = flat(&rows);
                let kb = match count {
                    ..=256 => 1,
                    257..=65_536 => 2,
                    _ => 4,
                };
                assert_eq!(ft.layout.kb, kb, "{at}");
                assert_eq!(ft.ranks.len(), if mapped { n } else { 0 }, "{at}");
                if mapped {
                    let rb = ft.ranks.as_bytes().len() / n;
                    assert_eq!(rb, width_for(count as u64), "{at}");
                }
                assert_eq!(!ft.wide_idx.is_empty(), escape && n > 2, "{at}");
                assert_eq!(form_of(&ft, 0).0, Form::Direct(0), "{at}");
                if count > 7 {
                    assert!(matches!(form_of(&ft, 1).0, Form::Keyed(_)), "{at}");
                }
                if n > 3 && count > 4 {
                    assert_eq!(form_of(&ft, 3).0, Form::Direct(0), "{at}");
                }

                // write → read → validate → write is a byte passthrough. A
                // 1-node graph has no port to route through, so the one
                // table over it skips `validate`.
                let sections = sections_of(&ft);
                let loaded = reload(&sections).unwrap();
                if n > 1 {
                    loaded.validate(&path(n)).unwrap();
                }
                assert_eq!(sections_of(&loaded), sections, "{at}");
                assert_eq!(loaded, ft, "{at}");
                let misses = [n as u32, u32::MAX]
                    .into_iter()
                    .chain(mapped.then(|| n as u32 - 1));
                let misses: Vec<NodeId> = misses.map(NodeId).collect();
                for t in [&ft, &loaded] {
                    let mut rest = (4..n).map(NodeId::from_index);
                    assert!(rest.all(|v| t.row_range(v).is_empty()), "{at}");
                    for (v, want) in rows.iter().enumerate().take(4) {
                        let v = NodeId::from_index(v);
                        assert!(t.row_routes(v).eq(want.iter().copied()), "{at}: row {v}");
                        let srcs = want.iter().map(|r| r.0 .0);
                        assert!(t.row_iter(v).map(|e| e.src).eq(srcs), "{at}: row {v}");
                        // Every key of a short row, about 1 000 of a long one.
                        let step = want.len() / 1024 + 1;
                        for &(s, r) in want.iter().step_by(step).chain(want.last()) {
                            let got = t.get(v, s).map(|e| (e.src, e.est, e.port));
                            assert_eq!(got, Some((s.0, r.est, r.port)), "{at}: ({v}, {s})");
                            assert_eq!(t.est(v, s), Some(r.est), "{at}: ({v}, {s})");
                        }
                        for &s in &misses {
                            assert_eq!((t.get(v, s), t.est(v, s)), (None, None), "{at}: {s}");
                        }
                    }
                }
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
