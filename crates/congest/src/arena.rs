//! Aligned, checksummed section containers: the body of every oracle
//! snapshot.
//!
//! An **arena** lays a scheme's tables out as a flat *directory of
//! sections*:
//!
//! ```text
//! ┌──────────────┬──────────────────────────┬───────────────┬──────────┐
//! │ count: u64   │ directory: count ×       │ body: packed  │ checksum │
//! │              │   (offset: u64, len: u64)│ 8-aligned     │ u64      │
//! │              │                          │ sections      │          │
//! └──────────────┴──────────────────────────┴───────────────┴──────────┘
//! ```
//!
//! * every section offset is a multiple of 8 **relative to the body
//!   start**, and the body itself starts at a multiple of 8 from the
//!   container start (8 + 16·count), so an arena loaded at an 8-aligned
//!   address has every `u64` table 8-aligned;
//! * offsets and lengths are validated with checked arithmetic against
//!   the actual buffer before any section is handed out — a corrupted
//!   directory yields `InvalidData`, never an out-of-bounds panic;
//! * the trailing checksum (an 8-lane word-folding hash, see
//!   [`Digest`]) covers the count, directory and body, so bit rot is
//!   detected up front in one streaming pass at memory speed instead of
//!   piecemeal by shape checks.
//!
//! The container is parsed **without copying the body**: the caller hands
//! [`ArenaReader::parse`] a [`SharedBytes`] (a reference-counted byte
//! buffer), and every section comes back as a sub-range of that same
//! allocation. Bulk tables stay in place behind the typed accessors
//! [`U64View`] / [`U32View`] — `get(i)` decodes one little-endian word on
//! demand — so loading an arena costs one checksum pass plus O(sections)
//! directory work, not a copy of the payload and not one `read_exact`
//! per table element.
//!
//! Readers consume sections *in writer order* through an [`ArenaCursor`];
//! zero-copy views come from [`ArenaCursor::u64v`] /
//! [`ArenaCursor::u32v`] / [`ArenaCursor::shared`] (and [`UintView`]
//! over the latter for a narrow section), eager decodes from
//! [`ArenaCursor::u64s`] / [`ArenaCursor::u32s`] (a `chunks_exact` loop
//! the compiler turns into a straight copy), and small heterogeneous
//! metadata rides along as an embedded [`crate::wire`] stream via
//! [`ArenaWriter::stream`] / [`ArenaCursor::bytes`].
//!
//! Truncated containers (buffer shorter than the directory promises) are
//! reported as the typed [`crate::wire::SnapshotError::Truncated`] wrapped
//! in `InvalidData`, exactly like a premature EOF in a wire stream.

use crate::wire::{invalid_data, truncated};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// Multiplier of the word-folding checksum (the `FxHasher` constant; see
/// [`crate::fxhash`]).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Streaming 8-lane word-folding digest over little-endian `u64` words.
///
/// Each word is folded into one of eight independent accumulator lanes
/// (`rotate ⊕ word, × K` — the `FxHasher` step), so the hot loop carries
/// eight independent dependency chains and runs at memory speed; the
/// lanes and total length are folded together in [`Digest::finish`].
/// When an update starts on a lane boundary (which one whole-container
/// checksum pass always does), words are consumed in unrolled 64-byte
/// blocks. This is an *integrity* checksum for storage bit rot, not a
/// cryptographic MAC.
#[derive(Debug)]
pub struct Digest {
    lanes: [u64; 8],
    words: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        let mut lanes = [0u64; 8];
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = K.rotate_left(8 * j as u32);
        }
        Digest { lanes, words: 0 }
    }

    /// Folds `bytes` into the digest. `bytes.len()` must be a multiple
    /// of 8 (arena streams are always 8-padded).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() % 8 != 0` (an internal invariant of the
    /// arena layout, not reachable from untrusted input).
    pub fn update(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len() % 8, 0, "digest input must be word-aligned");
        let mut i = (self.words % 8) as usize;
        self.words += (bytes.len() / 8) as u64;
        let mut rest = bytes;
        if i == 0 {
            // Lane-aligned entry: word j of each 64-byte block always
            // lands in lane j, so the rotation of the lane index unrolls
            // away entirely.
            let blocks = rest.chunks_exact(64);
            rest = blocks.remainder();
            for block in blocks {
                for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                    let w = u64::from_le_bytes(w.try_into().expect("8-byte word"));
                    *lane = (lane.rotate_left(5) ^ w).wrapping_mul(K);
                }
            }
        }
        for chunk in rest.chunks_exact(8) {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte word"));
            self.lanes[i] = (self.lanes[i].rotate_left(5) ^ w).wrapping_mul(K);
            i = (i + 1) & 7;
        }
    }

    /// Folds the lanes and length into the final 64-bit checksum.
    pub fn finish(&self) -> u64 {
        let mut h = self.words.wrapping_mul(K);
        for &l in &self.lanes {
            h = (h.rotate_left(5) ^ l).wrapping_mul(K);
        }
        h
    }
}

/// One-shot [`Digest`] over a word-aligned byte slice.
fn checksum(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

/// A cheaply-cloneable sub-range of a reference-counted byte buffer.
///
/// This is the currency of the zero-copy load path: one `Arc<Vec<u8>>`
/// holds the whole snapshot, and every arena section, table view and
/// installed oracle shares it. [`SharedBytes::slice`] adjusts offsets
/// without touching the bytes; the allocation is freed when the last
/// holder drops.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl SharedBytes {
    /// Wraps an owned buffer (the only copy-free entry point).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        let len = buf.len();
        SharedBytes {
            buf: Arc::new(buf),
            off: 0,
            len,
        }
    }

    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `range` (relative to this view), sharing the same
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics when `range` exceeds the view, exactly like slice indexing.
    pub fn slice(&self, range: Range<usize>) -> SharedBytes {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "SharedBytes::slice out of range"
        );
        SharedBytes {
            buf: Arc::clone(&self.buf),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Copies the viewed bytes out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for SharedBytes {
    fn default() -> Self {
        SharedBytes::from_vec(Vec::new())
    }
}

impl std::fmt::Debug for SharedBytes {
    /// Compact on purpose: a derived `Debug` would dump the entire
    /// (possibly hundreds of MB) backing buffer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBytes {{ off: {}, len: {} }}", self.off, self.len)
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

/// A little-endian word a [`WordView`] decodes: `u32` or `u64`.
pub trait Word: Copy {
    /// Bytes of one word.
    const BYTES: usize;
    /// The word `b` holds (exactly [`Word::BYTES`] bytes).
    fn from_le(b: &[u8]) -> Self;
    /// Appends the word's bytes to `out`.
    fn put_le(self, out: &mut Vec<u8>);
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn from_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("one whole word"))
            }
            fn put_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
word!(u32, u64);

/// Zero-copy view of a section of little-endian words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WordView<T>(SharedBytes, PhantomData<T>);

/// Zero-copy view of a section of little-endian `u64`s.
pub type U64View = WordView<u64>;
/// Zero-copy view of a section of little-endian `u32`s.
pub type U32View = WordView<u32>;

impl<T: Word> WordView<T> {
    /// Wraps `bytes` as a word table.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the byte length is not a multiple of a word's.
    pub fn new(bytes: SharedBytes) -> io::Result<Self> {
        if !bytes.len().is_multiple_of(T::BYTES) {
            let (len, word) = (bytes.len(), T::BYTES);
            return Err(invalid_data(format!("{len} bytes of {word}-byte words")));
        }
        Ok(WordView(bytes, PhantomData))
    }

    /// Encodes `xs` into a fresh owned view (the build-side constructor).
    pub fn from_vals(xs: &[T]) -> Self {
        let mut buf = Vec::with_capacity(xs.len() * T::BYTES);
        for &x in xs {
            x.put_le(&mut buf);
        }
        WordView(SharedBytes::from_vec(buf), PhantomData)
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.0.len() / T::BYTES
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Decodes word `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds, exactly like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::from_le(&self.0.as_slice()[i * T::BYTES..(i + 1) * T::BYTES])
    }

    /// Iterates all words in order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.0.as_slice().chunks_exact(T::BYTES).map(T::from_le)
    }

    /// Decodes the whole table into a `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// The backing bytes (for re-serialization).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }
}

/// Bytes of the narrowest of 1, 2, 4 and 8 that holds `max`: the width
/// every narrow section derives from its own data.
pub fn width_for(max: u64) -> usize {
    match max {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

/// The little-endian unsigned integer in `b` (at most 8 bytes).
#[inline(always)]
fn uint_le(b: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..b.len()].copy_from_slice(b);
    u64::from_le_bytes(word)
}

/// Zero-copy view of a section of little-endian unsigned integers of one
/// width (1, 2, 4 or 8 bytes; its writer derives it with [`width_for`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UintView {
    bytes: SharedBytes,
    width: usize,
}

impl UintView {
    /// Wraps `bytes` as a table of `width`-byte integers.
    ///
    /// # Errors
    ///
    /// `InvalidData` when `width` is not 1, 2, 4 or 8, or the byte length
    /// is not a multiple of it.
    pub fn new(bytes: SharedBytes, width: usize) -> io::Result<Self> {
        if !matches!(width, 1 | 2 | 4 | 8) || !bytes.len().is_multiple_of(width) {
            let len = bytes.len();
            return Err(invalid_data(format!(
                "{len} bytes of {width}-byte integers"
            )));
        }
        Ok(UintView { bytes, width })
    }

    /// Encodes `xs` at `width` bytes each (the build-side constructor).
    ///
    /// # Panics
    ///
    /// Panics when a value does not fit `width` bytes.
    pub fn from_vals(xs: impl IntoIterator<Item = u64>, width: usize) -> Self {
        let mut buf = Vec::new();
        for x in xs {
            assert!(width_for(x) <= width, "{x} does not fit {width} bytes");
            buf.extend_from_slice(&x.to_le_bytes()[..width]);
        }
        UintView::new(SharedBytes::from_vec(buf), width).expect("a valid width")
    }

    /// Number of integers.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The width's all-ones value (a table's natural sentinel).
    pub fn ones(&self) -> u64 {
        u64::MAX >> (64 - 8 * self.width)
    }

    /// Decodes integer `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds, exactly like slice indexing.
    #[inline(always)]
    pub fn get(&self, i: usize) -> u64 {
        let b = self.bytes.as_slice();
        match self.width {
            1 => u64::from(b[i]),
            2 => uint_le(&b[2 * i..][..2]),
            4 => uint_le(&b[4 * i..][..4]),
            _ => uint_le(&b[8 * i..][..8]),
        }
    }

    /// Iterates all integers in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.bytes.as_slice().chunks_exact(self.width).map(uint_le)
    }

    /// The backing bytes (for re-serialization).
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }
}

/// Writes an undirected edge list `(a, b, weight)` over `n` nodes, the
/// one graph codec every artifact shares: a `[n]` section, then the
/// endpoints at the width that holds `n − 1` and the weights at the width
/// that holds the largest ([`width_for`] both).
pub fn write_edges(a: &mut ArenaWriter, n: usize, edges: &[(u32, u32, u64)]) {
    a.u64s(&[n as u64]);
    let ends = edges.iter().flat_map(|&(a, b, _)| [a, b].map(u64::from));
    let weights = edges.iter().map(|e| e.2);
    let wb = width_for(weights.clone().max().unwrap_or(0));
    a.section(UintView::from_vals(ends, width_for(n.saturating_sub(1) as u64)).as_bytes());
    a.section(UintView::from_vals(weights, wb).as_bytes());
}

/// A node count and an undirected edge list `(a, b, weight)` over it.
pub type EdgeList = (usize, Vec<(u32, u32, u64)>);

/// Reads what [`write_edges`] wrote, for the caller to validate as a
/// graph: `n` fixes the endpoint width, the endpoints the edge count, and
/// the weights must sit at the width their largest needs.
///
/// # Errors
///
/// `InvalidData` on a misshapen meta section, `n` past
/// [`crate::wire::MAX_SNAPSHOT_NODES`], section lengths that disagree
/// with their widths, or weights wider than their largest needs.
pub fn read_edges(c: &mut ArenaCursor<'_>) -> io::Result<EdgeList> {
    let n = match c.u64s()?[..] {
        [n] if n <= crate::wire::MAX_SNAPSHOT_NODES as u64 => n as usize,
        _ => return Err(invalid_data("edge list meta section misshapen")),
    };
    let ends = UintView::new(c.shared()?, width_for(n.saturating_sub(1) as u64))?;
    let (weights, m) = (c.shared()?, ends.len() / 2);
    let wb = weights.len().checked_div(m).unwrap_or(1);
    let weights = UintView::new(weights, wb).ok();
    let weights = weights
        .filter(|w| ends.len() == 2 * m && w.len() == m)
        .ok_or_else(|| invalid_data("edge list sections disagree on length"))?;
    if m > 0 && width_for(weights.iter().max().unwrap_or(0)) != wb {
        return Err(invalid_data(format!(
            "edge weights wider than their largest needs ({wb} bytes)"
        )));
    }
    let ends: Vec<u64> = ends.iter().collect();
    let edges = ends.chunks_exact(2).zip(weights.iter());
    Ok((
        n,
        edges
            .map(|(ab, w)| (ab[0] as u32, ab[1] as u32, w))
            .collect(),
    ))
}

/// Builds an arena: append sections, then [`ArenaWriter::finish`] into
/// any sink. A [`ArenaWriter::counting`] writer runs the same calls but
/// keeps only the lengths, so the serialized size of an artifact is
/// known without materializing it.
#[derive(Debug, Default)]
pub struct ArenaWriter {
    dir: Vec<(u64, u64)>,
    /// The sections so far, each 8-aligned; stays empty when counting.
    body: Vec<u8>,
    /// Body length so far (`body.len()` unless counting).
    len: usize,
    counting: bool,
}

impl ArenaWriter {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A length-only arena: sections are measured, not buffered, and
    /// only [`ArenaWriter::finished_len`] is meaningful afterwards.
    pub fn counting() -> Self {
        ArenaWriter {
            counting: true,
            ..Self::default()
        }
    }

    /// Opens the next section (8-aligned in the body) of `len` bytes;
    /// `true` when the caller must now append exactly those bytes.
    fn open(&mut self, len: usize) -> bool {
        let at = self.len.next_multiple_of(8);
        self.dir.push((at as u64, len as u64));
        self.len = at + len;
        if !self.counting {
            self.body.resize(at, 0);
            self.body.reserve(len);
        }
        !self.counting
    }

    /// Appends `bytes` as the next section.
    pub fn section(&mut self, bytes: &[u8]) {
        if self.open(bytes.len()) {
            self.body.extend_from_slice(bytes);
        }
    }

    /// Appends a section of little-endian `u64`s.
    pub fn u64s(&mut self, xs: &[u64]) {
        if self.open(xs.len() * 8) {
            for x in xs {
                self.body.extend_from_slice(&x.to_le_bytes());
            }
        }
    }

    /// Appends a section of little-endian `u32`s.
    pub fn u32s(&mut self, xs: &[u32]) {
        if self.open(xs.len() * 4) {
            for x in xs {
                self.body.extend_from_slice(&x.to_le_bytes());
            }
        }
    }

    /// Appends a section produced by a [`crate::wire`]-style writer
    /// closure — the escape hatch for small heterogeneous metadata
    /// (labels, metrics, scalars) that does not merit a typed layout.
    ///
    /// # Errors
    ///
    /// Propagates errors from the closure (writes into a `Vec` cannot
    /// themselves fail).
    pub fn stream(&mut self, f: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> io::Result<()> {
        let mut buf = Vec::new();
        f(&mut buf)?;
        self.section(&buf);
        Ok(())
    }

    /// Serialized size of the finished container in bytes.
    pub fn finished_len(&self) -> usize {
        8 + 16 * self.dir.len() + self.len.next_multiple_of(8) + 8
    }

    /// Writes the container: count, directory, padded body, checksum.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    ///
    /// # Panics
    ///
    /// Panics on a [`ArenaWriter::counting`] writer, which has no body
    /// to write.
    pub fn finish(&self, sink: &mut dyn Write) -> io::Result<()> {
        assert!(!self.counting, "a counting arena has no body to write");
        let mut head = Vec::with_capacity(8 + 16 * self.dir.len());
        head.extend_from_slice(&(self.dir.len() as u64).to_le_bytes());
        for &(off, len) in &self.dir {
            head.extend_from_slice(&off.to_le_bytes());
            head.extend_from_slice(&len.to_le_bytes());
        }
        let full = self.body.len() / 8 * 8;
        let rem = self.body.len() - full;
        let mut tail = [0u8; 8];
        tail[..rem].copy_from_slice(&self.body[full..]);
        let pad: &[u8] = if rem == 0 { &[] } else { &tail[rem..] };
        let mut d = Digest::new();
        d.update(&head);
        d.update(&self.body[..full]);
        if rem != 0 {
            d.update(&tail);
        }
        sink.write_all(&head)?;
        sink.write_all(&self.body)?;
        sink.write_all(pad)?;
        sink.write_all(&d.finish().to_le_bytes())?;
        Ok(())
    }
}

/// Parsed arena container: validates the directory and checksum once,
/// then hands out sections as slices or zero-copy [`SharedBytes`]
/// sub-views of the buffer it owns.
#[derive(Debug)]
pub struct ArenaReader {
    dir: Vec<(usize, usize)>,
    body: SharedBytes,
}

impl ArenaReader {
    /// Parses and validates `bytes` as one whole arena container.
    ///
    /// # Errors
    ///
    /// `InvalidData` wrapping [`crate::wire::SnapshotError::Truncated`]
    /// when the buffer is shorter than the directory promises, plain
    /// `InvalidData` on a checksum mismatch or a malformed directory.
    pub fn parse(bytes: SharedBytes) -> io::Result<Self> {
        let buf = bytes.as_slice();
        if buf.len() < 16 {
            return Err(truncated());
        }
        let count = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
        let count = usize::try_from(count).map_err(|_| invalid_data("arena section count"))?;
        let dir_bytes = count
            .checked_mul(16)
            .and_then(|d| d.checked_add(16))
            .ok_or_else(|| invalid_data("arena directory size overflow"))?;
        if buf.len() < dir_bytes {
            return Err(truncated());
        }
        // The writer only ever emits whole words, so a container cut at a
        // non-word boundary is a short read, not corruption.
        if !buf.len().is_multiple_of(8) {
            return Err(truncated());
        }
        let body_len = buf.len() - 8 - (dir_bytes - 8);
        let mut dir = Vec::with_capacity(crate::wire::clamped_capacity(count));
        for i in 0..count {
            let at = 8 + 16 * i;
            let off = u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(buf[at + 8..at + 16].try_into().expect("8 bytes"));
            let off = usize::try_from(off).map_err(|_| invalid_data("arena offset"))?;
            let len = usize::try_from(len).map_err(|_| invalid_data("arena length"))?;
            if off % 8 != 0 {
                return Err(invalid_data("unaligned arena section"));
            }
            let end = off
                .checked_add(len)
                .ok_or_else(|| invalid_data("arena section end overflow"))?;
            if end > body_len {
                // The directory promises more bytes than are present —
                // the signature of a container with its tail cut off.
                // (A *tampered* directory also lands here only by
                // re-checksumming; untampered bit damage is caught below.)
                return Err(truncated());
            }
            dir.push((off, len));
        }
        let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
        if checksum(&buf[..buf.len() - 8]) != stored {
            return Err(invalid_data("arena checksum mismatch"));
        }
        let body = bytes.slice(dir_bytes - 8..bytes.len() - 8);
        Ok(ArenaReader { dir, body })
    }

    /// Number of sections.
    pub fn sections(&self) -> usize {
        self.dir.len()
    }

    /// Borrows section `i`.
    ///
    /// # Errors
    ///
    /// `InvalidData` when `i` is out of range (a codec consuming more
    /// sections than the container carries).
    pub fn section(&self, i: usize) -> io::Result<&[u8]> {
        let &(off, len) = self
            .dir
            .get(i)
            .ok_or_else(|| invalid_data("arena section index out of range"))?;
        Ok(&self.body.as_slice()[off..off + len])
    }

    /// Section `i` as a zero-copy sub-view of the container buffer.
    ///
    /// # Errors
    ///
    /// `InvalidData` when `i` is out of range.
    pub fn shared_section(&self, i: usize) -> io::Result<SharedBytes> {
        let &(off, len) = self
            .dir
            .get(i)
            .ok_or_else(|| invalid_data("arena section index out of range"))?;
        Ok(self.body.slice(off..off + len))
    }

    /// A cursor consuming sections from the front, in writer order.
    pub fn cursor(&self) -> ArenaCursor<'_> {
        ArenaCursor { r: self, idx: 0 }
    }
}

/// Sequential section consumer; every codec's `read_arena` pulls its
/// sections from one shared cursor in the exact order `write_arena`
/// pushed them.
#[derive(Debug)]
pub struct ArenaCursor<'r> {
    r: &'r ArenaReader,
    idx: usize,
}

impl<'r> ArenaCursor<'r> {
    /// Takes the next section as raw bytes.
    ///
    /// # Errors
    ///
    /// `InvalidData` when all sections are consumed.
    pub fn bytes(&mut self) -> io::Result<&'r [u8]> {
        let s = self.r.section(self.idx)?;
        self.idx += 1;
        Ok(s)
    }

    /// Takes the next section as a zero-copy [`SharedBytes`] view.
    ///
    /// # Errors
    ///
    /// `InvalidData` when all sections are consumed.
    pub fn shared(&mut self) -> io::Result<SharedBytes> {
        let s = self.r.shared_section(self.idx)?;
        self.idx += 1;
        Ok(s)
    }

    /// Takes the next section as a zero-copy `u64` view.
    ///
    /// # Errors
    ///
    /// `InvalidData` on exhaustion or a misaligned length.
    pub fn u64v(&mut self) -> io::Result<U64View> {
        U64View::new(self.shared()?)
    }

    /// Takes the next section as a zero-copy `u32` view.
    ///
    /// # Errors
    ///
    /// `InvalidData` on exhaustion or a misaligned length.
    pub fn u32v(&mut self) -> io::Result<U32View> {
        U32View::new(self.shared()?)
    }

    /// Takes the next section as `u64`s.
    ///
    /// # Errors
    ///
    /// `InvalidData` on exhaustion or a misaligned length.
    pub fn u64s(&mut self) -> io::Result<Vec<u64>> {
        Ok(self.u64v()?.to_vec())
    }

    /// Takes the next section as `u32`s.
    ///
    /// # Errors
    ///
    /// `InvalidData` on exhaustion or a misaligned length.
    pub fn u32s(&mut self) -> io::Result<Vec<u32>> {
        Ok(self.u32v()?.to_vec())
    }

    /// Takes the next section as `bool`s (one byte each, 0/1).
    ///
    /// # Errors
    ///
    /// `InvalidData` on exhaustion or a byte other than 0/1.
    pub fn bools(&mut self) -> io::Result<Vec<bool>> {
        self.bytes()?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(invalid_data(format!("invalid bool byte {b}"))),
            })
            .collect()
    }

    /// Sections not yet consumed.
    pub fn remaining(&self) -> usize {
        self.r.sections().saturating_sub(self.idx)
    }

    /// Asserts that every section was consumed (trailing sections mean
    /// writer/reader disagree on the layout).
    ///
    /// # Errors
    ///
    /// `InvalidData` when sections remain.
    pub fn expect_end(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(invalid_data(format!(
                "{} unconsumed arena sections",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::is_truncated;

    fn fill(a: &mut ArenaWriter) {
        a.u64s(&[1, u64::MAX, 42]);
        a.u32s(&[7, 8, 9, 10, 11]);
        a.section(&[1, 0, 1]);
        a.stream(|sink| {
            let mut w = crate::wire::WireWriter::new(sink);
            w.u16(99)?;
            w.u64(5)
        })
        .unwrap();
    }

    fn build() -> Vec<u8> {
        let (mut a, mut counted) = (ArenaWriter::new(), ArenaWriter::counting());
        fill(&mut a);
        fill(&mut counted);
        let mut buf = Vec::new();
        a.finish(&mut buf).unwrap();
        assert_eq!(buf.len(), a.finished_len());
        assert_eq!(buf.len(), counted.finished_len());
        assert!(counted.body.is_empty(), "a counting arena buffers nothing");
        buf
    }

    fn parse(buf: &[u8]) -> io::Result<ArenaReader> {
        ArenaReader::parse(SharedBytes::from_vec(buf.to_vec()))
    }

    #[test]
    fn sections_round_trip_in_order() {
        let r = parse(&build()).unwrap();
        assert_eq!(r.sections(), 4);
        let mut c = r.cursor();
        assert_eq!(c.u64s().unwrap(), vec![1, u64::MAX, 42]);
        assert_eq!(c.u32s().unwrap(), vec![7, 8, 9, 10, 11]);
        assert_eq!(c.bools().unwrap(), vec![true, false, true]);
        let mut s = c.bytes().unwrap();
        let mut w = crate::wire::WireReader::new(&mut s);
        assert_eq!(w.u16().unwrap(), 99);
        assert_eq!(w.u64().unwrap(), 5);
        c.expect_end().unwrap();
    }

    #[test]
    fn views_decode_without_copying() {
        let r = parse(&build()).unwrap();
        let mut c = r.cursor();
        let v64 = c.u64v().unwrap();
        assert_eq!(v64.len(), 3);
        assert_eq!(v64.get(1), u64::MAX);
        assert_eq!(v64.to_vec(), vec![1, u64::MAX, 42]);
        let v32 = c.u32v().unwrap();
        assert_eq!(v32.len(), 5);
        assert_eq!(v32.get(4), 11);
        // Views of the same container share its allocation.
        assert_eq!(c.shared().unwrap().as_slice(), &[1, 0, 1]);
        // A view rebuilt from decoded values compares equal by content.
        assert_eq!(U64View::from_vals(&[1, u64::MAX, 42]), v64);
        assert_eq!(U32View::from_vals(&v32.to_vec()), v32);
    }

    #[test]
    fn shared_bytes_subslices_share_the_buffer() {
        let b = SharedBytes::from_vec((0..32u8).collect());
        let mid = b.slice(8..24);
        assert_eq!(mid.len(), 16);
        assert_eq!(mid.as_slice()[0], 8);
        let inner = mid.slice(4..8);
        assert_eq!(inner.as_slice(), &[12, 13, 14, 15]);
        assert_eq!(inner.to_vec(), vec![12, 13, 14, 15]);
    }

    #[test]
    fn sections_are_word_aligned() {
        let r = parse(&build()).unwrap();
        for i in 0..r.sections() {
            let s = r.shared_section(i).unwrap();
            // The container was parsed at offset 0, so the absolute
            // offset within the buffer is the alignment that matters.
            assert_eq!(s.off % 8, 0, "section {i} misaligned");
        }
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let buf = build();
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 1;
            assert!(parse(&bad).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let buf = build();
        for keep in 0..buf.len() {
            let err = match parse(&buf[..keep]) {
                Err(e) => e,
                Ok(_) => panic!("truncation to {keep} bytes accepted"),
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "at {keep}");
            assert!(is_truncated(&err), "truncation at {keep} not typed");
        }
    }

    #[test]
    fn adversarial_directories_are_rejected() {
        // Section out of bounds.
        let mut a = ArenaWriter::new();
        a.u64s(&[5]);
        let mut buf = Vec::new();
        a.finish(&mut buf).unwrap();
        let patch = |buf: &Vec<u8>, at: usize, v: u64| {
            let mut b = buf.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            let c = checksum(&b[..b.len() - 8]);
            let at = b.len() - 8;
            b[at..].copy_from_slice(&c.to_le_bytes());
            b
        };
        // Huge length field (re-checksummed so only the bounds check fires).
        assert!(parse(&patch(&buf, 16, u64::MAX)).is_err());
        // Unaligned offset.
        assert!(parse(&patch(&buf, 8, 4)).is_err());
        // Section count pointing past the buffer.
        assert!(parse(&patch(&buf, 0, u64::MAX)).is_err());
        // off + len overflow (off aligned, end wraps): off = MAX-7, len = 16.
        let b = patch(&buf, 8, u64::MAX - 7);
        assert!(parse(&patch(&b, 16, 16)).is_err());
    }

    #[test]
    fn digest_is_chunking_invariant() {
        let bytes: Vec<u8> = (0..128u8).collect();
        let mut one = Digest::new();
        one.update(&bytes);
        let mut many = Digest::new();
        many.update(&bytes[..8]);
        many.update(&bytes[8..48]);
        many.update(&bytes[48..]);
        assert_eq!(one.finish(), many.finish());
        assert_eq!(one.finish(), checksum(&bytes));
    }
}
