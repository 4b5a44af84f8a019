//! Little-endian wire helpers for versioned binary snapshots.
//!
//! The `oracle` crate persists built distance oracles ("build once, serve
//! from disk"); every scheme crate encodes its own state with these
//! helpers so the framing is uniform and handwritten — fixed-width
//! little-endian integers, `u64` length prefixes for sequences — with no
//! derive machinery or external dependencies.
//!
//! Corruption is reported as [`std::io::ErrorKind::InvalidData`] via
//! [`invalid_data`], so callers only deal with `io::Result`.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Builds the `InvalidData` error used for malformed snapshot bytes.
pub fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Typed cause attached to snapshot decoding errors, so callers can
/// distinguish *recoverable* snapshot states (rebuild and re-save) from
/// real I/O failures without string-matching error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The stream ended mid-record: the snapshot file is an incomplete
    /// write (crashed saver, partial copy), not a disk error. A
    /// load-or-rebuild path should treat this as "no usable snapshot".
    Truncated,
    /// The file carries a layout version this binary no longer (or not
    /// yet) reads. Snapshots are caches of a deterministic build, so
    /// there is no migration: rebuild with this binary and re-save.
    Rebuild {
        /// The version tag found in the file.
        version: u16,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => {
                write!(f, "snapshot truncated: stream ended mid-record")
            }
            SnapshotError::Rebuild { version } => write!(
                f,
                "unsupported snapshot version {version}: rebuild with this binary"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The `InvalidData` error wrapping [`SnapshotError::Truncated`].
pub fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, SnapshotError::Truncated)
}

/// Maps a premature-EOF (`UnexpectedEof`) surfaced by any inner
/// `read_exact` to the typed [`SnapshotError::Truncated`] (wrapped in
/// `InvalidData`); every other error passes through unchanged. Snapshot
/// load entry points call this once at the boundary so truncation is
/// typed no matter which record the stream died in.
pub fn map_truncation(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        truncated()
    } else {
        e
    }
}

/// The `InvalidData` error wrapping [`SnapshotError::Rebuild`].
pub fn rebuild(version: u16) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        SnapshotError::Rebuild { version },
    )
}

/// The typed cause `e` is (or wraps), if any.
pub fn snapshot_cause(e: &io::Error) -> Option<SnapshotError> {
    let mut src: Option<&(dyn std::error::Error + 'static)> = e.get_ref().map(|b| b as _);
    while let Some(s) = src {
        if let Some(&cause) = s.downcast_ref::<SnapshotError>() {
            return Some(cause);
        }
        // `io::Error::source()` skips its own custom payload, so descend
        // into nested io::Errors by hand or a double wrap goes unseen.
        src = match s.downcast_ref::<io::Error>() {
            Some(inner) => inner.get_ref().map(|b| b as _),
            None => s.source(),
        };
    }
    None
}

/// `true` if `e` is (or wraps) [`SnapshotError::Truncated`].
pub fn is_truncated(e: &io::Error) -> bool {
    snapshot_cause(e) == Some(SnapshotError::Truncated)
}

/// Upper bound on any length prefix a snapshot reader accepts, as `u64`
/// so the cap itself cannot overflow `usize` on 32-bit targets (where
/// `1usize << 32` would wrap to a useless cap of 1... or panic).
pub const MAX_SEQ_LEN: u64 = 1 << 32;

/// Checked `a · b` for shape products (`n × n` matrices, `m × m`
/// spanner tables) computed from untrusted length fields.
///
/// # Errors
///
/// `InvalidData` when the product overflows `usize` — a tampered length
/// must surface as a decode error, never as wrap-then-panic downstream.
pub fn seq_product(a: usize, b: usize, what: &str) -> io::Result<usize> {
    a.checked_mul(b)
        .ok_or_else(|| invalid_data(format!("{what} size overflow ({a} × {b})")))
}

/// Upper bound on the node count any snapshot reader accepts.
///
/// Node ids are `u32`, and the CSR/matrix structures behind an oracle
/// allocate `O(n)` before edge validation can run — a tampered `n` field
/// must not be able to request an absurd allocation (which would abort
/// instead of returning `InvalidData`). 2²⁸ nodes is far beyond any
/// simulated workload while keeping the pre-validation allocations
/// bounded.
pub const MAX_SNAPSHOT_NODES: usize = 1 << 28;

/// Pre-allocation clamp for sequence lengths read from untrusted bytes.
///
/// Genuine snapshots pre-allocate exactly; a tampered length prefix
/// reserves at most this many elements up front and then fails on the
/// `read_exact` of the missing payload — it cannot request an absurd
/// allocation (which would abort the serving process instead of
/// returning `InvalidData`).
pub fn clamped_capacity(len: usize) -> usize {
    len.min(1 << 16)
}

// ----------------------------------------------------------- framing --

/// Default upper bound on one length-prefixed frame (256 MiB) — large
/// enough to carry a snapshot in an admin frame, small enough that a
/// corrupted length prefix cannot request an absurd buffer.
pub const MAX_FRAME_LEN: usize = 1 << 28;

/// Writes one length-prefixed frame: a little-endian `u32` payload length
/// followed by the payload bytes. The symmetric reader is [`read_frame`];
/// the `net` crate stacks its request/response headers inside the payload.
///
/// # Errors
///
/// `InvalidData` when the payload exceeds `u32::MAX` bytes; otherwise the
/// sink's I/O errors.
pub fn write_frame(sink: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| invalid_data(format!("frame payload {} exceeds u32", payload.len())))?;
    sink.write_all(&len.to_le_bytes())?;
    sink.write_all(payload)
}

/// Reads one frame written by [`write_frame`], enforcing the same
/// adversarial posture as the snapshot readers: the length prefix is
/// rejected above `max` **before** any allocation, the payload buffer
/// grows via a bounded `take` (a lying prefix cannot reserve more than
/// [`clamped_capacity`] up front), and a stream that dies mid-frame is
/// the typed [`SnapshotError::Truncated`].
///
/// Returns `Ok(None)` on a clean end-of-stream **at a frame boundary**
/// (the peer closed after a complete frame) so connection loops can
/// distinguish an orderly close from corruption.
///
/// # Errors
///
/// `InvalidData` for oversized prefixes, [`truncated`] for mid-frame
/// EOF; other reader errors pass through.
pub fn read_frame(source: &mut dyn Read, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; 4];
    let mut got = 0;
    while got < head.len() {
        match source.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(truncated()),
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(head) as usize;
    if len > max {
        return Err(invalid_data(format!("frame length {len} exceeds {max}")));
    }
    let mut payload = Vec::with_capacity(clamped_capacity(len));
    source
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(map_truncation)?;
    if payload.len() != len {
        return Err(truncated());
    }
    Ok(Some(payload))
}

/// Writes the file at `path` **atomically**: `write` fills a uniquely
/// named temp file in the target directory (process id plus a per-call
/// sequence number, so concurrent writers never share one), which is
/// flushed and fsynced and only then renamed over `path`. A crash at any
/// point leaves either the old file or the complete new one, never a
/// torn hybrid. The directory entry is fsynced after the rename (best
/// effort: not every filesystem supports opening directories) so the
/// rename itself survives a power cut.
///
/// # Errors
///
/// `InvalidData` when `path` has no file name; otherwise the i/o failure
/// or whatever `write` returned. The temp file is removed on failure.
pub fn write_file_atomic(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| invalid_data(format!("path {} has no file name", path.display())))?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut sink = io::BufWriter::new(File::create(&tmp)?);
        write(&mut sink)?;
        let file = sink.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Thin writer over any [`Write`] emitting little-endian primitives.
pub struct WireWriter<'a> {
    sink: &'a mut dyn Write,
}

impl<'a> WireWriter<'a> {
    /// Wraps `sink`.
    pub fn new(sink: &'a mut dyn Write) -> Self {
        WireWriter { sink }
    }

    /// Writes raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.sink.write_all(b)
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, x: u8) -> io::Result<()> {
        self.sink.write_all(&[x])
    }

    /// Writes a `u16` (little-endian).
    pub fn u16(&mut self, x: u16) -> io::Result<()> {
        self.sink.write_all(&x.to_le_bytes())
    }

    /// Writes a `u32` (little-endian).
    pub fn u32(&mut self, x: u32) -> io::Result<()> {
        self.sink.write_all(&x.to_le_bytes())
    }

    /// Writes a `u64` (little-endian).
    pub fn u64(&mut self, x: u64) -> io::Result<()> {
        self.sink.write_all(&x.to_le_bytes())
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, x: usize) -> io::Result<()> {
        self.u64(x as u64)
    }

    /// Writes a `bool` as one byte (0/1).
    pub fn bool(&mut self, x: bool) -> io::Result<()> {
        self.u8(u8::from(x))
    }

    /// Writes a sequence length prefix.
    pub fn len(&mut self, n: usize) -> io::Result<()> {
        self.usize(n)
    }
}

/// Thin reader over any [`Read`] consuming little-endian primitives.
pub struct WireReader<'a> {
    source: &'a mut dyn Read,
}

impl<'a> WireReader<'a> {
    /// Wraps `source`.
    pub fn new(source: &'a mut dyn Read) -> Self {
        WireReader { source }
    }

    /// Reads exactly `N` bytes.
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut buf = [0u8; N];
        self.source.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; n];
        self.source.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// `InvalidData` if the value does not fit in `usize`.
    pub fn usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| invalid_data("length exceeds usize"))
    }

    /// Reads a sequence length prefix against a `u64` cap (use with
    /// [`MAX_SEQ_LEN`]): the bound is checked **before** the `u64 →
    /// usize` conversion, so on 32-bit targets an oversized length is
    /// rejected as `InvalidData` instead of the cap itself wrapping.
    pub fn len64(&mut self, max: u64) -> io::Result<usize> {
        let n = self.u64()?;
        if n > max {
            return Err(invalid_data(format!("sequence length {n} exceeds {max}")));
        }
        usize::try_from(n).map_err(|_| invalid_data("length exceeds usize"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        {
            let mut w = WireWriter::new(&mut buf);
            w.u8(7).unwrap();
            w.u16(300).unwrap();
            w.u32(70_000).unwrap();
            w.u64(u64::MAX - 1).unwrap();
            w.usize(42).unwrap();
            w.bool(true).unwrap();
            w.bool(false).unwrap();
            w.len(3).unwrap();
            w.bytes(b"abc").unwrap();
        }
        let mut cursor = &buf[..];
        let mut r = WireReader::new(&mut cursor);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!([r.u8().unwrap(), r.u8().unwrap()], [1, 0]);
        assert_eq!(r.len64(10).unwrap(), 3);
        assert_eq!(r.bytes(3).unwrap(), b"abc");
        assert!(cursor.is_empty(), "all bytes consumed");
    }

    #[test]
    fn truncated_input_and_bad_values_error() {
        let mut short = &[1u8, 2][..];
        assert!(WireReader::new(&mut short).u32().is_err());
        let mut big_len = Vec::new();
        WireWriter::new(&mut big_len).u64(1 << 40).unwrap();
        let mut cursor = &big_len[..];
        assert!(WireReader::new(&mut cursor).len64(1 << 20).is_err());
    }

    #[test]
    fn adversarial_length_fields_are_checked_not_wrapped() {
        // len64 bounds before the u64 → usize conversion, so a length
        // field that would overflow a 32-bit usize is InvalidData on
        // every target instead of wrapping the cap.
        for adversarial in [u64::MAX, MAX_SEQ_LEN + 1, 1 << 48] {
            let mut buf = Vec::new();
            WireWriter::new(&mut buf).u64(adversarial).unwrap();
            let mut cursor = &buf[..];
            let err = WireReader::new(&mut cursor).len64(MAX_SEQ_LEN).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{adversarial}");
        }
        let mut buf = Vec::new();
        WireWriter::new(&mut buf).u64(MAX_SEQ_LEN).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            WireReader::new(&mut cursor).len64(MAX_SEQ_LEN).unwrap(),
            1 << 32
        );

        // seq_product: matrix shapes from adversarial headers must fail
        // with InvalidData, not wrap into a small allocation.
        assert!(seq_product(usize::MAX, 2, "m").is_err());
        assert!(seq_product(1 << 33, 1 << 33, "m").is_err());
        assert_eq!(seq_product(3, 4, "m").unwrap(), 12);
        assert_eq!(seq_product(0, usize::MAX, "m").unwrap(), 0);
    }

    #[test]
    fn truncation_errors_are_typed_and_detected_through_wrapping() {
        let err = truncated();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(is_truncated(&err));
        // map_truncation rewrites a bare UnexpectedEof …
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "failed to fill whole buffer");
        assert!(is_truncated(&map_truncation(eof)));
        // … passes anything else through untouched …
        let other = map_truncation(invalid_data("bad magic"));
        assert!(!is_truncated(&other));
        assert_eq!(other.kind(), io::ErrorKind::InvalidData);
        // … and detection walks source chains.
        let wrapped = io::Error::new(io::ErrorKind::InvalidData, truncated());
        assert!(is_truncated(&wrapped));
    }

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap(), b"");
        // Clean EOF at a frame boundary is None, not an error.
        assert!(read_frame(&mut cursor, 64).unwrap().is_none());
        // Mid-frame EOF is the typed truncation (7 bytes: the first
        // frame needs 9, so its payload is torn) …
        let mut torn = &buf[..7];
        let err = read_frame(&mut torn, 64).unwrap_err();
        assert!(is_truncated(&err), "{err}");
        // … a torn header too …
        let mut torn = &buf[..2];
        assert!(is_truncated(&read_frame(&mut torn, 64).unwrap_err()));
        // … and an oversized length prefix is rejected before allocation.
        let mut big = Vec::new();
        write_frame(&mut big, &[0u8; 100]).unwrap();
        let mut cursor = &big[..];
        let err = read_frame(&mut cursor, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!is_truncated(&err));
    }
}
