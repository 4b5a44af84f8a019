//! Versioned binary snapshots: `Oracle::save` / `Oracle::load`.
//!
//! # Version matrix
//!
//! | tag | layout | write | read |
//! |---|---|---|---|
//! | 1 | PR-3 hash-table streams | — | rejected (rebuild) |
//! | 2 | flat-table wire streams ("v2") | [`Oracle::save`] | copying decode |
//! | 3 | arena container, 16-byte table records | — | rejected (rebuild) |
//! | 4 | arena container, narrow tables with a stored per-row index | — | rejected (rebuild) |
//! | 5 | arena container, narrow index-free tables ("v3") | [`Oracle::save_v3`] | zero-copy views, derived state stored |
//!
//! The API keeps calling the arena format "v3"; its on-disk tag moved
//! 3 → 4 when the tables went narrow and 4 → 5 when their per-row index
//! became a one-word fit. A rejected tag surfaces as
//! `InvalidData` wrapping [`congest::wire::SnapshotError::Rebuild`]
//! (test with [`congest::wire::snapshot_cause`]): snapshots are caches of
//! a deterministic build, so there is no migration — rebuild and re-save.
//!
//! Common header (all little-endian, via [`congest::wire`]):
//!
//! ```text
//! magic  "PDOR"            4 bytes
//! version u16              2 or 5
//! backend u8               Backend::tag
//! pad     u8               arena only (zero) — aligns the arena to 8 bytes
//! n       u64
//! rounds  u64              build metrics (summary)
//! msgs    u64
//! nanos   u64
//! payload …                backend-specific
//! ```
//!
//! A **v2** payload is a sequence of length-prefixed wire streams decoded
//! element by element through `dyn Read`; derived query state (flat-table
//! row fits, RTC long-range tables) is rebuilt after decoding. A
//! **v3** payload is one [`congest::arena`] container: a section
//! directory, 8-byte-aligned typed sections, and a trailing checksum.
//! Loading a v3 snapshot validates the directory and checksum in a single
//! pass, then hands out *zero-copy views* ([`congest::arena::SharedBytes`]
//! slices) over the large typed sections — derived state (row fits, RTC
//! long-range tables) is stored in those sections rather than
//! re-derived, which together is where the order of magnitude in
//! cold-start time comes from (see `README.md`, "Serving").
//! [`Oracle::load`] auto-detects the version; [`Oracle::load_shared`] is
//! the copy-free in-memory entry point the `serve` crate uses.
//!
//! The routing tables inside a v3 payload are
//! [`pde_core::FlatTables`] / [`pde_core::snapshot::FlatLists`] sections
//! in their narrow form: per table entry an 8-byte hot record
//! (`src u32 | est u32`) and a `u16` port and a `u8` ladder level in
//! cold side sections (≈ 11 bytes), with no stored index — one fit word
//! per *row* lets a multiply predict where a source sits in it; 9 bytes
//! per list entry. A value too wide for its field stores the
//! all-ones marker and its true value in the table's one escape section
//! pair. The record format itself is private to `pde_core`'s
//! `tables.rs` / `snapshot.rs`; a v2 stream decodes to the same tables,
//! so `artifact_bytes()` does not depend on it.
//!
//! Every map written anywhere in a payload is in sorted key order, so
//! `load` → `save` reproduces the byte stream exactly (within one
//! version), and a reloaded oracle answers queries bit-identically to the
//! one that was saved — from either version (`tests/oracle_matrix.rs`
//! pins both properties, v2↔v3 cross-checked).
//!
//! Truncated inputs (a partial download, a torn write) surface as
//! `InvalidData` wrapping [`congest::wire::SnapshotError::Truncated`] —
//! test with [`congest::wire::is_truncated`] — rather than a raw
//! `UnexpectedEof`.

use crate::backends::{
    ApsOracle, BfOracle, CompactOracle, FloodOracle, Inner, PdeOracle, RtcOracle, TruncatedOracle,
    TzOracle,
};
use crate::{Backend, Oracle, OracleBuildMetrics};
use baselines::ExactTz;
use compact::{CompactScheme, TruncatedScheme};
use congest::arena::{ArenaCursor, ArenaReader, ArenaWriter, SharedBytes};
use congest::wire::{
    clamped_capacity, invalid_data, CountingWriter, WireReader, WireWriter, MAX_SNAPSHOT_NODES,
};
use graphs::WGraph;
use pde_core::FlatTables;
use routing::RtcScheme;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PDOR";
/// Snapshot version 2: the flat-table layout (scheme payloads carry their
/// own record-version tags too). Version-1 artifacts are rejected with a
/// pointer to rebuild — snapshots are caches of a deterministic build,
/// not primary data, so there is no in-place migration.
const VERSION: u16 = 2;
/// The arena container's version tag (see the module docs): 5 since the
/// narrow tables went index-free. Tag-3 files carried 16-byte records
/// and tag-4 files a stored per-row index; both are rejected like tag-1
/// ones — rebuild and re-save.
const VERSION_ARENA: u16 = 5;
/// Fixed header size: magic + version + backend + 4 × u64 metrics. The
/// v3 header adds one pad byte after the backend tag, so the arena that
/// follows starts on an 8-byte boundary.
const HEADER_BYTES: u64 = 4 + 2 + 1 + 4 * 8;

/// Backend-specific payload codec (object-safe on the write side so the
/// serialized size can be measured through a counting sink).
pub(crate) trait Payload {
    fn write_payload(&self, sink: &mut dyn Write) -> io::Result<()>;

    /// The canonical-artifact form of the payload: identical to
    /// [`Payload::write_payload`] except that embedded *measurement*
    /// fields (round/message totals of the distributed schemes) are
    /// written as zeros. Backends whose payload carries no measurements
    /// use the default (their payloads are already canonical).
    fn write_payload_canonical(&self, sink: &mut dyn Write) -> io::Result<()> {
        self.write_payload(sink)
    }
}

/// Serialized size of a backend in bits: fixed header plus payload.
pub(crate) fn size_bits_of<P: Payload>(p: &P) -> u64 {
    let mut counter = CountingWriter::new();
    p.write_payload(&mut counter)
        .expect("counting writer cannot fail");
    8 * (HEADER_BYTES + counter.bytes())
}

pub(crate) fn save(oracle: &Oracle, sink: &mut dyn Write) -> io::Result<()> {
    save_opts(oracle, sink, false)
}

/// Writes the v3 snapshot file atomically: the stream goes to a uniquely
/// named temp file in the target directory, is flushed and fsynced,
/// and only then renamed over `path`. A crash at any point leaves
/// either the old file or the new one — never a torn snapshot that
/// [`load`] would reject. The directory entry is fsynced after the
/// rename (best effort: not every filesystem supports opening
/// directories) so the rename itself survives a power cut.
pub(crate) fn save_path_v3(oracle: &Oracle, path: &std::path::Path) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().ok_or_else(|| {
        invalid_data(format!("snapshot path {} has no file name", path.display()))
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut sink = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        save_v3(oracle, &mut sink)?;
        let file = sink.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The canonical artifact stream: [`save`] with the volatile measurement
/// fields (header rounds/messages/nanos and every scheme-embedded round
/// total) written as zeros — see [`crate::Oracle::artifact_bytes`].
pub(crate) fn save_canonical(oracle: &Oracle, sink: &mut dyn Write) -> io::Result<()> {
    save_opts(oracle, sink, true)
}

fn save_opts(oracle: &Oracle, sink: &mut dyn Write, canonical: bool) -> io::Result<()> {
    let m = *oracle.inner.as_dyn().build_metrics();
    let mut w = WireWriter::new(sink);
    w.bytes(MAGIC)?;
    w.u16(VERSION)?;
    w.u8(m.backend.tag())?;
    w.usize(m.n)?;
    let zero = |x: u64| if canonical { 0 } else { x };
    w.u64(zero(m.rounds))?;
    w.u64(zero(m.messages))?;
    w.u64(zero(m.build_nanos))?;
    let write = |p: &dyn Payload, sink: &mut dyn Write| {
        if canonical {
            p.write_payload_canonical(sink)
        } else {
            p.write_payload(sink)
        }
    };
    match &oracle.inner {
        Inner::Pde(o) => write(o, sink),
        Inner::Aps(o) => write(o, sink),
        Inner::Rtc(o) => write(o, sink),
        Inner::Compact(o) => write(o, sink),
        Inner::Truncated(o) => write(o, sink),
        Inner::Tz(o) => write(o, sink),
        Inner::Bf(o) => write(o, sink),
        Inner::Flood(o) => write(o, sink),
    }
}

/// Writes the version-3 arena snapshot (see the module docs).
pub(crate) fn save_v3(oracle: &Oracle, sink: &mut dyn Write) -> io::Result<()> {
    let m = *oracle.inner.as_dyn().build_metrics();
    let mut w = WireWriter::new(sink);
    w.bytes(MAGIC)?;
    w.u16(VERSION_ARENA)?;
    w.u8(m.backend.tag())?;
    w.u8(0)?; // pad: the arena starts 8-aligned
    w.usize(m.n)?;
    w.u64(m.rounds)?;
    w.u64(m.messages)?;
    w.u64(m.build_nanos)?;
    let mut a = ArenaWriter::new();
    write_arena_payload(&oracle.inner, &mut a)?;
    a.finish(sink)
}

fn write_arena_payload(inner: &Inner, a: &mut ArenaWriter) -> io::Result<()> {
    match inner {
        Inner::Pde(o) => {
            a.u64s(&[o.eps.to_bits(), o.h, o.sigma as u64]);
            o.g.write_arena(a);
            o.routes.write_arena(a);
            Ok(())
        }
        Inner::Aps(o) => {
            a.u64s(&[o.eps.to_bits()]);
            o.g.write_arena(a);
            a.u64s(&o.dist);
            o.routes.write_arena(a);
            Ok(())
        }
        Inner::Rtc(o) => {
            a.u64s(&[u64::from(o.k), o.eps.to_bits()]);
            o.scheme.write_arena(a, false)
        }
        Inner::Compact(o) => {
            a.u64s(&[u64::from(o.k), o.eps.to_bits()]);
            o.scheme.write_arena(a, false)
        }
        Inner::Truncated(o) => {
            a.u64s(&[u64::from(o.k), o.eps.to_bits()]);
            o.scheme.write_arena(a, false)
        }
        Inner::Tz(o) => {
            a.u64s(&[u64::from(o.k)]);
            o.g.write_arena(a);
            o.scheme.write_arena(a)
        }
        Inner::Bf(o) => {
            a.u64s(&[o.n as u64]);
            a.u64s(&o.dist);
            Ok(())
        }
        Inner::Flood(o) => {
            a.u64s(&[o.lsdb_edges as u64]);
            o.g.write_arena(a);
            a.u64s(&o.dist);
            a.u32s(&o.next);
            Ok(())
        }
    }
}

fn read_arena_payload(
    backend: Backend,
    metrics: OracleBuildMetrics,
    c: &mut ArenaCursor<'_>,
) -> io::Result<Inner> {
    Ok(match backend {
        Backend::Pde => {
            let meta = c.u64s()?;
            let [eps, h, sigma] = meta[..] else {
                return Err(invalid_data("PDE meta section misshapen"));
            };
            let eps = f64::from_bits(eps);
            let sigma = usize::try_from(sigma).map_err(|_| invalid_data("PDE sigma overflow"))?;
            let g = WGraph::read_arena(c)?;
            let routes = FlatTables::read_arena(c)?;
            let topo = g.to_topology();
            routes.validate(&topo)?;
            Inner::Pde(PdeOracle {
                g,
                topo,
                routes,
                eps,
                h,
                sigma,
                metrics,
            })
        }
        Backend::ApproxApsp => {
            let meta = c.u64s()?;
            let [eps] = meta[..] else {
                return Err(invalid_data("APSP meta section misshapen"));
            };
            let eps = f64::from_bits(eps);
            let g = WGraph::read_arena(c)?;
            let cells = congest::wire::seq_product(g.len(), g.len(), "distance matrix")?;
            let dist = c.u64s()?;
            if dist.len() != cells {
                return Err(invalid_data("dense matrix size mismatch"));
            }
            let routes = FlatTables::read_arena(c)?;
            let topo = g.to_topology();
            routes.validate(&topo)?;
            Inner::Aps(ApsOracle {
                g,
                topo,
                dist,
                routes,
                eps,
                metrics,
            })
        }
        Backend::Rtc => {
            let (k, eps) = read_scheme_meta(c)?;
            let scheme = RtcScheme::read_arena(c)?;
            Inner::Rtc(RtcOracle {
                scheme,
                k,
                eps,
                metrics,
            })
        }
        Backend::Compact => {
            let (k, eps) = read_scheme_meta(c)?;
            let scheme = CompactScheme::read_arena(c)?;
            Inner::Compact(CompactOracle {
                scheme,
                k,
                eps,
                metrics,
            })
        }
        Backend::Truncated => {
            let (k, eps) = read_scheme_meta(c)?;
            let scheme = TruncatedScheme::read_arena(c)?;
            Inner::Truncated(TruncatedOracle {
                scheme,
                k,
                eps,
                metrics,
            })
        }
        Backend::ExactTz => {
            let meta = c.u64s()?;
            let [k] = meta[..] else {
                return Err(invalid_data("TZ meta section misshapen"));
            };
            let k = u32::try_from(k).map_err(|_| invalid_data("TZ k overflow"))?;
            let g = WGraph::read_arena(c)?;
            let scheme = ExactTz::read_arena(c)?;
            let topo = g.to_topology();
            Inner::Tz(TzOracle {
                g,
                topo,
                scheme,
                k,
                metrics,
            })
        }
        Backend::BellmanFord => {
            let meta = c.u64s()?;
            let [n] = meta[..] else {
                return Err(invalid_data("BF meta section misshapen"));
            };
            let n = usize::try_from(n).map_err(|_| invalid_data("BF n overflow"))?;
            if n > MAX_SNAPSHOT_NODES {
                return Err(invalid_data(format!("snapshot claims {n} nodes")));
            }
            let cells = congest::wire::seq_product(n, n, "distance matrix")?;
            let dist = c.u64s()?;
            if dist.len() != cells {
                return Err(invalid_data("dense matrix size mismatch"));
            }
            Inner::Bf(BfOracle { n, dist, metrics })
        }
        Backend::Flooding => {
            let meta = c.u64s()?;
            let [lsdb] = meta[..] else {
                return Err(invalid_data("flooding meta section misshapen"));
            };
            let lsdb_edges =
                usize::try_from(lsdb).map_err(|_| invalid_data("LSDB size overflow"))?;
            let g = WGraph::read_arena(c)?;
            let cells = congest::wire::seq_product(g.len(), g.len(), "distance matrix")?;
            let dist = c.u64s()?;
            let next = c.u32s()?;
            if dist.len() != cells || next.len() != cells {
                return Err(invalid_data("dense matrix size mismatch"));
            }
            for &raw in &next {
                if raw != u32::MAX && raw as usize >= g.len() {
                    return Err(invalid_data(format!("first hop {raw} out of range")));
                }
            }
            let topo = g.to_topology();
            Inner::Flood(FloodOracle {
                g,
                topo,
                dist,
                next,
                lsdb_edges,
                metrics,
            })
        }
    })
}

fn read_scheme_meta(c: &mut ArenaCursor<'_>) -> io::Result<(u32, f64)> {
    let meta = c.u64s()?;
    let [k, eps] = meta[..] else {
        return Err(invalid_data("scheme meta section misshapen"));
    };
    let k = u32::try_from(k).map_err(|_| invalid_data("scheme k overflow"))?;
    Ok((k, f64::from_bits(eps)))
}

pub(crate) fn load(source: &mut dyn Read) -> io::Result<Oracle> {
    load_inner(source).map_err(congest::wire::map_truncation)
}

/// Loads an oracle from a borrowed in-memory snapshot buffer, any
/// version. The bytes are copied once into an owned buffer so a v3 load
/// can keep views into them; callers that already hold the snapshot as a
/// [`SharedBytes`] should use [`load_shared`] and skip that copy.
pub(crate) fn load_bytes(buf: &[u8]) -> io::Result<Oracle> {
    load_shared(SharedBytes::from_vec(buf.to_vec()))
}

/// Loads an oracle from a shared in-memory snapshot buffer, any version.
/// For v3 this is the zero-copy path: the header and section directory
/// are validated, and the oracle's tables are views into `bytes` — no
/// payload bytes are moved at all.
pub(crate) fn load_shared(bytes: SharedBytes) -> io::Result<Oracle> {
    load_shared_inner(bytes).map_err(congest::wire::map_truncation)
}

fn load_shared_inner(bytes: SharedBytes) -> io::Result<Oracle> {
    // Reading from a byte slice advances it, so after the header `rest`
    // is exactly the payload — for v3, the arena body, shared in place.
    let buf = bytes.as_slice();
    let mut rest = buf;
    match read_header(&mut rest)? {
        Header::V2(metrics) => finish_v2(&mut rest, metrics),
        Header::V3(metrics) => {
            let off = buf.len() - rest.len();
            finish_v3(bytes.slice(off..bytes.len()), metrics)
        }
    }
}

fn load_inner(source: &mut dyn Read) -> io::Result<Oracle> {
    match read_header(source)? {
        Header::V2(metrics) => finish_v2(source, metrics),
        Header::V3(metrics) => {
            let mut body = Vec::new();
            source.read_to_end(&mut body)?;
            finish_v3(SharedBytes::from_vec(body), metrics)
        }
    }
}

enum Header {
    V2(OracleBuildMetrics),
    V3(OracleBuildMetrics),
}

fn read_header(source: &mut dyn Read) -> io::Result<Header> {
    let mut r = WireReader::new(source);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(invalid_data("not an oracle snapshot (bad magic)"));
    }
    let version = r.u16()?;
    if version != VERSION && version != VERSION_ARENA {
        return Err(congest::wire::rebuild(version));
    }
    let tag = r.u8()?;
    let backend =
        Backend::from_tag(tag).ok_or_else(|| invalid_data(format!("unknown backend tag {tag}")))?;
    if version == VERSION_ARENA {
        let pad = r.u8()?;
        if pad != 0 {
            return Err(invalid_data("nonzero pad byte in v3 header"));
        }
    }
    let n = r.usize()?;
    let rounds = r.u64()?;
    let messages = r.u64()?;
    let build_nanos = r.u64()?;
    let metrics = OracleBuildMetrics {
        backend,
        n,
        rounds,
        messages,
        build_nanos,
    };
    Ok(if version == VERSION_ARENA {
        Header::V3(metrics)
    } else {
        Header::V2(metrics)
    })
}

fn finish_v2(source: &mut dyn Read, metrics: OracleBuildMetrics) -> io::Result<Oracle> {
    let backend = metrics.backend;
    let inner = match backend {
        Backend::Pde => Inner::Pde(PdeOracle::read_payload(source, metrics)?),
        Backend::ApproxApsp => Inner::Aps(ApsOracle::read_payload(source, metrics)?),
        Backend::Rtc => Inner::Rtc(RtcOracle::read_payload(source, metrics)?),
        Backend::Compact => Inner::Compact(CompactOracle::read_payload(source, metrics)?),
        Backend::Truncated => Inner::Truncated(TruncatedOracle::read_payload(source, metrics)?),
        Backend::ExactTz => Inner::Tz(TzOracle::read_payload(source, metrics)?),
        Backend::BellmanFord => Inner::Bf(BfOracle::read_payload(source, metrics)?),
        Backend::Flooding => Inner::Flood(FloodOracle::read_payload(source, metrics)?),
    };
    Ok(Oracle { inner })
}

fn finish_v3(body: SharedBytes, metrics: OracleBuildMetrics) -> io::Result<Oracle> {
    let reader = ArenaReader::parse(body)?;
    let mut c = reader.cursor();
    let inner = read_arena_payload(metrics.backend, metrics, &mut c)?;
    c.expect_end()?;
    Ok(Oracle { inner })
}

// ------------------------------------------------------------ helpers --

fn write_dense_u64(sink: &mut dyn Write, xs: &[u64]) -> io::Result<()> {
    let mut w = WireWriter::new(sink);
    w.len(xs.len())?;
    for &x in xs {
        w.u64(x)?;
    }
    Ok(())
}

fn read_dense_u64(source: &mut dyn Read, expect: usize) -> io::Result<Vec<u64>> {
    let mut r = WireReader::new(source);
    let n = r.len(expect)?;
    if n != expect {
        return Err(invalid_data("dense matrix size mismatch"));
    }
    let mut xs = Vec::with_capacity(clamped_capacity(n));
    for _ in 0..n {
        xs.push(r.u64()?);
    }
    Ok(xs)
}

// ------------------------------------------------------------ payloads --

impl Payload for PdeOracle {
    fn write_payload(&self, sink: &mut dyn Write) -> io::Result<()> {
        let mut w = WireWriter::new(sink);
        w.f64(self.eps)?;
        w.u64(self.h)?;
        w.usize(self.sigma)?;
        self.g.write_into(sink)?;
        self.routes.write_into(sink)
    }
}

impl PdeOracle {
    fn read_payload(source: &mut dyn Read, metrics: OracleBuildMetrics) -> io::Result<Self> {
        let mut r = WireReader::new(source);
        let eps = r.f64()?;
        let h = r.u64()?;
        let sigma = r.usize()?;
        let g = WGraph::read_from(source)?;
        let routes = FlatTables::read_from(source)?;
        let topo = g.to_topology();
        routes.validate(&topo)?;
        Ok(PdeOracle {
            g,
            topo,
            routes,
            eps,
            h,
            sigma,
            metrics,
        })
    }
}

impl Payload for ApsOracle {
    fn write_payload(&self, sink: &mut dyn Write) -> io::Result<()> {
        WireWriter::new(sink).f64(self.eps)?;
        self.g.write_into(sink)?;
        write_dense_u64(sink, &self.dist)?;
        self.routes.write_into(sink)
    }
}

impl ApsOracle {
    fn read_payload(source: &mut dyn Read, metrics: OracleBuildMetrics) -> io::Result<Self> {
        let eps = WireReader::new(source).f64()?;
        let g = WGraph::read_from(source)?;
        let cells = g
            .len()
            .checked_mul(g.len())
            .ok_or_else(|| invalid_data("distance matrix size overflow"))?;
        let dist = read_dense_u64(source, cells)?;
        let routes = FlatTables::read_from(source)?;
        let topo = g.to_topology();
        routes.validate(&topo)?;
        Ok(ApsOracle {
            g,
            topo,
            dist,
            routes,
            eps,
            metrics,
        })
    }
}

// The distributed schemes serialize their own topology inside
// `write_into`, so their payloads carry the edge list exactly once.
macro_rules! scheme_payload {
    ($oracle:ident, $scheme:ident) => {
        impl Payload for $oracle {
            fn write_payload(&self, sink: &mut dyn Write) -> io::Result<()> {
                let mut w = WireWriter::new(sink);
                w.u32(self.k)?;
                w.f64(self.eps)?;
                self.scheme.write_into(sink)
            }

            fn write_payload_canonical(&self, sink: &mut dyn Write) -> io::Result<()> {
                let mut w = WireWriter::new(sink);
                w.u32(self.k)?;
                w.f64(self.eps)?;
                self.scheme.write_canonical_into(sink)
            }
        }

        impl $oracle {
            fn read_payload(
                source: &mut dyn Read,
                metrics: OracleBuildMetrics,
            ) -> io::Result<Self> {
                let mut r = WireReader::new(source);
                let k = r.u32()?;
                let eps = r.f64()?;
                let scheme = $scheme::read_from(source)?;
                Ok($oracle {
                    scheme,
                    k,
                    eps,
                    metrics,
                })
            }
        }
    };
}

scheme_payload!(RtcOracle, RtcScheme);
scheme_payload!(CompactOracle, CompactScheme);
scheme_payload!(TruncatedOracle, TruncatedScheme);

impl Payload for TzOracle {
    fn write_payload(&self, sink: &mut dyn Write) -> io::Result<()> {
        WireWriter::new(sink).u32(self.k)?;
        // ExactTz holds no topology, so the wrapper persists the graph.
        self.g.write_into(sink)?;
        self.scheme.write_into(sink)
    }
}

impl TzOracle {
    fn read_payload(source: &mut dyn Read, metrics: OracleBuildMetrics) -> io::Result<Self> {
        let k = WireReader::new(source).u32()?;
        let g = WGraph::read_from(source)?;
        let scheme = ExactTz::read_from(source)?;
        let topo = g.to_topology();
        Ok(TzOracle {
            g,
            topo,
            scheme,
            k,
            metrics,
        })
    }
}

impl Payload for BfOracle {
    fn write_payload(&self, sink: &mut dyn Write) -> io::Result<()> {
        WireWriter::new(sink).usize(self.n)?;
        write_dense_u64(sink, &self.dist)
    }
}

impl BfOracle {
    fn read_payload(source: &mut dyn Read, metrics: OracleBuildMetrics) -> io::Result<Self> {
        let n = WireReader::new(source).usize()?;
        if n > MAX_SNAPSHOT_NODES {
            return Err(invalid_data(format!("snapshot claims {n} nodes")));
        }
        let cells = n
            .checked_mul(n)
            .ok_or_else(|| invalid_data("distance matrix size overflow"))?;
        let dist = read_dense_u64(source, cells)?;
        Ok(BfOracle { n, dist, metrics })
    }
}

impl Payload for FloodOracle {
    fn write_payload(&self, sink: &mut dyn Write) -> io::Result<()> {
        self.g.write_into(sink)?;
        write_dense_u64(sink, &self.dist)?;
        let mut w = WireWriter::new(sink);
        w.len(self.next.len())?;
        for &x in &self.next {
            w.u32(x)?;
        }
        w.usize(self.lsdb_edges)?;
        Ok(())
    }
}

impl FloodOracle {
    fn read_payload(source: &mut dyn Read, metrics: OracleBuildMetrics) -> io::Result<Self> {
        let g = WGraph::read_from(source)?;
        let cells = g
            .len()
            .checked_mul(g.len())
            .ok_or_else(|| invalid_data("distance matrix size overflow"))?;
        let dist = read_dense_u64(source, cells)?;
        let mut r = WireReader::new(source);
        let nn = r.len(cells)?;
        if nn != cells {
            return Err(invalid_data("first-hop matrix size mismatch"));
        }
        let mut next = Vec::with_capacity(clamped_capacity(nn));
        for _ in 0..nn {
            let raw = r.u32()?;
            if raw != u32::MAX && raw as usize >= g.len() {
                return Err(invalid_data(format!("first hop {raw} out of range")));
            }
            next.push(raw);
        }
        let lsdb_edges = r.usize()?;
        let topo = g.to_topology();
        Ok(FloodOracle {
            g,
            topo,
            dist,
            next,
            lsdb_edges,
            metrics,
        })
    }
}
