//! Versioned binary snapshots: `Oracle::save` / `Oracle::load`.
//!
//! There is one format: a fixed header followed by one
//! [`congest::arena`] container.
//!
//! # Version matrix
//!
//! | tag | layout | write | read |
//! |---|---|---|---|
//! | 1 | PR-3 hash-table streams | — | rejected (rebuild) |
//! | 2 | flat-table wire streams, one element at a time | — | rejected (rebuild) |
//! | 3 | arena container, 16-byte table records | — | rejected (rebuild) |
//! | 4 | arena container, narrow tables with a stored per-row index | — | rejected (rebuild) |
//! | 5 | arena container, narrow index-free tables, every row keyed | — | rejected (rebuild) |
//! | 6 | arena container, narrow tables with direct-indexed dense rows; schemes embed σ-lists, spanner and metrics | — | rejected (rebuild) |
//! | 7 | arena container, narrow tables with direct-indexed dense rows; schemes store query state only | — | rejected (rebuild) |
//! | 8 | as 7, but truncated nests its lower levels as a compact arena, per-node table counts are `u32`, compact drops its level table and exact_tz its hop matrix | — | rejected (rebuild) |
//! | 9 | as 8, but route tables store each slot as its ladder code `(hops, rung)` beside its port, with no port or level side sections | — | rejected (rebuild) |
//! | 10 | as 9, but each slot is one packed word `port \| hops \| level` with field widths derived from the table's rows | — | rejected (rebuild) |
//! | 11 | as 10, but route rows are keyed by source rank, with the table's source map (member ids, per-node ranks) beside it | — | rejected (rebuild) |
//! | 12 | as 11, but a PDE table holds only σ-list entries, with its transit hops (keys, ports) in two sections before it | — | rejected (rebuild) |
//! | 13 | as 12, but a keyed record's key, the ranks and every edge list's endpoints and weights take the narrowest width their data needs | [`Oracle::save`] | zero-copy views, derived state stored |
//!
//! `approx_apsp` and `flooding` share the PDE layout under their own
//! header tags (flooding's rows are exact: ε = 0, whole hops on rung 1).
//!
//! A rejected tag surfaces as `InvalidData` wrapping
//! [`congest::wire::SnapshotError::Rebuild`] (test with
//! [`congest::wire::snapshot_cause`]): snapshots are caches of a
//! deterministic build, so there is no migration — rebuild and re-save.
//!
//! Backend tags 5 and 6 are retired: 5 was the exact TZ matrices
//! (`exact_tz`, a centralized exact Thorup–Zwick hierarchy over n × n
//! distance and first-hop matrices) and 6 was `bellman_ford`, an n × n
//! distance matrix without routes; `flooding`'s exact rows answer what
//! either answered. A file carrying one is plain `InvalidData` (an
//! unknown backend tag), not `Rebuild`: no backend is left to rebuild it
//! with.
//!
//! Header (all little-endian, via [`congest::wire`]), 40 bytes:
//!
//! ```text
//! magic  "PDOR"            4 bytes
//! version u16              6
//! backend u8               Backend::wire_tag
//! pad     u8               zero — aligns the arena to 8 bytes
//! n       u64
//! rounds  u64              build metrics (summary)
//! msgs    u64
//! nanos   u64
//! arena   …                backend-specific sections
//! ```
//!
//! The arena is a section directory, 8-byte-aligned typed sections, and a
//! trailing checksum. Loading validates the directory and checksum in a
//! single pass, then hands out *zero-copy views*
//! ([`congest::arena::SharedBytes`] slices) over the large typed
//! sections — derived state (row words, RTC long-range tables and
//! per-node table counts) is stored
//! in those sections rather than re-derived (see `README.md`,
//! "Serving"). [`Oracle::load_shared`] is the copy-free in-memory entry
//! point the `serve` crate uses.
//!
//! The routing tables inside a payload are [`pde_core::FlatTables`]
//! sections: one record per slot holding one packed word `port | hops |
//! level` and, in a keyed row, its source key before it (2 bytes a
//! direct slot and 3 or 4 a keyed entry on every benchmark table; the
//! widths come from the table's rows and its key count), one word per
//! row, the table's `[widths, h′, rungs…]` and its source map (empty
//! unless the rows name a proper subset of the nodes, whose ranks are
//! then the rows' keys). The record format is private to
//! `pde_core`'s `tables.rs`.
//!
//! Every graph or topology in a payload is one edge list
//! ([`congest::arena::write_edges`]): a `[n]` section, the endpoints at
//! the width that holds `n − 1` and the weights at the width that holds
//! the largest; a load refuses any other width.
//!
//! A PDE-layout arena is the `[eps, h, σ]` meta section, the graph's
//! sections, the transit hops (`node << 32 | source` keys, strictly
//! increasing, then one `u32` port each; both empty unless some list
//! dropped a source its routes pass through) and the route table last.
//!
//! Every map written anywhere in a payload is in sorted key order, and a
//! loaded oracle re-emits its sections' backing bytes verbatim, so
//! `load` → `save` reproduces the byte stream exactly and a reloaded
//! oracle answers queries bit-identically to the one that was saved
//! (`tests/oracle_matrix.rs` pins both properties).
//!
//! Truncated inputs (a partial download, a torn write) surface as
//! `InvalidData` wrapping [`congest::wire::SnapshotError::Truncated`] —
//! test with [`congest::wire::is_truncated`] — rather than a raw
//! `UnexpectedEof`.

use crate::backends::{CompactOracle, Inner, PdeOracle, RtcOracle, Transit, TruncatedOracle};
use crate::{Backend, Oracle, OracleBuildMetrics};
use compact::{CompactScheme, TruncatedScheme};
use congest::arena::{ArenaCursor, ArenaReader, ArenaWriter, SharedBytes};
use congest::wire::{invalid_data, WireReader, WireWriter};
use graphs::WGraph;
use pde_core::FlatTables;
use routing::RtcScheme;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PDOR";
/// The one version tag this binary reads and writes (see the module
/// docs); every other tag is a retired layout — rebuild and re-save.
const VERSION: u16 = 13;
/// Fixed header size: magic, version, backend, one pad byte (so the arena
/// that follows starts on an 8-byte boundary) and 4 × u64 metrics.
const HEADER_BYTES: usize = 4 + 2 + 1 + 1 + 4 * 8;

/// Writes the snapshot: header, then the backend's arena. With
/// `canonical` set, the header's volatile measurement fields
/// (rounds/messages/nanos, the only ones a snapshot carries) are written
/// as zeros (see [`crate::Oracle::artifact_bytes`]).
pub(crate) fn save(oracle: &Oracle, sink: &mut dyn Write, canonical: bool) -> io::Result<()> {
    let m = *oracle.inner.as_dyn().build_metrics();
    let zero = |x: u64| if canonical { 0 } else { x };
    let mut w = WireWriter::new(sink);
    w.bytes(MAGIC)?;
    w.u16(VERSION)?;
    w.u8(m.backend.wire_tag())?;
    w.u8(0)?; // pad: the arena starts 8-aligned
    w.usize(m.n)?;
    w.u64(zero(m.rounds))?;
    w.u64(zero(m.messages))?;
    w.u64(zero(m.build_nanos))?;
    let mut a = ArenaWriter::new();
    write_arena_payload(&oracle.inner, &mut a)?;
    a.finish(sink)
}

/// Serialized size in bits — 8 × what [`save`] writes — from a
/// length-only pass of the same section writers: nothing the size of the
/// artifact is allocated.
pub(crate) fn size_bits(oracle: &Oracle) -> u64 {
    let mut a = ArenaWriter::counting();
    write_arena_payload(&oracle.inner, &mut a).expect("writing to a Vec cannot fail");
    8 * (HEADER_BYTES + a.finished_len()) as u64
}

fn write_arena_payload(inner: &Inner, a: &mut ArenaWriter) -> io::Result<()> {
    match inner {
        Inner::Pde(o) => {
            a.u64s(&[o.eps.to_bits(), o.h, o.sigma as u64]);
            o.g.write_arena(a);
            o.transit.write_arena(a);
            o.routes.write_arena(a);
            Ok(())
        }
        Inner::Rtc(o) => {
            a.u64s(&[u64::from(o.k), o.eps.to_bits()]);
            o.scheme.write_arena(a)
        }
        Inner::Compact(o) => {
            a.u64s(&[u64::from(o.k), o.eps.to_bits()]);
            o.scheme.write_arena(a)
        }
        Inner::Truncated(o) => {
            a.u64s(&[u64::from(o.k), o.eps.to_bits()]);
            o.scheme.write_arena(a)
        }
    }
}

fn read_arena_payload(
    backend: Backend,
    metrics: OracleBuildMetrics,
    c: &mut ArenaCursor<'_>,
) -> io::Result<Inner> {
    Ok(match backend {
        Backend::Pde | Backend::ApproxApsp | Backend::Flooding => {
            let meta = c.u64s()?;
            let [eps, h, sigma] = meta[..] else {
                return Err(invalid_data("PDE meta section misshapen"));
            };
            let eps = f64::from_bits(eps);
            let sigma = usize::try_from(sigma).map_err(|_| invalid_data("PDE sigma overflow"))?;
            let g = WGraph::read_arena(c)?;
            let transit = Transit::read_arena(c)?;
            let routes = FlatTables::read_arena(c)?;
            let topo = g.to_topology();
            routes.validate(&topo)?;
            transit.validate(&topo, &routes)?;
            Inner::Pde(PdeOracle {
                g,
                topo,
                routes,
                transit,
                eps,
                h,
                sigma,
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
    let load = |source: &mut dyn Read| {
        let metrics = read_header(source)?;
        let mut body = Vec::new();
        source.read_to_end(&mut body)?;
        finish(SharedBytes::from_vec(body), metrics)
    };
    load(source).map_err(congest::wire::map_truncation)
}

/// Loads an oracle from a shared in-memory snapshot buffer: the header
/// and section directory are validated, and the oracle's tables are
/// views into `bytes` — no payload bytes are moved at all.
pub(crate) fn load_shared(bytes: SharedBytes) -> io::Result<Oracle> {
    // Reading from a byte slice advances it, so after the header `rest`
    // is exactly the arena, shared in place.
    let buf = bytes.as_slice();
    let mut rest = buf;
    read_header(&mut rest)
        .and_then(|metrics| finish(bytes.slice(buf.len() - rest.len()..bytes.len()), metrics))
        .map_err(congest::wire::map_truncation)
}

fn read_header(source: &mut dyn Read) -> io::Result<OracleBuildMetrics> {
    let mut r = WireReader::new(source);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(invalid_data("not an oracle snapshot (bad magic)"));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(congest::wire::rebuild(version));
    }
    let tag = r.u8()?;
    let backend = Backend::from_wire_tag(tag)
        .ok_or_else(|| invalid_data(format!("unknown backend tag {tag}")))?;
    if r.u8()? != 0 {
        return Err(invalid_data("nonzero pad byte in snapshot header"));
    }
    // Field expressions run in the order written: the header's order.
    Ok(OracleBuildMetrics {
        backend,
        n: r.usize()?,
        rounds: r.u64()?,
        messages: r.u64()?,
        build_nanos: r.u64()?,
    })
}

fn finish(body: SharedBytes, metrics: OracleBuildMetrics) -> io::Result<Oracle> {
    let reader = ArenaReader::parse(body)?;
    let mut c = reader.cursor();
    let inner = read_arena_payload(metrics.backend, metrics, &mut c)?;
    c.expect_end()?;
    Ok(Oracle { inner })
}
