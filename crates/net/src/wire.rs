//! The `net` wire protocol: little-endian binary frames over any byte
//! stream, with typed errors that survive the round trip.
//!
//! Every message travels in one [`congest::wire::write_frame`] frame
//! (`u32` length prefix, bounded by the peer's configured cap). Inside
//! the frame:
//!
//! ```text
//! request  := ver u8 | op u8     | req_id u64 | body
//! response := ver u8 | status u8 | op u8 | req_id u64 | body
//! ```
//!
//! `req_id` is an opaque correlation id echoed verbatim; responses on one
//! connection are written in request order, which is what makes
//! pipelining ([`crate::Client::queue_estimate_many`]) safe. `status` is
//! [`STATUS_OK`] or [`STATUS_ERR`]; an error frame's body is an encoded
//! [`WireError`] — [`serve::ServeError`] and [`graphs::DeltaError`]
//! variants are carried structurally (tag + fields), not as strings, so
//! the client-side error is the same variant the server raised (pinned
//! by the round-trip tests below).
//!
//! Decoding takes the same adversarial posture as the snapshot readers:
//! every length is bounded before allocation (names by [`MAX_NAME_LEN`],
//! paths by [`MAX_PATH_LEN`], sequence counts by the bytes actually
//! remaining in the frame), trailing bytes are rejected, and corruption
//! yields a typed [`WireError`] — never a panic.

use congest::wire::WireWriter;
use congest::{NodeId, Port};
use graphs::{DeltaError, GraphDelta, GraphError};
use oracle::{Backend, TracedRoute};
use serve::{BatcherStats, ServeError};
use std::fmt;
use std::io;

/// Protocol version spoken by this build (the first byte of every
/// request and response payload).
pub const NET_VERSION: u8 = 1;

/// Response status byte: the request succeeded, the body is the typed
/// reply for its op.
pub const STATUS_OK: u8 = 0;

/// Response status byte: the body is an encoded [`WireError`].
pub const STATUS_ERR: u8 = 0xEE;

/// Longest accepted oracle name on the wire.
pub const MAX_NAME_LEN: usize = 256;

/// Longest accepted server-side snapshot path in an `Install` frame.
pub const MAX_PATH_LEN: usize = 4096;

/// Request opcodes. Stable numeric ids, append-only like
/// [`Backend::wire_tag`]: existing values never change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Single distance estimate.
    Estimate = 1,
    /// Batch estimates, optionally through the admission batcher.
    EstimateMany = 2,
    /// First hop of the route towards a destination.
    NextHop = 3,
    /// Full traced route (failover-aware for dynamic names).
    Route = 4,
    /// Admin: install a snapshot from a file on the **server's** disk
    /// (the single-copy [`oracle::Oracle::load_path`] cold start).
    Install = 5,
    /// Admin: hot-swap a snapshot carried inline in the frame.
    Swap = 6,
    /// Admin: mask an edge as failed on a dynamic oracle.
    FailEdge = 7,
    /// Admin: mask a node as failed on a dynamic oracle.
    FailNode = 8,
    /// Admin: repair the artifact for a delta and hot-swap the result.
    RepairAndSwap = 9,
    /// Server and per-oracle serving statistics.
    Stats = 10,
}

impl Op {
    /// The opcode for a wire byte (`None` for unassigned bytes).
    pub fn from_wire(op: u8) -> Option<Op> {
        use Op::*;
        [
            Estimate,
            EstimateMany,
            NextHop,
            Route,
            Install,
            Swap,
            FailEdge,
            FailNode,
            RepairAndSwap,
            Stats,
        ]
        .into_iter()
        .find(|o| *o as u8 == op)
    }
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// One `estimate(u, v)` on the named oracle.
    Estimate {
        /// Served name.
        name: String,
        /// Source.
        u: NodeId,
        /// Destination.
        v: NodeId,
    },
    /// One `estimate_many` batch on the named oracle.
    EstimateMany {
        /// Served name.
        name: String,
        /// Route the batch through the shared admission
        /// [`serve::Batcher`] (merging with concurrent submissions)
        /// instead of executing it alone.
        batched: bool,
        /// The query pairs.
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// `next_hop(u, v)` on the named oracle.
    NextHop {
        /// Served name.
        name: String,
        /// Source.
        u: NodeId,
        /// Destination.
        v: NodeId,
    },
    /// Full route `u → v`; detours around masked failures when the name
    /// is served dynamically.
    Route {
        /// Served name.
        name: String,
        /// Source.
        u: NodeId,
        /// Destination.
        v: NodeId,
    },
    /// Install (or hot-swap) a snapshot file from the server's disk.
    Install {
        /// Name to serve under.
        name: String,
        /// Path on the server's filesystem.
        path: String,
    },
    /// Install (or hot-swap) the snapshot bytes carried in this frame.
    Swap {
        /// Name to serve under.
        name: String,
        /// A complete snapshot stream.
        snapshot: Vec<u8>,
    },
    /// Mask edge `{u, v}` as failed (dynamic names only).
    FailEdge {
        /// Served name.
        name: String,
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Mask node `v` as failed (dynamic names only).
    FailNode {
        /// Served name.
        name: String,
        /// The failed node.
        v: NodeId,
    },
    /// Repair the served artifact for `delta` and hot-swap it in
    /// (dynamic names only).
    RepairAndSwap {
        /// Served name.
        name: String,
        /// The graph mutation to fold into the artifact.
        delta: GraphDelta,
    },
    /// Server-wide and per-oracle statistics.
    Stats,
}

impl Request {
    /// This request's opcode.
    pub fn op(&self) -> Op {
        match self {
            Request::Estimate { .. } => Op::Estimate,
            Request::EstimateMany { .. } => Op::EstimateMany,
            Request::NextHop { .. } => Op::NextHop,
            Request::Route { .. } => Op::Route,
            Request::Install { .. } => Op::Install,
            Request::Swap { .. } => Op::Swap,
            Request::FailEdge { .. } => Op::FailEdge,
            Request::FailNode { .. } => Op::FailNode,
            Request::RepairAndSwap { .. } => Op::RepairAndSwap,
            Request::Stats => Op::Stats,
        }
    }
}

/// How a `Route` reply was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The artifact's own primary route (no failure in the way).
    Primary,
    /// The route detoured around masked failures at this many nodes.
    Detoured {
        /// Nodes where the path deviates from the primary next hop.
        detours: u64,
    },
    /// No route: unknown pair, estimate-only backend, or the masked
    /// failures partition the endpoints.
    Unroutable,
}

/// What an `Install`/`Swap` did (the wire form of
/// [`serve::InstallReport`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstallSummary {
    /// Backend of the installed snapshot.
    pub backend: Backend,
    /// Nodes covered.
    pub n: u64,
    /// Install generation.
    pub generation: u64,
    /// Measured decode + install + first-probe time.
    pub cold_start_nanos: u64,
    /// Replaced snapshot, if the name was live: `(generation,
    /// leases_in_flight)` at swap time.
    pub replaced: Option<(u64, u64)>,
}

/// What a `RepairAndSwap` did (the wire form of
/// [`serve::RepairSwapReport`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairSummary {
    /// Generation of the repaired snapshot now being served.
    pub generation: u64,
    /// `true` when only affected rows were recomputed.
    pub incremental: bool,
    /// Rows recomputed (incremental repairs; 0 otherwise).
    pub rows_recomputed: u64,
    /// Total artifact rows (incremental repairs; 0 otherwise).
    pub rows_total: u64,
    /// Why the backend rebuilt instead (empty for incremental).
    pub reason: String,
    /// Wall-clock repair time.
    pub repair_nanos: u64,
    /// Failure-masked → repaired-snapshot-installed window.
    pub stale_window_nanos: u64,
}

/// Per-oracle serving statistics in a `Stats` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleStats {
    /// Served name.
    pub name: String,
    /// Backend answering this name.
    pub backend: Backend,
    /// Current snapshot generation.
    pub generation: u64,
    /// Queries answered through the current snapshot.
    pub queries_served: u64,
    /// Batches answered through the current snapshot.
    pub batches_served: u64,
    /// Outstanding leases on the current snapshot.
    pub leases_in_flight: u64,
    /// Admission-batcher occupancy for this name (zeros when no batched
    /// submission has been routed yet).
    pub batch: BatcherStats,
}

/// A `Stats` reply: aggregate server counters, the requesting
/// connection's own counters, and one [`OracleStats`] per served name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered across all connections (including this one).
    pub requests: u64,
    /// Frame bytes read across all connections.
    pub bytes_in: u64,
    /// Frame bytes written across all connections.
    pub bytes_out: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections accepted since the server started.
    pub connections_total: u64,
    /// Median request service time (decode → response encoded), ns.
    pub p50_service_ns: u64,
    /// 99th-percentile request service time, ns.
    pub p99_service_ns: u64,
    /// Requests answered on the connection that asked.
    pub conn_requests: u64,
    /// Frame bytes read on the connection that asked.
    pub conn_bytes_in: u64,
    /// Frame bytes written on the connection that asked.
    pub conn_bytes_out: u64,
    /// Per-name serving counters, sorted by name.
    pub oracles: Vec<OracleStats>,
}

/// A decoded success response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Op::Estimate`].
    Estimate {
        /// Generation that answered.
        generation: u64,
        /// The estimate ([`graphs::INF`] outside coverage).
        est: u64,
    },
    /// Reply to [`Op::EstimateMany`].
    EstimateMany {
        /// Generation that answered (one generation for the whole
        /// batch — a hot swap lands between batches, never inside one).
        generation: u64,
        /// One answer per pair, in request order.
        ests: Vec<u64>,
    },
    /// Reply to [`Op::NextHop`].
    NextHop {
        /// The first hop, when the backend routes the pair.
        hop: Option<NodeId>,
    },
    /// Reply to [`Op::Route`].
    Route {
        /// How the route was produced.
        outcome: RouteOutcome,
        /// The traced route (absent when unroutable).
        route: Option<TracedRoute>,
    },
    /// Reply to [`Op::Install`] and [`Op::Swap`].
    Installed(InstallSummary),
    /// Reply to [`Op::FailEdge`] and [`Op::FailNode`]: the mask is in
    /// effect.
    Failed,
    /// Reply to [`Op::RepairAndSwap`].
    Repaired(RepairSummary),
    /// Reply to [`Op::Stats`].
    Stats(ServerStats),
}

// ------------------------------------------------------------ errors --

/// Everything that can go wrong on the `net` layer, local or remote.
///
/// The first five variants describe protocol-level corruption (either
/// side can raise them; a server relays them in an error frame before
/// closing the connection). [`WireError::Serve`] and
/// [`WireError::Delta`] carry the server's typed errors across the wire
/// **with their variant intact** — the round-trip tests pin every
/// variant. [`WireError::Remote`] is the catch-all for server-side
/// errors with no structural encoding (build failures, install I/O);
/// [`WireError::Io`] is a local socket failure and never travels.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The peer speaks a different protocol version.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Unassigned opcode byte.
    UnknownOp {
        /// The opcode received.
        op: u8,
    },
    /// A length field exceeds the configured bound.
    Oversized {
        /// The length received.
        len: u64,
        /// The bound it broke.
        max: u64,
    },
    /// The stream ended mid-frame (torn write, dropped connection).
    Truncated,
    /// The frame parsed as bytes but not as a message.
    Malformed(String),
    /// The serving layer rejected the request.
    Serve(ServeError),
    /// A repair delta was rejected.
    Delta(DeltaError),
    /// The server shed the connection or request because a capacity
    /// bound was hit (connection cap, per-request batch budget). Always
    /// safe to retry after a backoff: nothing was executed.
    Overloaded {
        /// The load observed (active connections, or requested pairs).
        active: u64,
        /// The configured cap it exceeded.
        cap: u64,
    },
    /// Any other server-side failure, relayed as text.
    Remote(String),
    /// A local socket failure (never encoded on the wire).
    Io(io::ErrorKind, String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported net protocol version {got} (speaking {NET_VERSION})"
                )
            }
            WireError::UnknownOp { op } => write!(f, "unknown net opcode {op}"),
            WireError::Oversized { len, max } => {
                write!(f, "wire length {len} exceeds the configured bound {max}")
            }
            WireError::Truncated => write!(f, "net stream truncated mid-frame"),
            WireError::Malformed(msg) => write!(f, "malformed net frame: {msg}"),
            WireError::Serve(e) => write!(f, "serve error: {e}"),
            WireError::Delta(e) => write!(f, "delta rejected: {e}"),
            WireError::Overloaded { active, cap } => {
                write!(f, "server overloaded: {active} against a cap of {cap}")
            }
            WireError::Remote(msg) => write!(f, "remote error: {msg}"),
            WireError::Io(kind, msg) => write!(f, "socket error ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Serve(e) => Some(e),
            WireError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for WireError {
    fn from(e: ServeError) -> Self {
        WireError::Serve(e)
    }
}

impl From<DeltaError> for WireError {
    fn from(e: DeltaError) -> Self {
        WireError::Delta(e)
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof || congest::wire::is_truncated(&e) {
            WireError::Truncated
        } else {
            WireError::Io(e.kind(), e.to_string())
        }
    }
}

// ------------------------------------------------------ byte cursors --

/// Bounded little-endian reads over one frame's payload. Every length is
/// validated against what actually remains in the frame before any
/// allocation, and [`Cursor::finish`] rejects trailing bytes.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("invalid bool byte {b}"))),
        }
    }

    /// A `u16`-length-prefixed UTF-8 string bounded by `max`.
    pub(crate) fn str(&mut self, max: usize, what: &str) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        if len > max {
            return Err(WireError::Oversized {
                len: len as u64,
                max: max as u64,
            });
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| WireError::Malformed(format!("{what} is not UTF-8")))
    }

    /// A `u32` element count validated against the bytes remaining
    /// (`elem_bytes` per element), so a lying count cannot request an
    /// absurd allocation.
    pub(crate) fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        let have = self.remaining() / elem_bytes.max(1);
        if count > have {
            return Err(WireError::Malformed(format!(
                "{what} count {count} exceeds the {have} that fit in the frame"
            )));
        }
        Ok(count)
    }

    /// A `u64`-length-prefixed raw byte payload (the rest of the frame
    /// bounds it).
    pub(crate) fn blob(&mut self, what: &str) -> Result<Vec<u8>, WireError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(WireError::Malformed(format!(
                "{what} length {len} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after the message",
                self.buf.len()
            )))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str, max: usize) {
    debug_assert!(s.len() <= max && s.len() <= u16::MAX as usize);
    let mut w = WireWriter::new(out);
    w.u16(s.len() as u16).expect("vec write");
    w.bytes(s.as_bytes()).expect("vec write");
}

fn w(out: &mut Vec<u8>) -> WireWriter<'_> {
    WireWriter::new(out)
}

// --------------------------------------------------- request codecs --

/// Encodes an `EstimateMany` request payload straight from a borrowed
/// pair slice — the pipelined hot path, which must not clone the batch
/// into a [`Request`] first.
pub(crate) fn encode_estimate_many(
    req_id: u64,
    name: &str,
    batched: bool,
    pairs: &[(NodeId, NodeId)],
    out: &mut Vec<u8>,
) {
    w(out).u8(NET_VERSION).expect("vec write");
    w(out).u8(Op::EstimateMany as u8).expect("vec write");
    w(out).u64(req_id).expect("vec write");
    put_str(out, name, MAX_NAME_LEN);
    w(out).bool(batched).expect("vec write");
    w(out).u32(pairs.len() as u32).expect("vec write");
    // Hot path: one 8-byte append per pair, not two checked writer
    // calls — this loop carries the pipelined q/s.
    out.reserve(pairs.len() * 8);
    for &(u, v) in pairs {
        let mut le = [0u8; 8];
        le[..4].copy_from_slice(&u.0.to_le_bytes());
        le[4..].copy_from_slice(&v.0.to_le_bytes());
        out.extend_from_slice(&le);
    }
}

impl Request {
    /// Encodes the full request payload (header + body) into `out`.
    pub(crate) fn encode_into(&self, req_id: u64, out: &mut Vec<u8>) {
        if let Request::EstimateMany {
            name,
            batched,
            pairs,
        } = self
        {
            return encode_estimate_many(req_id, name, *batched, pairs, out);
        }
        w(out).u8(NET_VERSION).expect("vec write");
        w(out).u8(self.op() as u8).expect("vec write");
        w(out).u64(req_id).expect("vec write");
        match self {
            Request::Estimate { name, u, v }
            | Request::NextHop { name, u, v }
            | Request::Route { name, u, v }
            | Request::FailEdge { name, u, v } => {
                put_str(out, name, MAX_NAME_LEN);
                w(out).u32(u.0).expect("vec write");
                w(out).u32(v.0).expect("vec write");
            }
            Request::EstimateMany { .. } => unreachable!("delegated above"),
            Request::Install { name, path } => {
                put_str(out, name, MAX_NAME_LEN);
                put_str(out, path, MAX_PATH_LEN);
            }
            Request::Swap { name, snapshot } => {
                put_str(out, name, MAX_NAME_LEN);
                w(out).u64(snapshot.len() as u64).expect("vec write");
                w(out).bytes(snapshot).expect("vec write");
            }
            Request::FailNode { name, v } => {
                put_str(out, name, MAX_NAME_LEN);
                w(out).u32(v.0).expect("vec write");
            }
            Request::RepairAndSwap { name, delta } => {
                put_str(out, name, MAX_NAME_LEN);
                encode_delta(delta, out);
            }
            Request::Stats => {}
        }
    }

    /// Decodes a request payload into `(req_id, request)`.
    pub(crate) fn decode(payload: &[u8]) -> Result<(u64, Request), WireError> {
        let mut c = Cursor::new(payload);
        let ver = c.u8()?;
        if ver != NET_VERSION {
            return Err(WireError::BadVersion { got: ver });
        }
        let op_byte = c.u8()?;
        let op = Op::from_wire(op_byte).ok_or(WireError::UnknownOp { op: op_byte })?;
        let req_id = c.u64()?;
        let req = match op {
            Op::Estimate | Op::NextHop | Op::Route | Op::FailEdge => {
                let name = c.str(MAX_NAME_LEN, "oracle name")?;
                let (u, v) = (NodeId(c.u32()?), NodeId(c.u32()?));
                match op {
                    Op::Estimate => Request::Estimate { name, u, v },
                    Op::NextHop => Request::NextHop { name, u, v },
                    Op::Route => Request::Route { name, u, v },
                    _ => Request::FailEdge { name, u, v },
                }
            }
            Op::EstimateMany => {
                let name = c.str(MAX_NAME_LEN, "oracle name")?;
                let batched = c.bool()?;
                let count = c.count(8, "pair")?;
                // Hot path: the count is already validated against the
                // frame, so take the whole array and cut it locally.
                let raw = c.take(count * 8)?;
                let mut pairs = Vec::with_capacity(count);
                for le in raw.chunks_exact(8) {
                    pairs.push((
                        NodeId(u32::from_le_bytes(le[..4].try_into().expect("len 4"))),
                        NodeId(u32::from_le_bytes(le[4..].try_into().expect("len 4"))),
                    ));
                }
                Request::EstimateMany {
                    name,
                    batched,
                    pairs,
                }
            }
            Op::Install => Request::Install {
                name: c.str(MAX_NAME_LEN, "oracle name")?,
                path: c.str(MAX_PATH_LEN, "snapshot path")?,
            },
            Op::Swap => Request::Swap {
                name: c.str(MAX_NAME_LEN, "oracle name")?,
                snapshot: c.blob("snapshot")?,
            },
            Op::FailNode => Request::FailNode {
                name: c.str(MAX_NAME_LEN, "oracle name")?,
                v: NodeId(c.u32()?),
            },
            Op::RepairAndSwap => Request::RepairAndSwap {
                name: c.str(MAX_NAME_LEN, "oracle name")?,
                delta: decode_delta(&mut c)?,
            },
            Op::Stats => Request::Stats,
        };
        c.finish()?;
        Ok((req_id, req))
    }
}

fn encode_delta(delta: &GraphDelta, out: &mut Vec<u8>) {
    match *delta {
        GraphDelta::SetWeight { u, v, w: weight } => {
            w(out).u8(0).expect("vec write");
            w(out).u32(u.0).expect("vec write");
            w(out).u32(v.0).expect("vec write");
            w(out).u64(weight).expect("vec write");
        }
        GraphDelta::FailEdge { u, v } => {
            w(out).u8(1).expect("vec write");
            w(out).u32(u.0).expect("vec write");
            w(out).u32(v.0).expect("vec write");
        }
        GraphDelta::FailNode { v } => {
            w(out).u8(2).expect("vec write");
            w(out).u32(v.0).expect("vec write");
        }
    }
}

fn decode_delta(c: &mut Cursor<'_>) -> Result<GraphDelta, WireError> {
    match c.u8()? {
        0 => Ok(GraphDelta::SetWeight {
            u: NodeId(c.u32()?),
            v: NodeId(c.u32()?),
            w: c.u64()?,
        }),
        1 => Ok(GraphDelta::FailEdge {
            u: NodeId(c.u32()?),
            v: NodeId(c.u32()?),
        }),
        2 => Ok(GraphDelta::FailNode {
            v: NodeId(c.u32()?),
        }),
        k => Err(WireError::Malformed(format!("unknown delta kind {k}"))),
    }
}

// -------------------------------------------------- response codecs --

/// Encodes a success response payload (header + body) into `out`.
pub(crate) fn encode_response(req_id: u64, op: Op, resp: &Response, out: &mut Vec<u8>) {
    w(out).u8(NET_VERSION).expect("vec write");
    w(out).u8(STATUS_OK).expect("vec write");
    w(out).u8(op as u8).expect("vec write");
    w(out).u64(req_id).expect("vec write");
    match resp {
        Response::Estimate { generation, est } => {
            w(out).u64(*generation).expect("vec write");
            w(out).u64(*est).expect("vec write");
        }
        Response::EstimateMany { generation, ests } => {
            w(out).u64(*generation).expect("vec write");
            w(out).u32(ests.len() as u32).expect("vec write");
            // Hot path: bulk little-endian append, mirroring the pair
            // codec on the request side.
            out.reserve(ests.len() * 8);
            for &e in ests {
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        Response::NextHop { hop } => match hop {
            Some(h) => {
                w(out).u8(1).expect("vec write");
                w(out).u32(h.0).expect("vec write");
            }
            None => w(out).u8(0).expect("vec write"),
        },
        Response::Route { outcome, route } => {
            match outcome {
                RouteOutcome::Primary => w(out).u8(0).expect("vec write"),
                RouteOutcome::Detoured { detours } => {
                    w(out).u8(1).expect("vec write");
                    w(out).u64(*detours).expect("vec write");
                }
                RouteOutcome::Unroutable => w(out).u8(2).expect("vec write"),
            }
            match route {
                Some(r) => {
                    w(out).u8(1).expect("vec write");
                    w(out).u64(r.weight).expect("vec write");
                    w(out).u32(r.nodes.len() as u32).expect("vec write");
                    for &x in &r.nodes {
                        w(out).u32(x.0).expect("vec write");
                    }
                    w(out).u32(r.ports.len() as u32).expect("vec write");
                    for &p in &r.ports {
                        w(out).u32(p).expect("vec write");
                    }
                }
                None => w(out).u8(0).expect("vec write"),
            }
        }
        Response::Installed(s) => {
            w(out).u8(s.backend.wire_tag()).expect("vec write");
            w(out).u64(s.n).expect("vec write");
            w(out).u64(s.generation).expect("vec write");
            w(out).u64(s.cold_start_nanos).expect("vec write");
            match s.replaced {
                Some((generation, leases)) => {
                    w(out).u8(1).expect("vec write");
                    w(out).u64(generation).expect("vec write");
                    w(out).u64(leases).expect("vec write");
                }
                None => w(out).u8(0).expect("vec write"),
            }
        }
        Response::Failed => {}
        Response::Repaired(s) => {
            w(out).u64(s.generation).expect("vec write");
            w(out).bool(s.incremental).expect("vec write");
            w(out).u64(s.rows_recomputed).expect("vec write");
            w(out).u64(s.rows_total).expect("vec write");
            put_str(out, &s.reason, MAX_PATH_LEN);
            w(out).u64(s.repair_nanos).expect("vec write");
            w(out).u64(s.stale_window_nanos).expect("vec write");
        }
        Response::Stats(s) => {
            for x in [
                s.requests,
                s.bytes_in,
                s.bytes_out,
                s.connections_active,
                s.connections_total,
                s.p50_service_ns,
                s.p99_service_ns,
                s.conn_requests,
                s.conn_bytes_in,
                s.conn_bytes_out,
            ] {
                w(out).u64(x).expect("vec write");
            }
            w(out).u16(s.oracles.len() as u16).expect("vec write");
            for o in &s.oracles {
                put_str(out, &o.name, MAX_NAME_LEN);
                w(out).u8(o.backend.wire_tag()).expect("vec write");
                for x in [
                    o.generation,
                    o.queries_served,
                    o.batches_served,
                    o.leases_in_flight,
                    o.batch.submissions,
                    o.batch.groups,
                    o.batch.grouped_pairs,
                    o.batch.largest_group,
                ] {
                    w(out).u64(x).expect("vec write");
                }
            }
        }
    }
}

/// Encodes an error response payload (header + encoded error) into `out`.
pub(crate) fn encode_error(req_id: u64, op: u8, err: &WireError, out: &mut Vec<u8>) {
    w(out).u8(NET_VERSION).expect("vec write");
    w(out).u8(STATUS_ERR).expect("vec write");
    w(out).u8(op).expect("vec write");
    w(out).u64(req_id).expect("vec write");
    encode_wire_error(err, out);
}

fn encode_wire_error(err: &WireError, out: &mut Vec<u8>) {
    match err {
        WireError::BadVersion { got } => {
            w(out).u8(0).expect("vec write");
            w(out).u8(*got).expect("vec write");
        }
        WireError::UnknownOp { op } => {
            w(out).u8(1).expect("vec write");
            w(out).u8(*op).expect("vec write");
        }
        WireError::Oversized { len, max } => {
            w(out).u8(2).expect("vec write");
            w(out).u64(*len).expect("vec write");
            w(out).u64(*max).expect("vec write");
        }
        WireError::Truncated => w(out).u8(3).expect("vec write"),
        WireError::Malformed(msg) => {
            w(out).u8(4).expect("vec write");
            put_str(out, truncate_msg(msg), MAX_PATH_LEN);
        }
        WireError::Serve(e) => {
            w(out).u8(5).expect("vec write");
            let (sub, name) = match e {
                ServeError::UnknownOracle(n) => (0u8, n.as_str()),
                ServeError::Deadline(n) => (1, n.as_str()),
                ServeError::Retired(n) => (2, n.as_str()),
                ServeError::NodeOutOfRange { id, n } => {
                    w(out).u8(4).expect("vec write");
                    w(out).u32(id.0).expect("vec write");
                    w(out).u64(*n as u64).expect("vec write");
                    return;
                }
                // `ServeError` is non_exhaustive: future variants relay
                // as text until the codec learns them.
                other => {
                    w(out).u8(3).expect("vec write");
                    put_str(out, truncate_msg(&other.to_string()), MAX_PATH_LEN);
                    return;
                }
            };
            w(out).u8(sub).expect("vec write");
            put_str(out, truncate_msg(name), MAX_NAME_LEN);
        }
        WireError::Delta(e) => {
            w(out).u8(6).expect("vec write");
            match e {
                DeltaError::UnknownEdge { u, v } => {
                    w(out).u8(0).expect("vec write");
                    w(out).u32(u.0).expect("vec write");
                    w(out).u32(v.0).expect("vec write");
                }
                DeltaError::UnknownNode { v, n } => {
                    w(out).u8(1).expect("vec write");
                    w(out).u32(v.0).expect("vec write");
                    w(out).u64(*n as u64).expect("vec write");
                }
                DeltaError::ZeroWeight => w(out).u8(2).expect("vec write"),
                DeltaError::Disconnects => w(out).u8(3).expect("vec write"),
                // `Invalid` nests a `GraphError` with no stable wire
                // form (and is unreachable for deltas built through the
                // graphs API) — relay its message instead.
                DeltaError::Invalid(ge) => {
                    w(out).u8(4).expect("vec write");
                    put_str(out, truncate_msg(&ge.to_string()), MAX_PATH_LEN);
                }
            }
        }
        WireError::Overloaded { active, cap } => {
            w(out).u8(8).expect("vec write");
            w(out).u64(*active).expect("vec write");
            w(out).u64(*cap).expect("vec write");
        }
        WireError::Remote(msg) => {
            w(out).u8(7).expect("vec write");
            put_str(out, truncate_msg(msg), MAX_PATH_LEN);
        }
        // Local-only: if one is ever asked to cross, degrade to text.
        WireError::Io(kind, msg) => {
            w(out).u8(7).expect("vec write");
            put_str(out, truncate_msg(&format!("{kind:?}: {msg}")), MAX_PATH_LEN);
        }
    }
}

/// Clamps relayed error messages to what [`MAX_PATH_LEN`] permits.
fn truncate_msg(msg: &str) -> &str {
    let mut end = msg.len().min(MAX_PATH_LEN);
    while !msg.is_char_boundary(end) {
        end -= 1;
    }
    &msg[..end]
}

fn decode_wire_error(c: &mut Cursor<'_>) -> Result<WireError, WireError> {
    Ok(match c.u8()? {
        0 => WireError::BadVersion { got: c.u8()? },
        1 => WireError::UnknownOp { op: c.u8()? },
        2 => WireError::Oversized {
            len: c.u64()?,
            max: c.u64()?,
        },
        3 => WireError::Truncated,
        4 => WireError::Malformed(c.str(MAX_PATH_LEN, "error message")?),
        5 => {
            let sub = c.u8()?;
            if sub == 3 {
                WireError::Remote(c.str(MAX_PATH_LEN, "serve error")?)
            } else if sub == 4 {
                WireError::Serve(ServeError::NodeOutOfRange {
                    id: NodeId(c.u32()?),
                    n: c.u64()? as usize,
                })
            } else {
                let name = c.str(MAX_NAME_LEN, "oracle name")?;
                WireError::Serve(match sub {
                    0 => ServeError::UnknownOracle(name),
                    1 => ServeError::Deadline(name),
                    2 => ServeError::Retired(name),
                    k => return Err(WireError::Malformed(format!("unknown serve sub-code {k}"))),
                })
            }
        }
        6 => WireError::Delta(match c.u8()? {
            0 => DeltaError::UnknownEdge {
                u: NodeId(c.u32()?),
                v: NodeId(c.u32()?),
            },
            1 => DeltaError::UnknownNode {
                v: NodeId(c.u32()?),
                n: c.u64()? as usize,
            },
            2 => DeltaError::ZeroWeight,
            3 => DeltaError::Disconnects,
            4 => {
                let msg = c.str(MAX_PATH_LEN, "graph error")?;
                return Ok(WireError::Remote(format!(
                    "delta produced an invalid graph: {msg}"
                )));
            }
            k => return Err(WireError::Malformed(format!("unknown delta sub-code {k}"))),
        }),
        7 => WireError::Remote(c.str(MAX_PATH_LEN, "error message")?),
        8 => WireError::Overloaded {
            active: c.u64()?,
            cap: c.u64()?,
        },
        k => return Err(WireError::Malformed(format!("unknown error code {k}"))),
    })
}

/// Decodes a response payload into `(req_id, op, body-or-relayed-error)`.
///
/// The outer `Err` is a local decode failure (the frame itself is
/// corrupt); an inner `Err` is the error the **server** raised for this
/// request, reconstructed variant-intact.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_response(
    payload: &[u8],
) -> Result<(u64, Op, Result<Response, WireError>), WireError> {
    let mut c = Cursor::new(payload);
    let ver = c.u8()?;
    if ver != NET_VERSION {
        return Err(WireError::BadVersion { got: ver });
    }
    let status = c.u8()?;
    let op_byte = c.u8()?;
    let req_id = c.u64()?;
    if status == STATUS_ERR {
        // The op byte is advisory on error frames: a server reporting a
        // pre-decode failure (bad version, torn header) has no valid
        // opcode to echo.
        let err = decode_wire_error(&mut c)?;
        c.finish()?;
        let op = Op::from_wire(op_byte).unwrap_or(Op::Stats);
        return Ok((req_id, op, Err(err)));
    }
    if status != STATUS_OK {
        return Err(WireError::Malformed(format!(
            "unknown status byte {status}"
        )));
    }
    let op = Op::from_wire(op_byte).ok_or(WireError::UnknownOp { op: op_byte })?;
    let resp = match op {
        Op::Estimate => Response::Estimate {
            generation: c.u64()?,
            est: c.u64()?,
        },
        Op::EstimateMany => {
            let generation = c.u64()?;
            let count = c.count(8, "estimate")?;
            let raw = c.take(count * 8)?;
            let mut ests = Vec::with_capacity(count);
            for le in raw.chunks_exact(8) {
                ests.push(u64::from_le_bytes(le.try_into().expect("len 8")));
            }
            Response::EstimateMany { generation, ests }
        }
        Op::NextHop => Response::NextHop {
            hop: match c.u8()? {
                0 => None,
                1 => Some(NodeId(c.u32()?)),
                b => return Err(WireError::Malformed(format!("invalid hop flag {b}"))),
            },
        },
        Op::Route => {
            let outcome = match c.u8()? {
                0 => RouteOutcome::Primary,
                1 => RouteOutcome::Detoured { detours: c.u64()? },
                2 => RouteOutcome::Unroutable,
                b => return Err(WireError::Malformed(format!("invalid outcome byte {b}"))),
            };
            let route = match c.u8()? {
                0 => None,
                1 => {
                    let weight = c.u64()?;
                    let count = c.count(4, "route node")?;
                    let mut nodes = Vec::with_capacity(count);
                    for _ in 0..count {
                        nodes.push(NodeId(c.u32()?));
                    }
                    let count = c.count(4, "route port")?;
                    let mut ports: Vec<Port> = Vec::with_capacity(count);
                    for _ in 0..count {
                        ports.push(c.u32()?);
                    }
                    Some(TracedRoute {
                        nodes,
                        ports,
                        weight,
                    })
                }
                b => return Err(WireError::Malformed(format!("invalid route flag {b}"))),
            };
            Response::Route { outcome, route }
        }
        Op::Install | Op::Swap => {
            let tag = c.u8()?;
            let backend = Backend::from_wire_tag(tag)
                .ok_or_else(|| WireError::Malformed(format!("unknown backend tag {tag}")))?;
            Response::Installed(InstallSummary {
                backend,
                n: c.u64()?,
                generation: c.u64()?,
                cold_start_nanos: c.u64()?,
                replaced: match c.u8()? {
                    0 => None,
                    1 => Some((c.u64()?, c.u64()?)),
                    b => return Err(WireError::Malformed(format!("invalid replaced flag {b}"))),
                },
            })
        }
        Op::FailEdge | Op::FailNode => Response::Failed,
        Op::RepairAndSwap => Response::Repaired(RepairSummary {
            generation: c.u64()?,
            incremental: c.bool()?,
            rows_recomputed: c.u64()?,
            rows_total: c.u64()?,
            reason: c.str(MAX_PATH_LEN, "rebuild reason")?,
            repair_nanos: c.u64()?,
            stale_window_nanos: c.u64()?,
        }),
        Op::Stats => {
            let mut head = [0u64; 10];
            for slot in &mut head {
                *slot = c.u64()?;
            }
            let count = c.u16()? as usize;
            let mut oracles = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let name = c.str(MAX_NAME_LEN, "oracle name")?;
                let tag = c.u8()?;
                let backend = Backend::from_wire_tag(tag)
                    .ok_or_else(|| WireError::Malformed(format!("unknown backend tag {tag}")))?;
                let mut xs = [0u64; 8];
                for slot in &mut xs {
                    *slot = c.u64()?;
                }
                oracles.push(OracleStats {
                    name,
                    backend,
                    generation: xs[0],
                    queries_served: xs[1],
                    batches_served: xs[2],
                    leases_in_flight: xs[3],
                    batch: BatcherStats {
                        submissions: xs[4],
                        groups: xs[5],
                        grouped_pairs: xs[6],
                        largest_group: xs[7],
                    },
                });
            }
            Response::Stats(ServerStats {
                requests: head[0],
                bytes_in: head[1],
                bytes_out: head[2],
                connections_active: head[3],
                connections_total: head[4],
                p50_service_ns: head[5],
                p99_service_ns: head[6],
                conn_requests: head[7],
                conn_bytes_in: head[8],
                conn_bytes_out: head[9],
                oracles,
            })
        }
    };
    c.finish()?;
    Ok((req_id, op, Ok(resp)))
}

/// The error emitted when a graph delta round-trips through
/// [`GraphError`] — kept here so the doc link compiles.
#[doc(hidden)]
pub fn _doc_anchor(_: &GraphError) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        req.encode_into(42, &mut buf);
        let (req_id, back) = Request::decode(&buf).unwrap();
        assert_eq!(req_id, 42);
        assert_eq!(back, req);
    }

    #[test]
    fn requests_round_trip() {
        let name = "pde".to_string();
        roundtrip_request(Request::Estimate {
            name: name.clone(),
            u: NodeId(3),
            v: NodeId(9),
        });
        roundtrip_request(Request::EstimateMany {
            name: name.clone(),
            batched: true,
            pairs: vec![(NodeId(0), NodeId(1)), (NodeId(7), NodeId(2))],
        });
        roundtrip_request(Request::NextHop {
            name: name.clone(),
            u: NodeId(1),
            v: NodeId(2),
        });
        roundtrip_request(Request::Route {
            name: name.clone(),
            u: NodeId(1),
            v: NodeId(2),
        });
        roundtrip_request(Request::Install {
            name: name.clone(),
            path: "/tmp/x.snap".into(),
        });
        roundtrip_request(Request::Swap {
            name: name.clone(),
            snapshot: vec![1, 2, 3, 4, 5],
        });
        roundtrip_request(Request::FailEdge {
            name: name.clone(),
            u: NodeId(1),
            v: NodeId(2),
        });
        roundtrip_request(Request::FailNode {
            name: name.clone(),
            v: NodeId(5),
        });
        for delta in [
            GraphDelta::SetWeight {
                u: NodeId(0),
                v: NodeId(1),
                w: 7,
            },
            GraphDelta::FailEdge {
                u: NodeId(2),
                v: NodeId(3),
            },
            GraphDelta::FailNode { v: NodeId(4) },
        ] {
            roundtrip_request(Request::RepairAndSwap {
                name: name.clone(),
                delta,
            });
        }
        roundtrip_request(Request::Stats);
    }

    fn roundtrip_response(op: Op, resp: Response) {
        let mut buf = Vec::new();
        encode_response(7, op, &resp, &mut buf);
        let (req_id, back_op, body) = decode_response(&buf).unwrap();
        assert_eq!((req_id, back_op), (7, op));
        assert_eq!(body.unwrap(), resp);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(
            Op::Estimate,
            Response::Estimate {
                generation: 3,
                est: 99,
            },
        );
        roundtrip_response(
            Op::EstimateMany,
            Response::EstimateMany {
                generation: 2,
                ests: vec![1, u64::MAX, 0],
            },
        );
        roundtrip_response(Op::NextHop, Response::NextHop { hop: None });
        roundtrip_response(
            Op::NextHop,
            Response::NextHop {
                hop: Some(NodeId(12)),
            },
        );
        roundtrip_response(
            Op::Route,
            Response::Route {
                outcome: RouteOutcome::Detoured { detours: 2 },
                route: Some(TracedRoute {
                    nodes: vec![NodeId(0), NodeId(3), NodeId(1)],
                    ports: vec![2, 0],
                    weight: 11,
                }),
            },
        );
        roundtrip_response(
            Op::Route,
            Response::Route {
                outcome: RouteOutcome::Unroutable,
                route: None,
            },
        );
        roundtrip_response(
            Op::Install,
            Response::Installed(InstallSummary {
                backend: Backend::Rtc,
                n: 4096,
                generation: 5,
                cold_start_nanos: 123_456,
                replaced: Some((4, 2)),
            }),
        );
        roundtrip_response(Op::FailEdge, Response::Failed);
        roundtrip_response(
            Op::RepairAndSwap,
            Response::Repaired(RepairSummary {
                generation: 6,
                incremental: true,
                rows_recomputed: 4,
                rows_total: 16,
                reason: String::new(),
                repair_nanos: 1000,
                stale_window_nanos: 2000,
            }),
        );
        roundtrip_response(
            Op::Stats,
            Response::Stats(ServerStats {
                requests: 10,
                bytes_in: 100,
                bytes_out: 200,
                connections_active: 1,
                connections_total: 3,
                p50_service_ns: 5_000,
                p99_service_ns: 50_000,
                conn_requests: 4,
                conn_bytes_in: 40,
                conn_bytes_out: 80,
                oracles: vec![OracleStats {
                    name: "pde".into(),
                    backend: Backend::Pde,
                    generation: 2,
                    queries_served: 1000,
                    batches_served: 10,
                    leases_in_flight: 1,
                    batch: BatcherStats {
                        submissions: 8,
                        groups: 2,
                        grouped_pairs: 64,
                        largest_group: 5,
                    },
                }],
            }),
        );
    }

    /// The satellite contract: `ServeError` and `DeltaError` variants
    /// cross the wire intact (every reachable variant pinned), and the
    /// protocol-level `WireError` variants do too.
    #[test]
    fn errors_survive_the_wire_round_trip_variant_intact() {
        let cases = vec![
            WireError::BadVersion { got: 9 },
            WireError::UnknownOp { op: 200 },
            WireError::Oversized {
                len: 1 << 40,
                max: 1 << 28,
            },
            WireError::Truncated,
            WireError::Malformed("trailing bytes".into()),
            WireError::Serve(ServeError::UnknownOracle("pde".into())),
            WireError::Serve(ServeError::Deadline("rtc".into())),
            WireError::Serve(ServeError::Retired("compact".into())),
            WireError::Serve(ServeError::NodeOutOfRange {
                id: NodeId(21),
                n: 16,
            }),
            WireError::Delta(DeltaError::UnknownEdge {
                u: NodeId(3),
                v: NodeId(4),
            }),
            WireError::Delta(DeltaError::UnknownNode { v: NodeId(9), n: 8 }),
            WireError::Delta(DeltaError::ZeroWeight),
            WireError::Delta(DeltaError::Disconnects),
            WireError::Remote("install failed: no such file".into()),
            WireError::Overloaded {
                active: 256,
                cap: 255,
            },
        ];
        for err in cases {
            let mut buf = Vec::new();
            encode_error(77, Op::Estimate as u8, &err, &mut buf);
            let (req_id, op, body) = decode_response(&buf).unwrap();
            assert_eq!((req_id, op), (77, Op::Estimate));
            assert_eq!(body.unwrap_err(), err, "variant must survive the wire");
        }
    }

    #[test]
    fn errors_implement_error_and_display_uniformly() {
        // The `?`-composition contract: everything is std::error::Error
        // with a Display that names the failure.
        fn check(e: &dyn std::error::Error) {
            assert!(!e.to_string().is_empty());
        }
        check(&WireError::Truncated);
        check(&ServeError::Deadline("x".into()));
        check(&DeltaError::Disconnects);
        // Source chains reach the carried typed error.
        let wrapped = WireError::Serve(ServeError::Retired("x".into()));
        assert!(std::error::Error::source(&wrapped).is_some());
        let wrapped = WireError::Delta(DeltaError::ZeroWeight);
        assert!(std::error::Error::source(&wrapped).is_some());
        // io::Error conversion types truncation.
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert_eq!(WireError::from(eof), WireError::Truncated);
        let refused = io::Error::new(io::ErrorKind::ConnectionRefused, "nope");
        assert!(matches!(
            WireError::from(refused),
            WireError::Io(io::ErrorKind::ConnectionRefused, _)
        ));
    }

    #[test]
    fn adversarial_payloads_yield_typed_errors_never_panics() {
        // Empty, torn, and bit-flipped frames.
        assert!(Request::decode(&[]).is_err());
        let mut buf = Vec::new();
        Request::Estimate {
            name: "a".into(),
            u: NodeId(0),
            v: NodeId(1),
        }
        .encode_into(1, &mut buf);
        for cut in 0..buf.len() {
            let _ = Request::decode(&buf[..cut]); // must not panic
        }
        // Wrong version.
        let mut bad = buf.clone();
        bad[0] = 99;
        assert_eq!(
            Request::decode(&bad).unwrap_err(),
            WireError::BadVersion { got: 99 }
        );
        // Unknown opcode.
        let mut bad = buf.clone();
        bad[1] = 250;
        assert_eq!(
            Request::decode(&bad).unwrap_err(),
            WireError::UnknownOp { op: 250 }
        );
        // Trailing garbage.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(matches!(
            Request::decode(&bad).unwrap_err(),
            WireError::Malformed(_)
        ));
        // A lying pair count cannot request an absurd allocation.
        let mut buf = Vec::new();
        Request::EstimateMany {
            name: "a".into(),
            batched: false,
            pairs: vec![(NodeId(0), NodeId(1))],
        }
        .encode_into(1, &mut buf);
        let count_at = buf.len() - 8 - 4;
        buf[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&buf).unwrap_err(),
            WireError::Malformed(_)
        ));
    }
}
