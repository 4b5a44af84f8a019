//! The `net` wire protocol: little-endian binary frames over any byte
//! stream, with typed errors that survive the round trip.
//!
//! Every message travels in one [`congest::wire::write_frame`] frame
//! (`u32` length prefix, bounded by the peer's configured cap). Inside
//! the frame:
//!
//! ```text
//! request  := ver u8 | op u8     | req_id u64 | fields
//! response := ver u8 | status u8 | op u8 | req_id u64 | fields
//! ```
//!
//! `req_id` is an opaque correlation id echoed verbatim; responses on one
//! connection are written in request order, which is what makes
//! pipelining ([`crate::Client::queue_estimate_many`]) safe. `status` is
//! [`STATUS_OK`] or [`STATUS_ERR`]; an error frame's body is an encoded
//! [`WireError`] — [`serve::ServeError`] and [`graphs::DeltaError`]
//! variants are carried structurally (tag + fields), not as strings, so
//! the client-side error is the same variant the server raised. Each
//! request, reply and error variant lists its fields once, in wire
//! order, in one table that drives both directions; the golden frames
//! below pin the bytes.
//!
//! Decoding takes the same adversarial posture as the snapshot readers:
//! every length is bounded before allocation (names by [`MAX_NAME_LEN`],
//! paths by [`MAX_PATH_LEN`], sequence counts by the bytes actually
//! remaining in the frame), trailing bytes are rejected, and corruption
//! yields a typed [`WireError`] — never a panic.

use congest::NodeId;
use graphs::{DeltaError, GraphDelta};
use oracle::{Backend, FailoverOutcome as RouteOutcome, TracedRoute};
use serve::{
    BatcherStats, InstallSummary, OracleStats, RepairSummary, Request, Response, ServeError,
    ServerStats,
};
use std::fmt;
use std::io;

/// Protocol version spoken by this build (the first byte of every
/// request and response payload).
pub const NET_VERSION: u8 = 1;

/// Response status byte: the request succeeded, the body is the typed
/// reply for its op.
pub(crate) const STATUS_OK: u8 = 0;

/// Response status byte: the body is an encoded [`WireError`].
pub(crate) const STATUS_ERR: u8 = 0xEE;

/// Longest accepted oracle name on the wire.
pub(crate) const MAX_NAME_LEN: usize = 256;

/// Longest accepted server-side snapshot path in an `Install` frame.
pub(crate) const MAX_PATH_LEN: usize = 4096;

// ------------------------------------------------------------ errors --

/// Everything that can go wrong on the `net` layer, local or remote.
///
/// The first five variants describe protocol-level corruption (either
/// side can raise them; a server relays them in an error frame before
/// closing the connection). [`WireError::Serve`] and
/// [`WireError::Delta`] carry the server's typed errors across the wire
/// **with their variant intact** — the golden frames pin every variant.
/// [`WireError::Remote`] is the catch-all for server-side errors with no
/// structural encoding (repair and install failures);
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
            WireError::BadVersion { got } => write!(
                f,
                "unsupported net protocol version {got} (speaking {NET_VERSION})"
            ),
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
    /// A refused delta travels as `Delta`, a torn snapshot as `Truncated`,
    /// and repair, persistence and snapshot I/O failures as `Remote` text.
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Delta(d) => WireError::Delta(d),
            ServeError::Snapshot {
                truncated: true, ..
            } => WireError::Truncated,
            e @ (ServeError::Repair(_) | ServeError::Persist(_) | ServeError::Snapshot { .. }) => {
                WireError::Remote(e.to_string())
            }
            e => WireError::Serve(e),
        }
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

// ------------------------------------------------------------ shapes --

/// Bounded reads over one frame's payload. Every length is validated
/// against what actually remains in the frame before any allocation, and
/// [`Cursor::finish`] rejects trailing bytes.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// A `u32` element count validated against the bytes remaining
    /// (`width` per element), so a lying count cannot request an absurd
    /// allocation.
    fn count(&mut self, width: usize) -> Result<usize, WireError> {
        let count = u32::get(self)? as usize;
        let have = self.buf.len() / width;
        if count > have {
            return Err(WireError::Malformed(format!(
                "count {count} exceeds the {have} elements that fit in the frame"
            )));
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), WireError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(WireError::Malformed(format!(
                "{n} trailing bytes after the message"
            ))),
        }
    }
}

/// One wire shape: how a value is written and read back. The tables
/// below name a shape per field; encoding borrows a `Ref`, decoding
/// yields an `Owned`.
pub(crate) trait Field {
    type Ref: ?Sized;
    type Owned;
    fn put(v: &Self::Ref, out: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_>) -> Result<Self::Owned, WireError>;
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Field for $t {
            type Ref = $t;
            type Owned = $t;
            fn put(v: &$t, out: &mut Vec<u8>) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            fn get(c: &mut Cursor<'_>) -> Result<$t, WireError> {
                let le = c.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(le.try_into().expect("sized")))
            }
        }
    )*};
}

le!(u8, u16, u32, u64);

impl Field for bool {
    type Ref = bool;
    type Owned = bool;
    fn put(v: &bool, out: &mut Vec<u8>) {
        out.push(u8::from(*v));
    }
    fn get(c: &mut Cursor<'_>) -> Result<bool, WireError> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("invalid bool byte {b}"))),
        }
    }
}

/// Counts travel as `u64`.
impl Field for usize {
    type Ref = usize;
    type Owned = usize;
    fn put(v: &usize, out: &mut Vec<u8>) {
        u64::put(&(*v as u64), out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<usize, WireError> {
        Ok(u64::get(c)? as usize)
    }
}

impl Field for NodeId {
    type Ref = NodeId;
    type Owned = NodeId;
    fn put(v: &NodeId, out: &mut Vec<u8>) {
        u32::put(&v.0, out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<NodeId, WireError> {
        Ok(NodeId(u32::get(c)?))
    }
}

impl Field for Backend {
    type Ref = Backend;
    type Owned = Backend;
    fn put(v: &Backend, out: &mut Vec<u8>) {
        out.push(v.wire_tag());
    }
    fn get(c: &mut Cursor<'_>) -> Result<Backend, WireError> {
        let tag = u8::get(c)?;
        Backend::from_wire_tag(tag)
            .ok_or_else(|| WireError::Malformed(format!("unknown backend tag {tag}")))
    }
}

/// A `u16`-length-prefixed UTF-8 string of at most `MAX` bytes. With
/// `CUT`, a longer one is cut at a char boundary to fit.
pub(crate) struct Str<const MAX: usize, const CUT: bool = false>;

/// An oracle name.
type Name = Str<MAX_NAME_LEN>;

/// A snapshot path or a rebuild reason.
type Text = Str<MAX_PATH_LEN>;

/// A relayed error message.
type Msg = Str<MAX_PATH_LEN, true>;

impl<const MAX: usize, const CUT: bool> Field for Str<MAX, CUT> {
    type Ref = str;
    type Owned = String;
    fn put(s: &str, out: &mut Vec<u8>) {
        let s = if CUT {
            &s[..s.floor_char_boundary(MAX)]
        } else {
            s
        };
        debug_assert!(s.len() <= MAX);
        u16::put(&(s.len() as u16), out);
        out.extend_from_slice(s.as_bytes());
    }
    fn get(c: &mut Cursor<'_>) -> Result<String, WireError> {
        let len = usize::from(u16::get(c)?);
        if len > MAX {
            let (len, max) = (len as u64, MAX as u64);
            return Err(WireError::Oversized { len, max });
        }
        String::from_utf8(c.take(len)?.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }
}

/// A `u64`-length-prefixed byte payload (a snapshot), bounded by the
/// frame.
pub(crate) struct Blob;

impl Field for Blob {
    type Ref = [u8];
    type Owned = Vec<u8>;
    fn put(v: &[u8], out: &mut Vec<u8>) {
        u64::put(&(v.len() as u64), out);
        out.extend_from_slice(v);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<u8>, WireError> {
        let len = u64::get(c)?;
        if len > c.buf.len() as u64 {
            let have = c.buf.len();
            return Err(WireError::Malformed(format!(
                "payload length {len} exceeds the {have} bytes remaining"
            )));
        }
        Ok(c.take(len as usize)?.to_vec())
    }
}

/// `EstimateMany` pairs: a `u32` count, then `u | v` per pair. These bulk
/// loops carry the pipelined q/s.
pub(crate) struct Pairs;

impl Field for Pairs {
    type Ref = [(NodeId, NodeId)];
    type Owned = Vec<(NodeId, NodeId)>;
    fn put(pairs: &[(NodeId, NodeId)], out: &mut Vec<u8>) {
        u32::put(&(pairs.len() as u32), out);
        out.reserve(pairs.len() * 8);
        for &(u, v) in pairs {
            let mut le = [0u8; 8];
            le[..4].copy_from_slice(&u.0.to_le_bytes());
            le[4..].copy_from_slice(&v.0.to_le_bytes());
            out.extend_from_slice(&le);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<(NodeId, NodeId)>, WireError> {
        // The count is validated against the frame, so take the whole
        // array and cut it locally.
        let count = c.count(8)?;
        let raw = c.take(count * 8)?;
        let mut pairs = Vec::with_capacity(count);
        for le in raw.chunks_exact(8) {
            pairs.push((
                NodeId(u32::from_le_bytes(le[..4].try_into().expect("len 4"))),
                NodeId(u32::from_le_bytes(le[4..].try_into().expect("len 4"))),
            ));
        }
        Ok(pairs)
    }
}

/// `EstimateMany` answers: a `u32` count, then one `u64` each (the bulk
/// mirror of [`Pairs`]).
struct Ests;

impl Field for Ests {
    type Ref = [u64];
    type Owned = Vec<u64>;
    fn put(ests: &[u64], out: &mut Vec<u8>) {
        u32::put(&(ests.len() as u32), out);
        out.reserve(ests.len() * 8);
        for &e in ests {
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<u64>, WireError> {
        let count = c.count(8)?;
        let raw = c.take(count * 8)?;
        let mut ests = Vec::with_capacity(count);
        for le in raw.chunks_exact(8) {
            ests.push(u64::from_le_bytes(le.try_into().expect("len 8")));
        }
        Ok(ests)
    }
}

/// A presence flag (`0`/`1`), then the value.
impl<T, S: Field<Ref = T, Owned = T>> Field for Option<S> {
    type Ref = Option<T>;
    type Owned = Option<T>;
    fn put(v: &Option<T>, out: &mut Vec<u8>) {
        out.push(u8::from(v.is_some()));
        if let Some(x) = v {
            S::put(x, out);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Option<T>, WireError> {
        match u8::get(c)? {
            0 => Ok(None),
            1 => S::get(c).map(Some),
            b => Err(WireError::Malformed(format!("invalid presence flag {b}"))),
        }
    }
}

/// A `u32` count, then the elements. A lying count costs no allocation:
/// the elements are collected as they decode, up to the first one the
/// frame cannot hold.
impl<T, S: Field<Ref = T, Owned = T>> Field for Vec<S> {
    type Ref = [T];
    type Owned = Vec<T>;
    fn put(v: &[T], out: &mut Vec<u8>) {
        u32::put(&(v.len() as u32), out);
        v.iter().for_each(|x| S::put(x, out));
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<T>, WireError> {
        (0..u32::get(c)?).map(|_| S::get(c)).collect()
    }
}

impl<A: Field<Ref = A, Owned = A>, B: Field<Ref = B, Owned = B>> Field for (A, B) {
    type Ref = (A, B);
    type Owned = (A, B);
    fn put(v: &(A, B), out: &mut Vec<u8>) {
        A::put(&v.0, out);
        B::put(&v.1, out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<(A, B), WireError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// The `Stats` reply's per-oracle list: the one list with a `u16` count.
struct OracleList;

impl Field for OracleList {
    type Ref = [OracleStats];
    type Owned = Vec<OracleStats>;
    fn put(v: &[OracleStats], out: &mut Vec<u8>) {
        u16::put(&(v.len() as u16), out);
        v.iter().for_each(|o| OracleStats::put(o, out));
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<OracleStats>, WireError> {
        (0..u16::get(c)?).map(|_| OracleStats::get(c)).collect()
    }
}

// ------------------------------------------------------------ tables --

/// [`Field`] for structs written as their fields, in order.
macro_rules! record {
    ($($T:ident { $($f:ident: $S:ty),* $(,)? })*) => {$(
        impl Field for $T {
            type Ref = $T;
            type Owned = $T;
            fn put(v: &$T, out: &mut Vec<u8>) {
                $(<$S as Field>::put(&v.$f, out);)*
            }
            fn get(c: &mut Cursor<'_>) -> Result<$T, WireError> {
                Ok($T { $($f: <$S as Field>::get(c)?),* })
            }
        }
    )*};
}

record! {
    InstallSummary {
        backend: Backend, n: u64, generation: u64, cold_start_nanos: u64,
        replaced: Option<(u64, u64)>,
    }
    RepairSummary {
        generation: u64, incremental: bool, rows_recomputed: u64, rows_total: u64, reason: Text,
        repair_nanos: u64, stale_window_nanos: u64,
    }
    TracedRoute { weight: u64, nodes: Vec<NodeId>, ports: Vec<u32> }
    BatcherStats { submissions: u64, groups: u64, grouped_pairs: u64, largest_group: u64 }
    OracleStats {
        name: Name, backend: Backend, generation: u64, queries_served: u64, batches_served: u64,
        leases_in_flight: u64, batch: BatcherStats,
    }
    ServerStats {
        requests: u64, bytes_in: u64, bytes_out: u64, connections_active: u64,
        connections_total: u64, p50_service_ns: u64, p99_service_ns: u64, conn_requests: u64,
        conn_bytes_in: u64, conn_bytes_out: u64, oracles: OracleList,
    }
}

/// [`Field`] for an enum written as a `u8` tag, then the variant's
/// fields in order (tuple fields are named `0`). The optional `put` and
/// `get` arms, which name the value, the output and the cursor, handle
/// what a row cannot describe; `get` arms are tried first.
macro_rules! tagged {
    ($T:ident { $($rows:tt)* }) => {
        tagged!($T(v, out, c) { $($rows)* } put {} get {});
    };
    ($T:ident($v:ident, $out:ident, $c:ident) {
        $($tag:literal => $V:ident { $($f:tt: $S:ty),* }),* $(,)?
    } put { $($put:tt)* } get { $($get:tt)* }) => {
        impl Field for $T {
            type Ref = $T;
            type Owned = $T;
            fn put($v: &$T, $out: &mut Vec<u8>) {
                match $v {
                    $($T::$V { .. } => {
                        $out.push($tag);
                        $(if let $T::$V { $f: x, .. } = $v {
                            <$S as Field>::put(x, $out);
                        })*
                    })*
                    $($put)*
                }
            }
            fn get($c: &mut Cursor<'_>) -> Result<$T, WireError> {
                Ok(match u8::get($c)? {
                    $($get)*
                    $($tag => $T::$V { $($f: <$S as Field>::get($c)?),* },)*
                    tag => return Err(WireError::Malformed(format!("unknown {} tag {tag}", stringify!($T)))),
                })
            }
        }
    };
}

tagged! {
    GraphDelta {
        0 => SetWeight { u: NodeId, v: NodeId, w: u64 },
        1 => FailEdge { u: NodeId, v: NodeId },
        2 => FailNode { v: NodeId },
    }
}

tagged! {
    RouteOutcome { 0 => Primary {}, 1 => Detoured { detours: usize }, 2 => Unroutable {} }
}

tagged! {
    ServeError(e, out, c) {
        0 => UnknownOracle { 0: Name },
        1 => Deadline { 0: Name },
        2 => Retired { 0: Name },
        4 => NodeOutOfRange { id: NodeId, n: usize },
    }
    // A variant with no structural encoding relays its text under
    // sub-code 3 and arrives as `WireError::Remote`.
    put { other => { out.push(3); Msg::put(&other.to_string(), out) } }
    get {}
}

tagged! {
    DeltaError(e, out, c) {
        0 => UnknownEdge { u: NodeId, v: NodeId },
        1 => UnknownNode { v: NodeId, n: usize },
        2 => ZeroWeight {},
        3 => Disconnects {},
    }
    // `Invalid` nests a `GraphError` with no stable wire form (and is
    // unreachable for deltas built through the graphs API): its text
    // relays under sub-code 4 and arrives as `WireError::Remote`.
    put { DeltaError::Invalid(ge) => { out.push(4); Msg::put(&ge.to_string(), out) } }
    get {}
}

tagged! {
    WireError(err, out, c) {
        0 => BadVersion { got: u8 },
        1 => UnknownOp { op: u8 },
        2 => Oversized { len: u64, max: u64 },
        3 => Truncated {},
        4 => Malformed { 0: Msg },
        5 => Serve { 0: ServeError },
        6 => Delta { 0: DeltaError },
        7 => Remote { 0: Msg },
        8 => Overloaded { active: u64, cap: u64 },
    }
    // A local socket failure never crosses as such: it degrades to text.
    put {
        WireError::Io(kind, msg) => {
            WireError::put(&WireError::Remote(format!("{kind:?}: {msg}")), out);
        }
    }
    // The text relays of `Serve` (sub-code 3) and `Delta` (sub-code 4).
    get {
        5 if c.buf.first() == Some(&3) => {
            c.take(1)?;
            WireError::Remote(Msg::get(c)?)
        }
        6 if c.buf.first() == Some(&4) => {
            c.take(1)?;
            let msg = Msg::get(c)?;
            WireError::Remote(format!("delta produced an invalid graph: {msg}"))
        }
    }
}

/// Request frames: `ver u8 | op u8 | req_id u64 | fields`.
pub(crate) trait RequestFrame: Sized {
    /// This request's opcode.
    fn op(&self) -> Op;
    /// Encodes the full request payload (header + fields) into `out`.
    fn encode_into(&self, req_id: u64, out: &mut Vec<u8>);
    /// Decodes a request payload into `(req_id, request)`.
    fn decode(payload: &[u8]) -> Result<(u64, Self), WireError>;
}

/// The request table: per op its code, the name of its encoder over
/// borrowed fields (in [`put`]), and its fields' shapes in wire order.
macro_rules! requests {
    ($($(#[$doc:meta])* $V:ident = $code:literal, $put:ident { $($f:ident: $S:ty),* }),* $(,)?) => {
        /// Request opcodes. Stable numeric ids, append-only like
        /// [`Backend::wire_tag`]: existing values never change.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Op {
            $($(#[$doc])* $V = $code,)*
        }

        impl Op {
            /// The opcode for a wire byte (`None` for unassigned bytes).
            pub fn from_wire(op: u8) -> Option<Op> {
                [$(Op::$V),*].into_iter().find(|o| *o as u8 == op)
            }
        }

        /// One request encoder per op over borrowed fields, so the
        /// client's pipelined path never copies a batch into a
        /// [`Request`].
        pub(crate) mod put {
            use super::*;
            $(pub(crate) fn $put(req_id: u64, out: &mut Vec<u8>, $($f: &<$S as Field>::Ref),*) {
                out.extend_from_slice(&[NET_VERSION, Op::$V as u8]);
                u64::put(&req_id, out);
                $(<$S as Field>::put($f, out);)*
            })*
        }

        impl RequestFrame for Request {
            fn op(&self) -> Op {
                match self {
                    $(Request::$V { .. } => Op::$V,)*
                }
            }

            fn encode_into(&self, req_id: u64, out: &mut Vec<u8>) {
                match self {
                    $(Request::$V { $($f),* } => put::$put(req_id, out, $($f),*),)*
                }
            }

            fn decode(payload: &[u8]) -> Result<(u64, Request), WireError> {
                let mut c = Cursor::new(payload);
                let ver = u8::get(&mut c)?;
                if ver != NET_VERSION {
                    return Err(WireError::BadVersion { got: ver });
                }
                let op = u8::get(&mut c)?;
                let op = Op::from_wire(op).ok_or(WireError::UnknownOp { op })?;
                let req_id = u64::get(&mut c)?;
                let req = match op {
                    $(Op::$V => Request::$V { $($f: <$S as Field>::get(&mut c)?),* },)*
                };
                c.finish()?;
                Ok((req_id, req))
            }
        }
    };
}

requests! {
    /// Single distance estimate.
    Estimate = 1, estimate { name: Name, u: NodeId, v: NodeId },
    /// Batch estimates, optionally through the admission batcher.
    EstimateMany = 2, estimate_many { name: Name, batched: bool, pairs: Pairs },
    /// First hop of the route towards a destination.
    NextHop = 3, next_hop { name: Name, u: NodeId, v: NodeId },
    /// Full traced route (failover-aware for dynamic names).
    Route = 4, route { name: Name, u: NodeId, v: NodeId },
    /// Admin: install a snapshot from a file on the **server's** disk
    /// (the single-copy [`oracle::Oracle::load_path`] cold start).
    Install = 5, install { name: Name, path: Text },
    /// Admin: hot-swap a snapshot carried inline in the frame.
    Swap = 6, swap { name: Name, snapshot: Blob },
    /// Admin: mask an edge as failed on a dynamic oracle.
    FailEdge = 7, fail_edge { name: Name, u: NodeId, v: NodeId },
    /// Admin: mask a node as failed on a dynamic oracle.
    FailNode = 8, fail_node { name: Name, v: NodeId },
    /// Admin: repair the artifact for a delta and hot-swap the result.
    RepairAndSwap = 9, repair_and_swap { name: Name, delta: GraphDelta },
    /// Server and per-oracle serving statistics.
    Stats = 10, stats {},
}

/// The reply table: each [`Response`] variant's fields and the ops it
/// answers. The op travels in the header, so a reply body has no tag.
macro_rules! responses {
    ($($V:ident { $($f:tt: $S:ty),* } <= $($op:ident)|+),* $(,)?) => {
        fn put_reply(resp: &Response, out: &mut Vec<u8>) {
            match resp {
                $(Response::$V { .. } => {
                    $(if let Response::$V { $f: x, .. } = resp {
                        <$S as Field>::put(x, out);
                    })*
                })*
            }
        }

        fn get_reply(op: Op, c: &mut Cursor<'_>) -> Result<Response, WireError> {
            Ok(match op {
                $($(Op::$op)|+ => Response::$V { $($f: <$S as Field>::get(c)?),* },)*
            })
        }
    };
}

responses! {
    Estimate { generation: u64, est: u64 } <= Estimate,
    EstimateMany { generation: u64, ests: Ests } <= EstimateMany,
    NextHop { hop: Option<NodeId> } <= NextHop,
    Route { outcome: RouteOutcome, route: Option<TracedRoute> } <= Route,
    Installed { 0: InstallSummary } <= Install | Swap,
    Failed {} <= FailEdge | FailNode,
    Repaired { 0: RepairSummary } <= RepairAndSwap,
    Stats { 0: ServerStats } <= Stats,
}

// ------------------------------------------------------------ frames --

/// Encodes a success response payload (header + body) into `out`.
pub(crate) fn encode_response(req_id: u64, op: Op, resp: &Response, out: &mut Vec<u8>) {
    out.extend_from_slice(&[NET_VERSION, STATUS_OK, op as u8]);
    u64::put(&req_id, out);
    put_reply(resp, out);
}

/// Encodes an error response payload (header + encoded error) into `out`.
pub(crate) fn encode_error(req_id: u64, op: u8, err: &WireError, out: &mut Vec<u8>) {
    out.extend_from_slice(&[NET_VERSION, STATUS_ERR, op]);
    u64::put(&req_id, out);
    WireError::put(err, out);
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
    let ver = u8::get(&mut c)?;
    if ver != NET_VERSION {
        return Err(WireError::BadVersion { got: ver });
    }
    let status = u8::get(&mut c)?;
    let op = u8::get(&mut c)?;
    let req_id = u64::get(&mut c)?;
    let body = match status {
        // The op byte is advisory on error frames: a server reporting a
        // pre-decode failure (bad version, torn header) has no valid
        // opcode to echo.
        STATUS_ERR => Err(WireError::get(&mut c)?),
        STATUS_OK => {
            let op = Op::from_wire(op).ok_or(WireError::UnknownOp { op })?;
            Ok(get_reply(op, &mut c)?)
        }
        _ => {
            return Err(WireError::Malformed(format!(
                "unknown status byte {status}"
            )))
        }
    };
    c.finish()?;
    Ok((req_id, Op::from_wire(op).unwrap_or(Op::Stats), body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::GraphError;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s = s.replace(' ', "");
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The wire bytes, pinned: one request frame per op (and per delta
    /// kind), one reply per response shape, and one error frame per error
    /// code and per `Serve`/`Delta` sub-code. Every frame decodes back to
    /// the value it was encoded from, except the text relays, which
    /// decode as `Remote`. Spaces separate the header and the fields.
    #[test]
    #[rustfmt::skip] // one row per frame
    fn golden_frames_are_pinned() {
        let (id, pde) = (NodeId, || "pde".to_string());
        let (u, v) = (id(1), id(2));
        let repair = |delta| Request::RepairAndSwap { name: pde(), delta };
        let requests = [
            (Request::Estimate { name: pde(), u: id(3), v: id(9) },
             "01 01 2a00000000000000 0300 706465 03000000 09000000"),
            (Request::EstimateMany { name: pde(), batched: true, pairs: vec![(id(0), u), (id(7), v)] },
             "01 02 2a00000000000000 0300 706465 01 02000000 00000000 01000000 07000000 02000000"),
            (Request::NextHop { name: pde(), u, v },
             "01 03 2a00000000000000 0300 706465 01000000 02000000"),
            (Request::Route { name: pde(), u, v },
             "01 04 2a00000000000000 0300 706465 01000000 02000000"),
            (Request::Install { name: pde(), path: "/tmp/x.snap".into() },
             "01 05 2a00000000000000 0300 706465 0b00 2f746d702f782e736e6170"),
            (Request::Swap { name: pde(), snapshot: vec![1, 2, 3, 4, 5] },
             "01 06 2a00000000000000 0300 706465 0500000000000000 0102030405"),
            (Request::FailEdge { name: pde(), u, v },
             "01 07 2a00000000000000 0300 706465 01000000 02000000"),
            (Request::FailNode { name: pde(), v: id(5) },
             "01 08 2a00000000000000 0300 706465 05000000"),
            (repair(GraphDelta::SetWeight { u: id(0), v: id(1), w: 7 }),
             "01 09 2a00000000000000 0300 706465 00 00000000 01000000 0700000000000000"),
            (repair(GraphDelta::FailEdge { u: id(2), v: id(3) }),
             "01 09 2a00000000000000 0300 706465 01 02000000 03000000"),
            (repair(GraphDelta::FailNode { v: id(4) }),
             "01 09 2a00000000000000 0300 706465 02 04000000"),
            (Request::Stats, "01 0a 2a00000000000000"),
        ];
        for (req, want) in requests {
            let mut buf = Vec::new();
            req.encode_into(42, &mut buf);
            assert_eq!(hex(&buf), want.replace(' ', ""), "{req:?}");
            assert_eq!(Request::decode(&buf).unwrap(), (42, req));
        }

        let route = TracedRoute { nodes: vec![id(0), id(3), u], ports: vec![2, 0], weight: 11 };
        let installed = |backend, n, generation, cold_start_nanos, replaced| {
            Response::Installed(InstallSummary { backend, n, generation, cold_start_nanos, replaced })
        };
        let repaired = |generation, incremental, rows_recomputed, rows_total, reason: &str| {
            Response::Repaired(RepairSummary {
                generation, incremental, rows_recomputed, rows_total, reason: reason.into(),
                repair_nanos: 1000, stale_window_nanos: 2000,
            })
        };
        let batch = BatcherStats { submissions: 8, groups: 2, grouped_pairs: 64, largest_group: 5 };
        let oracles = vec![OracleStats {
            name: pde(), backend: Backend::Pde, generation: 2, queries_served: 1000,
            batches_served: 10, leases_in_flight: 1, batch,
        }];
        let stats = ServerStats {
            requests: 10, bytes_in: 100, bytes_out: 200, connections_active: 1,
            connections_total: 3, p50_service_ns: 5_000, p99_service_ns: 50_000,
            conn_requests: 4, conn_bytes_in: 40, conn_bytes_out: 80, oracles,
        };
        let responses = [
            (Op::Estimate, Response::Estimate { generation: 3, est: 99 },
             "01 00 01 0700000000000000 0300000000000000 6300000000000000"),
            (Op::EstimateMany, Response::EstimateMany { generation: 2, ests: vec![1, u64::MAX, 0] },
             "01 00 02 0700000000000000 0200000000000000 03000000 \
              0100000000000000 ffffffffffffffff 0000000000000000"),
            (Op::NextHop, Response::NextHop { hop: None }, "01 00 03 0700000000000000 00"),
            (Op::NextHop, Response::NextHop { hop: Some(id(12)) },
             "01 00 03 0700000000000000 01 0c000000"),
            (Op::Route, Response::Route { outcome: RouteOutcome::Primary, route: Some(route.clone()) },
             "01 00 04 0700000000000000 00 01 0b00000000000000 \
              03000000 00000000 03000000 01000000 02000000 02000000 00000000"),
            (Op::Route,
             Response::Route { outcome: RouteOutcome::Detoured { detours: 2 }, route: Some(route) },
             "01 00 04 0700000000000000 01 0200000000000000 01 0b00000000000000 \
              03000000 00000000 03000000 01000000 02000000 02000000 00000000"),
            (Op::Route, Response::Route { outcome: RouteOutcome::Unroutable, route: None },
             "01 00 04 0700000000000000 02 00"),
            (Op::Install, installed(Backend::Rtc, 4096, 5, 123_456, Some((4, 2))),
             "01 00 05 0700000000000000 02 0010000000000000 0500000000000000 \
              40e2010000000000 01 0400000000000000 0200000000000000"),
            (Op::Swap, installed(Backend::Flooding, 8, 1, 1000, None),
             "01 00 06 0700000000000000 07 0800000000000000 0100000000000000 \
              e803000000000000 00"),
            (Op::FailEdge, Response::Failed, "01 00 07 0700000000000000"),
            (Op::FailNode, Response::Failed, "01 00 08 0700000000000000"),
            (Op::RepairAndSwap, repaired(6, true, 4, 16, ""),
             "01 00 09 0700000000000000 0600000000000000 01 0400000000000000 \
              1000000000000000 0000 e803000000000000 d007000000000000"),
            (Op::RepairAndSwap, repaired(7, false, 0, 0, "ids renumber"),
             "01 00 09 0700000000000000 0700000000000000 00 0000000000000000 \
              0000000000000000 0c00 6964732072656e756d626572 e803000000000000 \
              d007000000000000"),
            (Op::Stats, Response::Stats(stats),
             "01 00 0a 0700000000000000 0a00000000000000 6400000000000000 \
              c800000000000000 0100000000000000 0300000000000000 8813000000000000 \
              50c3000000000000 0400000000000000 2800000000000000 5000000000000000 \
              0100 0300 706465 00 0200000000000000 e803000000000000 0a00000000000000 \
              0100000000000000 0800000000000000 0200000000000000 4000000000000000 \
              0500000000000000"),
        ];
        for (op, resp, want) in responses {
            let mut buf = Vec::new();
            encode_response(7, op, &resp, &mut buf);
            assert_eq!(hex(&buf), want.replace(' ', ""), "{resp:?}");
            assert_eq!(decode_response(&buf).unwrap(), (7, op, Ok(resp)));
        }

        // (sent, frame, received): the text relays arrive as `Remote`.
        let remote = |msg: &str| WireError::Remote(msg.into());
        let same = |e: WireError, frame| (e.clone(), frame, e);
        let errors = [
            same(WireError::BadVersion { got: 9 }, "00 09"),
            same(WireError::UnknownOp { op: 200 }, "01 c8"),
            same(WireError::Oversized { len: 1 << 40, max: 1 << 28 },
                 "02 0000000000010000 0000001000000000"),
            same(WireError::Truncated, "03"),
            same(WireError::Malformed("trailing bytes".into()),
                 "04 0e00 747261696c696e67206279746573"),
            same(WireError::Serve(ServeError::UnknownOracle(pde())), "05 00 0300 706465"),
            same(WireError::Serve(ServeError::Deadline("rtc".into())), "05 01 0300 727463"),
            same(WireError::Serve(ServeError::Retired("compact".into())),
                 "05 02 0700 636f6d70616374"),
            same(WireError::Serve(ServeError::NodeOutOfRange { id: id(21), n: 16 }),
                 "05 04 15000000 1000000000000000"),
            same(WireError::Delta(DeltaError::UnknownEdge { u: id(3), v: id(4) }),
                 "06 00 03000000 04000000"),
            same(WireError::Delta(DeltaError::UnknownNode { v: id(9), n: 8 }),
                 "06 01 09000000 0800000000000000"),
            same(WireError::Delta(DeltaError::ZeroWeight), "06 02"),
            same(WireError::Delta(DeltaError::Disconnects), "06 03"),
            (WireError::Delta(DeltaError::Invalid(GraphError::Disconnected)),
             "06 04 1600 6772617068206973206e6f7420636f6e6e6563746564",
             remote("delta produced an invalid graph: graph is not connected")),
            same(remote("install failed: no such file"),
                 "07 1c00 696e7374616c6c206661696c65643a206e6f20737563682066696c65"),
            (WireError::Io(io::ErrorKind::ConnectionReset, "reset".into()),
             "07 1600 436f6e6e656374696f6e52657365743a207265736574",
             remote("ConnectionReset: reset")),
            same(WireError::Overloaded { active: 256, cap: 255 },
                 "08 0001000000000000 ff00000000000000"),
        ];
        for (sent, want, got) in errors {
            let mut buf = Vec::new();
            encode_error(77, Op::Estimate as u8, &sent, &mut buf);
            let want = format!("01 ee 01 4d00000000000000 {want}");
            assert_eq!(hex(&buf), want.replace(' ', ""), "{sent:?}");
            assert_eq!(decode_response(&buf).unwrap(), (77, Op::Estimate, Err(got)));
        }
        // Serve sub-code 3 (a variant with no structural encoding) is
        // never sent by this build but still decodes, as text.
        let frame = unhex("01 ee 01 4d00000000000000 05 03 0500 6c61746572");
        assert_eq!(decode_response(&frame).unwrap(), (77, Op::Estimate, Err(remote("later"))));
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
        // Backend tags 1, 5 and 6 are retired (Theorem 4.1's approximate
        // APSP, the exact Thorup–Zwick matrices and the served
        // distance-vector matrix): a summary carrying one is malformed,
        // not a backend.
        let summary = InstallSummary {
            backend: Backend::Flooding,
            n: 8,
            generation: 1,
            cold_start_nanos: 1000,
            replaced: None,
        };
        let mut buf = Vec::new();
        encode_response(7, Op::Swap, &Response::Installed(summary), &mut buf);
        // `ver | ok | op | req_id u64`, then the backend byte.
        assert_eq!(buf[11], Backend::Flooding.wire_tag());
        for tag in [1, 5, 6] {
            buf[11] = tag;
            assert!(matches!(
                decode_response(&buf).unwrap_err(),
                WireError::Malformed(_)
            ));
        }
    }
}
