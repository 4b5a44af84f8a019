//! The blocking client: one TCP connection, reused across requests,
//! with explicit pipelining for batch submission.
//!
//! [`Client::call`] and every typed method is a strict
//! request/response round trip. For throughput,
//! [`Client::queue_estimate_many`] writes requests without waiting;
//! [`Client::recv_estimate_many`] flushes and collects the replies in
//! order (the server answers a connection's requests in request order,
//! so correlation is positional — `req_id` is checked, not searched).
//!
//! Errors are typed end to end: a serve-layer rejection arrives as the
//! same [`WireError::Serve`] / [`WireError::Delta`] variant the server
//! raised; protocol corruption and socket failures are local
//! [`WireError`] variants. After a protocol-level error the connection
//! is poisoned (framing may be desynchronized) and every subsequent call
//! fails fast — reconnect to recover.

use crate::wire::{self, decode_response, Op, RequestFrame, WireError};
use congest::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use congest::NodeId;
use graphs::GraphDelta;
use oracle::{FailoverOutcome as RouteOutcome, TracedRoute};
use serve::{InstallSummary, RepairSummary, Request, Response, ServerStats};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Typed round trips over [`Client::call`]: each method sends one
/// request and unpacks the reply its op gets.
macro_rules! calls {
    ($($(#[$doc:meta])* $method:ident($($arg:ident: $ty:ty),*) -> $ret:ty {
        $req:expr => $reply:pat => $out:expr
    })*) => {$(
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// As [`Client::call`].
        pub fn $method(&mut self, $($arg: $ty),*) -> Result<$ret, WireError> {
            match self.call(&$req)? {
                $reply => Ok($out),
                other => Err(self.unexpected(other)),
            }
        }
    )*};
}

/// A blocking `net` client over one reused TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_req: u64,
    inflight: VecDeque<(u64, Op)>,
    poisoned: bool,
    /// Reused encode buffer — large pipelined batches must not pay an
    /// allocation per frame.
    scratch: Vec<u8>,
}

impl Client {
    /// Connects to a [`crate::NetServer`] at `addr`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_req: 0,
            inflight: VecDeque::new(),
            poisoned: false,
            scratch: Vec::new(),
        })
    }

    /// Bounds how long any single receive may block.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the socket rejects the option.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Whether the connection has been poisoned by a socket- or
    /// protocol-level failure. A poisoned client fails every call fast;
    /// the only recovery is a fresh connection (which is what
    /// [`crate::RetryClient`] automates).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_usable(&self) -> Result<(), WireError> {
        if self.poisoned {
            return Err(WireError::Malformed(
                "connection poisoned by an earlier protocol error; reconnect".into(),
            ));
        }
        Ok(())
    }

    /// Encodes one request via `encode` into the reused scratch buffer
    /// and writes it without flushing; the reply is owed at position
    /// `inflight.len()`.
    fn queue_with(
        &mut self,
        op: Op,
        encode: impl FnOnce(u64, &mut Vec<u8>),
    ) -> Result<(), WireError> {
        self.check_usable()?;
        self.next_req += 1;
        let req_id = self.next_req;
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        encode(req_id, &mut payload);
        let written = write_frame(&mut self.writer, &payload);
        self.scratch = payload;
        written.map_err(|e| self.poison(e.into()))?;
        self.inflight.push_back((req_id, op));
        Ok(())
    }

    fn poison(&mut self, e: WireError) -> WireError {
        // Socket-level and protocol-level failures desynchronize the
        // framing; server-relayed errors (handled elsewhere) do not.
        self.poisoned = true;
        e
    }

    /// Receives the next response, which must answer the oldest
    /// outstanding request.
    fn recv(&mut self) -> Result<Response, WireError> {
        use std::io::Write as _;
        self.check_usable()?;
        self.writer.flush().map_err(|e| self.poison(e.into()))?;
        let (want_id, want_op) = self
            .inflight
            .pop_front()
            .expect("recv called with no request outstanding");
        let payload = match read_frame(&mut self.reader, MAX_FRAME_LEN) {
            Ok(Some(p)) => p,
            Ok(None) => return Err(self.poison(WireError::Truncated)),
            Err(e) => return Err(self.poison(e.into())),
        };
        let (req_id, op, body) = match decode_response(&payload) {
            Ok(decoded) => decoded,
            Err(e) => return Err(self.poison(e)),
        };
        match body {
            // A pre-decode failure on the server: it reported and closed;
            // nothing later will be answered.
            Err(e) if req_id == 0 => Err(self.poison(e)),
            // An error frame's op byte is advisory; a reply's is not.
            _ if req_id != want_id || (body.is_ok() && op != want_op) => {
                Err(self.poison(WireError::Malformed(format!(
                    "response {req_id}/{op:?} while awaiting {want_id}/{want_op:?}"
                ))))
            }
            body => body,
        }
    }

    /// One strict round trip: `req` is answered exactly as
    /// [`serve::OracleServer::handle`] answers it in process, with the
    /// server's error relayed as a [`WireError`]. The typed methods are
    /// this call with the reply unpacked.
    ///
    /// # Errors
    ///
    /// Server-relayed or local wire errors, and [`WireError::Malformed`]
    /// while pipelined requests are pending.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.check_idle()?;
        self.queue_with(req.op(), |req_id, out| req.encode_into(req_id, out))?;
        self.recv()
    }

    fn check_idle(&self) -> Result<(), WireError> {
        match self.inflight.len() {
            0 => Ok(()),
            _ => Err(WireError::Malformed(
                "pipelined requests pending; receive them before a direct call".into(),
            )),
        }
    }

    calls! {
        /// One distance estimate from the named oracle.
        estimate(name: &str, u: NodeId, v: NodeId) -> u64 {
            Request::Estimate { name: name.into(), u, v } => Response::Estimate { est, .. } => est
        }
        /// The first hop of the route `u → v`, when the backend routes it.
        next_hop(name: &str, u: NodeId, v: NodeId) -> Option<NodeId> {
            Request::NextHop { name: name.into(), u, v } => Response::NextHop { hop } => hop
        }
        /// The full traced route `u → v` (failover-aware when the name is
        /// served dynamically).
        route(name: &str, u: NodeId, v: NodeId) -> (RouteOutcome, Option<TracedRoute>) {
            Request::Route { name: name.into(), u, v }
                => Response::Route { outcome, route } => (outcome, route)
        }
        /// Admin: install (or hot-swap) a snapshot from a file on the
        /// **server's** filesystem — the single-copy
        /// [`oracle::Oracle::load_path`] cold-start path. I/O failures
        /// arrive as [`WireError::Remote`], torn snapshots as
        /// [`WireError::Truncated`].
        install(name: &str, path: &str) -> InstallSummary {
            Request::Install { name: name.into(), path: path.into() } => Response::Installed(s) => s
        }
        /// Admin: install (or hot-swap) the snapshot bytes carried in the
        /// request frame.
        swap(name: &str, snapshot: &[u8]) -> InstallSummary {
            Request::Swap { name: name.into(), snapshot: snapshot.to_vec() }
                => Response::Installed(s) => s
        }
        /// Admin: mask edge `{u, v}` as failed on a dynamic name. A name
        /// not served dynamically is [`serve::ServeError::UnknownOracle`];
        /// a non-edge is a [`WireError::Delta`] and masks nothing.
        fail_edge(name: &str, u: NodeId, v: NodeId) -> () {
            Request::FailEdge { name: name.into(), u, v } => Response::Failed => ()
        }
        /// Admin: mask node `v` as failed on a dynamic name (errors as
        /// [`Client::fail_edge`]).
        fail_node(name: &str, v: NodeId) -> () {
            Request::FailNode { name: name.into(), v } => Response::Failed => ()
        }
        /// Admin: repair the served artifact for `delta` and hot-swap the
        /// result in. A rejected delta arrives as [`WireError::Delta`]
        /// with its variant intact.
        repair_and_swap(name: &str, delta: &GraphDelta) -> RepairSummary {
            Request::RepairAndSwap { name: name.into(), delta: *delta } => Response::Repaired(s) => s
        }
        /// Server-wide, per-connection, and per-oracle statistics.
        stats() -> ServerStats {
            Request::Stats => Response::Stats(stats) => stats
        }
    }

    /// A batch of estimates; `batched` routes the submission through the
    /// server's shared admission batcher. Returns the answers in pair
    /// order and the generation that served them.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn estimate_many(
        &mut self,
        name: &str,
        pairs: &[(NodeId, NodeId)],
        batched: bool,
    ) -> Result<(Vec<u64>, u64), WireError> {
        self.check_idle()?;
        self.queue_estimate_many(name, pairs, batched)?;
        self.recv_estimate_many()
    }

    /// Queues an `EstimateMany` without waiting for its answer. Collect
    /// with [`Client::recv_estimate_many`].
    ///
    /// # Errors
    ///
    /// Local wire errors (nothing has been received yet).
    pub fn queue_estimate_many(
        &mut self,
        name: &str,
        pairs: &[(NodeId, NodeId)],
        batched: bool,
    ) -> Result<(), WireError> {
        // Encodes straight from the borrowed slice: cloning the batch
        // into a `Request` would cost an allocation and a copy per
        // frame on the hottest path the client has.
        self.queue_with(Op::EstimateMany, |req_id, out| {
            wire::put::estimate_many(req_id, out, name, &batched, pairs)
        })
    }

    /// Queued requests whose replies have not been received yet.
    pub fn pending(&self) -> usize {
        self.inflight.len()
    }

    /// Receives the single oldest queued `EstimateMany` reply. Together
    /// with [`Client::queue_estimate_many`] this keeps a bounded window
    /// of requests in flight — the shape that keeps both directions of
    /// the stream inside the socket buffers instead of stalling on TCP
    /// flow control.
    ///
    /// # Errors
    ///
    /// Server-relayed ([`WireError::Serve`]) or local wire errors, and
    /// [`WireError::Malformed`] when nothing is queued.
    pub fn recv_estimate_many(&mut self) -> Result<(Vec<u64>, u64), WireError> {
        if self.inflight.is_empty() {
            return Err(WireError::Malformed(
                "no pipelined request outstanding".into(),
            ));
        }
        match self.recv()? {
            Response::EstimateMany { ests, generation } => Ok((ests, generation)),
            other => Err(self.unexpected(other)),
        }
    }

    fn unexpected(&mut self, resp: Response) -> WireError {
        self.poison(WireError::Malformed(format!(
            "response body does not match its opcode: {resp:?}"
        )))
    }
}
