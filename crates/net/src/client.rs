//! The blocking client: one TCP connection, reused across requests,
//! with explicit pipelining for batch submission.
//!
//! Every typed method is a strict request/response round trip. For
//! throughput, [`Client::queue_estimate_many`] writes requests without
//! waiting; [`Client::drain_estimate_many`] flushes once and collects
//! the replies in order (the server answers a connection's requests in
//! request order, so correlation is positional — `req_id` is checked,
//! not searched).
//!
//! Errors are typed end to end: a serve-layer rejection arrives as the
//! same [`WireError::Serve`] / [`WireError::Delta`] variant the server
//! raised; protocol corruption and socket failures are local
//! [`WireError`] variants. After a protocol-level error the connection
//! is poisoned (framing may be desynchronized) and every subsequent call
//! fails fast — reconnect to recover.

use crate::wire::{
    decode_response, InstallSummary, Op, RepairSummary, Request, Response, RouteOutcome,
    ServerStats, WireError,
};
use congest::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use congest::NodeId;
use graphs::GraphDelta;
use oracle::TracedRoute;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking `net` client over one reused TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_req: u64,
    inflight: VecDeque<(u64, Op)>,
    max_frame: usize,
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
            max_frame: MAX_FRAME_LEN,
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
    ) -> Result<u64, WireError> {
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
        Ok(req_id)
    }

    /// Writes `req` into the send buffer without flushing.
    fn queue(&mut self, req: &Request) -> Result<u64, WireError> {
        self.queue_with(req.op(), |req_id, out| req.encode_into(req_id, out))
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
        let payload = match read_frame(&mut self.reader, self.max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => return Err(self.poison(WireError::Truncated)),
            Err(e) => return Err(self.poison(e.into())),
        };
        let (req_id, op, body) = match decode_response(&payload) {
            Ok(decoded) => decoded,
            Err(e) => return Err(self.poison(e)),
        };
        match body {
            Err(e) => {
                if req_id == 0 {
                    // A pre-decode failure on the server: it reported
                    // and closed; nothing later will be answered.
                    return Err(self.poison(e));
                }
                if req_id != want_id {
                    return Err(self.poison(WireError::Malformed(format!(
                        "response for request {req_id} while awaiting {want_id}"
                    ))));
                }
                Err(e)
            }
            Ok(resp) => {
                if req_id != want_id || op != want_op {
                    return Err(self.poison(WireError::Malformed(format!(
                        "response {req_id}/{op:?} while awaiting {want_id}/{want_op:?}"
                    ))));
                }
                Ok(resp)
            }
        }
    }

    /// One strict round trip; rejects interleaving with queued requests.
    fn roundtrip(&mut self, req: &Request) -> Result<Response, WireError> {
        if !self.inflight.is_empty() {
            return Err(WireError::Malformed(
                "pipelined requests pending; drain them before a direct call".into(),
            ));
        }
        self.queue(req)?;
        self.recv()
    }

    /// One distance estimate from the named oracle.
    ///
    /// # Errors
    ///
    /// Server-relayed ([`WireError::Serve`]) or local wire errors.
    pub fn estimate(&mut self, name: &str, u: NodeId, v: NodeId) -> Result<u64, WireError> {
        match self.roundtrip(&Request::Estimate {
            name: name.to_string(),
            u,
            v,
        })? {
            Response::Estimate { est, .. } => Ok(est),
            other => Err(self.unexpected(other)),
        }
    }

    /// A batch of estimates; `batched` routes the submission through the
    /// server's shared admission batcher. Returns the answers in pair
    /// order and the generation that served them.
    ///
    /// # Errors
    ///
    /// Server-relayed ([`WireError::Serve`]) or local wire errors.
    pub fn estimate_many(
        &mut self,
        name: &str,
        pairs: &[(NodeId, NodeId)],
        batched: bool,
    ) -> Result<(Vec<u64>, u64), WireError> {
        if !self.inflight.is_empty() {
            return Err(WireError::Malformed(
                "pipelined requests pending; drain them before a direct call".into(),
            ));
        }
        self.queue_estimate_many(name, pairs, batched)?;
        self.recv_estimate_many()
    }

    /// Queues an `EstimateMany` without waiting for its answer. Collect
    /// with [`Client::drain_estimate_many`].
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
            crate::wire::encode_estimate_many(req_id, name, batched, pairs, out)
        })?;
        Ok(())
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

    /// Flushes and collects every queued `EstimateMany` reply, in
    /// submission order.
    ///
    /// # Errors
    ///
    /// The first error (server-relayed or local) aborts the drain.
    pub fn drain_estimate_many(&mut self) -> Result<Vec<(Vec<u64>, u64)>, WireError> {
        let mut results = Vec::with_capacity(self.inflight.len());
        while !self.inflight.is_empty() {
            match self.recv()? {
                Response::EstimateMany { ests, generation } => results.push((ests, generation)),
                other => return Err(self.unexpected(other)),
            }
        }
        Ok(results)
    }

    /// The first hop of the route `u → v`, when the backend routes it.
    ///
    /// # Errors
    ///
    /// Server-relayed ([`WireError::Serve`]) or local wire errors.
    pub fn next_hop(
        &mut self,
        name: &str,
        u: NodeId,
        v: NodeId,
    ) -> Result<Option<NodeId>, WireError> {
        match self.roundtrip(&Request::NextHop {
            name: name.to_string(),
            u,
            v,
        })? {
            Response::NextHop { hop } => Ok(hop),
            other => Err(self.unexpected(other)),
        }
    }

    /// The full traced route `u → v` (failover-aware when the name is
    /// served dynamically).
    ///
    /// # Errors
    ///
    /// Server-relayed ([`WireError::Serve`]) or local wire errors.
    pub fn route(
        &mut self,
        name: &str,
        u: NodeId,
        v: NodeId,
    ) -> Result<(RouteOutcome, Option<TracedRoute>), WireError> {
        match self.roundtrip(&Request::Route {
            name: name.to_string(),
            u,
            v,
        })? {
            Response::Route { outcome, route } => Ok((outcome, route)),
            other => Err(self.unexpected(other)),
        }
    }

    /// Admin: install (or hot-swap) a snapshot from a file on the
    /// **server's** filesystem — the single-copy
    /// [`oracle::Oracle::load_path`] cold-start path.
    ///
    /// # Errors
    ///
    /// Server-relayed (I/O as [`WireError::Remote`], torn snapshots as
    /// [`WireError::Truncated`]) or local wire errors.
    pub fn install(&mut self, name: &str, path: &str) -> Result<InstallSummary, WireError> {
        match self.roundtrip(&Request::Install {
            name: name.to_string(),
            path: path.to_string(),
        })? {
            Response::Installed(summary) => Ok(summary),
            other => Err(self.unexpected(other)),
        }
    }

    /// Admin: install (or hot-swap) the snapshot bytes carried in the
    /// request frame.
    ///
    /// # Errors
    ///
    /// Server-relayed or local wire errors.
    pub fn swap(&mut self, name: &str, snapshot: &[u8]) -> Result<InstallSummary, WireError> {
        match self.roundtrip(&Request::Swap {
            name: name.to_string(),
            snapshot: snapshot.to_vec(),
        })? {
            Response::Installed(summary) => Ok(summary),
            other => Err(self.unexpected(other)),
        }
    }

    /// Admin: mask edge `{u, v}` as failed on a dynamic name.
    ///
    /// # Errors
    ///
    /// [`WireError::Serve`] with [`serve::ServeError::UnknownOracle`]
    /// when the name is not served dynamically; [`WireError::Delta`] when
    /// `{u, v}` is no edge of the served graph (nothing is masked).
    pub fn fail_edge(&mut self, name: &str, u: NodeId, v: NodeId) -> Result<(), WireError> {
        match self.roundtrip(&Request::FailEdge {
            name: name.to_string(),
            u,
            v,
        })? {
            Response::Failed => Ok(()),
            other => Err(self.unexpected(other)),
        }
    }

    /// Admin: mask node `v` as failed on a dynamic name.
    ///
    /// # Errors
    ///
    /// As [`Client::fail_edge`].
    pub fn fail_node(&mut self, name: &str, v: NodeId) -> Result<(), WireError> {
        match self.roundtrip(&Request::FailNode {
            name: name.to_string(),
            v,
        })? {
            Response::Failed => Ok(()),
            other => Err(self.unexpected(other)),
        }
    }

    /// Admin: repair the served artifact for `delta` and hot-swap the
    /// result in.
    ///
    /// # Errors
    ///
    /// Rejected deltas arrive as [`WireError::Delta`] with the variant
    /// intact; serve-layer failures as [`WireError::Serve`].
    pub fn repair_and_swap(
        &mut self,
        name: &str,
        delta: &GraphDelta,
    ) -> Result<RepairSummary, WireError> {
        match self.roundtrip(&Request::RepairAndSwap {
            name: name.to_string(),
            delta: *delta,
        })? {
            Response::Repaired(summary) => Ok(summary),
            other => Err(self.unexpected(other)),
        }
    }

    /// Server-wide, per-connection, and per-oracle statistics.
    ///
    /// # Errors
    ///
    /// Local wire errors.
    pub fn stats(&mut self) -> Result<ServerStats, WireError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(self.unexpected(other)),
        }
    }

    fn unexpected(&mut self, resp: Response) -> WireError {
        self.poison(WireError::Malformed(format!(
            "response body does not match its opcode: {resp:?}"
        )))
    }
}
