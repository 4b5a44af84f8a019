//! The threaded TCP front end over [`serve::OracleServer`].
//!
//! One accept thread, one handler thread per connection (`std::net` +
//! `std::thread`; the workspace is std-only by design). Each handler
//! reads length-framed requests off a `BufReader`, decodes each into a
//! [`serve::Request`], answers it through [`serve::OracleServer::handle`],
//! and writes the reply through a `BufWriter` — flushing only when no
//! further request is already buffered, which is what makes client-side
//! pipelining effective without ever blocking a lone request behind an
//! unflushed response.
//!
//! Serving semantics are inherited, not reimplemented: this layer owns
//! framing, connections, the `max_batch_pairs` shed and its counters;
//! every answer comes from [`serve::OracleServer::handle`], the call an
//! in-process caller makes. So answers are byte-identical to in-process
//! ones (pinned by `tests/serving_matrix.rs`, grouped-kernel-sized
//! frames included), batched submissions merge in the name's one
//! [`serve::Batcher`] across connections, and hot swaps retire
//! generations without interrupting them. [`NetServer::shutdown`] drains
//! in-flight work: stop accepting, close the read side of every
//! connection (responses being written still complete), then join the
//! handlers.

use crate::metrics::{LatencyHistogram, NetMetrics};
use crate::wire::{self, RequestFrame, WireError};
use congest::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use serve::{DynamicOracle, OracleServer, Request, Response, ServerStats};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poison instead of propagating it: a
/// handler that panics holding a lock costs *one* failed request, and
/// every structure behind these locks (map inserts/removes, counter
/// bumps, histogram increments) stays valid across a panic.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning for a [`NetServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Admission window for batched `EstimateMany` submissions (how long
    /// a group leader waits for concurrent submitters to join); set on
    /// the registry with [`OracleServer::set_admission`].
    pub batch_window: Duration,
    /// Per-request deadline. Applied as the socket read/write timeout
    /// (an idle or wedged connection is closed once it expires) and as
    /// the admission batcher's deadline (`ServeError::Deadline` on the
    /// wire instead of an unbounded wait). `None` disables both.
    pub deadline: Option<Duration>,
    /// Largest accepted frame payload; oversized frames are rejected
    /// before allocation and the connection is closed.
    pub max_frame: usize,
    /// Connection cap: a connection arriving while this many handlers
    /// are already active is refused with a typed
    /// [`WireError::Overloaded`] error frame and closed — shed at the
    /// door instead of queued into an unbounded thread backlog.
    pub max_connections: usize,
    /// Per-request budget on `EstimateMany` pairs: a batch larger than
    /// this is refused with [`WireError::Overloaded`] (the connection
    /// survives) instead of monopolizing the shared batcher.
    pub max_batch_pairs: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_window: Duration::from_micros(250),
            deadline: Some(Duration::from_secs(30)),
            max_frame: MAX_FRAME_LEN,
            max_connections: 1024,
            max_batch_pairs: 1 << 22,
        }
    }
}

struct ServerState {
    registry: Arc<OracleServer>,
    cfg: ServerConfig,
    stopping: AtomicBool,
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    connections_active: AtomicU64,
    connections_total: AtomicU64,
    connections_refused: AtomicU64,
    requests_shed: AtomicU64,
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    service: Mutex<LatencyHistogram>,
}

/// Per-connection counters, folded into `Stats` replies.
#[derive(Default)]
struct ConnCounters {
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// A running TCP serving front end over one [`OracleServer`] registry.
///
/// Dropping the server (or calling [`NetServer::shutdown`]) performs the
/// graceful drain described in the module docs.
pub struct NetServer {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`NetServer::local_addr`]) and starts the accept loop over
    /// `registry`, whose admission window and deadline it sets from
    /// `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<OracleServer>,
        cfg: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        registry.set_admission(cfg.batch_window, cfg.deadline);
        let state = Arc::new(ServerState {
            registry,
            cfg,
            stopping: AtomicBool::new(false),
            conn_streams: Mutex::new(HashMap::new()),
            conn_handles: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            service: Mutex::new(LatencyHistogram::new()),
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || accept_loop(listener, accept_state))?;
        Ok(NetServer {
            state,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a [`DynamicOracle`] lifecycle on the registry
    /// ([`OracleServer::register_dynamic`]), enabling the `FailEdge` /
    /// `FailNode` / `RepairAndSwap` admin ops and failover-aware `Route`
    /// for its name. Returns the shared handle so the host can keep
    /// driving the lifecycle in-process too.
    pub fn register_dynamic(&self, dynamic: DynamicOracle) -> Arc<DynamicOracle> {
        self.state.registry.register_dynamic(dynamic)
    }

    /// A point-in-time snapshot of the aggregate serving counters.
    pub fn metrics(&self) -> NetMetrics {
        let service = lock_recover(&self.state.service);
        NetMetrics {
            requests: self.state.requests.load(Ordering::Relaxed),
            bytes_in: self.state.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.state.bytes_out.load(Ordering::Relaxed),
            connections_active: self.state.connections_active.load(Ordering::Relaxed),
            connections_total: self.state.connections_total.load(Ordering::Relaxed),
            connections_refused: self.state.connections_refused.load(Ordering::Relaxed),
            requests_shed: self.state.requests_shed.load(Ordering::Relaxed),
            p50_service_ns: service.quantile(0.50),
            p99_service_ns: service.quantile(0.99),
        }
    }

    /// Gracefully stops the server (idempotent): stop accepting, close
    /// the read side of every connection so handlers finish their
    /// in-flight responses and exit, then join them. The registry and
    /// its batchers stay up for other servers and in-process callers.
    pub fn shutdown(&self) {
        if self.state.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop out of `accept()` with a throwaway
        // connection; it observes `stopping` and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = lock_recover(&self.accept).take() {
            let _ = handle.join();
        }
        // EOF every reader. Writes still complete: only the read half
        // closes, so a response mid-flight reaches its client.
        for stream in lock_recover(&self.state.conn_streams).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles = std::mem::take(&mut *lock_recover(&self.state.conn_handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Overload protection at the door: past the connection cap, the
        // arrival gets one typed refusal frame and is closed — shed
        // instead of queued into an unbounded thread backlog. (Checked
        // here rather than left to the OS accept queue so the refusal
        // is an explicit, retry-after-backoff signal, not a silent
        // stall.)
        let active = state.connections_active.load(Ordering::Relaxed);
        if active >= state.cfg.max_connections as u64 {
            state.connections_refused.fetch_add(1, Ordering::Relaxed);
            refuse_overloaded(stream, active, state.cfg.max_connections as u64);
            continue;
        }
        let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_recover(&state.conn_streams).insert(conn_id, clone);
        }
        state.connections_total.fetch_add(1, Ordering::Relaxed);
        state.connections_active.fetch_add(1, Ordering::Relaxed);
        let conn_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name(format!("net-conn-{conn_id}"))
            .spawn(move || {
                let _ = handle_connection(&conn_state, stream);
                lock_recover(&conn_state.conn_streams).remove(&conn_id);
                conn_state
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            });
        match handle {
            Ok(h) => lock_recover(&state.conn_handles).push(h),
            Err(_) => {
                // Spawn failed: undo the registration and drop the
                // connection instead of leaking it.
                lock_recover(&state.conn_streams).remove(&conn_id);
                state.connections_active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Writes one [`WireError::Overloaded`] error frame to a refused
/// connection and closes it. Best effort with a short write timeout: a
/// peer that will not read its refusal is simply dropped — the accept
/// loop must never block on a victim of its own cap.
fn refuse_overloaded(stream: TcpStream, active: u64, cap: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut reply = Vec::new();
    wire::encode_error(0, 0, &WireError::Overloaded { active, cap }, &mut reply);
    let mut stream = stream;
    let _ = write_frame(&mut stream, &reply);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_connection(state: &ServerState, stream: TcpStream) -> io::Result<()> {
    // The per-request deadline doubles as the socket timeout: a
    // connection idle (or wedged mid-frame) past it is closed rather
    // than parked forever.
    stream.set_read_timeout(state.cfg.deadline)?;
    stream.set_write_timeout(state.cfg.deadline)?;
    // Without this, a response whose tail does not fill a segment sits
    // in the kernel until the peer's delayed ACK (~4ms) — Nagle is
    // poison for pipelined request/response traffic.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut conn = ConnCounters::default();
    let mut reply = Vec::new();
    loop {
        // Slow-loris shedding: the per-request deadline bounds the
        // *whole* frame, not each read syscall. The socket timeout alone
        // resets on every byte, so a client dripping one byte per
        // timeout window could hold a handler thread forever; the frame
        // deadline closes it once the total budget is spent.
        let mut guarded = FrameDeadlineReader {
            inner: &mut reader,
            deadline: state.cfg.deadline.map(|d| Instant::now() + d),
        };
        let payload = match read_frame(&mut guarded, state.cfg.max_frame) {
            Ok(Some(p)) => p,
            // Clean EOF: the client closed (or shutdown EOF'd us).
            Ok(None) => break,
            // Timeout, torn frame, or an oversized length: the stream
            // is no longer trustworthy — close it. Oversized gets an
            // explanatory error frame first (the framing itself is
            // still intact at that point).
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData && !congest::wire::is_truncated(&e) {
                    let err = WireError::Oversized {
                        len: 0,
                        max: state.cfg.max_frame as u64,
                    };
                    let _ = send_error(&mut writer, &mut conn, state, &err);
                }
                break;
            }
        };
        let frame_bytes = (4 + payload.len()) as u64;
        conn.bytes_in += frame_bytes;
        state.bytes_in.fetch_add(frame_bytes, Ordering::Relaxed);
        let t0 = Instant::now();
        match Request::decode(&payload) {
            Err(e) => {
                // Protocol-level corruption is fatal for the connection:
                // framing may be desynchronized. Report, then close.
                let _ = send_error(&mut writer, &mut conn, state, &e);
                break;
            }
            Ok((req_id, req)) => {
                let op = req.op();
                reply.clear();
                // Panic isolation: a handler that panics (a bug, or a
                // hostile request reaching an unguarded index) costs
                // exactly one failed request. The shared state is safe
                // to keep using afterwards: everything it touches is
                // behind poison-recovering locks whose contents stay
                // valid across a panic, which is what makes the unwind
                // boundary sound here.
                let outcome = catch_unwind(AssertUnwindSafe(|| answer(state, &conn, req)))
                    .unwrap_or_else(|_| {
                        Err(WireError::Remote(
                            "request handler panicked; the request was dropped".into(),
                        ))
                    });
                match outcome {
                    Ok(resp) => wire::encode_response(req_id, op, &resp, &mut reply),
                    // Serve-level errors are per-request: reply and keep
                    // the connection.
                    Err(e) => wire::encode_error(req_id, op as u8, &e, &mut reply),
                }
                write_frame(&mut writer, &reply)?;
                let frame_bytes = (4 + reply.len()) as u64;
                conn.bytes_out += frame_bytes;
                state.bytes_out.fetch_add(frame_bytes, Ordering::Relaxed);
                conn.requests += 1;
                state.requests.fetch_add(1, Ordering::Relaxed);
                let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                lock_recover(&state.service).record(nanos);
            }
        }
        // Pipelining: only flush when no further request is already
        // buffered — about to block on the socket is the one moment a
        // response may not be withheld.
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
    writer.flush()
}

/// A [`Read`] adapter that fails with `TimedOut` once a wall-clock
/// deadline for the frame in progress has passed. Each underlying read
/// is already bounded by the socket timeout, so the *total* time a
/// handler can spend on one frame is `deadline + one socket timeout` —
/// the bound that sheds slow-loris clients.
struct FrameDeadlineReader<'a, R> {
    inner: &'a mut R,
    deadline: Option<Instant>,
}

impl<R: Read> Read for FrameDeadlineReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame deadline exceeded (slow-loris shed)",
                ));
            }
        }
        self.inner.read(buf)
    }
}

/// Reports a failure that happened before a request id was known, then
/// flushes: the connection closes next.
fn send_error(
    writer: &mut BufWriter<TcpStream>,
    conn: &mut ConnCounters,
    state: &ServerState,
    err: &WireError,
) -> io::Result<()> {
    let mut reply = Vec::new();
    wire::encode_error(0, 0, err, &mut reply);
    write_frame(writer, &reply)?;
    let frame_bytes = (4 + reply.len()) as u64;
    conn.bytes_out += frame_bytes;
    state.bytes_out.fetch_add(frame_bytes, Ordering::Relaxed);
    writer.flush()
}

/// Answers one decoded request: the batch budget and the server's own
/// counters are this layer's, everything else is
/// [`OracleServer::handle`]'s.
fn answer(state: &ServerState, conn: &ConnCounters, req: Request) -> Result<Response, WireError> {
    // Budget check before any work: an oversized batch is shed with a
    // typed refusal instead of monopolizing the batcher (the connection
    // survives — the request was well-formed, just too greedy).
    if let Request::EstimateMany { pairs, .. } = &req {
        if pairs.len() > state.cfg.max_batch_pairs {
            state.requests_shed.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::Overloaded {
                active: pairs.len() as u64,
                cap: state.cfg.max_batch_pairs as u64,
            });
        }
    }
    let mut resp = state.registry.handle(req)?;
    if let Response::Stats(stats) = &mut resp {
        let service = lock_recover(&state.service);
        *stats = ServerStats {
            requests: state.requests.load(Ordering::Relaxed),
            bytes_in: state.bytes_in.load(Ordering::Relaxed),
            bytes_out: state.bytes_out.load(Ordering::Relaxed),
            connections_active: state.connections_active.load(Ordering::Relaxed),
            connections_total: state.connections_total.load(Ordering::Relaxed),
            p50_service_ns: service.quantile(0.50),
            p99_service_ns: service.quantile(0.99),
            conn_requests: conn.requests,
            conn_bytes_in: conn.bytes_in,
            conn_bytes_out: conn.bytes_out,
            oracles: std::mem::take(&mut stats.oracles),
        };
    }
    Ok(resp)
}
