//! A long-lived, in-process serving front end over [`oracle::Oracle`].
//!
//! A built oracle is a read-only artifact; serving it is a lifecycle
//! problem: several oracles live side by side (one per graph, or one per
//! backend under comparison), snapshots are replaced while queries are in
//! flight, and callers want aggregate throughput without each inventing
//! its own batching. This crate is that layer, std-only:
//!
//! * [`OracleServer`] — a named registry of served oracles. Queries take
//!   a [`Lease`] (an `Arc` clone) on the current snapshot;
//!   [`OracleServer::install`] atomically swaps the snapshot under a
//!   short write lock. An old snapshot is **retired, not dropped**: every
//!   in-flight lease keeps it alive until its last batch finishes, so a
//!   hot swap never interrupts a query — readers drain off the old
//!   generation at their own pace (pinned by the `hot_swap_*` tests).
//! * [`OracleServer::install_shared`] — the cold-start path: decode a
//!   snapshot ([`oracle::Oracle::load_shared`]), install it, and answer
//!   one probe query, reporting the measured bytes-to-first-answer time.
//!   The snapshot is served as zero-copy views into the handed-over
//!   buffer. This is the number the arena layout exists to shrink (the
//!   stack benchmark's `cold_load_ms`, see `benchmark/README.md`).
//!   [`OracleServer::install_from_bytes`] is the borrowed-slice variant
//!   (one defensive copy).
//! * [`Batcher`] — admission batching for one served name: concurrent
//!   small submissions are admitted into a shared slab for a short
//!   window, executed as **one** [`DistanceOracle::estimate_many_with`]
//!   call against a single leased snapshot, and the answer slab is split
//!   back per submitter. Each admitted group therefore sees one
//!   generation, and tiny callers inherit batch-path throughput — since
//!   PR 10 that means the source-grouped schedule kernel: a merged slab
//!   big enough to cross the grouping gate is executed source-grouped
//!   and scattered back, so admission batching compounds with batch
//!   shape (answers stay byte-identical; the scheduling contract is in
//!   the `oracle::DistanceOracle` docs). A
//!   batcher can carry a *deadline* ([`Batcher::with_deadline`]): a
//!   submission whose group leader wedges times out with
//!   [`ServeError::Deadline`] instead of blocking forever, and
//!   [`Batcher::shutdown`] retires a batcher, failing queued and future
//!   submissions with [`ServeError::Retired`]. Batchers obtained through
//!   [`OracleServer::batcher`] are retired automatically when
//!   [`OracleServer::remove`] drops their name.
//! * [`DynamicOracle`] — the failure-aware lifecycle over one served
//!   name: it owns the live graph and a [`oracle::LivenessMask`],
//!   [`DynamicOracle::route`] detours around masked failures via
//!   [`oracle::route_with_failover`], and
//!   [`DynamicOracle::repair_and_swap`] repairs the artifact off the
//!   live snapshot ([`oracle::OracleBuilder::repair`]), hot-swaps it
//!   through the generation mechanism, and reports repair latency plus
//!   the stale-answer window (failure masked → repaired snapshot
//!   installed).
//!
//! ```
//! use graphs::WGraph;
//! use oracle::{Backend, OracleBuilder};
//! use serve::OracleServer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = WGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 9)])?;
//! let server = OracleServer::new();
//! server.install("demo", OracleBuilder::new(Backend::Flooding).build(&g));
//! let pairs = vec![(graphs::NodeId(0), graphs::NodeId(2))];
//! let mut out = Vec::new();
//! server.query("demo", &pairs, &mut out, 1)?;
//! assert_eq!(out, vec![5]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;

pub use persist::{Checkpoint, DeltaWal, PersistError, RecoverReport, WalReplay};

use graphs::{NodeId, WGraph};
use oracle::{
    route_with_failover, Backend, BuildError, DeltaError, DistanceOracle, FailoverOutcome,
    GraphDelta, LivenessMask, Oracle, OracleBuilder, RepairError, RepairReport, TracedRoute,
};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data if a previous holder panicked.
///
/// Every mutex in this crate guards state that stays internally valid
/// across a panic (counters, maps of `Arc`s, an already-applied mask),
/// so propagating the poison would only convert one failed request into
/// a crashed server. The serving layer runs under panic isolation (see
/// `net`'s per-connection `catch_unwind`); recovering here is what
/// makes that isolation real.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A serving error.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// No oracle is installed under the requested name.
    UnknownOracle(String),
    /// A batched submission waited past the batcher's deadline without
    /// being answered (its group leader wedged); the submission was
    /// withdrawn from the queue.
    Deadline(String),
    /// The batcher was shut down while (or before) the submission was
    /// queued.
    Retired(String),
    /// A query named a node the served oracle does not cover; nothing was
    /// executed.
    NodeOutOfRange {
        /// The largest offending node id of the request.
        id: NodeId,
        /// Number of nodes the oracle covers (valid ids are `0..n`).
        n: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownOracle(name) => {
                write!(f, "no oracle installed under {name:?}")
            }
            ServeError::Deadline(name) => {
                write!(
                    f,
                    "batched submission to {name:?} timed out past its deadline"
                )
            }
            ServeError::Retired(name) => {
                write!(f, "the batcher for {name:?} has been retired")
            }
            ServeError::NodeOutOfRange { id, n } => {
                write!(f, "node id {} is outside the oracle's {n} nodes", id.0)
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One installed snapshot: the oracle plus its serving bookkeeping.
///
/// Handed out behind an `Arc` by [`OracleServer::lease`]; the snapshot
/// stays valid (and its counters keep aggregating) for as long as any
/// lease exists, even after a newer generation is installed.
pub struct ServedOracle {
    oracle: Oracle,
    generation: u64,
    queries: AtomicU64,
    batches: AtomicU64,
}

impl ServedOracle {
    /// The served oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Monotone install generation (unique per [`OracleServer`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total queries answered through this snapshot.
    pub fn queries_served(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Total batches answered through this snapshot.
    pub fn batches_served(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// The one range check on node ids from outside the process:
    /// [`DistanceOracle::estimate`] requires `u, v < len()`, and past
    /// that a backend panics or reads a neighbouring row.
    ///
    /// # Errors
    ///
    /// [`ServeError::NodeOutOfRange`] when any id is at or above `len()`.
    pub fn check_ids(&self, pairs: &[(NodeId, NodeId)]) -> Result<(), ServeError> {
        let n = self.oracle.len();
        match pairs.iter().map(|&(u, v)| u.max(v)).max() {
            Some(id) if id.index() >= n => Err(ServeError::NodeOutOfRange { id, n }),
            _ => Ok(()),
        }
    }

    /// Answers one batch on this snapshot, updating its counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::NodeOutOfRange`] (see [`ServedOracle::check_ids`]);
    /// nothing is executed or counted.
    pub fn query(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<u64>,
        threads: usize,
    ) -> Result<(), ServeError> {
        self.check_ids(pairs)?;
        self.oracle.estimate_many_with(pairs, out, threads);
        self.queries
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A clone of the `Arc` behind one served name — hold it to pin a
/// snapshot across several batches (a swap retires the old snapshot only
/// after the last lease drops).
pub type Lease = Arc<ServedOracle>;

/// Point-in-time serving counters for one name, as reported by
/// [`OracleServer::lease_stats`] (and relayed over the wire by the `net`
/// crate's `Stats` op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseStats {
    /// Generation of the currently served snapshot.
    pub generation: u64,
    /// Queries answered through the current snapshot.
    pub queries_served: u64,
    /// Batches answered through the current snapshot.
    pub batches_served: u64,
    /// Leases outstanding on the current snapshot (excluding the
    /// registry's own).
    pub leases_in_flight: usize,
}

/// What [`OracleServer::install`] replaced, if anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetiredSnapshot {
    /// Generation of the replaced snapshot.
    pub generation: u64,
    /// Leases still outstanding on it at swap time; it is dropped when
    /// the last of them finishes (0 = dropped at the swap itself).
    pub leases_in_flight: usize,
}

/// Report from [`OracleServer::install_from_bytes`]: identity of the
/// installed oracle plus the measured cold-start.
#[derive(Clone, Copy, Debug)]
pub struct InstallReport {
    /// Backend of the installed oracle.
    pub backend: Backend,
    /// Nodes covered.
    pub n: usize,
    /// Install generation.
    pub generation: u64,
    /// Bytes-in-memory to first answered query, in nanoseconds
    /// (decode + install + one probe estimate).
    pub cold_start_nanos: u64,
    /// The snapshot this install replaced, if the name was live.
    pub replaced: Option<RetiredSnapshot>,
}

/// A named registry of served oracles with hot snapshot swap.
#[derive(Default)]
pub struct OracleServer {
    oracles: RwLock<HashMap<String, Lease>>,
    batchers: Mutex<HashMap<String, Vec<Arc<Batcher>>>>,
    next_generation: AtomicU64,
}

impl OracleServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or hot-swaps) `oracle` under `name`, returning the new
    /// generation and what was replaced. The swap is a pointer replace
    /// under a short write lock: queries already running keep their lease
    /// on the old snapshot and finish undisturbed; queries arriving after
    /// the swap lease the new one.
    pub fn install(&self, name: &str, oracle: Oracle) -> (u64, Option<RetiredSnapshot>) {
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = Arc::new(ServedOracle {
            oracle,
            generation,
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let old = self
            .oracles
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), snap);
        let replaced = old.map(|old| RetiredSnapshot {
            generation: old.generation,
            // The map held one count; what remains are live leases.
            leases_in_flight: Arc::strong_count(&old) - 1,
        });
        (generation, replaced)
    }

    /// Decodes a snapshot buffer, installs it
    /// under `name`, answers one probe query, and reports the measured
    /// cold-start-to-first-answer time.
    ///
    /// # Errors
    ///
    /// Returns the decode error (`InvalidData` for malformed or truncated
    /// buffers) without touching the currently served snapshot.
    pub fn install_from_bytes(&self, name: &str, bytes: &[u8]) -> io::Result<InstallReport> {
        self.install_shared(name, congest::arena::SharedBytes::from_vec(bytes.to_vec()))
    }

    /// [`OracleServer::install_from_bytes`] without the defensive copy:
    /// the caller hands over a [`congest::arena::SharedBytes`] handle, and
    /// the snapshot is served as views straight into that buffer — the
    /// zero-copy cold-start path the serving benchmark measures.
    ///
    /// # Errors
    ///
    /// As [`OracleServer::install_from_bytes`].
    pub fn install_shared(
        &self,
        name: &str,
        bytes: congest::arena::SharedBytes,
    ) -> io::Result<InstallReport> {
        let t0 = Instant::now();
        let oracle = Oracle::load_shared(bytes)?;
        let backend = oracle.backend();
        let n = oracle.len();
        let (generation, replaced) = self.install(name, oracle);
        let lease = self.lease(name).expect("just installed");
        let probe = (NodeId(0), NodeId(n.saturating_sub(1) as u32));
        std::hint::black_box(lease.oracle().estimate(probe.0, probe.1));
        let cold_start_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(InstallReport {
            backend,
            n,
            generation,
            cold_start_nanos,
            replaced,
        })
    }

    /// Installs a snapshot **file** under `name`: the file is read once
    /// into a [`congest::arena::SharedBytes`] buffer and goes through
    /// [`OracleServer::install_shared`] — the same single-copy cold
    /// start as [`oracle::Oracle::load_path`], plus the install/probe
    /// measurement. This is what the `net` protocol's `Install` op runs.
    ///
    /// # Errors
    ///
    /// The file-read error, or the decode error as
    /// [`OracleServer::install_from_bytes`]; the currently served
    /// snapshot is untouched either way.
    pub fn install_path(&self, name: &str, path: &std::path::Path) -> io::Result<InstallReport> {
        let bytes = congest::arena::SharedBytes::from_vec(std::fs::read(path)?);
        self.install_shared(name, bytes)
    }

    /// The serving counters of `name`'s current snapshot, or `None` when
    /// the name is not served. A cheap read (one lease clone) — safe to
    /// poll from a stats endpoint.
    pub fn lease_stats(&self, name: &str) -> Option<LeaseStats> {
        let lease = self.lease(name)?;
        Some(LeaseStats {
            generation: lease.generation,
            queries_served: lease.queries_served(),
            batches_served: lease.batches_served(),
            // One count for the registry map, one for `lease` itself.
            leases_in_flight: Arc::strong_count(&lease).saturating_sub(2),
        })
    }

    /// Removes `name`, returning its retirement state. Batchers obtained
    /// through [`OracleServer::batcher`] for this name are shut down:
    /// queued and future submissions on them fail with
    /// [`ServeError::Retired`] instead of hanging on a name that will
    /// never answer again.
    pub fn remove(&self, name: &str) -> Option<RetiredSnapshot> {
        let old = self
            .oracles
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)?;
        let batchers = self
            .batchers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .unwrap_or_default();
        for batcher in batchers {
            batcher.shutdown();
        }
        Some(RetiredSnapshot {
            generation: old.generation,
            leases_in_flight: Arc::strong_count(&old) - 1,
        })
    }

    /// A [`Batcher`] for `name`, registered with this server: when
    /// [`OracleServer::remove`] drops the name, the batcher is retired
    /// cleanly. The batcher itself works against whatever server is
    /// passed to [`Batcher::submit`]; registration only ties its
    /// lifecycle to this one. `deadline` bounds how long a submission
    /// waits for its group (see [`Batcher::with_deadline`]).
    pub fn batcher(
        &self,
        name: &str,
        window: Duration,
        threads: usize,
        deadline: Option<Duration>,
    ) -> Arc<Batcher> {
        let mut batcher = Batcher::new(name, window, threads);
        if let Some(deadline) = deadline {
            batcher = batcher.with_deadline(deadline);
        }
        let batcher = Arc::new(batcher);
        self.batchers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .push(Arc::clone(&batcher));
        batcher
    }

    /// Leases the current snapshot of `name` (an `Arc` clone; cheap).
    pub fn lease(&self, name: &str) -> Option<Lease> {
        self.oracles
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// The served names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .oracles
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Answers one batch on the current snapshot of `name` (lease, run,
    /// release).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownOracle`] when `name` is not being served;
    /// [`ServeError::NodeOutOfRange`] when a pair names a node the
    /// snapshot does not cover.
    pub fn query(
        &self,
        name: &str,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<u64>,
        threads: usize,
    ) -> Result<u64, ServeError> {
        let lease = self
            .lease(name)
            .ok_or_else(|| ServeError::UnknownOracle(name.to_string()))?;
        lease.query(pairs, out, threads)?;
        Ok(lease.generation)
    }
}

// -------------------------------------------------- admission batching --

struct Pending {
    pairs: Vec<(NodeId, NodeId)>,
    slot: Arc<Slot>,
}

struct Slot {
    result: Mutex<Option<Result<Vec<u64>, ServeError>>>,
    ready: Condvar,
}

struct BatchState {
    queue: Vec<Pending>,
    retired: bool,
}

/// Admission batching for one served name: concurrent [`Batcher::submit`]
/// calls are merged into one slab and answered by a single
/// `estimate_many_with` call on a single leased snapshot.
///
/// The first submitter of an admission group becomes its *leader*: it
/// waits out the admission window (so concurrent submitters can join),
/// drains the queue, leases the snapshot once, runs the combined batch,
/// and distributes the answer slab back. Followers block on their slot.
/// One generation per group — a hot swap lands between groups, never
/// inside one.
///
/// Two escape hatches keep a submission from blocking forever:
/// [`Batcher::with_deadline`] bounds the wait for a wedged leader with
/// [`ServeError::Deadline`], and [`Batcher::shutdown`] retires the
/// batcher, failing queued and future submissions with
/// [`ServeError::Retired`].
pub struct Batcher {
    name: String,
    window: Duration,
    threads: usize,
    deadline: Option<Duration>,
    state: Mutex<BatchState>,
    submissions: AtomicU64,
    groups: AtomicU64,
    grouped_pairs: AtomicU64,
    largest_group: AtomicU64,
}

/// Admission-occupancy counters for one [`Batcher`] — how well the
/// window is merging concurrent submissions. `submissions / groups` is
/// the mean occupancy; the `net` crate's `Stats` op relays these so
/// batch efficiency is observable on a live server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Submissions accepted (each [`Batcher::submit`] that queued).
    pub submissions: u64,
    /// Admission groups executed (one `estimate_many_with` call each).
    pub groups: u64,
    /// Total pairs across all executed groups.
    pub grouped_pairs: u64,
    /// Largest group executed, in submissions.
    pub largest_group: u64,
}

impl Batcher {
    /// A batcher for the served `name` with the given admission window
    /// and `threads` knob for the combined batches (`0` = auto).
    pub fn new(name: &str, window: Duration, threads: usize) -> Self {
        Batcher {
            name: name.to_string(),
            window,
            threads,
            deadline: None,
            state: Mutex::new(BatchState {
                queue: Vec::new(),
                retired: false,
            }),
            submissions: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            grouped_pairs: AtomicU64::new(0),
            largest_group: AtomicU64::new(0),
        }
    }

    /// Point-in-time admission-occupancy counters.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            submissions: self.submissions.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            grouped_pairs: self.grouped_pairs.load(Ordering::Relaxed),
            largest_group: self.largest_group.load(Ordering::Relaxed),
        }
    }

    /// The served name this batcher admits for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bounds how long [`Batcher::submit`] waits for its group's answer
    /// once queued. If the group leader wedges (never executes), the
    /// submission withdraws itself from the queue after `deadline` and
    /// returns [`ServeError::Deadline`] instead of blocking forever. The
    /// deadline should comfortably exceed the admission window plus the
    /// expected batch execution time; it exists for liveness, not pacing.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Retires the batcher: every queued submission is failed with
    /// [`ServeError::Retired`] (waiters wake immediately) and future
    /// submissions are rejected up front. Idempotent. Called
    /// automatically by [`OracleServer::remove`] for batchers obtained
    /// through [`OracleServer::batcher`].
    pub fn shutdown(&self) {
        let abandoned = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.retired = true;
            std::mem::take(&mut state.queue)
        };
        for pending in abandoned {
            *pending
                .slot
                .result
                .lock()
                .unwrap_or_else(PoisonError::into_inner) =
                Some(Err(ServeError::Retired(self.name.clone())));
            pending.slot.ready.notify_one();
        }
    }

    /// Submits `pairs` and blocks until the admission group they joined
    /// has been answered; returns this submission's answers (in pair
    /// order) and the generation that served them.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownOracle`] when the batcher's name is not being
    /// served at execution time (the whole group gets the error);
    /// [`ServeError::NodeOutOfRange`] when a pair names a node outside
    /// the current snapshot (refused before it is queued, so the
    /// submitters it would have merged with are unaffected);
    /// [`ServeError::Retired`] when the batcher has been shut down;
    /// [`ServeError::Deadline`] when a deadline is configured and the
    /// group's answer did not arrive in time.
    ///
    /// # Panics
    ///
    /// Panics if a leader thread panicked mid-group (poisoned locks).
    pub fn submit(
        &self,
        server: &OracleServer,
        pairs: Vec<(NodeId, NodeId)>,
    ) -> Result<(Vec<u64>, u64), ServeError> {
        if let Some(lease) = server.lease(&self.name) {
            lease.check_ids(&pairs)?;
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let leader = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if state.retired {
                return Err(ServeError::Retired(self.name.clone()));
            }
            let leader = state.queue.is_empty();
            state.queue.push(Pending {
                pairs,
                slot: Arc::clone(&slot),
            });
            self.submissions.fetch_add(1, Ordering::Relaxed);
            leader
        };
        if leader {
            // Admit concurrent submitters, then execute the whole group.
            std::thread::sleep(self.window);
            let group: Vec<Pending> = std::mem::take(
                &mut self
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .queue,
            );
            self.execute(server, group);
        }
        let mut result = slot.result.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(deadline) = self.deadline {
            let give_up = Instant::now() + deadline;
            while result.is_none() {
                let now = Instant::now();
                if now >= give_up {
                    // Unanswered past the deadline: withdraw from the
                    // queue (the slot lock is released first — shutdown
                    // takes the locks in the opposite order).
                    drop(result);
                    self.state
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .queue
                        .retain(|p| !Arc::ptr_eq(&p.slot, &slot));
                    return Err(ServeError::Deadline(self.name.clone()));
                }
                let (guard, _) = slot
                    .ready
                    .wait_timeout(result, give_up - now)
                    .unwrap_or_else(PoisonError::into_inner);
                result = guard;
            }
        } else {
            while result.is_none() {
                result = slot
                    .ready
                    .wait(result)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let answers = result.take().expect("checked above")?;
        let generation = server
            .lease(&self.name)
            .map(|l| l.generation)
            .unwrap_or_default();
        Ok((answers, generation))
    }

    fn execute(&self, server: &OracleServer, group: Vec<Pending>) {
        if group.is_empty() {
            // A shutdown raced the leader's admission window and already
            // failed the whole group (including the leader's own slot).
            return;
        }
        self.groups.fetch_add(1, Ordering::Relaxed);
        self.largest_group
            .fetch_max(group.len() as u64, Ordering::Relaxed);
        let outcome = match server.lease(&self.name) {
            Some(lease) => {
                let slab: Vec<(NodeId, NodeId)> =
                    group.iter().flat_map(|p| p.pairs.iter().copied()).collect();
                self.grouped_pairs
                    .fetch_add(slab.len() as u64, Ordering::Relaxed);
                // Submissions were range-checked when queued: this fails
                // only if a smaller snapshot was swapped in since.
                let mut out = Vec::new();
                lease.query(&slab, &mut out, self.threads).map(|()| out)
            }
            None => Err(ServeError::UnknownOracle(self.name.clone())),
        };
        let mut offset = 0;
        for pending in group {
            let answer = match &outcome {
                Ok(out) => {
                    let take = pending.pairs.len();
                    let part = out[offset..offset + take].to_vec();
                    offset += take;
                    Ok(part)
                }
                Err(e) => Err(e.clone()),
            };
            *pending
                .slot
                .result
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(answer);
            pending.slot.ready.notify_one();
        }
    }
}

// ---------------------------------------------------- dynamic serving --

/// Why [`DynamicOracle::repair_and_swap`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairSwapError {
    /// The serving layer rejected the operation (name not served).
    Serve(ServeError),
    /// The repair itself failed (bad delta, rebuild error).
    Repair(RepairError),
    /// The repair succeeded but its delta could not be made durable
    /// (WAL append failed), so the swap was **not** installed: serving
    /// an artifact whose repair would vanish on restart would break the
    /// crash-recovery guarantee. The served snapshot, graph, and mask
    /// are unchanged; the failure stays masked and routed around.
    Persist(String),
}

impl fmt::Display for RepairSwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairSwapError::Serve(e) => write!(f, "{e}"),
            RepairSwapError::Repair(e) => write!(f, "{e}"),
            RepairSwapError::Persist(msg) => {
                write!(f, "repair not installed, wal append failed: {msg}")
            }
        }
    }
}

impl std::error::Error for RepairSwapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepairSwapError::Serve(e) => Some(e),
            RepairSwapError::Repair(e) => Some(e),
            RepairSwapError::Persist(_) => None,
        }
    }
}

impl From<ServeError> for RepairSwapError {
    fn from(e: ServeError) -> Self {
        RepairSwapError::Serve(e)
    }
}

impl From<RepairError> for RepairSwapError {
    fn from(e: RepairError) -> Self {
        RepairSwapError::Repair(e)
    }
}

/// What [`DynamicOracle::repair_and_swap`] did.
#[derive(Clone, Copy, Debug)]
pub struct RepairSwapReport {
    /// Generation of the repaired snapshot that is now being served.
    pub generation: u64,
    /// The snapshot the swap replaced.
    pub replaced: Option<RetiredSnapshot>,
    /// What the repair itself did and cost ([`oracle::RepairKind`],
    /// repair nanos).
    pub repair: RepairReport,
    /// Stale-answer window in nanoseconds: from the moment the failure
    /// was masked (or the repair started, for a weight change) until the
    /// repaired snapshot was installed. Estimates served inside this
    /// window came from the pre-delta artifact; routes were already
    /// detouring via the mask.
    pub stale_window_nanos: u64,
}

struct DynState {
    graph: WGraph,
    mask: LivenessMask,
    masked_at: Option<Instant>,
    /// Present on persistent handles: every applied repair is appended
    /// here *before* the swapped snapshot becomes visible.
    wal: Option<DeltaWal>,
}

impl DynState {
    /// Masks a failure delta from `at` on once its ids check out against the
    /// served graph: an entry no repair can lift would never close the window.
    fn mask_failure(&mut self, delta: &GraphDelta, at: Instant) -> Result<(), DeltaError> {
        self.graph.check_delta_ids(delta)?;
        match *delta {
            GraphDelta::FailEdge { u, v } => self.mask.fail_edge(u, v),
            GraphDelta::FailNode { v } => self.mask.fail_node(v),
            GraphDelta::SetWeight { .. } => return Ok(()),
        }
        self.masked_at.get_or_insert(at);
        Ok(())
    }
}

/// The failure-aware lifecycle over one served name.
///
/// A [`DynamicOracle`] owns the graph its snapshot was built on and a
/// [`LivenessMask`] of failures reported but not yet repaired into the
/// artifact. The intended cycle:
///
/// 1. a failure is reported → [`DynamicOracle::fail_edge`] /
///    [`DynamicOracle::fail_node`] mask it *immediately* (cheap, no
///    rebuild). From this instant [`DynamicOracle::route`] detours
///    around it; estimates still come from the pre-failure artifact —
///    the *stale-answer window* has opened.
/// 2. [`DynamicOracle::repair_and_swap`] repairs the artifact off the
///    live snapshot ([`OracleBuilder::repair`] — incremental where the
///    backend allows, an honest rebuild where it doesn't), hot-swaps it
///    under the same name, unmasks what the artifact now reflects, and
///    reports the measured window.
///
/// Installs under the managed name must go through this type (the
/// constructor and `repair_and_swap`); a bare [`OracleServer::install`]
/// under the same name would desynchronize graph, mask, and artifact.
pub struct DynamicOracle {
    name: String,
    builder: OracleBuilder,
    /// Present on persistent handles: where checkpoints are written.
    ckpt_path: Option<std::path::PathBuf>,
    state: Mutex<DynState>,
}

impl DynamicOracle {
    /// Builds `builder`'s oracle on `g` (typed errors, no panic on bad
    /// input), installs it on `server` under `name`, and returns the
    /// dynamic lifecycle handle with an all-alive mask.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from [`OracleBuilder::try_build`].
    pub fn install(
        server: &OracleServer,
        name: &str,
        builder: OracleBuilder,
        g: &WGraph,
    ) -> Result<Self, BuildError> {
        let oracle = builder.try_build(g)?;
        server.install(name, oracle);
        Ok(DynamicOracle {
            name: name.to_string(),
            builder,
            ckpt_path: None,
            state: Mutex::new(DynState {
                graph: g.clone(),
                mask: LivenessMask::new(g.len()),
                masked_at: None,
                wal: None,
            }),
        })
    }

    /// [`DynamicOracle::install`] with crash-safe persistence: writes a
    /// checkpoint (`<dir>/<name>.ckpt`, graph + snapshot, atomically)
    /// and opens a fresh delta WAL (`<dir>/<name>.wal`). Every
    /// subsequent [`DynamicOracle::repair_and_swap`] logs its delta
    /// durably before installing, so [`DynamicOracle::recover`] can
    /// reproduce the served artifact byte-identically after a crash.
    ///
    /// # Errors
    ///
    /// [`PersistError::Build`] when the oracle cannot be built,
    /// [`PersistError::Io`] when the checkpoint or WAL cannot be
    /// written (nothing is installed on the server in either case).
    pub fn install_persistent(
        server: &OracleServer,
        name: &str,
        builder: OracleBuilder,
        g: &WGraph,
        dir: &std::path::Path,
    ) -> Result<Self, PersistError> {
        let oracle = builder.try_build(g)?;
        let ckpt_path = dir.join(format!("{name}.ckpt"));
        let wal_path = dir.join(format!("{name}.wal"));
        persist::write_checkpoint(&ckpt_path, 1, g, &oracle)?;
        let wal = DeltaWal::create(&wal_path, 1)?;
        server.install(name, oracle);
        Ok(DynamicOracle {
            name: name.to_string(),
            builder,
            ckpt_path: Some(ckpt_path),
            state: Mutex::new(DynState {
                graph: g.clone(),
                mask: LivenessMask::new(g.len()),
                masked_at: None,
                wal: Some(wal),
            }),
        })
    }

    /// Rebuilds the persisted state from `dir` after a crash or
    /// restart: loads `<name>.ckpt`, replays `<name>.wal` by re-running
    /// [`OracleBuilder::repair`] for each logged delta (repairs are
    /// deterministic, so the result is **byte-identical** to the
    /// artifact that was live when the last repair was acknowledged),
    /// installs it on `server`, and returns a persistent handle plus a
    /// [`RecoverReport`].
    ///
    /// A torn WAL tail (crash mid-append) is truncated away — that
    /// repair was never installed, so dropping it is correct. A WAL
    /// whose epoch predates the checkpoint (crash between checkpoint
    /// write and WAL reset) is discarded: its deltas are already folded
    /// into the checkpoint. The liveness mask starts clear — a mask
    /// entry is an *unrepaired* observation, and after a restart the
    /// honest state is "re-report what is still down".
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] for missing/corrupt files,
    /// [`PersistError::Replay`] when a logged delta no longer applies —
    /// the files disagree and serving from them would be a lie.
    pub fn recover(
        server: &OracleServer,
        name: &str,
        builder: OracleBuilder,
        dir: &std::path::Path,
    ) -> Result<(Self, RecoverReport), PersistError> {
        let ckpt_path = dir.join(format!("{name}.ckpt"));
        let wal_path = dir.join(format!("{name}.wal"));
        let ckpt = persist::read_checkpoint(&ckpt_path)?;
        let (mut wal, replay) = DeltaWal::open(&wal_path)?;
        let t0 = Instant::now();
        let mut graph = ckpt.graph;
        let mut oracle = ckpt.oracle;
        let mut deltas_replayed = 0u64;
        let stale_wal_discarded = replay.epoch != ckpt.epoch;
        if stale_wal_discarded {
            wal.reset(ckpt.epoch)?;
        } else {
            for delta in &replay.deltas {
                let repaired = builder
                    .repair(&graph, &oracle, delta)
                    .map_err(PersistError::Replay)?;
                graph = repaired.graph;
                oracle = repaired.oracle;
                deltas_replayed += 1;
            }
        }
        let replay_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (generation, _) = server.install(name, oracle);
        let handle = DynamicOracle {
            name: name.to_string(),
            builder,
            ckpt_path: Some(ckpt_path),
            state: Mutex::new(DynState {
                mask: LivenessMask::new(graph.len()),
                graph,
                masked_at: None,
                wal: Some(wal),
            }),
        };
        Ok((
            handle,
            RecoverReport {
                deltas_replayed,
                torn_tail: replay.torn_tail,
                stale_wal_discarded,
                replay_nanos,
                generation,
            },
        ))
    }

    /// Folds the WAL into a fresh checkpoint: writes the current graph
    /// and served snapshot atomically under a bumped epoch, then resets
    /// the WAL to that epoch. Bounds recovery replay time after long
    /// repair histories. A crash between the two steps is benign:
    /// [`DynamicOracle::recover`] sees the epoch mismatch and discards
    /// the stale WAL.
    ///
    /// Returns the number of WAL records folded in.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotPersistent`] on a handle from
    /// [`DynamicOracle::install`]; [`PersistError::Serve`] when the
    /// name is no longer served; [`PersistError::Io`] when a file
    /// operation fails.
    pub fn checkpoint(&self, server: &OracleServer) -> Result<u64, PersistError> {
        let mut state = lock_recover(&self.state);
        let ckpt_path = self.ckpt_path.as_ref().ok_or(PersistError::NotPersistent)?;
        let lease = server
            .lease(&self.name)
            .ok_or_else(|| ServeError::UnknownOracle(self.name.clone()))?;
        let wal = state.wal.as_ref().ok_or(PersistError::NotPersistent)?;
        let folded = wal.records();
        let epoch = wal.epoch() + 1;
        persist::write_checkpoint(ckpt_path, epoch, &state.graph, lease.oracle())?;
        state.wal.as_mut().expect("checked above").reset(epoch)?;
        Ok(folded)
    }

    /// Deltas currently in the WAL (0 for a non-persistent handle).
    pub fn wal_records(&self) -> u64 {
        lock_recover(&self.state)
            .wal
            .as_ref()
            .map_or(0, DeltaWal::records)
    }

    /// The served name this lifecycle manages.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph the currently served snapshot was built on.
    pub fn graph(&self) -> WGraph {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .graph
            .clone()
    }

    /// A snapshot of the current liveness mask.
    pub fn mask(&self) -> LivenessMask {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .mask
            .clone()
    }

    /// Masks edge `{u, v}` as failed, effective immediately for
    /// [`DynamicOracle::route`]. Opens the stale-answer window if it is
    /// not already open. Call [`DynamicOracle::repair_and_swap`] with
    /// [`GraphDelta::FailEdge`] to fold the failure into the artifact.
    ///
    /// # Errors
    ///
    /// [`DeltaError`] when `{u, v}` is no edge of the served graph.
    pub fn fail_edge(&self, u: NodeId, v: NodeId) -> Result<(), DeltaError> {
        lock_recover(&self.state).mask_failure(&GraphDelta::FailEdge { u, v }, Instant::now())
    }

    /// Masks node `v` as failed (and with it every incident edge),
    /// effective immediately for [`DynamicOracle::route`].
    ///
    /// # Errors
    ///
    /// [`DeltaError`] when `v` is no node of the served graph.
    pub fn fail_node(&self, v: NodeId) -> Result<(), DeltaError> {
        lock_recover(&self.state).mask_failure(&GraphDelta::FailNode { v }, Instant::now())
    }

    /// Routes `u → v` on the current snapshot, detouring around masked
    /// failures via [`route_with_failover`]. With a clear mask this is
    /// the oracle's own route; with failures it degrades to a detour (or
    /// an honest [`FailoverOutcome::Unroutable`]) instead of returning a
    /// path through dead links.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownOracle`] when the name is no longer served;
    /// [`ServeError::NodeOutOfRange`] when `u` or `v` is not a node of
    /// the snapshot.
    pub fn route(
        &self,
        server: &OracleServer,
        u: NodeId,
        v: NodeId,
        out: &mut TracedRoute,
    ) -> Result<FailoverOutcome, ServeError> {
        let state = lock_recover(&self.state);
        let lease = server
            .lease(&self.name)
            .ok_or_else(|| ServeError::UnknownOracle(self.name.clone()))?;
        lease.check_ids(&[(u, v)])?;
        Ok(route_with_failover(lease.oracle(), &state.mask, u, v, out))
    }

    /// Repairs the served artifact for `delta` off the live snapshot and
    /// hot-swaps the result in.
    ///
    /// Failure deltas are masked first (idempotent if the caller already
    /// did), so routing detours even while the repair runs. The repair
    /// itself works on a lease — in-flight queries drain off the old
    /// generation undisturbed — and the swap goes through
    /// [`OracleServer::install`]. Afterwards the mask entry the artifact
    /// now covers is lifted (a node failure resets the mask: the id
    /// space was renumbered), and the report carries the repair cost
    /// plus the measured stale-answer window.
    ///
    /// # Errors
    ///
    /// [`RepairSwapError::Serve`] when the name is not served;
    /// [`RepairSwapError::Repair`] when the delta does not apply (unknown
    /// ids are refused unmasked; a delta that would disconnect the graph
    /// stays masked, routed around, and unrepaired).
    pub fn repair_and_swap(
        &self,
        server: &OracleServer,
        delta: &GraphDelta,
    ) -> Result<RepairSwapReport, RepairSwapError> {
        let t0 = Instant::now();
        let mut state = lock_recover(&self.state);
        state.mask_failure(delta, t0).map_err(RepairError::from)?;
        let lease = server
            .lease(&self.name)
            .ok_or_else(|| ServeError::UnknownOracle(self.name.clone()))?;
        let repaired = self.builder.repair(&state.graph, lease.oracle(), delta)?;
        drop(lease);
        // Durability before visibility: on a persistent handle the
        // delta must hit the WAL before the repaired snapshot is
        // installed, or a crash right after the swap would serve
        // answers that recovery cannot reproduce.
        if let Some(wal) = state.wal.as_mut() {
            wal.append(delta)
                .map_err(|e| RepairSwapError::Persist(e.to_string()))?;
        }
        let (generation, replaced) = server.install(&self.name, repaired.oracle);
        let window = state.masked_at.unwrap_or(t0).elapsed();
        let stale_window_nanos = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        state.graph = repaired.graph;
        match *delta {
            GraphDelta::FailEdge { u, v } => state.mask.revive_edge(u, v),
            // Node failure renumbered the id space; stale masked ids
            // would point at the wrong nodes.
            GraphDelta::FailNode { .. } => state.mask = LivenessMask::new(state.graph.len()),
            GraphDelta::SetWeight { .. } => {}
        }
        if state.mask.is_clear() {
            state.masked_at = None;
        }
        Ok(RepairSwapReport {
            generation,
            replaced,
            repair: repaired.report,
            stale_window_nanos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::WGraph;
    use oracle::OracleBuilder;

    fn ring(n: u32, w: u64) -> WGraph {
        let edges: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, (i + 1) % n, w)).collect();
        WGraph::from_edges(n as usize, &edges).unwrap()
    }

    fn build(g: &WGraph) -> Oracle {
        OracleBuilder::new(Backend::Flooding).build(g)
    }

    #[test]
    fn install_query_and_remove() {
        let server = OracleServer::new();
        assert!(server.lease("a").is_none());
        let (g1, replaced) = server.install("a", build(&ring(8, 2)));
        assert_eq!((g1, replaced), (1, None));
        server.install("b", build(&ring(6, 1)));
        assert_eq!(server.names(), ["a", "b"]);
        let mut out = Vec::new();
        let generation = server
            .query(
                "a",
                &[(NodeId(0), NodeId(4)), (NodeId(2), NodeId(2))],
                &mut out,
                1,
            )
            .unwrap();
        assert_eq!((generation, out.as_slice()), (1, [8u64, 0].as_slice()));
        let lease = server.lease("a").unwrap();
        assert_eq!(lease.queries_served(), 2);
        assert_eq!(lease.batches_served(), 1);
        drop(lease);
        let retired = server.remove("a").unwrap();
        assert_eq!(retired.generation, 1);
        assert_eq!(retired.leases_in_flight, 0);
        assert!(matches!(
            server.query("a", &[], &mut out, 1),
            Err(ServeError::UnknownOracle(_))
        ));
    }

    #[test]
    fn hot_swap_keeps_old_snapshot_alive_for_leases() {
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let old = server.lease("g").unwrap();
        let (new_generation, replaced) = server.install("g", build(&ring(8, 5)));
        assert_eq!(new_generation, 2);
        let replaced = replaced.unwrap();
        assert_eq!(replaced.generation, 1);
        assert_eq!(replaced.leases_in_flight, 1);
        // The in-flight lease still answers from the old snapshot …
        assert_eq!(old.oracle().estimate(NodeId(0), NodeId(1)), 1);
        // … while new queries see the new one.
        let mut out = Vec::new();
        server
            .query("g", &[(NodeId(0), NodeId(1))], &mut out, 1)
            .unwrap();
        assert_eq!(out, vec![5]);
        // Retirement completes when the last lease drops.
        drop(out);
        drop(old);
        let lease = server.lease("g").unwrap();
        assert_eq!(lease.generation(), 2);
    }

    #[test]
    fn install_from_bytes_reports_cold_start() {
        let oracle = build(&ring(10, 3));
        let mut snap = Vec::new();
        oracle.save(&mut snap).unwrap();
        let server = OracleServer::new();
        let report = server.install_from_bytes("g", &snap).unwrap();
        assert_eq!(report.backend, Backend::Flooding);
        assert_eq!(report.n, 10);
        assert!(report.cold_start_nanos > 0);
        assert!(report.replaced.is_none());
        let mut out = Vec::new();
        server
            .query("g", &[(NodeId(0), NodeId(5))], &mut out, 1)
            .unwrap();
        assert_eq!(out, vec![15]);
        let err = server
            .install_from_bytes("bad", &snap[..snap.len() - 3])
            .unwrap_err();
        assert!(congest::wire::is_truncated(&err), "{err}");
        assert!(server.lease("bad").is_none());
    }

    #[test]
    fn batcher_merges_concurrent_submissions_into_one_generation() {
        let server = OracleServer::new();
        server.install("g", build(&ring(12, 2)));
        let batcher = Batcher::new("g", Duration::from_millis(20), 1);
        let expect: Vec<u64> = (1..=4u32)
            .map(|i| {
                let lease = server.lease("g").unwrap();
                lease.oracle().estimate(NodeId(0), NodeId(i))
            })
            .collect();
        let batches_before = server.lease("g").unwrap().batches_served();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=4u32)
                .map(|i| {
                    let (batcher, server) = (&batcher, &server);
                    scope.spawn(move || batcher.submit(server, vec![(NodeId(0), NodeId(i))]))
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let (answers, generation) = handle.join().unwrap().unwrap();
                assert_eq!(answers, vec![expect[i]]);
                assert_eq!(generation, 1);
            }
        });
        // Admission merged at least some submissions: fewer executed
        // batches than submissions (the window makes all-in-one likely,
        // but any grouping proves admission worked).
        let batches_after = server.lease("g").unwrap().batches_served();
        assert!(batches_after - batches_before <= 4);
        assert!(batches_after > batches_before);
        assert_eq!(server.lease("g").unwrap().queries_served(), 4);
    }

    #[test]
    fn batcher_reports_unknown_oracle_to_every_member() {
        let server = OracleServer::new();
        let batcher = Batcher::new("missing", Duration::from_millis(1), 1);
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(1))])
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownOracle("missing".into()));
    }

    /// Plants a fake queued submission, as if its leader were wedged
    /// mid-window and had never drained the group.
    fn wedge(batcher: &Batcher) -> Arc<Slot> {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        batcher.state.lock().unwrap().queue.push(Pending {
            pairs: vec![(NodeId(0), NodeId(1))],
            slot: Arc::clone(&slot),
        });
        slot
    }

    #[test]
    fn batcher_deadline_withdraws_submission_from_wedged_group() {
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let batcher =
            Batcher::new("g", Duration::from_secs(600), 1).with_deadline(Duration::from_millis(20));
        wedge(&batcher);
        // The queue is non-empty, so this submission is a follower; the
        // wedged "leader" never executes, and the deadline fires.
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(2))])
            .unwrap_err();
        assert_eq!(err, ServeError::Deadline("g".into()));
        // The timed-out submission withdrew itself; the wedged pending
        // is still there.
        assert_eq!(batcher.state.lock().unwrap().queue.len(), 1);
    }

    #[test]
    fn batcher_shutdown_fails_queued_and_future_submissions() {
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let batcher = Batcher::new("g", Duration::from_secs(600), 1);
        let queued = wedge(&batcher);
        batcher.shutdown();
        assert_eq!(
            *queued.result.lock().unwrap(),
            Some(Err(ServeError::Retired("g".into())))
        );
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(1))])
            .unwrap_err();
        assert_eq!(err, ServeError::Retired("g".into()));
        assert!(batcher.state.lock().unwrap().queue.is_empty());
    }

    #[test]
    fn server_remove_retires_registered_batchers() {
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let batcher = server.batcher("g", Duration::from_millis(1), 1, None);
        let (answers, _) = batcher
            .submit(&server, vec![(NodeId(0), NodeId(4))])
            .unwrap();
        assert_eq!(answers, vec![4]);
        server.remove("g");
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(4))])
            .unwrap_err();
        assert_eq!(err, ServeError::Retired("g".into()));
    }

    #[test]
    fn dynamic_edge_failure_detours_then_repair_swaps_cleanly() {
        let g = ring(8, 1);
        let server = OracleServer::new();
        let builder = OracleBuilder::new(Backend::Flooding);
        let dyn_oracle =
            DynamicOracle::install(&server, "g", OracleBuilder::new(Backend::Flooding), &g)
                .unwrap();
        let mut route = TracedRoute::default();

        // Healthy: the oracle's own route, flagged as such.
        let outcome = dyn_oracle
            .route(&server, NodeId(0), NodeId(2), &mut route)
            .unwrap();
        assert_eq!(outcome, FailoverOutcome::Primary);
        assert_eq!(route.weight, 2);

        // Failure reported: routes detour immediately, estimates are
        // still the pre-failure artifact's (the stale window is open).
        dyn_oracle.fail_edge(NodeId(1), NodeId(2)).unwrap();
        let outcome = dyn_oracle
            .route(&server, NodeId(0), NodeId(2), &mut route)
            .unwrap();
        assert!(
            matches!(outcome, FailoverOutcome::Detoured { .. }),
            "{outcome:?}"
        );
        assert_eq!(route.weight, 6);
        for hop in route.nodes.windows(2) {
            assert!(
                !(hop[0].min(hop[1]) == NodeId(1) && hop[0].max(hop[1]) == NodeId(2)),
                "detour used the failed edge"
            );
        }
        let mut out = Vec::new();
        server
            .query("g", &[(NodeId(0), NodeId(2))], &mut out, 1)
            .unwrap();
        assert_eq!(out, vec![2], "stale estimate before the swap");

        // Repair + swap: estimates catch up, the mask entry lifts, and
        // the route is primary again.
        let delta = GraphDelta::FailEdge {
            u: NodeId(1),
            v: NodeId(2),
        };
        let report = dyn_oracle.repair_and_swap(&server, &delta).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.repair.kind.tag(), "incremental");
        assert!(report.stale_window_nanos > 0);
        server
            .query("g", &[(NodeId(0), NodeId(2))], &mut out, 1)
            .unwrap();
        assert_eq!(out, vec![6]);
        assert!(dyn_oracle.mask().is_clear());
        let outcome = dyn_oracle
            .route(&server, NodeId(0), NodeId(2), &mut route)
            .unwrap();
        assert_eq!(outcome, FailoverOutcome::Primary);
        assert_eq!(route.weight, 6);

        // The swapped-in artifact is byte-identical to a from-scratch
        // build on the mutated graph.
        let fresh = builder.build(&g.apply_delta(&delta).unwrap());
        let lease = server.lease("g").unwrap();
        assert_eq!(lease.oracle().artifact_bytes(), fresh.artifact_bytes());
    }

    #[test]
    fn hostile_failure_ids_are_refused_before_the_mask() {
        let server = OracleServer::new();
        let builder = OracleBuilder::new(Backend::Flooding);
        let dyn_oracle = DynamicOracle::install(&server, "g", builder, &ring(8, 1)).unwrap();
        let swap = |delta| dyn_oracle.repair_and_swap(&server, &delta).unwrap_err();
        let refused = |e| RepairSwapError::Repair(RepairError::Delta(e));
        // n, and one past the mask's last word; then the non-edge 0–4.
        let u = NodeId(0);
        for v in [NodeId(8), NodeId(65)] {
            let e = DeltaError::UnknownNode { v, n: 8 };
            assert_eq!(dyn_oracle.fail_node(v), Err(e.clone()));
            assert_eq!(dyn_oracle.fail_edge(u, v), Err(e.clone()));
            assert_eq!(swap(GraphDelta::FailNode { v }), refused(e.clone()));
            assert_eq!(swap(GraphDelta::FailEdge { u, v }), refused(e));
        }
        let (v, e) = (NodeId(4), DeltaError::UnknownEdge { u, v: NodeId(4) });
        assert_eq!(dyn_oracle.fail_edge(u, v), Err(e.clone()));
        assert_eq!(swap(GraphDelta::FailEdge { u, v }), refused(e));
        assert!(dyn_oracle.mask().is_clear(), "the mask was dirtied");
    }

    #[test]
    fn dynamic_node_failure_rebuilds_and_resets_the_mask() {
        let server = OracleServer::new();
        let dyn_oracle = DynamicOracle::install(
            &server,
            "g",
            OracleBuilder::new(Backend::Flooding),
            &ring(6, 2),
        )
        .unwrap();
        dyn_oracle.fail_node(NodeId(3)).unwrap();
        let mut route = TracedRoute::default();
        let outcome = dyn_oracle
            .route(&server, NodeId(2), NodeId(4), &mut route)
            .unwrap();
        assert!(
            matches!(outcome, FailoverOutcome::Detoured { .. }),
            "{outcome:?}"
        );
        assert!(route.nodes.iter().all(|&x| x != NodeId(3)));

        let report = dyn_oracle
            .repair_and_swap(&server, &GraphDelta::FailNode { v: NodeId(3) })
            .unwrap();
        assert_eq!(report.repair.kind.tag(), "rebuilt");
        // The ring lost a node: ids above 3 shifted down, the mask was
        // reset at the new size, and the path around is served.
        assert_eq!(dyn_oracle.graph().len(), 5);
        let mask = dyn_oracle.mask();
        assert_eq!(mask.len(), 5);
        assert!(mask.is_clear());
        let outcome = dyn_oracle
            .route(&server, NodeId(2), NodeId(3), &mut route)
            .unwrap();
        assert_eq!(outcome, FailoverOutcome::Primary);
        assert_eq!(route.weight, 8, "old 2→4 now 2→3, forced the long way");
    }

    #[test]
    fn dynamic_repair_errors_are_typed_and_keep_the_mask() {
        let path = WGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let server = OracleServer::new();
        let dyn_oracle =
            DynamicOracle::install(&server, "g", OracleBuilder::new(Backend::Flooding), &path)
                .unwrap();
        // Cutting the middle edge would disconnect the path: the repair
        // is refused, but the failure stays masked — routing degrades to
        // an honest Unroutable rather than a dead path.
        let delta = GraphDelta::FailEdge {
            u: NodeId(0),
            v: NodeId(1),
        };
        let err = dyn_oracle.repair_and_swap(&server, &delta).unwrap_err();
        assert_eq!(
            err,
            RepairSwapError::Repair(RepairError::Delta(graphs::DeltaError::Disconnects))
        );
        let mut route = TracedRoute::default();
        let outcome = dyn_oracle
            .route(&server, NodeId(0), NodeId(2), &mut route)
            .unwrap();
        assert_eq!(outcome, FailoverOutcome::Unroutable);

        server.remove("g");
        let err = dyn_oracle.repair_and_swap(&server, &delta).unwrap_err();
        assert_eq!(
            err,
            RepairSwapError::Serve(ServeError::UnknownOracle("g".into()))
        );
    }
}
