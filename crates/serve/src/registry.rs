//! The named registry: installed snapshots with their leases and
//! generations, plus the per-name admission batcher and dynamic
//! lifecycle that [`OracleServer::handle`] routes to.

use crate::{lock_recover, Batcher, DynamicOracle, OracleStats, ServeError};
use graphs::NodeId;
use oracle::{Backend, DistanceOracle, Oracle};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// One installed snapshot: the oracle plus its serving bookkeeping.
///
/// Handed out behind an `Arc` by [`OracleServer::lease`]; the snapshot
/// stays valid (and its counters keep aggregating) for as long as any
/// lease exists, even after a newer generation is installed.
pub struct ServedOracle {
    oracle: Oracle,
    pub(crate) generation: u64,
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
    dynamics: Mutex<HashMap<String, Arc<DynamicOracle>>>,
    batchers: Mutex<HashMap<String, Arc<Batcher>>>,
    /// Window and deadline of the batchers `handle` creates.
    admission: Mutex<(Duration, Option<Duration>)>,
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

    /// Decodes a snapshot buffer, installs it under `name`, answers one
    /// probe query, and reports the measured cold-start-to-first-answer
    /// time.
    ///
    /// # Errors
    ///
    /// The decode error (`InvalidData` for malformed or truncated
    /// buffers); the currently served snapshot is untouched.
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
    /// measurement. This is what [`crate::Request::Install`] runs.
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

    /// Removes `name`, returning its retirement state. Its admission
    /// batcher is shut down — queued and future submissions on it fail
    /// with [`ServeError::Retired`] instead of hanging on a name that
    /// will never answer again — and its dynamic lifecycle, if any, is
    /// unregistered.
    pub fn remove(&self, name: &str) -> Option<RetiredSnapshot> {
        let old = self
            .oracles
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)?;
        lock_recover(&self.dynamics).remove(name);
        if let Some(batcher) = lock_recover(&self.batchers).remove(name) {
            batcher.shutdown();
        }
        Some(RetiredSnapshot {
            generation: old.generation,
            leases_in_flight: Arc::strong_count(&old) - 1,
        })
    }

    /// Sets the admission window, and the deadline (see
    /// [`Batcher::with_deadline`]), of the batchers
    /// [`OracleServer::handle`] creates from now on: one per name, on its
    /// first batched request. By default there is neither (a group runs
    /// as soon as its leader has queued).
    pub fn set_admission(&self, window: Duration, deadline: Option<Duration>) {
        *lock_recover(&self.admission) = (window, deadline);
    }

    /// Registers a [`DynamicOracle`] lifecycle under its served name, so
    /// [`OracleServer::handle`] serves the failure ops and a
    /// failover-aware `Route` for it. Returns the shared handle so the
    /// host can keep driving the lifecycle directly too.
    pub fn register_dynamic(&self, dynamic: DynamicOracle) -> Arc<DynamicOracle> {
        let dynamic = Arc::new(dynamic);
        lock_recover(&self.dynamics).insert(dynamic.name().to_string(), Arc::clone(&dynamic));
        dynamic
    }

    /// The dynamic lifecycle registered under `name`.
    pub(crate) fn dynamic(&self, name: &str) -> Result<Arc<DynamicOracle>, ServeError> {
        let dynamic = lock_recover(&self.dynamics).get(name).cloned();
        dynamic.ok_or_else(|| ServeError::UnknownOracle(name.to_string()))
    }

    /// The admission batcher of `name`, created on first use.
    pub(crate) fn batcher(&self, name: &str) -> Arc<Batcher> {
        let mut batchers = lock_recover(&self.batchers);
        let batcher = batchers.entry(name.to_string()).or_insert_with(|| {
            let (window, deadline) = *lock_recover(&self.admission);
            let batcher = Batcher::new(name, window, 0);
            Arc::new(match deadline {
                Some(deadline) => batcher.with_deadline(deadline),
                None => batcher,
            })
        });
        Arc::clone(batcher)
    }

    /// Serving counters of every served name, sorted by name, from one
    /// lease per name.
    pub(crate) fn oracle_stats(&self) -> Vec<OracleStats> {
        let batch: HashMap<String, _> = lock_recover(&self.batchers)
            .iter()
            .map(|(name, b)| (name.clone(), b.stats()))
            .collect();
        self.names()
            .into_iter()
            .filter_map(|name| {
                let lease = self.lease(&name)?;
                Some(OracleStats {
                    backend: lease.oracle().backend(),
                    generation: lease.generation,
                    queries_served: lease.queries_served(),
                    batches_served: lease.batches_served(),
                    // One count for the registry map, one for `lease`.
                    leases_in_flight: (Arc::strong_count(&lease) as u64).saturating_sub(2),
                    batch: batch.get(&name).copied().unwrap_or_default(),
                    name,
                })
            })
            .collect()
    }

    /// Leases the current snapshot of `name` (an `Arc` clone; cheap).
    pub fn lease(&self, name: &str) -> Option<Lease> {
        self.oracles
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// [`OracleServer::lease`], or [`ServeError::UnknownOracle`].
    pub(crate) fn leased(&self, name: &str) -> Result<Lease, ServeError> {
        self.lease(name)
            .ok_or_else(|| ServeError::UnknownOracle(name.to_string()))
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
        let lease = self.leased(name)?;
        lease.query(pairs, out, threads)?;
        Ok(lease.generation)
    }
}
