//! The failure-aware lifecycle over one served name: mask failures now,
//! repair the artifact and hot-swap it, optionally with crash-safe
//! persistence.

use crate::persist::{self, DeltaWal, PersistError, RecoverReport};
use crate::{lock_recover, OracleServer, RetiredSnapshot, ServeError};
use graphs::{DeltaError, GraphDelta, NodeId, WGraph};
use oracle::{
    route_with_failover, BuildError, FailoverOutcome, LivenessMask, OracleBuilder, RepairReport,
    TracedRoute,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

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
    ckpt_path: Option<PathBuf>,
    state: Mutex<DynState>,
}

impl DynamicOracle {
    /// The handle for `name` serving an artifact built on `graph`, with
    /// an all-alive mask; `persist` is the checkpoint path and the WAL.
    fn managing(
        name: &str,
        builder: OracleBuilder,
        graph: WGraph,
        persist: Option<(PathBuf, DeltaWal)>,
    ) -> Self {
        let (ckpt_path, wal) = persist.unzip();
        let mask = LivenessMask::new(graph.len());
        let state = DynState {
            graph,
            mask,
            masked_at: None,
            wal,
        };
        DynamicOracle {
            name: name.to_string(),
            builder,
            ckpt_path,
            state: Mutex::new(state),
        }
    }

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
        server.install(name, builder.try_build(g)?);
        Ok(Self::managing(name, builder, g.clone(), None))
    }

    /// [`DynamicOracle::install`] with crash-safe persistence: writes a
    /// checkpoint (`<dir>/<name>.ckpt`, the snapshot, atomically)
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
        dir: &Path,
    ) -> Result<Self, PersistError> {
        let oracle = builder.try_build(g)?;
        let ckpt_path = dir.join(format!("{name}.ckpt"));
        let wal_path = dir.join(format!("{name}.wal"));
        persist::write_checkpoint(&ckpt_path, 1, &oracle)?;
        let wal = DeltaWal::create(&wal_path, 1)?;
        server.install(name, oracle);
        Ok(Self::managing(
            name,
            builder,
            g.clone(),
            Some((ckpt_path, wal)),
        ))
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
        dir: &Path,
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
        let handle = Self::managing(name, builder, graph, Some((ckpt_path, wal)));
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

    /// Folds the WAL into a fresh checkpoint: writes the served snapshot
    /// (which carries its graph) atomically under a bumped epoch, then resets
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
        let lease = server.leased(&self.name)?;
        let wal = state.wal.as_ref().ok_or(PersistError::NotPersistent)?;
        let folded = wal.records();
        let epoch = wal.epoch() + 1;
        persist::write_checkpoint(ckpt_path, epoch, lease.oracle())?;
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
        lock_recover(&self.state).graph.clone()
    }

    /// A snapshot of the current liveness mask.
    pub fn mask(&self) -> LivenessMask {
        lock_recover(&self.state).mask.clone()
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
        let lease = server.leased(&self.name)?;
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
    /// [`ServeError::UnknownOracle`] when the name is not served;
    /// [`ServeError::Delta`] when the delta does not apply (unknown ids
    /// are refused unmasked; a delta that would disconnect the graph
    /// stays masked, routed around, and unrepaired);
    /// [`ServeError::Repair`] when the rebuild fails;
    /// [`ServeError::Persist`] when the delta cannot be logged.
    pub fn repair_and_swap(
        &self,
        server: &OracleServer,
        delta: &GraphDelta,
    ) -> Result<RepairSwapReport, ServeError> {
        let t0 = Instant::now();
        let mut state = lock_recover(&self.state);
        state.mask_failure(delta, t0)?;
        let lease = server.leased(&self.name)?;
        let repaired = self.builder.repair(&state.graph, lease.oracle(), delta)?;
        drop(lease);
        // Durability before visibility: on a persistent handle the
        // delta must hit the WAL before the repaired snapshot is
        // installed, or a crash right after the swap would serve
        // answers that recovery cannot reproduce.
        if let Some(wal) = state.wal.as_mut() {
            wal.append(delta)
                .map_err(|e| ServeError::Persist(e.to_string()))?;
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
