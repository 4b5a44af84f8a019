//! One `DistanceOracle` API over every scheme in the workspace.
//!
//! The paper's point is that partial distance estimation is a *primitive*
//! many applications are built on — approximate APSP (Theorem 4.1),
//! routing tables with relabeling (Theorem 4.5), compact Thorup–Zwick
//! hierarchies (Theorems 4.8/4.13) — and Thorup–Zwick-style distance
//! oracles are exactly the "preprocess into a compact artifact, then
//! answer queries" contract a production system wants. This crate makes
//! that contract first-class:
//!
//! * [`DistanceOracle`] — the unified query surface: `estimate`, the
//!   scheduled batch entry [`DistanceOracle::estimate_many_with`]
//!   (`threads` knob: `0` = auto, `1` = sequential; answers are
//!   byte-identical for every thread count — see the trait docs for the
//!   determinism contract), `next_hop`,
//!   full [`DistanceOracle::route`] tracing (no manual `Topology`
//!   plumbing) with an allocation-free [`DistanceOracle::route_into`]
//!   variant, the advertised [`DistanceOracle::stretch_bound`], the
//!   serialized artifact size, and build metrics. Every backend's query
//!   state is flat structure-of-arrays (CSR route rows, dense matrices,
//!   dense skeleton indexes) — the hot path never hashes and never
//!   allocates.
//! * [`OracleBuilder`] — one builder over every [`Backend`] with
//!   consistently named knobs (`seed`, `threads`, `eps`, `k`, `horizon`,
//!   `sigma`, `c`, `l0`), replacing the per-crate
//!   `PdeParams`/`RtcParams`/`CompactParams` constructors (which remain
//!   as the underlying implementations).
//! * [`Oracle::save`] / [`Oracle::load`] — a versioned binary snapshot
//!   (handwritten little-endian framing, no serde) so an oracle is built
//!   once and served from disk; reloaded oracles answer queries
//!   bit-identically (verified by `tests/oracle_matrix.rs`).
//! * [`evaluate`] — an oracle-generic evaluator with stretch percentiles
//!   and measured queries/second.
//!
//! ```
//! use graphs::WGraph;
//! use oracle::{Backend, DistanceOracle, Oracle, OracleBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = WGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 9)])?;
//! let oracle = OracleBuilder::new(Backend::ApproxApsp).eps(0.25).build(&g);
//! assert!(oracle.estimate(graphs::NodeId(0), graphs::NodeId(2)) >= 5);
//! let mut bytes = Vec::new();
//! oracle.save(&mut bytes)?;
//! let served = Oracle::load(&mut &bytes[..])?;
//! assert_eq!(
//!     served.estimate(graphs::NodeId(0), graphs::NodeId(2)),
//!     oracle.estimate(graphs::NodeId(0), graphs::NodeId(2)),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod backends;
pub mod eval;
pub mod failover;
pub mod repair;
mod snapshot;

use congest::{NodeId, Port};
use graphs::{Seed, WGraph, INF};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Instant;

pub use backends::{CompactOracle, PdeOracle, RtcOracle, TruncatedOracle};
pub use eval::{evaluate, EvalReport};
pub use failover::{route_with_failover, FailoverOutcome, LivenessMask};
pub use graphs::{DeltaError, GraphDelta};
/// The shared staged build pipeline (sampling, virtual-graph
/// assembly, recoverable [`BuildError`]s) — re-exported from `pde_core`
/// so `oracle::pipeline` is the one documented entry point.
pub use pde_core::pipeline;
pub use pde_core::pipeline::BuildError;
pub use pde_core::BuildMode;
pub use repair::{RepairError, RepairKind, RepairReport, Repaired};
pub use routing::PairSelection;

/// A fully traced route: the visited nodes (`u` first, destination last),
/// the output port taken at each intermediate node, and the total edge
/// weight.
///
/// Route-heavy loops should allocate one of these and refill it through
/// [`DistanceOracle::route_into`] — the node and port buffers are reused,
/// so tracing costs `O(path)` with zero allocations in steady state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TracedRoute {
    /// Visited nodes, source first and destination last.
    pub nodes: Vec<NodeId>,
    /// Port taken at each node along the way (`nodes.len() - 1` entries).
    pub ports: Vec<Port>,
    /// Sum of traversed edge weights.
    pub weight: u64,
}

impl TracedRoute {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.ports.len()
    }

    /// Empties the route, keeping its buffers.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.ports.clear();
        self.weight = 0;
    }
}

use congest::parallel::run_shards;
use pde_core::pipeline::resolve_threads;
use pde_core::BatchSchedule;

/// Build-time metrics common to every backend.
#[derive(Clone, Copy, Debug)]
pub struct OracleBuildMetrics {
    /// Which backend built this oracle.
    pub backend: Backend,
    /// Number of nodes covered.
    pub n: usize,
    /// CONGEST rounds charged by the distributed construction
    /// (0 for centralized baselines).
    pub rounds: u64,
    /// Messages sent by the distributed construction.
    pub messages: u64,
    /// Wall-clock build time in nanoseconds. Snapshots persist the
    /// *original* build's time — loading is not rebuilding.
    pub build_nanos: u64,
}

/// The unified build-once / query-many surface over every scheme.
///
/// Implementations must uphold: `estimate(u, u) == 0`; estimates never
/// underestimate the true distance; a returned [`TracedRoute`] ends at
/// the destination and walks real graph edges. `estimate` returns
/// [`graphs::INF`] when the backend has no answer for the pair (possible
/// only for partial-coverage PDE oracles).
///
/// # Batch queries, threads, and determinism
///
/// Three methods answer estimates, each layered on the one before:
/// [`DistanceOracle::estimate`] (one pair, reading only immutable scheme
/// state — the `Sync` supertrait makes that shareable),
/// [`DistanceOracle::estimate_grouped`] (the kernel: a source-grouped
/// order of a batch, answered in that order) and
/// [`DistanceOracle::estimate_many_with`] (the scheduled entry point:
/// answers in submission order, with a `threads` knob mirroring
/// `pde_core::run_pde`'s — `0` = auto via
/// [`std::thread::available_parallelism`], `1` = sequential).
///
/// ## The row-view contract
///
/// Every query is "resolve what depends only on the queried node `u`,
/// then read one destination `v`". A table-backed backend says so by
/// implementing [`pde_core::schedule::RowEstimate`]: `open` may capture
/// anything that depends on `u` and immutable scheme state alone, and
/// `est` must be a pure function of `(u, v)`. Each scheme writes its
/// formula once, with `estimate` and `est` as adapters onto it, so
/// grouped answers equal scalar ones by construction; the one loop over
/// equal-source groups is [`pde_core::schedule::estimate_grouped`].
///
/// ## The scheduling / determinism contract
///
/// Large batches run through a **source-grouped schedule**
/// ([`pde_core::schedule::BatchSchedule`]): an order-preserving
/// permutation of the query indices, sorted by `(source row, dest key)`,
/// is executed by [`DistanceOracle::estimate_grouped`] — one row opened
/// per equal-source group instead of per query — and the answers are
/// scattered back through the permutation. Because each answer is a pure
/// function of its pair and lands at the index the pair occupies, the
/// output is **byte-identical for every batch order** (shuffled, sorted,
/// reversed, duplicated) and equal to calling
/// [`DistanceOracle::estimate`] pair by pair.
///
/// The parallel path shards the *schedule*, not the raw pair slice: a
/// group-aware splitter cuts only at group boundaries (no source row's
/// group is split across workers), one scoped worker fills each
/// contiguous schedule region, and one scatter pass restores submission
/// order — so the output is also **byte-identical for every thread
/// count** (pinned by `tests/parallel_determinism.rs` and
/// `tests/batch_schedule.rs`). Small batches, where building a schedule
/// would cost more than it saves, are one sequential loop over
/// `estimate`; the answers are identical either way. No worker mutates
/// shared state; scheduling is unobservable.
pub trait DistanceOracle: Sync {
    /// Number of nodes covered.
    fn len(&self) -> usize;

    /// `true` if the oracle covers no nodes (never for valid builds).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance estimate `wd'(u, v)` (`0` on the diagonal, [`INF`] when
    /// the pair is outside the oracle's coverage).
    ///
    /// Precondition: `u, v < len()`. Past that a backend may panic or
    /// answer from a neighbouring row; `serve` refuses such ids from
    /// outside the process before they get here.
    fn estimate(&self, u: NodeId, v: NodeId) -> u64;

    /// The schedule-order batch kernel: writes `estimate(u, v)` for
    /// `pairs[order[i]]` into `out[i]` — answers land in *schedule*
    /// order; the caller scatters them back to submission order via
    /// [`BatchSchedule::scatter`].
    ///
    /// `order` is a slice of a [`BatchSchedule`] permutation, so equal
    /// sources are contiguous. Every backend delegates to
    /// [`pde_core::schedule::estimate_grouped`] (see the trait docs).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != order.len()`, or when an index in
    /// `order` is out of bounds for `pairs`.
    fn estimate_grouped(&self, pairs: &[(NodeId, NodeId)], order: &[u32], out: &mut [u64]);

    /// Batch estimates with a `threads` knob (`0` = auto, `1` =
    /// sequential): fills `out` with one answer per pair, in order;
    /// output is identical for every value — see the trait docs for the
    /// determinism contract. The worker count is additionally capped at
    /// one per ~1k pairs.
    ///
    /// Batches of at least ~4k pairs run through a source-grouped
    /// [`BatchSchedule`] and [`DistanceOracle::estimate_grouped`];
    /// smaller ones are one sequential loop over
    /// [`DistanceOracle::estimate`].
    fn estimate_many_with(&self, pairs: &[(NodeId, NodeId)], out: &mut Vec<u64>, threads: usize) {
        /// Minimum shard size worth a scoped worker.
        const MIN_PAIRS_PER_WORKER: usize = 1024;
        /// Below this, building the schedule costs more than it saves.
        const MIN_PAIRS_FOR_GROUPING: usize = 4096;
        out.clear();
        if pairs.len() < MIN_PAIRS_FOR_GROUPING {
            out.extend(pairs.iter().map(|&(u, v)| self.estimate(u, v)));
            return;
        }
        out.resize(pairs.len(), 0);
        let workers = resolve_threads(threads, pairs.len() / MIN_PAIRS_PER_WORKER);
        let sched = BatchSchedule::build(pairs, self.len());
        let mut grouped = vec![0u64; pairs.len()];
        let mut order = sched.order();
        let mut slots = grouped.as_mut_slice();
        let shards = sched
            .shard_lens(workers, MIN_PAIRS_PER_WORKER)
            .into_iter()
            .map(|len| {
                let (os, order_rest) = order.split_at(len);
                let (ss, slots_rest) = std::mem::take(&mut slots).split_at_mut(len);
                (order, slots) = (order_rest, slots_rest);
                (os, ss)
            });
        run_shards(shards, |(os, ss)| self.estimate_grouped(pairs, os, ss));
        sched.scatter(&grouped, out);
    }

    /// The next hop from `u` towards `v` (`None` for `u == v` and for
    /// destinations the oracle does not cover).
    fn next_hop(&self, u: NodeId, v: NodeId) -> Option<NodeId>;

    /// Traces the route `u → v` into a caller-provided buffer, reusing
    /// its allocations; returns `false` (with `out` cleared) when the
    /// backend cannot route the pair.
    ///
    /// Follows [`DistanceOracle::next_hop`] over
    /// [`DistanceOracle::topology`], validating that every hop is a real
    /// edge; a stuck walk or the hop cap — which intact tables never
    /// reach, greedy forwarding strictly decreases the estimate — fails
    /// the route.
    fn route_into(&self, u: NodeId, v: NodeId, out: &mut TracedRoute) -> bool {
        out.clear();
        let topo = self.topology();
        out.nodes.push(u);
        let mut cur = u;
        let cap = 20 * topo.len() + 50;
        while cur != v {
            let hop = if out.ports.len() >= cap {
                None
            } else {
                self.next_hop(cur, v)
                    .and_then(|hop| topo.port_to(cur, hop).map(|port| (hop, port)))
            };
            let Some((hop, port)) = hop else {
                out.clear();
                return false;
            };
            out.weight += topo.weight(cur, port);
            out.ports.push(port);
            out.nodes.push(hop);
            cur = hop;
        }
        true
    }

    /// Traces the full route `u → v` — no caller-side `Topology` needed.
    ///
    /// `None` when the backend cannot route the pair. Allocates a fresh
    /// [`TracedRoute`]; hot loops should prefer
    /// [`DistanceOracle::route_into`].
    fn route(&self, u: NodeId, v: NodeId) -> Option<TracedRoute> {
        let mut route = TracedRoute::default();
        self.route_into(u, v, &mut route).then_some(route)
    }

    /// The advertised worst-case multiplicative stretch of estimates and
    /// routes (at the finite-ε ceilings validated by the test suite).
    fn stretch_bound(&self) -> f64;

    /// Size of the serialized artifact in bits: for an [`Oracle`],
    /// exactly 8 × the bytes [`Oracle::save`] writes — the "compact" in
    /// compact routing, measured end to end. The snapshot (header and
    /// arena) belongs to the [`Oracle`], so a bare backend kernel, which
    /// has no serialized form of its own, keeps the default of 0.
    fn size_bits(&self) -> u64 {
        0
    }

    /// Build metrics.
    fn build_metrics(&self) -> &OracleBuildMetrics;

    /// The topology the oracle was built on: route tracing walks it, and
    /// the [failover router](crate::failover) enumerates live neighbors
    /// on it when the primary next hop is dead.
    fn topology(&self) -> &congest::Topology;
}

/// Which scheme answers the queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Partial distance estimation towards a source set (Corollary 3.5):
    /// flat per-node tables, coverage limited by `horizon`/`sigma`.
    Pde,
    /// Deterministic `(1+ε)`-approximate APSP (Theorem 4.1): PDE at
    /// `S = V`, `h = σ = n`.
    ApproxApsp,
    /// Routing tables with relabeling (Theorem 4.5), stretch `6k−1+o(1)`.
    Rtc,
    /// Compact Thorup–Zwick hierarchy (Theorem 4.8), stretch `4k−3+o(1)`.
    Compact,
    /// Truncated hierarchy over the skeleton graph (Theorem 4.13).
    Truncated,
    /// Link-state flooding + local Dijkstra (exact, full tables), served
    /// as a PDE route table over exact rows: each slot is `wd(u, v)` as
    /// whole hops on a one-rung ladder beside the port of `u`'s first hop
    /// (ε = 0, stretch 1; a distance past the 32-bit hop field takes a
    /// rung of its own).
    Flooding,
}

impl Backend {
    /// Every backend, in builder-matrix order.
    pub const ALL: [Backend; 6] = [
        Backend::Pde,
        Backend::ApproxApsp,
        Backend::Rtc,
        Backend::Compact,
        Backend::Truncated,
        Backend::Flooding,
    ];

    /// Stable lowercase name (used in tables and snapshots).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Pde => "pde",
            Backend::ApproxApsp => "approx_apsp",
            Backend::Rtc => "rtc",
            Backend::Compact => "compact",
            Backend::Truncated => "truncated",
            Backend::Flooding => "flooding",
        }
    }

    /// Stable numeric id of this backend on every wire format — the
    /// byte written into `PDOR` snapshot headers and into the `net`
    /// protocol's install/stats frames. The assignment is append-only:
    /// existing values never change, new backends take the next free
    /// tag, so artifacts and peers from different builds agree. A
    /// retired backend's tag is never reused: 5 was the exact
    /// Thorup–Zwick matrices and 6 the served distance-vector matrix,
    /// both now unassigned.
    pub fn wire_tag(self) -> u8 {
        match self {
            Backend::Pde => 0,
            Backend::ApproxApsp => 1,
            Backend::Rtc => 2,
            Backend::Compact => 3,
            Backend::Truncated => 4,
            Backend::Flooding => 7,
        }
    }

    /// The backend for a [`Backend::wire_tag`] byte (`None` for
    /// unassigned tags — a corrupt or future snapshot/frame).
    pub fn from_wire_tag(tag: u8) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.wire_tag() == tag)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds any [`Backend`] with one set of consistently named knobs.
///
/// Unset knobs take backend-appropriate defaults; knobs irrelevant to a
/// backend are ignored (e.g. `k` for [`Backend::Flooding`]).
#[derive(Clone, Debug)]
pub struct OracleBuilder {
    pub(crate) backend: Backend,
    pub(crate) seed: Seed,
    pub(crate) threads: usize,
    pub(crate) mode: BuildMode,
    pub(crate) eps: f64,
    pub(crate) k: u32,
    pub(crate) c: f64,
    pub(crate) horizon: Option<u64>,
    pub(crate) sigma: Option<usize>,
    pub(crate) l0: Option<u32>,
    pub(crate) sources: Option<Vec<bool>>,
}

impl OracleBuilder {
    /// A builder for `backend` with default knobs: `seed 0xC0FFEE`,
    /// automatic `threads`, **native build mode** (the serving default —
    /// use [`OracleBuilder::build_mode`] with [`BuildMode::Simulated`]
    /// for round-accurate CONGEST measurements; artifacts are identical
    /// either way), `eps 0.25`, `k 2`, `c 2.0`, and full-coverage
    /// `horizon`/`sigma`.
    pub fn new(backend: Backend) -> Self {
        OracleBuilder {
            backend,
            seed: Seed(0xC0FFEE),
            threads: 0,
            mode: BuildMode::Native,
            eps: 0.25,
            k: 2,
            c: 2.0,
            horizon: None,
            sigma: None,
            l0: None,
            sources: None,
        }
    }

    /// Build engine: [`BuildMode::Native`] (default; centralized, fast,
    /// charges no rounds) or [`BuildMode::Simulated`] (runs the CONGEST
    /// protocols and reports their rounds/messages in
    /// [`OracleBuildMetrics`]). Scheme artifacts, snapshots and query
    /// answers are **byte-identical** across modes — pinned by
    /// `tests/build_parity.rs`.
    #[must_use]
    pub fn build_mode(mut self, mode: BuildMode) -> Self {
        self.mode = mode;
        self
    }

    /// RNG seed for every random choice of the build.
    #[must_use]
    pub fn seed(mut self, seed: impl Into<Seed>) -> Self {
        self.seed = seed.into();
        self
    }

    /// Worker threads for parallel ladder rungs (`0` = auto, `1` =
    /// sequential); outputs are identical for every value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Approximation parameter ε.
    #[must_use]
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Stretch/size trade-off parameter `k`.
    #[must_use]
    pub fn k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Constant `c` in horizon/list-size formulas.
    #[must_use]
    pub fn c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Detection horizon `h`: for [`Backend::Pde`] the hop horizon
    /// (default `n`, i.e. full coverage); for [`Backend::Compact`] a
    /// Theorem 4.8 `SPD` bound (default: Lemma 4.7 per-level horizons).
    #[must_use]
    pub fn horizon(mut self, h: u64) -> Self {
        self.horizon = Some(h);
        self
    }

    /// List size σ for [`Backend::Pde`] (default `n`).
    #[must_use]
    pub fn sigma(mut self, sigma: usize) -> Self {
        self.sigma = Some(sigma);
        self
    }

    /// Truncation level `l0` for [`Backend::Truncated`]
    /// (default `k − 1`).
    #[must_use]
    pub fn l0(mut self, l0: u32) -> Self {
        self.l0 = Some(l0);
        self
    }

    /// Source set for [`Backend::Pde`] (default: every node).
    #[must_use]
    pub fn sources(mut self, sources: Vec<bool>) -> Self {
        self.sources = Some(sources);
        self
    }

    /// Builds the oracle on `g`.
    ///
    /// # Panics
    ///
    /// Panics on any [`BuildError`]: invalid inputs (disconnected
    /// graphs, out-of-range ε), sampling failures that survived the
    /// builders' one-resample retry, and invalid knob combinations
    /// (e.g. `k < 2` for [`Backend::Truncated`], which stays an assert).
    /// See [`OracleBuilder::try_build`] for the typed form.
    pub fn build(&self, g: &WGraph) -> Oracle {
        self.try_build(g)
            .unwrap_or_else(|e| panic!("{} build failed after one resample: {e}", self.backend))
    }

    /// Builds the oracle, surfacing every build failure as a typed
    /// [`BuildError`].
    ///
    /// The scheme builders retry each failed w.h.p. event once on a
    /// [`Seed::derive`]d resample; if the retry also fails, the
    /// [`BuildError`] is returned here instead of panicking, so callers
    /// can re-seed or raise `c` programmatically. Invalid *inputs* — a
    /// disconnected graph ([`BuildError::Disconnected`]), an
    /// out-of-range ε or weights whose path sums overflow `u64`
    /// ([`BuildError::InvalidParam`]; the latter two for the PDE-based
    /// backends) — are rejected up front without a resample.
    ///
    /// # Errors
    ///
    /// The input error, or the [`BuildError`] of the second failed
    /// sampling attempt.
    ///
    /// # Panics
    ///
    /// Panics on invalid knob *combinations* (e.g. `l0` outside `1..k`
    /// for [`Backend::Truncated`]) — those are caller bugs.
    pub fn try_build(&self, g: &WGraph) -> Result<Oracle, BuildError> {
        let start = Instant::now();
        let mut inner = backends::build_inner(self, g)?;
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        backends::set_build_nanos(&mut inner, nanos);
        Ok(Oracle { inner })
    }
}

/// A built (or loaded) distance oracle: one concrete type over every
/// backend, usable directly or as `&dyn DistanceOracle`.
pub struct Oracle {
    pub(crate) inner: backends::Inner,
}

impl Oracle {
    /// The backend answering queries.
    pub fn backend(&self) -> Backend {
        self.build_metrics().backend
    }

    /// Writes the binary snapshot of this oracle (on-disk tag 13): a
    /// 40-byte header, then one [`congest::arena`] container — an
    /// 8-byte-aligned section directory, typed sections and a trailing
    /// checksum, with narrow index-free routing tables and derived query
    /// state (row fits, RTC long-range tables and table counts) stored
    /// instead of rebuilt on load. This is the only format;
    /// `oracle::snapshot`'s module docs have the layout.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn save<W: Write>(&self, sink: &mut W) -> io::Result<()> {
        snapshot::save(self, sink, false)
    }

    /// Writes the [`Oracle::save`] snapshot to a file, **atomically**
    /// ([`congest::wire::write_file_atomic`]: temp file, fsync, rename,
    /// directory fsync). A crash mid-write leaves either the previous
    /// file or the complete new one — never a torn snapshot for
    /// [`Oracle::load_path`] (and so a `net` `Install`, which cold-loads
    /// the file it is pointed at) to choke on. (The name dates from when
    /// this format was the third of several.)
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the temp file is removed on failure.
    pub fn save_path_v3(&self, path: &std::path::Path) -> io::Result<()> {
        congest::wire::write_file_atomic(path, |sink| snapshot::save(self, sink, false))
    }

    /// Loads an oracle from a snapshot written by [`Oracle::save`],
    /// reading the stream to its end into one owned buffer the oracle's
    /// tables then view. Files in a retired layout — tags 1 to 4 — are
    /// rejected with a pointer to rebuild.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on bad magic/backend bytes or any malformed
    /// payload; truncated inputs wrap
    /// [`congest::wire::SnapshotError::Truncated`] (test with
    /// [`congest::wire::is_truncated`]) and unsupported version tags
    /// [`congest::wire::SnapshotError::Rebuild`] (test with
    /// [`congest::wire::snapshot_cause`]).
    pub fn load<R: Read>(source: &mut R) -> io::Result<Oracle> {
        snapshot::load(source)
    }

    /// Loads an oracle from a borrowed in-memory snapshot buffer. The
    /// bytes are copied once into an owned buffer so the oracle can keep
    /// views into them; callers already holding the snapshot as a
    /// [`congest::arena::SharedBytes`] should prefer
    /// [`Oracle::load_shared`], which skips that copy.
    ///
    /// # Errors
    ///
    /// As [`Oracle::load`].
    pub fn load_bytes(buf: &[u8]) -> io::Result<Oracle> {
        Oracle::load_shared(congest::arena::SharedBytes::from_vec(buf.to_vec()))
    }

    /// Loads an oracle from a shared in-memory snapshot buffer — the
    /// **zero-copy** path: after one checksum pass, the oracle's route
    /// tables are views into `bytes`, and cloning the handle and loading
    /// again shares the same underlying allocation.
    ///
    /// # Errors
    ///
    /// As [`Oracle::load`].
    pub fn load_shared(bytes: congest::arena::SharedBytes) -> io::Result<Oracle> {
        snapshot::load_shared(bytes)
    }

    /// Loads an oracle from a snapshot file: the file is read **once**
    /// into a [`congest::arena::SharedBytes`] buffer and decoded through
    /// [`Oracle::load_shared`], so every backend's route tables are
    /// served as zero-copy views into that single read: the cold-start
    /// path from disk pays
    /// no second copy of them (unlike `fs::read` + [`Oracle::load_bytes`],
    /// which would copy the payload again). `serve::OracleServer::install_path`
    /// and the `net` protocol's `Install` op go through this.
    ///
    /// # Errors
    ///
    /// The file-read error, or any decode error as [`Oracle::load`].
    pub fn load_path(path: &std::path::Path) -> io::Result<Oracle> {
        Oracle::load_shared(congest::arena::SharedBytes::from_vec(std::fs::read(path)?))
    }

    /// The **canonical artifact bytes**: the [`Oracle::save`] stream with
    /// the header's volatile measurement fields (CONGEST rounds, messages,
    /// build wall-clock) written as zero; the arena carries none. This is the build-identity witness:
    /// for the same graph, seed and knobs, simulated and native builds —
    /// at any thread count — produce identical canonical bytes (asserted
    /// by `tests/build_parity.rs`).
    /// The returned stream is itself a loadable snapshot.
    pub fn artifact_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        snapshot::save(self, &mut bytes, true).expect("writing to a Vec cannot fail");
        bytes
    }

    fn as_dyn(&self) -> &dyn DistanceOracle {
        self.inner.as_dyn()
    }
}

impl fmt::Debug for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Oracle")
            .field("backend", &self.backend())
            .field("n", &self.len())
            .finish_non_exhaustive()
    }
}

impl DistanceOracle for Oracle {
    fn len(&self) -> usize {
        self.as_dyn().len()
    }
    fn estimate(&self, u: NodeId, v: NodeId) -> u64 {
        self.as_dyn().estimate(u, v)
    }
    fn estimate_grouped(&self, pairs: &[(NodeId, NodeId)], order: &[u32], out: &mut [u64]) {
        self.as_dyn().estimate_grouped(pairs, order, out);
    }
    fn estimate_many_with(&self, pairs: &[(NodeId, NodeId)], out: &mut Vec<u64>, threads: usize) {
        self.as_dyn().estimate_many_with(pairs, out, threads);
    }
    fn next_hop(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        self.as_dyn().next_hop(u, v)
    }
    fn route_into(&self, u: NodeId, v: NodeId, out: &mut TracedRoute) -> bool {
        self.as_dyn().route_into(u, v, out)
    }
    fn stretch_bound(&self) -> f64 {
        self.as_dyn().stretch_bound()
    }
    fn size_bits(&self) -> u64 {
        snapshot::size_bits(self)
    }
    fn build_metrics(&self) -> &OracleBuildMetrics {
        self.as_dyn().build_metrics()
    }
    fn topology(&self) -> &congest::Topology {
        self.as_dyn().topology()
    }
}

/// Convenience: an estimate is "covered" when it is not [`INF`].
pub fn is_covered(est: u64) -> bool {
    est != INF
}

#[cfg(test)]
mod tests {
    use super::Backend;

    #[test]
    fn wire_tags_are_pinned_and_tag_6_stays_retired() {
        let tags: Vec<(&str, u8)> = Backend::ALL
            .into_iter()
            .map(|b| (b.name(), b.wire_tag()))
            .collect();
        let want = [
            ("pde", 0),
            ("approx_apsp", 1),
            ("rtc", 2),
            ("compact", 3),
            ("truncated", 4),
            ("flooding", 7),
        ];
        assert_eq!(tags, want);
        for b in Backend::ALL {
            assert_eq!(Backend::from_wire_tag(b.wire_tag()), Some(b));
        }
        // 5 was the exact Thorup–Zwick matrices and 6 the served
        // distance-vector matrix; a retired tag is never reused.
        assert_eq!(Backend::from_wire_tag(5), None);
        assert_eq!(Backend::from_wire_tag(6), None);
        assert_eq!(Backend::from_wire_tag(8), None);
    }
}
