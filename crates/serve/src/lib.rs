//! A long-lived, in-process serving front end over [`oracle::Oracle`].
//!
//! A built oracle is a read-only artifact; serving it is a lifecycle
//! problem: several oracles live side by side (one per graph, or one per
//! backend under comparison), snapshots are replaced while queries are in
//! flight, and callers want aggregate throughput without each inventing
//! its own batching. This crate is that layer, std-only:
//!
//! * [`OracleServer::handle`] — the one typed entry point: a [`Request`]
//!   in, a [`Response`] or one [`ServeError`] out. It owns, per op, the
//!   name lookup, the id check, the lease, static-or-dynamic routing,
//!   admission batching, install/swap and the stats. The `net` crate
//!   decodes a socket frame into the same [`Request`] and calls it, so
//!   in-process and socket callers share one door.
//! * [`OracleServer`] — a named registry of served oracles. Queries take
//!   a [`Lease`] (an `Arc` clone) on the current snapshot;
//!   [`OracleServer::install`] atomically swaps the snapshot under a
//!   short write lock. An old snapshot is **retired, not dropped**: every
//!   in-flight lease keeps it alive until its last batch finishes, so a
//!   hot swap never interrupts a query (pinned by the `hot_swap_*`
//!   tests). [`OracleServer::install_shared`] is the zero-copy cold
//!   start: decode, install, answer one probe, report the time (the
//!   stack benchmark's `cold_load_ms`).
//! * [`Batcher`] — admission batching for one served name: concurrent
//!   small submissions are merged for a short window into **one**
//!   [`oracle::DistanceOracle::estimate_many_with`] call on one leased
//!   snapshot, so each group sees one generation and tiny callers
//!   inherit the batch kernel (answers stay byte-identical). A
//!   *deadline* ([`Batcher::with_deadline`]) bounds the wait on a wedged
//!   leader with [`ServeError::Deadline`]; [`Batcher::shutdown`] fails
//!   queued and future submissions with [`ServeError::Retired`], which
//!   [`OracleServer::remove`] does for the batcher `handle` keeps per
//!   name.
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
//! use serve::{OracleServer, Request, Response};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = WGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 9)])?;
//! let server = OracleServer::new();
//! server.install("demo", OracleBuilder::new(Backend::Flooding).build(&g));
//! let (u, v) = (graphs::NodeId(0), graphs::NodeId(2));
//! let reply = server.handle(Request::Estimate { name: "demo".into(), u, v })?;
//! assert_eq!(reply, Response::Estimate { generation: 1, est: 5 });
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod batcher;
mod dynamic;
pub mod persist;
mod registry;
mod request;

pub use batcher::{Batcher, BatcherStats};
pub use dynamic::{DynamicOracle, RepairSwapReport};
pub use persist::{Checkpoint, DeltaWal, PersistError, RecoverReport, WalReplay};
pub use registry::{InstallReport, Lease, OracleServer, RetiredSnapshot, ServedOracle};
pub use request::{InstallSummary, OracleStats, RepairSummary, Request, Response, ServerStats};

use graphs::{DeltaError, NodeId};
use oracle::RepairError;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Everything [`OracleServer::handle`] (and the methods it calls) can
/// refuse with.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// No oracle is installed under the requested name (or, for the
    /// failure ops, none is served dynamically).
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
    /// A failure or repair delta does not apply to the served graph
    /// (unknown node or edge, zero weight, would disconnect); nothing was
    /// masked or swapped.
    Delta(DeltaError),
    /// The repair itself failed (rebuild error, backend or graph
    /// mismatch).
    Repair(RepairError),
    /// The repair succeeded but its delta could not be made durable
    /// (WAL append failed), so the swap was **not** installed: serving
    /// an artifact whose repair would vanish on restart would break the
    /// crash-recovery guarantee. The served snapshot, graph, and mask
    /// are unchanged; the failure stays masked and routed around.
    Persist(String),
    /// A snapshot could not be read or decoded; the served snapshot is
    /// untouched.
    Snapshot {
        /// The stream ended early (a torn file or frame).
        truncated: bool,
        /// The read or decode error.
        msg: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownOracle(name) => write!(f, "no oracle installed under {name:?}"),
            ServeError::Deadline(name) => write!(
                f,
                "batched submission to {name:?} timed out past its deadline"
            ),
            ServeError::Retired(name) => write!(f, "the batcher for {name:?} has been retired"),
            ServeError::NodeOutOfRange { id, n } => {
                write!(f, "node id {} is outside the oracle's {n} nodes", id.0)
            }
            ServeError::Delta(e) => write!(f, "delta rejected: {e}"),
            ServeError::Repair(e) => write!(f, "repair failed: {e}"),
            ServeError::Persist(msg) => write!(f, "repair not installed, wal append failed: {msg}"),
            ServeError::Snapshot { msg, .. } => write!(f, "install failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Delta(e) => Some(e),
            ServeError::Repair(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeltaError> for ServeError {
    fn from(e: DeltaError) -> Self {
        ServeError::Delta(e)
    }
}

impl From<RepairError> for ServeError {
    /// A refused delta is [`ServeError::Delta`] whichever door it came
    /// through; every other repair failure is [`ServeError::Repair`].
    fn from(e: RepairError) -> Self {
        match e {
            RepairError::Delta(d) => ServeError::Delta(d),
            other => ServeError::Repair(other),
        }
    }
}
#[cfg(test)]
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use graphs::{GraphDelta, WGraph};
    use oracle::{Backend, DistanceOracle, FailoverOutcome, Oracle, OracleBuilder, TracedRoute};

    pub(crate) fn ring(n: u32, w: u64) -> WGraph {
        let edges: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, (i + 1) % n, w)).collect();
        WGraph::from_edges(n as usize, &edges).unwrap()
    }

    pub(crate) fn build(g: &WGraph) -> Oracle {
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
    fn server_remove_retires_the_names_batcher() {
        let server = OracleServer::new();
        server.install("g", build(&ring(8, 1)));
        let request = || Request::EstimateMany {
            name: "g".into(),
            batched: true,
            pairs: vec![(NodeId(0), NodeId(4))],
        };
        let reply = server.handle(request()).unwrap();
        let answered = Response::EstimateMany {
            generation: 1,
            ests: vec![4],
        };
        assert_eq!(reply, answered);
        let batcher = server.batcher("g");
        server.remove("g");
        let err = batcher
            .submit(&server, vec![(NodeId(0), NodeId(4))])
            .unwrap_err();
        assert_eq!(err, ServeError::Retired("g".into()));
        let err = server.handle(request()).unwrap_err();
        assert_eq!(err, ServeError::UnknownOracle("g".into()));
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
        let refused = ServeError::Delta;
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
        assert_eq!(err, ServeError::Delta(DeltaError::Disconnects));
        let mut route = TracedRoute::default();
        let outcome = dyn_oracle
            .route(&server, NodeId(0), NodeId(2), &mut route)
            .unwrap();
        assert_eq!(outcome, FailoverOutcome::Unroutable);

        server.remove("g");
        let err = dyn_oracle.repair_and_swap(&server, &delta).unwrap_err();
        assert_eq!(err, ServeError::UnknownOracle("g".into()));
    }
}
