//! The one request type: what a caller asks of an [`OracleServer`], in
//! process or over a socket, and the one place that answers it.

use crate::{BatcherStats, InstallReport, OracleServer, RepairSwapReport, ServeError};
use graphs::{GraphDelta, NodeId};
use oracle::{Backend, DistanceOracle, FailoverOutcome, RepairKind, TracedRoute};
use std::io;

/// A request to [`OracleServer::handle`]; the `net` crate carries the
/// same type over the wire, one frame per request.
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
        /// Route the batch through the name's shared admission
        /// [`crate::Batcher`] (merging with concurrent submissions)
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
    /// Install (or hot-swap) the snapshot bytes carried in the request.
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

/// What an `Install`/`Swap` did (the flat form of [`InstallReport`]).
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

/// What a `RepairAndSwap` did (the flat form of [`RepairSwapReport`]).
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

/// A `Stats` reply: one [`OracleStats`] per served name, plus the
/// counters of the socket server that relayed it (all 0 in process).
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

/// The answer to one [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Estimate`].
    Estimate {
        /// Generation that answered.
        generation: u64,
        /// The estimate ([`graphs::INF`] outside coverage).
        est: u64,
    },
    /// Reply to [`Request::EstimateMany`].
    EstimateMany {
        /// Generation that answered (one generation for the whole
        /// batch — a hot swap lands between batches, never inside one).
        generation: u64,
        /// One answer per pair, in request order.
        ests: Vec<u64>,
    },
    /// Reply to [`Request::NextHop`].
    NextHop {
        /// The first hop, when the backend routes the pair.
        hop: Option<NodeId>,
    },
    /// Reply to [`Request::Route`].
    Route {
        /// How the route was produced.
        outcome: FailoverOutcome,
        /// The traced route (absent when unroutable).
        route: Option<TracedRoute>,
    },
    /// Reply to [`Request::Install`] and [`Request::Swap`].
    Installed(InstallSummary),
    /// Reply to [`Request::FailEdge`] and [`Request::FailNode`]: the mask
    /// is in effect.
    Failed,
    /// Reply to [`Request::RepairAndSwap`].
    Repaired(RepairSummary),
    /// Reply to [`Request::Stats`].
    Stats(ServerStats),
}

impl From<InstallReport> for InstallSummary {
    fn from(report: InstallReport) -> Self {
        InstallSummary {
            backend: report.backend,
            n: report.n as u64,
            generation: report.generation,
            cold_start_nanos: report.cold_start_nanos,
            replaced: report
                .replaced
                .map(|r| (r.generation, r.leases_in_flight as u64)),
        }
    }
}

impl From<RepairSwapReport> for RepairSummary {
    fn from(report: RepairSwapReport) -> Self {
        let (incremental, rows_recomputed, rows_total, reason) = match report.repair.kind {
            RepairKind::Incremental {
                rows_recomputed,
                rows_total,
            } => (true, rows_recomputed as u64, rows_total as u64, ""),
            RepairKind::Rebuilt { reason } => (false, 0, 0, reason),
        };
        RepairSummary {
            generation: report.generation,
            incremental,
            rows_recomputed,
            rows_total,
            reason: reason.to_string(),
            repair_nanos: report.repair.repair_nanos,
            stale_window_nanos: report.stale_window_nanos,
        }
    }
}

fn installed(report: io::Result<InstallReport>) -> Result<Response, ServeError> {
    let report = report.map_err(|e| ServeError::Snapshot {
        truncated: congest::wire::is_truncated(&e) || e.kind() == io::ErrorKind::UnexpectedEof,
        msg: e.to_string(),
    })?;
    Ok(Response::Installed(report.into()))
}

impl OracleServer {
    /// Answers one request. This is the one place that decides, per op,
    /// the name lookup, the node-id check, the lease, static or dynamic
    /// routing, admission batching, install/swap and the stats; the
    /// `net` server calls it for every decoded frame, so a socket answer
    /// is the in-process answer byte for byte.
    ///
    /// Estimates run on one lease (one generation per reply). A batched
    /// `EstimateMany` joins the name's admission [`crate::Batcher`] (see
    /// [`OracleServer::set_admission`]). `Route` detours around masked
    /// failures when the name has a registered [`crate::DynamicOracle`];
    /// the failure ops require one. A `Stats` reply leaves the socket
    /// counters at 0.
    ///
    /// # Errors
    ///
    /// The one [`ServeError`] enum; each variant names the step that
    /// refused.
    pub fn handle(&self, req: Request) -> Result<Response, ServeError> {
        match req {
            Request::Estimate { name, u, v } => {
                let lease = self.leased(&name)?;
                let mut out = Vec::with_capacity(1);
                lease.query(&[(u, v)], &mut out, 1)?;
                Ok(Response::Estimate {
                    generation: lease.generation,
                    est: out[0],
                })
            }
            Request::EstimateMany {
                name,
                batched,
                pairs,
            } => {
                let (ests, generation) = if batched {
                    // A name that is not served gets no batcher.
                    self.leased(&name)?;
                    self.batcher(&name).submit(self, pairs)?
                } else {
                    let mut ests = Vec::with_capacity(pairs.len());
                    let generation = self.query(&name, &pairs, &mut ests, 0)?;
                    (ests, generation)
                };
                Ok(Response::EstimateMany { generation, ests })
            }
            Request::NextHop { name, u, v } => {
                let lease = self.leased(&name)?;
                lease.check_ids(&[(u, v)])?;
                Ok(Response::NextHop {
                    hop: lease.oracle().next_hop(u, v),
                })
            }
            Request::Route { name, u, v } => {
                let mut route = TracedRoute::default();
                let outcome = match self.dynamic(&name) {
                    Ok(dynamic) => dynamic.route(self, u, v, &mut route)?,
                    Err(_) => {
                        let lease = self.leased(&name)?;
                        lease.check_ids(&[(u, v)])?;
                        if lease.oracle().route_into(u, v, &mut route) {
                            FailoverOutcome::Primary
                        } else {
                            FailoverOutcome::Unroutable
                        }
                    }
                };
                let route = outcome.routed().then_some(route);
                Ok(Response::Route { outcome, route })
            }
            Request::Install { name, path } => {
                installed(self.install_path(&name, std::path::Path::new(&path)))
            }
            Request::Swap { name, snapshot } => installed(
                self.install_shared(&name, congest::arena::SharedBytes::from_vec(snapshot)),
            ),
            Request::FailEdge { name, u, v } => {
                self.dynamic(&name)?.fail_edge(u, v)?;
                Ok(Response::Failed)
            }
            Request::FailNode { name, v } => {
                self.dynamic(&name)?.fail_node(v)?;
                Ok(Response::Failed)
            }
            Request::RepairAndSwap { name, delta } => {
                let report = self.dynamic(&name)?.repair_and_swap(self, &delta)?;
                Ok(Response::Repaired(report.into()))
            }
            Request::Stats => Ok(Response::Stats(ServerStats {
                oracles: self.oracle_stats(),
                ..ServerStats::default()
            })),
        }
    }
}
