//! The backend wrappers behind [`crate::DistanceOracle`]: four structs
//! for the five [`Backend`]s, since [`Backend::Flooding`] is a
//! [`PdeOracle`] over exact rows. [`Backend::Pde`] at its defaults
//! (`S = V`, `h = σ = n`) is Theorem 4.1's approximate APSP.
//!
//! Every wrapper traces routes without caller-side plumbing: the
//! distributed schemes expose the topology they were built on (borrowed,
//! not copied), and the PDE-family wrapper keeps its own. It
//! serves what Definition 2.2 promises, [`pde_core::PdeOutput::served`]:
//! each node's σ-list entries as per-node source-sorted rows
//! ([`pde_core::FlatTables`]), so point queries are one short probe and
//! batch queries stream through dense memory with no per-query hashing
//! or allocation, plus the few transit hops its routes need where a list
//! has dropped a source. The routing archive `run_pde` also writes stays
//! behind with the build.

use crate::{Backend, BuildError, BuildMode, DistanceOracle, OracleBuildMetrics, OracleBuilder};
use baselines::flooding_apsp;
use compact::{
    try_build_hierarchy, try_build_truncated, CompactParams, CompactScheme, HorizonMode,
};
use compact::{TruncatedScheme, UpperMode};
use congest::arena::{ArenaCursor, ArenaWriter};
use congest::wire::invalid_data;
use congest::{NodeId, Port, Topology};
use graphs::{WGraph, INF};
use pde_core::pde::validate_pde_input;
use pde_core::schedule::{self, RowEstimate};
use pde_core::{try_run_pde, FlatTables, PdeParams, RouteInfo, RowCursor};
use routing::{try_build_rtc, RoutingScheme, RtcParams, RtcScheme};
use std::collections::BTreeSet;
use std::io;

/// The finite-ε stretch ceiling of the Theorem 4.5 scheme
/// (`(6k−1)·(1+ε)^4`, as validated end to end by the routing tests).
fn rtc_ceiling(k: u32, eps: f64) -> f64 {
    (6.0 * f64::from(k) - 1.0) * (1.0 + eps).powi(4)
}

/// The finite-ε stretch ceiling of the Theorem 4.8 hierarchy
/// (`(1+ε)^{4(k−1)+4}·(4(k−1)+1)` at `k ≥ 2`).
fn compact_ceiling(k: u32, eps: f64) -> f64 {
    let k = k.max(2);
    let l = f64::from(k - 1);
    (1.0 + eps).powi(4 * (k as i32 - 1) + 4) * (4.0 * l + 1.0)
}

/// The finite-ε stretch ceiling of the Theorem 4.13 truncated hierarchy
/// (with the waypoint-descent constant, as in its end-to-end tests).
fn truncated_ceiling(k: u32, eps: f64) -> f64 {
    (4.0 * f64::from(k) - 3.0) * (1.0 + eps).powi(6) * 2.0
}

// ---------------------------------------------------------------- PDE --

/// [`Backend::Pde`]: flat per-node tables of one PDE run's σ-lists, and
/// the transit hops their routes need ([`pde_core::PdeOutput::served`])
/// — and [`Backend::Flooding`], the coverage of Theorem 4.1's `S = V`,
/// `h = σ = n` with exact rows (ε = 0; see `exact_oracle`). At σ ≥ |S|
/// the lists are the whole archive and there is no transit.
pub struct PdeOracle {
    pub(crate) topo: Topology,
    pub(crate) routes: FlatTables,
    pub(crate) transit: Transit,
    pub(crate) eps: f64,
    pub(crate) h: u64,
    pub(crate) sigma: usize,
    pub(crate) metrics: OracleBuildMetrics,
}

/// A row is the queried node and its row cursor: both fit on the stack,
/// so the scalar estimate opens a row too.
impl RowEstimate for PdeOracle {
    type Row<'a> = (NodeId, Option<RowCursor<'a>>);

    #[inline]
    fn open<'a>(&'a self, u: NodeId, row: &mut Self::Row<'a>) {
        *row = (u, Some(self.routes.cursor(u)));
    }

    /// Corollary 3.5's `wd'(u, v)`: `u`'s entry for source `v`, [`INF`]
    /// for a pair outside the coverage.
    #[inline]
    fn est(&self, &(u, cursor): &Self::Row<'_>, v: NodeId) -> u64 {
        if u == v {
            return 0;
        }
        cursor.and_then(|row| row.est(v)).unwrap_or(INF)
    }
}

impl DistanceOracle for PdeOracle {
    fn len(&self) -> usize {
        self.topo.len()
    }

    fn estimate(&self, u: NodeId, v: NodeId) -> u64 {
        let mut row = Default::default();
        self.open(u, &mut row);
        self.est(&row, v)
    }

    fn estimate_grouped(&self, pairs: &[(NodeId, NodeId)], order: &[u32], out: &mut [u64]) {
        schedule::estimate_grouped(self, pairs, order, out);
    }

    /// The listed entry's port, else the transit hop's.
    fn next_hop(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        if u == v {
            return None;
        }
        let port = match self.routes.get(u, v) {
            Some(e) => e.port,
            None => self.transit.port(u, v)?,
        };
        Some(self.topo.neighbor(u, port))
    }

    /// `1 + ε` against `wd_h(u, v)`, the lightest path of at most `h`
    /// hops (Definition 2.2), for every covered answer and the weight of
    /// its route. That is `wd(u, v)` whenever a shortest path has at
    /// most `h` hops, so always at full coverage (`h = n`).
    fn stretch_bound(&self) -> f64 {
        1.0 + self.eps
    }

    fn build_metrics(&self) -> &OracleBuildMetrics {
        &self.metrics
    }

    fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// A partial PDE table's transit hops ([`pde_core::PdeOutput::served`]):
/// archive entries `(node, source, port)` that some listed pair's route
/// reads at a node whose list has dropped the source. Only `next_hop`
/// reads them. Keys `node << 32 | source` strictly increase, beside one
/// port each; both are empty on every table whose rows hold only listed
/// sources.
#[derive(Default)]
pub(crate) struct Transit {
    keys: Vec<u64>,
    ports: Vec<Port>,
}

fn transit_key(u: NodeId, v: NodeId) -> u64 {
    u64::from(u.0) << 32 | u64::from(v.0)
}

impl Transit {
    pub(crate) fn new(hops: &[(NodeId, NodeId, Port)]) -> Self {
        Transit {
            keys: hops.iter().map(|&(u, v, _)| transit_key(u, v)).collect(),
            ports: hops.iter().map(|h| h.2).collect(),
        }
    }

    /// The port of `u`'s transit hop towards `v`, if it has one.
    fn port(&self, u: NodeId, v: NodeId) -> Option<Port> {
        let i = self.keys.binary_search(&transit_key(u, v)).ok()?;
        Some(self.ports[i])
    }

    pub(crate) fn write_arena(&self, a: &mut ArenaWriter) {
        a.u64s(&self.keys);
        a.u32s(&self.ports);
    }

    /// Reads what [`Transit::write_arena`] wrote.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a malformed section or a key without its port.
    pub(crate) fn read_arena(c: &mut ArenaCursor<'_>) -> io::Result<Self> {
        let (keys, ports) = (c.u64s()?, c.u32s()?);
        if keys.len() != ports.len() {
            return Err(invalid_data("transit sections disagree in length"));
        }
        Ok(Transit { keys, ports })
    }

    /// Checks the hops against the table they serve beside: keys
    /// strictly increasing, each hop between two distinct nodes, its port
    /// below the node's degree, and no hop where the table has an entry.
    ///
    /// # Errors
    ///
    /// `InvalidData` on any of those faults.
    pub(crate) fn validate(&self, topo: &Topology, routes: &FlatTables) -> io::Result<()> {
        if !self.keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid_data("transit keys are not strictly increasing"));
        }
        for (&key, &port) in self.keys.iter().zip(&self.ports) {
            let (u, v) = ((key >> 32) as usize, key as u32 as usize);
            let (node, src) = (NodeId::from_index(u), NodeId::from_index(v));
            let fault = if u >= topo.len() || v >= topo.len() || u == v {
                "names a node out of range or its own source"
            } else if port >= topo.degree(node) as u32 {
                "has a port at or above the node's degree"
            } else if routes.get(node, src).is_some() {
                "duplicates a table entry"
            } else {
                continue;
            };
            return Err(invalid_data(format!("transit hop ({u}, {v}) {fault}")));
        }
        Ok(())
    }
}

// ---------------------------------------------- RoutingScheme wrappers --

/// The distributed schemes own their topology; wrappers borrow it for
/// route tracing instead of keeping a second copy (and the snapshot
/// payload serializes the scheme's topology exactly once).
macro_rules! scheme_oracle {
    ($(#[$doc:meta])* $name:ident, $scheme:ty, $bound:expr) => {
        $(#[$doc])*
        pub struct $name {
            pub(crate) scheme: $scheme,
            pub(crate) k: u32,
            pub(crate) eps: f64,
            pub(crate) metrics: OracleBuildMetrics,
        }

        impl DistanceOracle for $name {
            fn len(&self) -> usize {
                RoutingScheme::len(&self.scheme)
            }

            fn estimate(&self, u: NodeId, v: NodeId) -> u64 {
                RoutingScheme::estimate(&self.scheme, u, v)
            }

            fn estimate_grouped(&self, pairs: &[(NodeId, NodeId)], order: &[u32], out: &mut [u64]) {
                schedule::estimate_grouped(&self.scheme, pairs, order, out);
            }

            fn next_hop(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
                RoutingScheme::next_hop(&self.scheme, u, v)
            }

            fn stretch_bound(&self) -> f64 {
                #[allow(clippy::redundant_closure_call)]
                ($bound)(self.k, self.eps)
            }

            fn build_metrics(&self) -> &OracleBuildMetrics {
                &self.metrics
            }

            fn topology(&self) -> &Topology {
                self.scheme.topology()
            }
        }
    };
}

scheme_oracle!(
    /// [`Backend::Rtc`]: the Theorem 4.5 scheme behind the unified trait.
    RtcOracle,
    RtcScheme,
    rtc_ceiling
);
scheme_oracle!(
    /// [`Backend::Compact`]: the Theorem 4.8 hierarchy behind the trait.
    CompactOracle,
    CompactScheme,
    compact_ceiling
);
scheme_oracle!(
    /// [`Backend::Truncated`]: the Theorem 4.13 scheme behind the trait.
    TruncatedOracle,
    TruncatedScheme,
    truncated_ceiling
);

// ------------------------------------------------------- construction --

/// The concrete backend behind an [`crate::Oracle`].
// One `Inner` per oracle, never stored in bulk: its size is immaterial,
// and boxing the widest variant would put a pointer chase in front of
// every RTC query.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Inner {
    Pde(PdeOracle),
    Rtc(RtcOracle),
    Compact(CompactOracle),
    Truncated(TruncatedOracle),
}

impl Inner {
    pub(crate) fn as_dyn(&self) -> &dyn DistanceOracle {
        match self {
            Inner::Pde(o) => o,
            Inner::Rtc(o) => o,
            Inner::Compact(o) => o,
            Inner::Truncated(o) => o,
        }
    }
}

pub(crate) fn metrics(
    backend: Backend,
    n: usize,
    rounds: u64,
    messages: u64,
) -> OracleBuildMetrics {
    OracleBuildMetrics {
        backend,
        n,
        rounds,
        messages,
        build_nanos: 0,
    }
}

pub(crate) fn set_build_nanos(inner: &mut Inner, nanos: u64) {
    let m = match inner {
        Inner::Pde(o) => &mut o.metrics,
        Inner::Rtc(o) => &mut o.metrics,
        Inner::Compact(o) => &mut o.metrics,
        Inner::Truncated(o) => &mut o.metrics,
    };
    m.build_nanos = nanos;
}

pub(crate) fn build_inner(b: &OracleBuilder, g: &WGraph) -> Result<Inner, BuildError> {
    let n = g.len();
    // Uniform input contract: every scheme in this workspace builds on a
    // connected graph, so the rejection is typed and happens before any
    // pipeline stage can panic on it.
    if !g.is_connected() {
        return Err(BuildError::Disconnected { nodes: n });
    }
    if matches!(
        b.backend,
        Backend::Pde | Backend::Rtc | Backend::Compact | Backend::Truncated
    ) {
        validate_pde_input(g, b.eps)?;
    }
    let inner = match b.backend {
        Backend::Pde => {
            let sources = match &b.sources {
                Some(s) => {
                    assert_eq!(s.len(), n, "one source flag per node");
                    s.clone()
                }
                None => vec![true; n],
            };
            let h = b.horizon.unwrap_or(n as u64);
            let sigma = b.sigma.unwrap_or(n);
            let params = PdeParams::new(h, sigma, b.eps)
                .with_threads(b.threads)
                .with_mode(b.mode);
            let out = try_run_pde(g, &sources, &vec![false; n], &params)?;
            let m = metrics(
                b.backend,
                n,
                out.metrics.total.rounds,
                out.metrics.total.messages,
            );
            let topo = g.to_topology();
            // At σ ≥ |S| no list drops a source: the archive is the lists.
            let (routes, transit) = match sigma >= sources.iter().filter(|&&s| s).count() {
                true => (out.routes, Vec::new()),
                false => out.served(&topo),
            };
            Inner::Pde(PdeOracle {
                topo,
                routes,
                transit: Transit::new(&transit),
                eps: b.eps,
                h,
                sigma,
                metrics: m,
            })
        }
        Backend::Rtc => {
            let params = RtcParams {
                k: b.k,
                eps: b.eps,
                c: b.c,
                seed: b.seed,
                mode: b.mode,
                threads: b.threads,
            };
            let scheme = try_build_rtc(g, &params)?;
            let m = metrics(
                Backend::Rtc,
                n,
                scheme.metrics.total_rounds,
                scheme.metrics.total.messages,
            );
            Inner::Rtc(RtcOracle {
                scheme,
                k: b.k,
                eps: b.eps,
                metrics: m,
            })
        }
        Backend::Compact => {
            let params = CompactParams {
                k: b.k,
                eps: b.eps,
                c: b.c,
                seed: b.seed,
                horizon: b.horizon.map_or(HorizonMode::Lemma47, HorizonMode::Spd),
                mode: b.mode,
                threads: b.threads,
            };
            let scheme = try_build_hierarchy(g, &params)?;
            let m = metrics(
                Backend::Compact,
                n,
                scheme.metrics.total_rounds,
                scheme.metrics.total.messages,
            );
            Inner::Compact(CompactOracle {
                scheme,
                k: b.k,
                eps: b.eps,
                metrics: m,
            })
        }
        Backend::Truncated => {
            let k = b.k;
            assert!(k >= 2, "Backend::Truncated needs k >= 2");
            let l0 = b.l0.unwrap_or(k - 1);
            assert!(
                (1..k).contains(&l0),
                "Backend::Truncated needs l0 in 1..k (got l0={l0}, k={k})"
            );
            let params = CompactParams {
                k,
                eps: b.eps,
                c: b.c,
                seed: b.seed,
                horizon: HorizonMode::Lemma47,
                mode: b.mode,
                threads: b.threads,
            };
            let scheme = try_build_truncated(g, &params, l0, UpperMode::Local)?;
            let m = metrics(
                Backend::Truncated,
                n,
                scheme.metrics.total_rounds,
                scheme.metrics.total.messages,
            );
            Inner::Truncated(TruncatedOracle {
                scheme,
                k,
                eps: b.eps,
                metrics: m,
            })
        }
        Backend::Flooding => {
            // Refused before the n² sweep, not after it.
            exact_slots(n)?;
            // The flood only adds the Θ(m + D)-round measurement: both
            // engines install the rows of the same local Dijkstra sweep.
            let ((apsp, first_hops), m) = match b.mode {
                BuildMode::Simulated => {
                    let fl = flooding_apsp(g, b.threads);
                    let m = metrics(Backend::Flooding, n, fl.metrics.rounds, fl.metrics.messages);
                    ((fl.apsp, fl.first_hops), m)
                }
                BuildMode::Native => (
                    graphs::algo::apsp_with_first_hops(g, b.threads),
                    metrics(Backend::Flooding, n, 0, 0),
                ),
            };
            let dist = apsp.into_dist();
            let mut ladder = ExactLadder::default();
            ladder.add(dist.iter().copied());
            exact_oracle(g, ladder, m, |topo, u, out| {
                let row = u.index() * n..(u.index() + 1) * n;
                push_exact_row(topo, u, &dist[row.clone()], &first_hops[row], out);
            })?
        }
    };
    Ok(inner)
}

/// The ladder of a table of exact rows: one rung, `1`, on which a
/// distance `d` is `d` whole hops — and, since the hop field is 32 bits,
/// one more rung per distinct distance past `u32::MAX`, reached in one
/// hop. Every distance the table will hold goes through
/// [`ExactLadder::add`] first.
#[derive(Default)]
pub(crate) struct ExactLadder {
    /// The largest distance within the hop field.
    horizon: u64,
    /// The distances past it.
    wide: BTreeSet<u64>,
}

impl ExactLadder {
    pub(crate) fn add(&mut self, dists: impl IntoIterator<Item = u64>) {
        for d in dists {
            if d > u64::from(u32::MAX) {
                self.wide.insert(d);
            } else {
                self.horizon = self.horizon.max(d);
            }
        }
    }
}

/// The entries of [`Backend::Flooding`]'s table over `n` nodes: `n·(n −
/// 1)`, every ordered pair off the diagonal.
///
/// # Errors
///
/// [`BuildError::InvalidParam`] past `u32::MAX` (`n ≥ 65 537`): a route
/// table's offsets are 4 bytes.
pub(crate) fn exact_slots(n: usize) -> Result<usize, BuildError> {
    n.checked_mul(n.saturating_sub(1))
        .filter(|&e| e <= u32::MAX as usize)
        .ok_or(BuildError::InvalidParam {
            what: "more ordered pairs than a route table's u32 offsets hold (n ≥ 65 537)",
        })
}

/// [`Backend::Flooding`]'s oracle over exact rows: `fill(topo, u, out)`
/// appends `u`'s entries (see [`push_exact_row`]) to a route table on
/// `ladder`, where slot `(u, v)` stores `wd(u, v)` and the port of `u`'s
/// first hop. It is PDE at `S = V`, `h = σ = n` with ε = 0, so it
/// answers exactly.
///
/// # Errors
///
/// [`BuildError::InvalidParam`] when the distances past the 32-bit hop
/// field need more rungs than a table holds (2¹⁶ with rung `1`), or the
/// pairs more slots ([`exact_slots`]).
pub(crate) fn exact_oracle(
    g: &WGraph,
    ladder: ExactLadder,
    metrics: OracleBuildMetrics,
    mut fill: impl FnMut(&Topology, NodeId, &mut Vec<(NodeId, RouteInfo)>),
) -> Result<Inner, BuildError> {
    if ladder.wide.len() >= 1 << 16 {
        return Err(BuildError::InvalidParam {
            what: "more distinct distances past the 32-bit hop field than a table has rungs",
        });
    }
    let rungs: Vec<u64> = std::iter::once(1).chain(ladder.wide).collect();
    let horizon = ladder.horizon.max(u64::from(rungs.len() > 1));
    let n = g.len();
    let topo = g.to_topology();
    let entries = exact_slots(n)?;
    let routes = FlatTables::from_rows(n, entries, (horizon, &rungs), |u, out| {
        fill(&topo, NodeId(u as u32), out);
        for (_, r) in out.iter_mut() {
            r.level = match r.est > u64::from(u32::MAX) {
                true => rungs
                    .binary_search(&r.est)
                    .expect("a wide distance has a rung") as u32,
                false => 0,
            };
        }
    });
    Ok(Inner::Pde(PdeOracle {
        topo,
        routes,
        transit: Transit::default(),
        eps: 0.0,
        h: n as u64,
        sigma: n,
        metrics,
    }))
}

/// Appends `u`'s exact row — its distance row and first-hop row, dense
/// and indexed by node — to `out`: every `v ≠ u` at `wd(u, v)`, through
/// the port of `u`'s first hop ([`exact_oracle`] sets the rungs).
pub(crate) fn push_exact_row(
    topo: &Topology,
    u: NodeId,
    dist: &[u64],
    next: &[u32],
    out: &mut Vec<(NodeId, RouteInfo)>,
) {
    out.extend(topo.nodes().filter(|&v| v != u).map(|v| {
        let hop = NodeId(next[v.index()]);
        let port = topo.port_to(u, hop).expect("a first hop is a neighbour");
        let est = dist[v.index()];
        (
            v,
            RouteInfo {
                est,
                port,
                level: 0,
            },
        )
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flooding's table holds `n·(n − 1)` entries behind `u32` offsets:
    /// the largest graph it takes is 65 536 nodes, and one more is a
    /// typed error, known before any row is computed.
    #[test]
    fn flooding_slot_limit_is_a_typed_error() {
        assert_eq!(exact_slots(65_536), Ok(65_536 * 65_535));
        assert!(matches!(
            exact_slots(65_537),
            Err(BuildError::InvalidParam { .. })
        ));
        assert_eq!(exact_slots(0), Ok(0));
        assert_eq!(exact_slots(1), Ok(0));
    }
}
