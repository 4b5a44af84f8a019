//! Link-state (OSPF-style) baseline: flood the topology, solve locally.

use congest::{bits_for, Config, Ctx, Message, Metrics, NodeId, Program, Runtime};
use graphs::algo::{apsp_with_first_hops, Apsp};
use graphs::WGraph;
use std::collections::{BTreeSet, VecDeque};

/// A link-state advertisement: one edge.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Lsa(u32, u32, u64);

impl Message for Lsa {
    fn bit_size(&self) -> usize {
        bits_for(u64::from(self.0) + 1) + bits_for(u64::from(self.1) + 1) + bits_for(self.2 + 1)
    }
}

struct FloodProgram {
    known: BTreeSet<Lsa>,
    queue: VecDeque<Lsa>,
}

impl Program for FloodProgram {
    type Msg = Lsa;

    fn round(&mut self, ctx: &mut Ctx<'_, Lsa>) {
        if ctx.round() == 0 {
            let me = ctx.node();
            for (_, u, w, _) in ctx_arcs(ctx) {
                let lsa = Lsa(me.0.min(u.0), me.0.max(u.0), w);
                if self.known.insert(lsa.clone()) {
                    self.queue.push_back(lsa);
                }
            }
        }
        let arrivals: Vec<Lsa> = ctx.inbox().iter().map(|a| a.msg.clone()).collect();
        for lsa in arrivals {
            if self.known.insert(lsa.clone()) {
                self.queue.push_back(lsa);
            }
        }
        if let Some(lsa) = self.queue.pop_front() {
            ctx.broadcast(lsa);
        }
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

fn ctx_arcs(ctx: &Ctx<'_, Lsa>) -> Vec<(u32, NodeId, u64, u64)> {
    (0..ctx.degree() as u32)
        .map(|p| (p, ctx.neighbor(p), ctx.weight(p), ctx.delay(p)))
        .collect()
}

/// Result of the link-state baseline.
#[derive(Debug)]
pub struct FloodResult {
    /// Exact APSP computed locally from the collected topology.
    pub apsp: Apsp,
    /// Exact first hops (`first_hops[u·n + v]`; `u32::MAX` on the
    /// diagonal), from the same local Dijkstra sweep — what an OSPF node
    /// actually installs in its forwarding table.
    pub first_hops: Vec<u32>,
    /// Simulator metrics (`rounds ∈ Θ(m + D)`; storage per node `Θ(m)`).
    pub metrics: Metrics,
    /// Link-state database size per node (edges stored) — the `Θ(m)`
    /// storage cost the paper contrasts with compact tables.
    pub lsdb_edges: usize,
}

/// Runs topology flooding to completion, then local Dijkstra (exact APSP),
/// its source rows sharded over `threads` workers (`0` = one per core;
/// every count gives the same bytes).
///
/// # Panics
///
/// Panics if the graph is disconnected or some node missed an edge (a
/// protocol bug).
pub fn flooding_apsp(g: &WGraph, threads: usize) -> FloodResult {
    let topo = g.to_topology();
    assert!(topo.is_connected(), "flooding requires connectivity");
    let n = g.len();
    let programs: Vec<FloodProgram> = (0..n)
        .map(|_| FloodProgram {
            known: BTreeSet::new(),
            queue: VecDeque::new(),
        })
        .collect();
    let budget = 4 * (g.num_edges() as u64 + n as u64) + 64;
    let mut rt = Runtime::new(&topo, programs, Config::up_to_rounds(budget));
    let report = rt.run();
    assert!(report.quiescent, "flooding did not complete");
    let (programs, metrics) = rt.into_parts();
    for (i, p) in programs.iter().enumerate() {
        assert_eq!(
            p.known.len(),
            g.num_edges(),
            "node {i} missed link-state advertisements"
        );
    }
    let (apsp, first_hops) = apsp_with_first_hops(g, threads);
    FloodResult {
        apsp,
        first_hops,
        metrics,
        lsdb_edges: g.num_edges(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::algo::apsp;
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn collects_whole_topology() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::gnp_connected(20, 0.2, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
        let r = flooding_apsp(&g, 1);
        assert_eq!(r.lsdb_edges, g.num_edges());
        // Exactness comes from local Dijkstra on the full topology.
        let exact = apsp(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(r.apsp.dist(u, v), exact.dist(u, v));
            }
        }
    }

    #[test]
    fn rounds_scale_with_edge_count() {
        let mut rng = SmallRng::seed_from_u64(2);
        let sparse = gen::path(30, Weights::Unit, &mut rng);
        let dense = gen::complete(30, Weights::Unit, &mut rng);
        let rs = flooding_apsp(&sparse, 1).metrics.rounds;
        let rd = flooding_apsp(&dense, 1).metrics.rounds;
        assert!(rd > rs, "dense graph should flood longer: {rd} vs {rs}");
        // Θ(m + D): the dense graph has 435 edges but D=1.
        assert!(rd as usize >= dense.num_edges() / 30);
    }
}
