//! Pipelined distributed Bellman–Ford (distance-vector / RIP-style) APSP.

use congest::{bits_for, Config, Ctx, Message, Metrics, NodeId, Program, Runtime, Topology};
use graphs::{WGraph, INF};
use std::collections::{BTreeSet, HashMap};

/// A distance-vector announcement.
#[derive(Clone, Debug)]
pub(crate) struct BfMsg {
    /// The source this distance refers to.
    src: NodeId,
    /// The announcing node's current distance to `src`.
    dist: u64,
}

impl Message for BfMsg {
    fn bit_size(&self) -> usize {
        bits_for(u64::from(self.src.0) + 1) + bits_for(self.dist + 1)
    }
}

/// Node state: a full distance vector, announced one improvement per round
/// (smallest first — the same pipelining discipline as source detection,
/// but with no horizon and no list-size cap, which is exactly why it needs
/// `Θ(n²)` rounds in the worst case).
struct BfProgram {
    dist: HashMap<NodeId, u64>,
    pending: BTreeSet<(u64, NodeId)>,
    announced: HashMap<NodeId, u64>,
}

impl Program for BfProgram {
    type Msg = BfMsg;

    fn round(&mut self, ctx: &mut Ctx<'_, BfMsg>) {
        if ctx.round() == 0 {
            let me = ctx.node();
            self.dist.insert(me, 0);
            self.pending.insert((0, me));
        }
        let arrivals: Vec<(u64, BfMsg)> = ctx
            .inbox()
            .iter()
            .map(|a| (ctx.weight(a.port), a.msg.clone()))
            .collect();
        for (w, msg) in arrivals {
            let d = msg.dist.saturating_add(w);
            let cur = self.dist.get(&msg.src).copied().unwrap_or(INF);
            if d < cur {
                if cur != INF {
                    self.pending.remove(&(cur, msg.src));
                }
                self.dist.insert(msg.src, d);
                if self.announced.get(&msg.src).is_none_or(|&a| d < a) {
                    self.pending.insert((d, msg.src));
                }
            }
        }
        if let Some(&(d, s)) = self.pending.iter().next() {
            self.pending.remove(&(d, s));
            self.announced.insert(s, d);
            ctx.broadcast(BfMsg { src: s, dist: d });
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Result of the Bellman–Ford baseline.
#[derive(Debug)]
pub struct BfResult {
    n: usize,
    dist: Vec<u64>,
    /// Simulator metrics (`rounds` is the headline number: `Θ(n²)` worst
    /// case, versus the paper's `Õ(n)`).
    pub metrics: Metrics,
}

impl BfResult {
    /// Exact distance `wd(u, v)`.
    pub fn dist(&self, u: NodeId, v: NodeId) -> u64 {
        self.dist[u.index() * self.n + v.index()]
    }
}

/// Runs the pipelined distance-vector algorithm to completion (exact
/// APSP).
///
/// # Panics
///
/// Panics if the graph is disconnected or the run fails to quiesce within
/// a `16·n² + 64` round budget (it always does: at most `n` improvements
/// per source per node).
pub fn bellman_ford_apsp(g: &WGraph) -> BfResult {
    let topo: Topology = g.to_topology();
    assert!(topo.is_connected(), "Bellman-Ford requires connectivity");
    let n = g.len();
    let programs: Vec<BfProgram> = (0..n)
        .map(|_| BfProgram {
            dist: HashMap::new(),
            pending: BTreeSet::new(),
            announced: HashMap::new(),
        })
        .collect();
    let budget = 16 * (n as u64) * (n as u64) + 64;
    let mut rt = Runtime::new(&topo, programs, Config::up_to_rounds(budget));
    let report = rt.run();
    assert!(report.quiescent, "Bellman-Ford did not converge");
    let (programs, metrics) = rt.into_parts();
    let mut dist = vec![INF; n * n];
    for (i, p) in programs.into_iter().enumerate() {
        for (s, d) in p.dist {
            dist[i * n + s.index()] = d;
        }
    }
    BfResult { n, dist, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::algo::apsp;
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..3 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(18, 0.2, Weights::Uniform { lo: 1, hi: 50 }, &mut rng);
            let bf = bellman_ford_apsp(&g);
            let exact = apsp(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(bf.dist(u, v), exact.dist(u, v), "pair ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn rounds_grow_superlinearly_on_paths() {
        // Each node must announce ~n sources one per round: Θ(n²) total
        // work pipelines into Ω(n) rounds even here; on adversarial
        // weighted graphs it degrades further. We check it is ≥ n.
        let mut rng = SmallRng::seed_from_u64(9);
        let g = gen::path(24, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
        let bf = bellman_ford_apsp(&g);
        assert!(bf.metrics.rounds >= 24);
    }
}
