//! Convergecast / broadcast aggregation over a BFS tree.
//!
//! Computing a global aggregate (e.g. `w_max`, needed to size the weight
//! ladder in Section 3 of the paper, or `|S|` in the skeleton schemes) takes
//! `O(D)` rounds: converge partial aggregates up the BFS tree, then
//! broadcast the result back down. Both phases are implemented as real
//! message-passing programs.

use crate::bfs::BfsTree;
use crate::metrics::Metrics;
use crate::model::Port;
use crate::program::{Ctx, Program};
use crate::runtime::{Config, Runtime};
use crate::topology::Topology;

/// Associative combining operator for aggregation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Maximum of the inputs.
    Max,
    /// Minimum of the inputs.
    Min,
    /// Sum of the inputs (saturating).
    Sum,
}

impl Op {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Op::Max => a.max(b),
            Op::Min => a.min(b),
            Op::Sum => a.saturating_add(b),
        }
    }
}

/// Convergecast program: combines child values up the tree.
struct ConvergeProgram {
    parent_port: Option<Port>,
    pending_children: usize,
    acc: u64,
    op: Op,
    sent: bool,
    done_value: Option<u64>,
}

impl Program for ConvergeProgram {
    type Msg = u64;

    fn round(&mut self, ctx: &mut Ctx<'_, u64>) {
        for a in ctx.inbox() {
            self.acc = self.op.apply(self.acc, a.msg);
            self.pending_children -= 1;
        }
        if self.pending_children == 0 && !self.sent {
            self.sent = true;
            match self.parent_port {
                Some(p) => ctx.send(p, self.acc),
                None => self.done_value = Some(self.acc),
            }
        }
    }
}

/// Broadcast program: pushes the root value down the tree.
struct BroadcastProgram {
    children: Vec<Port>,
    value: Option<u64>,
    sent: bool,
}

impl Program for BroadcastProgram {
    type Msg = u64;

    fn round(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.value.is_none() {
            if let Some(a) = ctx.inbox().first() {
                self.value = Some(a.msg);
            }
        }
        if let Some(v) = self.value {
            if !self.sent {
                self.sent = true;
                for &c in &self.children {
                    ctx.send(c, v);
                }
            }
        }
    }
}

/// Computes `op` over all per-node `values` and makes the result known to
/// every node, via convergecast + broadcast over `tree`.
///
/// Returns the aggregate and the combined metrics of both phases
/// (`O(D)` rounds in total).
///
/// # Panics
///
/// Panics if `values.len() != topo.len()`.
pub fn global_aggregate(topo: &Topology, tree: &BfsTree, values: &[u64], op: Op) -> (u64, Metrics) {
    assert_eq!(values.len(), topo.len(), "one value per node");

    // Phase 1: convergecast.
    let programs: Vec<ConvergeProgram> = topo
        .nodes()
        .map(|v| ConvergeProgram {
            parent_port: tree.parent_port[v.index()],
            pending_children: tree.children[v.index()].len(),
            acc: values[v.index()],
            op,
            sent: false,
            done_value: None,
        })
        .collect();
    let mut rt = Runtime::new(topo, programs, Config::default());
    let report = rt.run();
    assert!(report.quiescent, "convergecast did not quiesce");
    let (programs, mut metrics) = rt.into_parts();
    let result = programs[tree.root.index()]
        .done_value
        .expect("root must have aggregated all children");

    // Phase 2: broadcast down.
    let programs: Vec<BroadcastProgram> = topo
        .nodes()
        .map(|v| BroadcastProgram {
            children: tree.children[v.index()].clone(),
            value: (v == tree.root).then_some(result),
            sent: false,
        })
        .collect();
    let mut rt = Runtime::new(topo, programs, Config::default());
    let report = rt.run();
    assert!(report.quiescent, "broadcast did not quiesce");
    let (programs, bmetrics) = rt.into_parts();
    debug_assert!(programs.iter().all(|p| p.value == Some(result)));
    metrics.absorb(&bmetrics);
    (result, metrics)
}

/// Convenience: the global maximum of `values`, known to all nodes.
pub fn global_max(topo: &Topology, tree: &BfsTree, values: &[u64]) -> (u64, Metrics) {
    global_aggregate(topo, tree, values, Op::Max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::build_bfs;
    use crate::model::NodeId;

    fn setup() -> (Topology, BfsTree) {
        let topo =
            Topology::from_edges(6, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1)])
                .unwrap();
        let (tree, _) = build_bfs(&topo, NodeId(0));
        (topo, tree)
    }

    #[test]
    fn max_of_values() {
        let (topo, tree) = setup();
        let (v, metrics) = global_max(&topo, &tree, &[3, 1, 4, 1, 5, 9]);
        assert_eq!(v, 9);
        // Two O(height) phases.
        assert!(metrics.rounds <= 2 * (tree.height + 2));
    }

    #[test]
    fn min_of_values() {
        let (topo, tree) = setup();
        let (v, _) = global_aggregate(&topo, &tree, &[3, 7, 4, 2, 5, 9], Op::Min);
        assert_eq!(v, 2);
    }

    #[test]
    fn sum_saturates() {
        let (topo, tree) = setup();
        let (v, _) = global_aggregate(&topo, &tree, &[u64::MAX, 1, 0, 0, 0, 0], Op::Sum);
        assert_eq!(v, u64::MAX);
    }

    #[test]
    fn single_node_aggregate() {
        let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
        let (tree, _) = build_bfs(&topo, NodeId(1));
        let (v, _) = global_max(&topo, &tree, &[10, 20]);
        assert_eq!(v, 20);
    }
}
