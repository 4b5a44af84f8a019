//! The node-program trait and its per-round execution context.

use crate::model::{Message, NodeId, Port};
use crate::topology::Topology;

/// A message delivered to a node at the start of a round.
#[derive(Clone, Debug)]
pub struct Arrival<M> {
    /// The local port the message arrived on.
    pub port: Port,
    /// The message payload.
    pub msg: M,
}

/// A distributed node program, one instance per node.
///
/// The runtime calls [`Program::round`] once per round for every node, in
/// node-id order (the order is unobservable to programs — all sends take
/// effect simultaneously at the end of the round, as in the synchronous
/// model).
pub trait Program {
    /// The message type this program exchanges.
    type Msg: Message;

    /// Executes one round: read `ctx.inbox()`, update local state, and send
    /// at most one message per port via [`Ctx::send`] / [`Ctx::broadcast`].
    ///
    /// Round 0 is called with an empty inbox (it corresponds to the round in
    /// which inputs have just been placed at the nodes).
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// `true` if this node will not act unless it receives a message first.
    ///
    /// The runtime uses this two ways:
    ///
    /// * **Quiescence detection** — the run stops early when no messages
    ///   are in flight, the last round sent nothing, and every program
    ///   reports `is_idle()`.
    /// * **Skip license** — after round 0, a node that is idle and
    ///   received nothing this round is not stepped at all (its `round`
    ///   must be a no-op in that situation — which is exactly what "idle"
    ///   promises).
    ///
    /// The default `true` fits purely message-driven programs (all the
    /// programs in this repository). A program that acts *spontaneously*
    /// after round 0 — timers, staged starts, internal send queues — MUST
    /// override this to return `false` until it is done acting on its
    /// own; with the default it would neither keep the network awake nor
    /// be stepped on its trigger round.
    fn is_idle(&self) -> bool {
        true
    }
}

/// Per-round execution context handed to [`Program::round`].
///
/// Exposes the node's local view of the topology (its id, degree, and the
/// weight/delay of incident arcs — exactly the input the paper assumes each
/// node is given) plus the inbox and an outbox.
///
/// The outbox and per-port bookkeeping are *borrowed scratch buffers* owned
/// by the runtime and reused across every node and round, so constructing a
/// `Ctx` allocates nothing.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: u64,
    pub(crate) degree: usize,
    pub(crate) topo: &'a Topology,
    pub(crate) inbox: &'a [Arrival<M>],
    pub(crate) sends: &'a mut Vec<(Port, M)>,
    pub(crate) port_used: &'a mut [bool],
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Builds a context over runtime-owned scratch. `port_used` must have
    /// exactly `topo.degree(node)` entries, all `false`; `sends` must be
    /// empty.
    pub(crate) fn new(
        node: NodeId,
        round: u64,
        topo: &'a Topology,
        inbox: &'a [Arrival<M>],
        sends: &'a mut Vec<(Port, M)>,
        port_used: &'a mut [bool],
    ) -> Self {
        debug_assert_eq!(port_used.len(), topo.degree(node));
        debug_assert!(sends.is_empty());
        Ctx {
            node,
            round,
            degree: topo.degree(node),
            topo,
            inbox,
            sends,
            port_used,
        }
    }

    /// This node's id.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round number (starting at 0).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The neighbor behind `port`.
    #[inline]
    pub fn neighbor(&self, port: Port) -> NodeId {
        self.topo.neighbor(self.node, port)
    }

    /// The weight of the incident edge at `port`.
    #[inline]
    pub fn weight(&self, port: Port) -> u64 {
        self.topo.weight(self.node, port)
    }

    /// The delay of the incident arc at `port` (1 in plain CONGEST; the
    /// subdivision length of the edge when simulating a `G_i`).
    #[inline]
    pub fn delay(&self, port: Port) -> u64 {
        self.topo.delay(self.node, port)
    }

    /// Messages that arrived at the start of this round, sorted by port.
    ///
    /// The returned slice borrows the runtime's delivery buffer, not the
    /// `Ctx` itself, so it can be iterated while calling `&mut self`
    /// methods like [`Ctx::send`] — no defensive copy needed.
    #[inline]
    pub fn inbox(&self) -> &'a [Arrival<M>] {
        self.inbox
    }

    /// Sends `msg` over `port` (delivered `delay(port)` rounds later).
    ///
    /// # Panics
    ///
    /// Panics if a message was already sent on `port` this round (the
    /// CONGEST model allows one message per edge per round) or if `port`
    /// is out of range.
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(
            (port as usize) < self.degree,
            "send: port {port} out of range for node {} (degree {})",
            self.node,
            self.degree
        );
        assert!(
            !self.port_used[port as usize],
            "CONGEST violation: node {} sent two messages on port {port} in round {}",
            self.node, self.round
        );
        self.port_used[port as usize] = true;
        self.sends.push((port, msg));
    }

    /// Sends a copy of `msg` over every incident edge.
    ///
    /// # Panics
    ///
    /// Panics if any port was already used this round.
    pub fn broadcast(&mut self, msg: M) {
        let deg = self.degree as Port;
        if deg == 0 {
            return;
        }
        if self.sends.is_empty() {
            // Fast path: nothing sent yet, so every port is free (sends
            // and flags are 1:1). Skip the per-port checks.
            debug_assert!(self.port_used.iter().all(|u| !u));
            self.port_used.fill(true);
            self.sends.reserve(deg as usize);
            for port in 0..deg - 1 {
                self.sends.push((port, msg.clone()));
            }
            self.sends.push((deg - 1, msg));
            return;
        }
        for port in 0..deg - 1 {
            self.send(port, msg.clone());
        }
        self.send(deg - 1, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    /// Scratch buffers mirroring what the runtime owns.
    struct Scratch {
        sends: Vec<(Port, u32)>,
        port_used: Vec<bool>,
    }

    impl Scratch {
        fn new(topo: &Topology, node: NodeId) -> Self {
            Scratch {
                sends: Vec::new(),
                port_used: vec![false; topo.degree(node)],
            }
        }
    }

    #[test]
    fn ctx_exposes_local_view() {
        let topo = Topology::from_edges(3, &[(0, 1, 4), (0, 2, 6)]).unwrap();
        let inbox: Vec<Arrival<u32>> = vec![];
        let mut s = Scratch::new(&topo, NodeId(0));
        let ctx = Ctx::<u32>::new(NodeId(0), 3, &topo, &inbox, &mut s.sends, &mut s.port_used);
        assert_eq!(ctx.node(), NodeId(0));
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.neighbor(0), NodeId(1));
        assert_eq!(ctx.weight(1), 6);
        assert_eq!(ctx.delay(0), 1);
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn double_send_panics() {
        let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
        let inbox: Vec<Arrival<u32>> = vec![];
        let mut s = Scratch::new(&topo, NodeId(0));
        let mut ctx = Ctx::<u32>::new(NodeId(0), 0, &topo, &inbox, &mut s.sends, &mut s.port_used);
        ctx.send(0, 1);
        ctx.send(0, 2);
    }

    #[test]
    fn broadcast_uses_every_port_once() {
        let topo = Topology::from_edges(4, &[(0, 1, 1), (0, 2, 1), (0, 3, 1)]).unwrap();
        let inbox: Vec<Arrival<u32>> = vec![];
        let mut s = Scratch::new(&topo, NodeId(0));
        let mut ctx = Ctx::<u32>::new(NodeId(0), 0, &topo, &inbox, &mut s.sends, &mut s.port_used);
        ctx.broadcast(9);
        assert_eq!(s.sends, vec![(0, 9), (1, 9), (2, 9)]);
    }

    #[test]
    fn inbox_outlives_ctx_borrow() {
        // The defining property of the zero-copy inbox: iterate it while
        // mutating the ctx (the old API forced programs to clone arrivals).
        let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
        let inbox = vec![Arrival {
            port: 0,
            msg: 41u32,
        }];
        let mut s = Scratch::new(&topo, NodeId(0));
        let mut ctx = Ctx::<u32>::new(NodeId(0), 1, &topo, &inbox, &mut s.sends, &mut s.port_used);
        for a in ctx.inbox() {
            ctx.send(a.port, a.msg + 1);
        }
        assert_eq!(s.sends, vec![(0, 42)]);
    }
}
