//! The synchronous round scheduler.
//!
//! # Hot-path design
//!
//! The round loop is allocation-free in steady state. Messages in flight
//! live in a ring of per-round buckets, each a list of fixed-size blocks
//! of deliveries. The bucket for the current round is scattered into a
//! dense per-arc slot table (`(node, port)` pairs are exactly the global
//! arc indices of the CSR topology, and per-arc delays plus the
//! one-message-per-port CONGEST rule guarantee at most one delivery per
//! arc per round), and its drained blocks go to a spare list that later
//! sends fill first: the ring holds what is in flight, rounded up to
//! blocks, not every bucket's busiest round. Each node's inbox is then
//! gathered from its contiguous arc range — which yields port-sorted
//! order for free — into a single reused buffer, and programs write sends
//! into a reused outbox. No per-round `Vec<Vec<_>>` inboxes, no global
//! `sort_by_key`, no per-node allocations.

use crate::metrics::Metrics;
use crate::model::{Message, NodeId, Port};
use crate::program::{Arrival, Ctx, Program};
use crate::topology::Topology;

/// Deliveries per block of the in-flight ring (24 KiB at 24-byte
/// deliveries).
const BLOCK: usize = 1024;

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Hard upper bound on executed rounds. The theorems under test give
    /// explicit round budgets; callers that validate a bound set it here
    /// and check [`RunReport::quiescent`].
    pub max_rounds: u64,
    /// Bandwidth `B` in bits. Messages larger than this are counted in
    /// [`Metrics::bandwidth_violations`] (and panic if `strict_bandwidth`).
    pub bandwidth_bits: usize,
    /// Panic on over-size messages instead of just counting them.
    pub strict_bandwidth: bool,
    /// Stop as soon as the network is quiescent (no messages in flight,
    /// nothing sent last round, all programs idle).
    pub stop_when_quiet: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_rounds: 1_000_000,
            bandwidth_bits: 256,
            strict_bandwidth: false,
            stop_when_quiet: true,
        }
    }
}

impl Config {
    /// A config with a fixed round budget and quiescence stopping disabled:
    /// exactly `rounds` rounds are counted and charged. Quiet trailing
    /// rounds still elapse (and are metered), though idle nodes with empty
    /// inboxes are not individually stepped — see [`Program::is_idle`].
    pub fn exact_rounds(rounds: u64) -> Self {
        Config {
            max_rounds: rounds,
            stop_when_quiet: false,
            ..Default::default()
        }
    }

    /// A config bounded by `rounds` that stops early on quiescence.
    pub fn up_to_rounds(rounds: u64) -> Self {
        Config {
            max_rounds: rounds,
            stop_when_quiet: true,
            ..Default::default()
        }
    }
}

/// Result summary of a run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Rounds executed.
    pub rounds: u64,
    /// `true` if the run ended because the network went quiet (rather than
    /// exhausting `max_rounds`).
    pub quiescent: bool,
}

struct Delivery<M> {
    /// Destination node.
    node: NodeId,
    /// Global index of the *receiving* arc (precomputed at send time, so
    /// delivery needs no per-message offset lookup).
    arc: u32,
    msg: M,
}

/// Executes a [`Program`] instance per node over a [`Topology`].
///
/// Delivery semantics: a message sent in round `r` over an arc with delay
/// `d` is delivered at the start of round `r + d`. Per-node inboxes are
/// sorted by arrival port, so execution is fully deterministic.
pub struct Runtime<'t, P: Program> {
    topo: &'t Topology,
    programs: Vec<P>,
    cfg: Config,
    metrics: Metrics,
    /// Ring buffer of future deliveries, indexed by round modulo capacity:
    /// each round's in blocks of [`BLOCK`], all full but the last.
    buckets: Vec<Vec<Vec<Delivery<P::Msg>>>>,
    in_flight: u64,
    round: u64,
    // ---- reused hot-path scratch ----
    /// Drained blocks, emptied, for the next sends to fill.
    spare: Vec<Vec<Delivery<P::Msg>>>,
    /// One slot per directed arc; `Some` iff a message arrives on that arc
    /// this round (drained back to `None` as inboxes are gathered).
    arc_slots: Vec<Option<P::Msg>>,
    /// Per-node arrival counts for this round (reset inline while
    /// gathering, so cleanup is O(deliveries), not O(n)).
    arrival_count: Vec<u32>,
    /// The inbox buffer handed to the current node's [`Ctx`].
    inbox: Vec<Arrival<P::Msg>>,
    /// The outbox buffer handed to the current node's [`Ctx`].
    sends: Vec<(Port, P::Msg)>,
    /// Per-port send flags, sized to the maximum degree; entries set by a
    /// node's sends are cleared while the outbox is drained.
    port_used: Vec<bool>,
}

impl<'t, P: Program> Runtime<'t, P> {
    /// Creates a runtime for `topo` with one program per node.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != topo.len()`.
    pub fn new(topo: &'t Topology, programs: Vec<P>, cfg: Config) -> Self {
        assert_eq!(
            programs.len(),
            topo.len(),
            "one program per node is required"
        );
        let cap = (topo.max_delay() + 1) as usize;
        let mut buckets = Vec::with_capacity(cap);
        buckets.resize_with(cap, Vec::new);
        let max_degree = topo.nodes().map(|v| topo.degree(v)).max().unwrap_or(0);
        let mut arc_slots = Vec::new();
        arc_slots.resize_with(topo.num_arcs(), || None);
        Runtime {
            topo,
            programs,
            cfg,
            metrics: Metrics::default(),
            buckets,
            in_flight: 0,
            round: 0,
            spare: Vec::new(),
            arc_slots,
            arrival_count: vec![0; topo.len()],
            inbox: Vec::new(),
            sends: Vec::new(),
            port_used: vec![false; max_degree],
        }
    }

    /// Runs rounds until quiescence or the round budget is exhausted.
    pub fn run(&mut self) -> RunReport {
        let n = self.topo.len();
        let mut quiescent = false;
        while self.round < self.cfg.max_rounds {
            // Deliver this round's messages: scatter into per-arc slots.
            // At most one message per arc per round (delays are fixed per
            // arc and senders use each port at most once per round), so
            // the slot table doubles as a counting sort keyed on
            // (node, port) with no comparison sort anywhere.
            let slot = (self.round as usize) % self.buckets.len();
            let mut blocks = std::mem::take(&mut self.buckets[slot]);
            for mut block in blocks.drain(..) {
                self.in_flight -= block.len() as u64;
                for d in block.drain(..) {
                    let a = d.arc as usize;
                    debug_assert!(self.arc_slots[a].is_none(), "two deliveries on one arc");
                    self.arc_slots[a] = Some(d.msg);
                    self.arrival_count[d.node.index()] += 1;
                }
                self.spare.push(block);
            }
            self.buckets[slot] = blocks;

            // Execute programs and collect sends.
            let mut sent_this_round = 0u64;
            for v in 0..n {
                let node = NodeId::from_index(v);
                // Gather the inbox from the node's contiguous arc range;
                // ascending arc index is ascending port.
                self.inbox.clear();
                if self.arrival_count[v] > 0 {
                    let expected = std::mem::take(&mut self.arrival_count[v]) as usize;
                    let range = self.topo.arc_range(node);
                    let base = range.start;
                    for a in range {
                        if let Some(msg) = self.arc_slots[a].take() {
                            self.inbox.push(Arrival {
                                port: (a - base) as Port,
                                msg,
                            });
                            if self.inbox.len() == expected {
                                break;
                            }
                        }
                    }
                } else if self.round > 0 && self.programs[v].is_idle() {
                    // Contract of `is_idle`: an idle node sends nothing
                    // until it receives something, and its `round` with an
                    // empty inbox is a no-op — so don't pay for the call.
                    // Round 0 always executes (input placement).
                    continue;
                }
                let degree = self.topo.degree(node);
                let mut ctx = Ctx::new(
                    node,
                    self.round,
                    self.topo,
                    &self.inbox,
                    &mut self.sends,
                    &mut self.port_used[..degree],
                );
                self.programs[v].round(&mut ctx);
                sent_this_round += self.sends.len() as u64;
                for (port, msg) in self.sends.drain(..) {
                    // Every send marked exactly one flag; clearing here
                    // keeps the reset O(sends) instead of O(degree).
                    self.port_used[port as usize] = false;
                    let bits = msg.bit_size();
                    self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits);
                    if bits > self.cfg.bandwidth_bits {
                        self.metrics.bandwidth_violations += 1;
                        assert!(
                            !self.cfg.strict_bandwidth,
                            "message of {bits} bits exceeds bandwidth B={} (node {node}, round {})",
                            self.cfg.bandwidth_bits, self.round
                        );
                    }
                    let delay = self.topo.delay(node, port);
                    let arrival = self.round + delay;
                    // Deliveries beyond the budget can never be observed;
                    // dropping them keeps the ring buffer small. The send
                    // itself is still counted (bandwidth was consumed).
                    if arrival < self.cfg.max_rounds {
                        let target = self.topo.neighbor(node, port);
                        let rarc = self.topo.reverse_arc(node, port);
                        let slot = (arrival as usize) % self.buckets.len();
                        let bucket = &mut self.buckets[slot];
                        if bucket.last().is_none_or(|b| b.len() == BLOCK) {
                            let block = self.spare.pop();
                            bucket.push(block.unwrap_or_else(|| Vec::with_capacity(BLOCK)));
                        }
                        bucket
                            .last_mut()
                            .expect("a block with room")
                            .push(Delivery {
                                node: target,
                                arc: rarc,
                                msg,
                            });
                        self.in_flight += 1;
                    }
                }
            }
            self.metrics.messages += sent_this_round;
            self.round += 1;

            if self.cfg.stop_when_quiet
                && sent_this_round == 0
                && self.in_flight == 0
                && self.programs.iter().all(|p| p.is_idle())
            {
                quiescent = true;
                break;
            }
        }
        self.metrics.rounds = self.round;
        RunReport {
            rounds: self.round,
            quiescent,
        }
    }

    /// Consumes the runtime, returning the final program states and metrics.
    pub fn into_parts(self) -> (Vec<P>, Metrics) {
        (self.programs, self.metrics)
    }

    /// Borrow the metrics gathered so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Borrow the program states.
    pub fn programs(&self) -> &[P] {
        &self.programs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every received value +1 back on the same port, starting from
    /// one initiator; used to test delivery timing.
    struct PingPong {
        start: bool,
        log: Vec<(u64, u64)>,
        limit: u64,
    }

    impl Program for PingPong {
        type Msg = u64;
        fn round(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.start && ctx.round() == 0 {
                ctx.send(0, 0);
            }
            for a in ctx.inbox() {
                self.log.push((ctx.round(), a.msg));
                if a.msg < self.limit {
                    ctx.send(a.port, a.msg + 1);
                }
            }
        }
    }

    #[test]
    fn unit_delay_round_trip() {
        let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
        let programs = vec![
            PingPong {
                start: true,
                log: vec![],
                limit: 4,
            },
            PingPong {
                start: false,
                log: vec![],
                limit: 4,
            },
        ];
        let mut rt = Runtime::new(&topo, programs, Config::default());
        let report = rt.run();
        assert!(report.quiescent);
        let (programs, metrics) = rt.into_parts();
        // Value v arrives at round v+1 (sent at round v with delay 1).
        assert_eq!(programs[1].log, vec![(1, 0), (3, 2), (5, 4)]);
        assert_eq!(programs[0].log, vec![(2, 1), (4, 3)]);
        assert_eq!(metrics.messages, 5); // values 0..=4
    }

    #[test]
    fn delayed_arc_delivers_late() {
        let topo = Topology::from_edges(2, &[(0, 1, 10)])
            .unwrap()
            .with_delays(|w| w / 2);
        assert_eq!(topo.delay(NodeId(0), 0), 5);
        let programs = vec![
            PingPong {
                start: true,
                log: vec![],
                limit: 0,
            },
            PingPong {
                start: false,
                log: vec![],
                limit: 0,
            },
        ];
        let mut rt = Runtime::new(&topo, programs, Config::default());
        rt.run();
        let (programs, _) = rt.into_parts();
        assert_eq!(programs[1].log, vec![(5, 0)]);
    }

    #[test]
    fn max_rounds_is_respected() {
        let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
        let programs = vec![
            PingPong {
                start: true,
                log: vec![],
                limit: u64::MAX,
            },
            PingPong {
                start: false,
                log: vec![],
                limit: u64::MAX,
            },
        ];
        let mut rt = Runtime::new(&topo, programs, Config::up_to_rounds(10));
        let report = rt.run();
        assert!(!report.quiescent);
        assert_eq!(report.rounds, 10);
    }

    #[test]
    fn metrics_record_bits() {
        let topo = Topology::from_edges(2, &[(0, 1, 1)]).unwrap();
        let programs = vec![
            PingPong {
                start: true,
                log: vec![],
                limit: 0,
            },
            PingPong {
                start: false,
                log: vec![],
                limit: 0,
            },
        ];
        let mut rt = Runtime::new(&topo, programs, Config::default());
        rt.run();
        assert_eq!(rt.metrics().max_message_bits, 64);
        assert_eq!(rt.metrics().bandwidth_violations, 0);
    }

    /// Broadcasts a fresh value every round on every port; stresses the
    /// arc-slot scatter/gather with saturated inboxes and mixed delays.
    struct Chatter {
        rounds_left: u64,
        heard: Vec<(u64, Port, u64)>,
    }

    impl Program for Chatter {
        type Msg = u64;
        fn round(&mut self, ctx: &mut Ctx<'_, u64>) {
            for a in ctx.inbox() {
                self.heard.push((ctx.round(), a.port, a.msg));
            }
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.broadcast(1000 * u64::from(ctx.node().0) + ctx.round());
            }
        }
        fn is_idle(&self) -> bool {
            self.rounds_left == 0
        }
    }

    #[test]
    fn saturated_inboxes_stay_port_sorted() {
        // Triangle with heterogeneous delays: every node receives on every
        // port most rounds; inboxes must come out sorted by port.
        let topo = Topology::from_edges(3, &[(0, 1, 1), (1, 2, 2), (0, 2, 3)])
            .unwrap()
            .with_delays(|w| w);
        let programs: Vec<Chatter> = (0..3)
            .map(|_| Chatter {
                rounds_left: 5,
                heard: vec![],
            })
            .collect();
        let mut rt = Runtime::new(&topo, programs, Config::default());
        let report = rt.run();
        assert!(report.quiescent);
        let (programs, metrics) = rt.into_parts();
        // 3 nodes * 5 rounds * degree 2 sends.
        assert_eq!(metrics.messages, 30);
        let mut received = 0;
        for p in &programs {
            received += p.heard.len();
            for w in p.heard.windows(2) {
                let ((r1, p1, _), (r2, p2, _)) = (w[0], w[1]);
                assert!(r1 < r2 || (r1 == r2 && p1 < p2), "inbox not port-sorted");
            }
        }
        // Every sent message is delivered exactly once.
        assert_eq!(received, 30);
    }
}
