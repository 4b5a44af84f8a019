//! Native (centralized) execution of `(S, h, σ)`-detection.
//!
//! [`native_detection`] computes the **canonical fixpoint** of the
//! pipelined Lenzen–Peleg algorithm — the state every node reaches under
//! *instant pipelining*, where an announcement of a `(dist, src)` pair is
//! delivered at "time" `dist` with no queueing delay. Under that schedule
//! a node announces a pair iff the pair is among the σ smallest of its
//! **final** list (its rank among smaller pairs is already settled when
//! the pair's distance is) and `dist < h`, so the result is a pure
//! function of `(topology, sources, h, σ)` — no round scheduling, no
//! arrival order.
//!
//! This is the artifact contract shared by the simulated and native build
//! engines (see `pde_core::ladder`):
//!
//! * **Lists** are identical to the CONGEST execution's: both equal the
//!   exact top-σ `(delay-distance, source)` pairs within horizon `h`
//!   (the simulated lists by the Lenzen–Peleg theorem, pinned against
//!   [`crate::delayed_detection_reference`] by the `runner` tests; the
//!   canonical lists because every exact top-σ pair is relayed by its
//!   shortest-path predecessor, whose own copy ranks within the top σ
//!   with `dist < h` — the standard prefix argument).
//! * **Routes** (the archive of best *received* `(dist, port)` per
//!   source) exist only here: best over announcements of the idealized
//!   schedule, ties broken towards the smaller arrival port. The
//!   round-by-round execution also receives announcements of transient
//!   entries (pairs announced before better ones crowded them out of the
//!   top σ) whose exact set depends on queueing order, so it keeps no
//!   archive at all: the schemes assemble their artifacts from this one
//!   in both build modes, and the CONGEST run is the round/message
//!   *measurement*.
//!
//! The canonical archive keeps the invariants the schemes rely on: it
//! contains every list entry (minus the node itself), and following a
//! route entry's port strictly decreases the recorded distance by at
//! least the arc's delay, so greedy forwarding is total and terminates.
//!
//! # Solve, then visit
//!
//! A node's announcements are a prefix of its final list: the first
//! `announced` entries, since both `dist < h` and the message cap cut a
//! sorted list at one point. So a rung is two parts.
//!
//! 1. **The lists.** [`native_solve`] is a bounded multi-source Dijkstra
//!    over the delayed arcs with a per-node list budget of σ, run in
//!    globally increasing `(dist, source)` order. Delays are small
//!    integers, so pending offers sit on a Dial ring of
//!    `min(max delay, h) + 1` slots; an offer is pushed when a neighbour
//!    announces a pair still open at the node, and dropped when popped if
//!    the pair settled meanwhile. A slot fills in runs sorted by source,
//!    one per distance that announced into it, and is drained by merging
//!    them; its storage is fixed-size blocks recycled across slots, so a
//!    search allocates about its peak pending set once. There are no
//!    tentative distances: the only per-pair state is one settled bit per
//!    `(node, source)`; per node there are `min(σ, |S|)` list slots,
//!    filled in sorted order, and the announcement count. When no budget
//!    binds (`σ ≥ |S|` and no message cap below `|S|`) sources do not
//!    interact, so the same loop runs one source at a time (a slot is
//!    then one run) and each list is sorted once at the end: the pending
//!    set is then one source's frontier, not every source's.
//! 2. **The archive.** [`NativeSolution::for_each_row`] derives it per
//!    node in one pass over the node's arcs: the best
//!    `(dist + delay, port)` per source among the neighbours' announced
//!    prefixes, within `h`. It hands the node's list and that archive row
//!    to a visitor, through scratch reused across nodes. A consumer that
//!    folds rows as they come (the PDE rung merge) therefore never holds
//!    a materialised archive; [`native_detection`] is the thin wrapper
//!    that collects the lists and counts into a [`DetectionOutput`] for
//!    callers that want one.

use crate::program::SourceSpace;
use crate::runner::{DetectParams, DetectionOutput};
use congest::{Metrics, NodeId, Port, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no distance recorded" (mirrors the program's packing).
const NONE32: u32 = u32::MAX;

/// Offers per block of the search's Dial ring. The ring keeps its offers
/// in blocks of one size, recycled as slots drain, so a search allocates
/// about its peak pending set once instead of regrowing every slot.
const BLOCK: usize = 1024;

/// The solved lists of one canonical detection instance: what
/// [`native_solve`] returns and [`NativeSolution::for_each_row`] reads.
pub struct NativeSolution {
    h: u64,
    /// `|S|`.
    s: usize,
    /// List slots per node, `min(σ, |S|)`.
    width: usize,
    /// Node `v`'s list is `lists[v · width..][..len[v]]`, sorted
    /// `(dist, source index)` pairs.
    lists: Vec<(u32, u32)>,
    len: Vec<u32>,
    /// Announcements made per node: the length of its announced prefix.
    announced: Vec<u64>,
}

impl NativeSolution {
    /// Per-node announcement counts (the idealized-schedule analogue of
    /// the simulated broadcast counts).
    pub fn msgs_per_node(&self) -> &[u64] {
        &self.announced
    }

    fn list(&self, v: usize) -> &[(u32, u32)] {
        &self.lists[v * self.width..][..self.len[v] as usize]
    }

    /// Visits every node in increasing id order with its two output rows,
    /// in terms of the [`SourceSpace`] indices the solve ran over:
    /// `list` holds the top-σ `(dist, source index)` pairs, sorted
    /// lexicographically (index order is id order, so this is the
    /// paper's `(dist, source id)` order); `archive` holds the best
    /// received `(source index, dist, port)` per source, sorted by index.
    /// `archive` is a scratch row, valid only during the call. `topo` is
    /// the topology the solve ran on; its arcs drive the archive pass.
    pub fn for_each_row(
        &self,
        topo: &Topology,
        mut visit: impl FnMut(usize, &[(u32, u32)], &[(u32, u32, Port)]),
    ) {
        // Best `(dist, port)` per source index, and the indices set.
        let mut best: Vec<(u32, Port)> = vec![(NONE32, 0); self.s];
        let mut touched: Vec<u32> = Vec::new();
        let mut archive: Vec<(u32, u32, Port)> = Vec::new();
        for v in topo.nodes() {
            for (port, a, _w, delay) in topo.arcs(v) {
                let a = a.index();
                for &(dist, si) in &self.list(a)[..self.announced[a] as usize] {
                    let nd = u64::from(dist).saturating_add(delay);
                    if nd > self.h {
                        break; // the prefix is sorted by distance
                    }
                    let slot = &mut best[si as usize];
                    if slot.0 == NONE32 {
                        touched.push(si);
                    }
                    // Ports ascend, so a distance tie keeps the smaller.
                    if nd < u64::from(slot.0) {
                        *slot = (nd as u32, port);
                    }
                }
            }
            touched.sort_unstable();
            archive.clear();
            archive.extend(touched.drain(..).map(|si| {
                let (dist, port) = std::mem::replace(&mut best[si as usize], (NONE32, 0));
                (si, dist, port)
            }));
            visit(v.index(), self.list(v.index()), &archive);
        }
    }
}

/// Runs canonical `(S, h, σ)`-detection on `topo` (whose arc *delays*
/// define the hop metric, exactly as in [`crate::run_detection`]).
///
/// Output shape matches [`crate::run_detection`]: per-node top-σ lists,
/// per-node announcement counts (the idealized-schedule analogue of the
/// broadcast counts), and zeroed simulator metrics (a native run charges
/// no rounds). This is [`native_solve`] without the archive pass.
///
/// # Panics
///
/// Panics if the flag slices are mis-sized or `h ≥ u32::MAX` (as the
/// program does).
pub fn native_detection(
    topo: &Topology,
    sources: &[bool],
    tags: &[bool],
    params: &DetectParams,
) -> DetectionOutput {
    assert_eq!(sources.len(), topo.len(), "one source flag per node");
    assert_eq!(tags.len(), topo.len(), "one tag flag per node");
    let space = SourceSpace::new(sources, tags);
    collect(&space, native_solve(topo, &space, params))
}

/// Collects a solution's lists and counts into the runner's output shape.
fn collect(space: &SourceSpace, solution: NativeSolution) -> DetectionOutput {
    let lists = (0..solution.len.len())
        .map(|v| {
            solution
                .list(v)
                .iter()
                .map(|&(dist, si)| space.entry(dist, si))
                .collect()
        })
        .collect();
    DetectionOutput {
        lists,
        msgs_per_node: solution.announced,
        metrics: Metrics::default(),
    }
}

/// Solves canonical `(S, h, σ)`-detection on `topo` for the sources of
/// `space` and returns the lists, to be read through
/// [`NativeSolution::for_each_row`]. Tags play no part in the solve.
///
/// # Panics
///
/// Panics if `space` was not built over `topo`'s nodes or
/// `h ≥ u32::MAX` (as the program does).
pub fn native_solve(topo: &Topology, space: &SourceSpace, params: &DetectParams) -> NativeSolution {
    let n = topo.len();
    assert_eq!(space.num_nodes(), n, "one source flag per node");
    assert!(
        params.h < u64::from(u32::MAX),
        "horizon {} too large for the packed distance representation",
        params.h
    );
    let s = space.len();
    let cap = params.msg_cap.unwrap_or(u64::MAX);
    let width = params.sigma.min(s);
    // An offer lands at most `min(max delay, h)` past the slot being
    // drained, so a ring one longer never wraps onto a live slot.
    let ring_len = topo.max_delay().min(params.h) + 1;
    let mut search = Search {
        topo,
        n,
        h: params.h,
        cap,
        width,
        settled: vec![0; (n * s).div_ceil(64)],
        ring: std::iter::repeat_with(Slot::default)
            .take(ring_len as usize)
            .collect(),
        spare: Vec::new(),
        pending: 0,
        lists: vec![(0, 0); n * width],
        len: vec![0; n],
        announced: vec![0; n],
    };
    let seed = |si: u32| (u64::from(si) << 32) | u64::from(space.id(si).0);
    if params.sigma >= s && cap >= s as u64 {
        // No budget binds, so sources do not interact: one at a time, and
        // each list sorted once at the end. The pending set is then one
        // source's frontier, not every source's (on S = V this is both
        // faster and a fraction of the global loop's peak memory).
        for si in 0..s as u32 {
            search.run([seed(si)]);
        }
        for (v, &len) in search.len.iter().enumerate() {
            search.lists[v * width..][..len as usize].sort_unstable();
        }
    } else {
        search.run((0..s as u32).map(seed));
    }
    NativeSolution {
        h: params.h,
        s,
        width,
        lists: search.lists,
        len: search.len,
        announced: search.announced,
    }
}

/// One distance's pending offers, in blocks of [`BLOCK`] (all full but
/// the last). They arrive in runs, one per distance that announced into
/// the slot, each in source-index order (the order a distance settles
/// in); `runs` holds where each run starts.
#[derive(Default)]
struct Slot {
    blocks: Vec<Vec<u64>>,
    runs: Vec<usize>,
}

impl Slot {
    fn len(&self) -> usize {
        self.blocks
            .last()
            .map_or(0, |b| (self.blocks.len() - 1) * BLOCK + b.len())
    }

    fn get(&self, p: usize) -> u64 {
        self.blocks[p / BLOCK][p % BLOCK]
    }
}

/// The state of one σ-budgeted bucket search (see the module docs).
struct Search<'t> {
    topo: &'t Topology,
    n: usize,
    h: u64,
    cap: u64,
    width: usize,
    /// One bit per `(source index, node)`, at `si · n + v`: the pair's
    /// distance is final.
    settled: Vec<u64>,
    /// Dial ring of pending offers `si << 32 | node`; distance `d` sits
    /// in slot `d mod ring.len()`.
    ring: Vec<Slot>,
    /// Drained blocks, emptied, for the next pushes to reuse.
    spare: Vec<Vec<u64>>,
    pending: usize,
    lists: Vec<(u32, u32)>,
    len: Vec<u32>,
    announced: Vec<u64>,
}

impl Search<'_> {
    /// Settles everything reachable from `seeds` (offers at distance 0),
    /// one distance at a time. A slot is drained in source-index order by
    /// merging its runs, which realizes the global `(dist, source)` order
    /// the σ budget needs; pairs of different nodes at the same
    /// `(dist, source)` never interact, so their order is free.
    fn run(&mut self, seeds: impl IntoIterator<Item = u64>) {
        for key in seeds {
            self.push(0, key);
        }
        let ring_len = self.ring.len() as u64;
        // Run heads `(source index, position, run end)`.
        let mut heads = BinaryHeap::new();
        let mut d = 0;
        while self.pending > 0 {
            let i = (d % ring_len) as usize;
            let mut slot = std::mem::take(&mut self.ring[i]);
            let len = slot.len();
            self.pending -= len;
            let ends = slot.runs.iter().skip(1).copied().chain([len]);
            for (&start, end) in slot.runs.iter().zip(ends) {
                heads.push(Reverse((slot.get(start) >> 32, start, end)));
            }
            // Each pop settles one run's offers of the smallest source left.
            while let Some(Reverse((si, mut p, end))) = heads.pop() {
                while p < end && slot.get(p) >> 32 == si {
                    self.settle(d, si as u32, slot.get(p) as u32);
                    p += 1;
                }
                if p < end {
                    heads.push(Reverse((slot.get(p) >> 32, p, end)));
                }
            }
            self.spare.extend(slot.blocks.drain(..).map(|mut b| {
                b.clear();
                b
            }));
            slot.runs.clear();
            self.ring[i] = slot;
            d += 1;
        }
    }

    /// Queues offer `key` at distance `d`, starting a run when its source
    /// index is below that of the slot's last offer.
    fn push(&mut self, d: u64, key: u64) {
        let i = d % self.ring.len() as u64;
        let slot = &mut self.ring[i as usize];
        let last = slot.blocks.last().and_then(|b| b.last());
        if last.is_none_or(|&l| key >> 32 < l >> 32) {
            slot.runs.push(slot.len());
        }
        if slot.blocks.last().is_none_or(|b| b.len() == BLOCK) {
            let block = self.spare.pop();
            slot.blocks
                .push(block.unwrap_or_else(|| Vec::with_capacity(BLOCK)));
        }
        slot.blocks.last_mut().expect("a block with room").push(key);
        self.pending += 1;
    }

    /// The word and mask of `(si, v)`'s settled bit.
    fn bit(&self, si: u32, v: usize) -> (usize, u64) {
        let bit = si as usize * self.n + v;
        (bit / 64, 1 << (bit % 64))
    }

    /// Whether an offer of `si` at `v` can still take a list slot: the
    /// pair is unsettled and `v`'s list is not full.
    fn open(&self, si: u32, v: usize) -> bool {
        let (word, mask) = self.bit(si, v);
        self.settled[word] & mask == 0 && (self.len[v] as usize) < self.width
    }

    /// Takes an offer of source index `si` at node `v`, distance `d`:
    /// unless the pair is closed, settles it into `v`'s list and, below
    /// the horizon and under the message cap, announces it — the
    /// canonical counterpart of the program's pending-queue rules.
    /// Offers go only to neighbours the pair is still open at.
    fn settle(&mut self, d: u64, si: u32, v: u32) {
        let vi = v as usize;
        if !self.open(si, vi) {
            return;
        }
        let (word, mask) = self.bit(si, vi);
        self.settled[word] |= mask;
        self.lists[vi * self.width + self.len[vi] as usize] = (d as u32, si);
        self.len[vi] += 1;
        if d >= self.h || self.announced[vi] >= self.cap {
            return;
        }
        self.announced[vi] += 1;
        for (_, u, _w, delay) in self.topo.arcs(NodeId(v)) {
            debug_assert!(delay >= 1, "detection needs delays >= 1");
            let nd = d.saturating_add(delay);
            if nd <= self.h && self.open(si, u.index()) {
                self.push(nd, (u64::from(si) << 32) | u64::from(u.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SdEntry;
    use crate::reference::delayed_detection_reference;
    use crate::runner::run_detection;

    fn params(h: u64, sigma: usize) -> DetectParams {
        DetectParams {
            h,
            sigma,
            msg_cap: None,
            exact_rounds: false,
        }
    }

    type Lists = Vec<Vec<SdEntry>>;
    type Routes = Vec<Vec<(NodeId, u64, Port)>>;

    /// Lists and archives read straight off the row visitor (not through
    /// `collect`). Also checks the visitor's own contract: nodes in
    /// order, rows sorted, lists ≤ σ.
    fn rows_via_visitor(
        topo: &Topology,
        sources: &[bool],
        tags: &[bool],
        p: &DetectParams,
    ) -> (Lists, Routes, Vec<u64>) {
        let space = SourceSpace::new(sources, tags);
        let solution = native_solve(topo, &space, p);
        let (mut lists, mut routes): (Lists, Routes) = Default::default();
        solution.for_each_row(topo, |v, list, archive| {
            assert_eq!(v, lists.len(), "nodes visited in id order");
            assert!(list.len() <= p.sigma);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "list unsorted at {v}");
            assert!(
                archive.windows(2).all(|w| w[0].0 < w[1].0),
                "archive unsorted at {v}"
            );
            lists.push(
                list.iter()
                    .map(|&(dist, si)| space.entry(dist, si))
                    .collect(),
            );
            let triple =
                |&(si, dist, port): &(u32, u32, Port)| (space.id(si), u64::from(dist), port);
            routes.push(archive.iter().map(triple).collect());
        });
        (lists, routes, solution.msgs_per_node().to_vec())
    }

    fn delayed_grid() -> (Topology, [bool; 9]) {
        let mut edges = Vec::new();
        let id = |r: u32, c: u32| r * 3 + c;
        for r in 0..3u32 {
            for c in 0..3u32 {
                if c + 1 < 3 {
                    edges.push((id(r, c), id(r, c + 1), 1 + u64::from(r)));
                }
                if r + 1 < 3 {
                    edges.push((id(r, c), id(r + 1, c), 2));
                }
            }
        }
        let topo = Topology::from_edges(9, &edges).unwrap().with_delays(|w| w);
        let sources = [true, false, false, false, true, false, false, false, true];
        (topo, sources)
    }

    /// Canonical lists equal the exact reference and the simulated lists.
    fn check_lists(topo: &Topology, sources: &[bool], h: u64, sigma: usize) {
        let nat = native_detection(topo, sources, &vec![false; topo.len()], &params(h, sigma));
        let sim = run_detection(topo, sources, &vec![false; topo.len()], &params(h, sigma));
        let reference = delayed_detection_reference(topo, sources, h, sigma);
        for v in topo.nodes() {
            let got: Vec<(u64, NodeId)> = nat.lists[v.index()]
                .iter()
                .map(|e| (e.dist, e.src))
                .collect();
            assert_eq!(got, reference[v.index()], "node {v} (h={h}, sigma={sigma})");
            assert_eq!(
                nat.lists[v.index()],
                sim.lists[v.index()],
                "node {v}: native vs simulated lists (h={h}, sigma={sigma})"
            );
        }
    }

    #[test]
    fn lists_match_reference_on_path() {
        let topo =
            Topology::from_edges(6, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
                .unwrap();
        let sources = [true, false, true, false, false, true];
        for h in 1..=6 {
            for sigma in 1..=3 {
                check_lists(&topo, &sources, h, sigma);
            }
        }
    }

    #[test]
    fn lists_match_reference_on_delayed_grid() {
        let (topo, sources) = delayed_grid();
        for h in [2, 4, 8] {
            for sigma in [1, 2, 3] {
                check_lists(&topo, &sources, h, sigma);
            }
        }
    }

    #[test]
    fn visitor_rows_match_native_detection_on_delayed_grid() {
        let (topo, sources) = delayed_grid();
        let tags = [false, false, false, false, true, false, false, false, false];
        for h in [2, 4, 8] {
            for sigma in [1, 2, 3] {
                let out = native_detection(&topo, &sources, &tags, &params(h, sigma));
                let (lists, _, msgs) = rows_via_visitor(&topo, &sources, &tags, &params(h, sigma));
                assert_eq!(lists, out.lists, "h={h} sigma={sigma}");
                assert_eq!(msgs, out.msgs_per_node, "h={h} sigma={sigma}");
            }
        }
    }

    #[test]
    fn archive_contains_lists_and_routes_decrease() {
        let topo = Topology::from_edges(
            8,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 7, 1),
                (0, 7, 1),
            ],
        )
        .unwrap();
        let sources = [true, true, true, true, false, false, false, false];
        let (lists, routes, _) = rows_via_visitor(&topo, &sources, &[false; 8], &params(5, 2));
        for v in topo.nodes() {
            let r = &routes[v.index()];
            for e in &lists[v.index()] {
                if e.src == v {
                    continue;
                }
                // Every non-self list entry is archived at the same
                // dist, and its port leads strictly closer to the
                // source.
                let &(_, d, port) = r
                    .iter()
                    .find(|&&(s, _, _)| s == e.src)
                    .unwrap_or_else(|| panic!("list entry {} missing from archive at {v}", e.src));
                assert_eq!(d, e.dist, "archive dist mismatch at {v} for {}", e.src);
                let u = topo.neighbor(v, port);
                if u != e.src {
                    let ru = &routes[u.index()];
                    let &(_, du, _) = ru.iter().find(|&&(s, _, _)| s == e.src).expect("chained");
                    assert!(du < d, "no strict progress {v}->{u} for {}", e.src);
                }
            }
        }
    }

    #[test]
    fn truncation_prunes_propagation() {
        // Path 0-1-2-3 with sources {0, 1, 2}: with sigma = 1 node 2's
        // canonical announcement budget is spent on itself, so node 3
        // only ever hears of source 2 (plus nothing beyond its top-1).
        let topo = Topology::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let sources = [true, true, true, false];
        let (lists, routes, _) = rows_via_visitor(&topo, &sources, &[false; 4], &params(3, 1));
        assert_eq!(lists[3].len(), 1);
        assert_eq!(lists[3][0].src, NodeId(2));
        assert_eq!(routes[3].len(), 1, "truncated sources must not leak");
    }

    #[test]
    fn collected_and_visited_rows_agree() {
        // `native_detection`'s collecting loop and the row visitor read
        // the same lists and counts.
        let mut edges = Vec::new();
        for i in 0..9u32 {
            edges.push((i, (i + 1) % 10, 1 + u64::from(i % 3)));
        }
        edges.push((0, 5, 2));
        let topo = Topology::from_edges(10, &edges).unwrap().with_delays(|w| w);
        let sources: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let tags: Vec<bool> = (0..10).map(|i| i % 4 == 0).collect();
        for (h, sigma) in [(4, 2), (9, 3), (20, 10)] {
            let (lists, _, msgs) = rows_via_visitor(&topo, &sources, &tags, &params(h, sigma));
            let out = native_detection(&topo, &sources, &tags, &params(h, sigma));
            assert_eq!(out.lists, lists, "h={h} sigma={sigma}");
            assert_eq!(out.msgs_per_node, msgs, "h={h} sigma={sigma}");
        }
    }

    #[test]
    fn tags_are_carried() {
        let topo = Topology::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let out = native_detection(
            &topo,
            &[true, false, true],
            &[true, false, false],
            &params(5, 5),
        );
        let l1 = &out.lists[1];
        assert_eq!(l1.len(), 2);
        let tag_of = |src: u32| l1.iter().find(|e| e.src == NodeId(src)).unwrap().tag;
        assert!(tag_of(0));
        assert!(!tag_of(2));
    }
}
