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
//! Algorithmically this is a bounded multi-source Dijkstra over the
//! delayed arcs with a per-node announcement budget of σ, processed in
//! globally increasing `(dist, source)` order via a bucket queue (delays
//! are small integers), and per-`(node, source)` state in a dense matrix
//! when `n·|S|` is small enough, else per-node hash rows. `O(Σ arrivals ·
//! log)`-free: bucket draining plus one sort per bucket.
//!
//! # Solve, then visit
//!
//! The kernel is split in two. [`native_solve`] runs the Dijkstra and
//! returns a [`NativeSolution`]: the final state tables (12 B per
//! `(node, source)` cell when dense) plus the announcement counts.
//! [`NativeSolution::for_each_row`] is the one assembly loop over those
//! tables: per node it hands the top-σ `(dist, source index)` list and
//! the `(source index, dist, port)` archive row to a visitor, through
//! two scratch rows reused across nodes. A consumer that folds rows as
//! they come (the PDE rung merge) therefore never holds a materialised
//! rung, and the visitor is the only reader of the archive;
//! [`native_detection`] is the thin wrapper that collects the lists and
//! counts into a [`DetectionOutput`] for callers that want one.

use crate::program::SourceSpace;
use crate::runner::{DetectParams, DetectionOutput};
use congest::{FxHashMap, Metrics, NodeId, Port, Topology};

/// Sentinel for "no distance recorded" (mirrors the program's packing).
const NONE32: u32 = u32::MAX;

/// Cap on `n · |S|` for the dense per-(node, source) state matrix;
/// above it the kernel falls back to per-node hash rows so memory tracks
/// reached pairs. The switch is invisible in the output.
const DENSE_STATE_LIMIT: usize = 1 << 24;

/// Picks the state representation: dense only when the full matrix is
/// both affordable *and* not grossly larger than the number of pairs the
/// run can actually touch. Every node announces at most σ pairs per
/// rung (the rank budget), so at most `2·m·σ + n` distinct
/// `(node, source)` pairs are ever written; when the matrix dwarfs that
/// (σ ≪ |S|, e.g. the σ = 4 simulator benchmarks), zeroing `n·|S|`
/// entries per rung would dominate the whole run, and hash rows win.
fn choose_dense(n: usize, s: usize, m_edges: usize, sigma: usize) -> bool {
    let cells = n.saturating_mul(s);
    let touched = m_edges
        .saturating_mul(2)
        .saturating_mul(sigma)
        .saturating_add(n);
    cells <= DENSE_STATE_LIMIT && cells <= touched.saturating_mul(8)
}

/// Per-`(node, source)` state: tentative/final best known distance plus
/// the best *received* `(dist, port)` for the routing archive.
#[derive(Clone, Copy, Debug)]
struct NState {
    dist: u32,
    recv_dist: u32,
    recv_port: Port,
}

const EMPTY: NState = NState {
    dist: NONE32,
    recv_dist: NONE32,
    recv_port: 0,
};

/// Dense or sparse `(node, source) → NState` storage.
enum StateTables {
    Dense(Vec<NState>),
    Sparse(Vec<FxHashMap<u32, NState>>),
}

impl StateTables {
    fn new(n: usize, s: usize, dense: bool) -> Self {
        if dense {
            StateTables::Dense(vec![EMPTY; n * s])
        } else {
            StateTables::Sparse(std::iter::repeat_with(FxHashMap::default).take(n).collect())
        }
    }

    #[inline]
    fn get(&self, s: usize, v: usize, si: u32) -> NState {
        match self {
            StateTables::Dense(t) => t[v * s + si as usize],
            StateTables::Sparse(rows) => rows[v].get(&si).copied().unwrap_or(EMPTY),
        }
    }

    #[inline]
    fn get_mut(&mut self, s: usize, v: usize, si: u32) -> &mut NState {
        match self {
            StateTables::Dense(t) => &mut t[v * s + si as usize],
            StateTables::Sparse(rows) => rows[v].entry(si).or_insert(EMPTY),
        }
    }
}

/// Packs `(si, v)` into one sortable key: within a distance bucket, pairs
/// are processed in `(source index, node)` order, which realizes the
/// global `(dist, source)` processing order the canonical semantics needs
/// (the node component is arbitrary but fixed — pairs of different nodes
/// at the same `(dist, source)` never interact).
#[inline]
fn pack(si: u32, v: u32) -> u64 {
    (u64::from(si) << 32) | u64::from(v)
}

#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// The solved state of one canonical detection instance: what
/// [`native_solve`] returns and [`NativeSolution::for_each_row`] reads.
pub struct NativeSolution {
    state: StateTables,
    /// `|S|` — the row stride of the dense tables.
    s: usize,
    sigma: usize,
    /// Announcements made per node.
    announced: Vec<u64>,
}

impl NativeSolution {
    /// Per-node announcement counts (the idealized-schedule analogue of
    /// the simulated broadcast counts).
    pub fn msgs_per_node(&self) -> &[u64] {
        &self.announced
    }

    /// Visits every node in increasing id order with its two output rows,
    /// in terms of the [`SourceSpace`] indices the solve ran over:
    /// `list` holds the top-σ `(dist, source index)` pairs, sorted
    /// lexicographically (index order is id order, so this is the
    /// paper's `(dist, source id)` order); `archive` holds the best
    /// received `(source index, dist, port)` per source, sorted by index.
    /// Both slices are scratch rows, valid only during the call.
    pub fn for_each_row(&self, mut visit: impl FnMut(usize, &[(u32, u32)], &[(u32, u32, Port)])) {
        let mut list: Vec<(u32, u32)> = Vec::new();
        let mut archive: Vec<(u32, u32, Port)> = Vec::new();
        let mut by_si: Vec<(u32, NState)> = Vec::new();
        let push = |list: &mut Vec<_>, archive: &mut Vec<_>, si: u32, st: &NState| {
            if st.dist != NONE32 {
                list.push((st.dist, si));
            }
            if st.recv_dist != NONE32 {
                archive.push((si, st.recv_dist, st.recv_port));
            }
        };
        for v in 0..self.announced.len() {
            list.clear();
            archive.clear();
            match &self.state {
                StateTables::Dense(t) => {
                    let row = &t[v * self.s..(v + 1) * self.s];
                    for (si, st) in row.iter().enumerate() {
                        push(&mut list, &mut archive, si as u32, st);
                    }
                }
                StateTables::Sparse(rows) => {
                    by_si.clear();
                    by_si.extend(rows[v].iter().map(|(&si, &st)| (si, st)));
                    by_si.sort_unstable_by_key(|&(si, _)| si);
                    for (si, st) in &by_si {
                        push(&mut list, &mut archive, *si, st);
                    }
                }
            }
            list.sort_unstable();
            list.truncate(self.sigma);
            visit(v, &list, &archive);
        }
    }
}

/// Runs canonical `(S, h, σ)`-detection on `topo` (whose arc *delays*
/// define the hop metric, exactly as in [`crate::run_detection`]).
///
/// Output shape matches [`crate::run_detection`]: per-node top-σ lists,
/// per-node announcement counts (the idealized-schedule analogue of the
/// broadcast counts), and zeroed simulator metrics (a native run charges
/// no rounds). This is [`native_solve`] plus a
/// [`NativeSolution::for_each_row`] visitor that collects the lists.
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
    let mut lists = Vec::with_capacity(solution.announced.len());
    solution.for_each_row(|_, list, _| {
        lists.push(
            list.iter()
                .map(|&(dist, si)| space.entry(dist, si))
                .collect(),
        );
    });
    DetectionOutput {
        lists,
        msgs_per_node: solution.announced,
        metrics: Metrics::default(),
    }
}

/// Solves canonical `(S, h, σ)`-detection on `topo` for the sources of
/// `space` and returns the final state, to be read through
/// [`NativeSolution::for_each_row`]. Tags play no part in the solve.
///
/// # Panics
///
/// Panics if `space` was not built over `topo`'s nodes or
/// `h ≥ u32::MAX` (as the program does).
pub fn native_solve(topo: &Topology, space: &SourceSpace, params: &DetectParams) -> NativeSolution {
    let dense = choose_dense(topo.len(), space.len(), topo.num_edges(), params.sigma);
    solve(topo, space, params, dense)
}

/// [`native_solve`] with the state representation pinned (the choice is
/// output-invisible; tests pin that directly).
fn solve(
    topo: &Topology,
    space: &SourceSpace,
    params: &DetectParams,
    dense: bool,
) -> NativeSolution {
    let n = topo.len();
    assert_eq!(space.num_nodes(), n, "one source flag per node");
    assert!(
        params.h < u64::from(u32::MAX),
        "horizon {} too large for the packed distance representation",
        params.h
    );
    let h = params.h;
    let sigma = params.sigma;
    let cap = params.msg_cap.unwrap_or(u64::MAX);

    let s = space.len();
    let mut state = StateTables::new(n, s, dense);
    // Finalized-pair count per node (the rank of the next finalized pair)
    // and announcements made (for the optional message cap).
    let mut rank = vec![0u32; n];
    let mut announced = vec![0u64; n];

    // Bucket queue over distances 0..=d_max. Relaxations always move to
    // a strictly larger bucket (delays are ≥ 1), so each bucket is
    // sorted and drained exactly once. The horizon may far exceed any
    // realizable delay distance (h' is a worst-case bound), so the array
    // is additionally capped by the longest possible simple delay path.
    let reach_cap = topo
        .max_delay()
        .saturating_mul(n.saturating_sub(1) as u64)
        .min(h);
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); reach_cap as usize + 1];
    for si in 0..s as u32 {
        let v = space.id(si);
        state.get_mut(s, v.index(), si).dist = 0;
        buckets[0].push(pack(si, v.0));
    }

    let mut bucket = Vec::new();
    for d in 0..=reach_cap {
        std::mem::swap(&mut bucket, &mut buckets[d as usize]);
        if bucket.is_empty() {
            continue;
        }
        bucket.sort_unstable();
        for &key in &bucket {
            let (si, v) = unpack(key);
            let vi = v as usize;
            if u64::from(state.get(s, vi, si).dist) != d {
                continue; // stale entry, improved before finalization
            }
            let r = rank[vi];
            rank[vi] = r + 1;
            // Announce iff within the final top σ, below the horizon, and
            // under the message cap — the canonical counterpart of the
            // program's pending-queue rules.
            if u64::from(r) >= sigma as u64 || d >= h || announced[vi] >= cap {
                continue;
            }
            announced[vi] += 1;
            let vn = NodeId(v);
            for (port, u, _w, delay) in topo.arcs(vn) {
                debug_assert!(delay >= 1, "detection needs delays >= 1");
                let nd = d.saturating_add(delay);
                if nd > h {
                    continue;
                }
                let nd32 = nd as u32;
                let ap = topo.reverse_port(vn, port);
                let st = state.get_mut(s, u.index(), si);
                // Archive: best received (dist, port), smaller port wins
                // distance ties (arrival-order-free).
                if (nd32, ap) < (st.recv_dist, st.recv_port) {
                    st.recv_dist = nd32;
                    st.recv_port = ap;
                }
                if nd32 < st.dist {
                    st.dist = nd32;
                    // Any improving candidate is realized by a simple
                    // chain of announcers, so it stays within reach_cap.
                    debug_assert!(nd <= reach_cap);
                    buckets[nd as usize].push(pack(si, u.0));
                }
            }
        }
        bucket.clear();
    }

    NativeSolution {
        state,
        s,
        sigma,
        announced,
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
    /// `collect`), with the state representation pinned. Also checks the
    /// visitor's own contract: nodes in order, rows sorted, lists ≤ σ.
    fn rows_via_visitor(
        topo: &Topology,
        sources: &[bool],
        tags: &[bool],
        p: &DetectParams,
        dense: bool,
    ) -> (Lists, Routes, Vec<u64>) {
        let space = SourceSpace::new(sources, tags);
        let solution = solve(topo, &space, p, dense);
        let (mut lists, mut routes): (Lists, Routes) = Default::default();
        solution.for_each_row(|v, list, archive| {
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
                let [dense, sparse] = [true, false].map(|dense| {
                    rows_via_visitor(&topo, &sources, &tags, &params(h, sigma), dense)
                });
                assert_eq!(dense, sparse, "h={h} sigma={sigma}");
                assert_eq!(dense.0, out.lists, "h={h} sigma={sigma}");
                assert_eq!(dense.2, out.msgs_per_node, "h={h} sigma={sigma}");
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
        let check = |lists: &Lists, routes: &Routes| {
            for v in topo.nodes() {
                let r = &routes[v.index()];
                for e in &lists[v.index()] {
                    if e.src == v {
                        continue;
                    }
                    // Every non-self list entry is archived at the same
                    // dist, and its port leads strictly closer to the
                    // source.
                    let &(_, d, port) =
                        r.iter().find(|&&(s, _, _)| s == e.src).unwrap_or_else(|| {
                            panic!("list entry {} missing from archive at {v}", e.src)
                        });
                    assert_eq!(d, e.dist, "archive dist mismatch at {v} for {}", e.src);
                    let u = topo.neighbor(v, port);
                    if u != e.src {
                        let ru = &routes[u.index()];
                        let &(_, du, _) =
                            ru.iter().find(|&&(s, _, _)| s == e.src).expect("chained");
                        assert!(du < d, "no strict progress {v}->{u} for {}", e.src);
                    }
                }
            }
        };
        for dense in [true, false] {
            let (lists, routes, _) =
                rows_via_visitor(&topo, &sources, &[false; 8], &params(5, 2), dense);
            check(&lists, &routes);
        }
    }

    #[test]
    fn truncation_prunes_propagation() {
        // Path 0-1-2-3 with sources {0, 1, 2}: with sigma = 1 node 2's
        // canonical announcement budget is spent on itself, so node 3
        // only ever hears of source 2 (plus nothing beyond its top-1).
        let topo = Topology::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let sources = [true, true, true, false];
        let (lists, routes, _) =
            rows_via_visitor(&topo, &sources, &[false; 4], &params(3, 1), true);
        assert_eq!(lists[3].len(), 1);
        assert_eq!(lists[3][0].src, NodeId(2));
        assert_eq!(routes[3].len(), 1, "truncated sources must not leak");
    }

    #[test]
    fn message_cap_is_canonical_prefix() {
        let topo = Topology::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]).unwrap();
        let sources = [true; 5];
        let capped = native_detection(
            &topo,
            &sources,
            &[false; 5],
            &DetectParams {
                h: 5,
                sigma: 5,
                msg_cap: Some(2),
                exact_rounds: false,
            },
        );
        assert!(capped.msgs_per_node.iter().all(|&m| m <= 2));
    }

    #[test]
    fn dense_and_sparse_state_agree() {
        // The representation switch must be output-invisible: run the
        // same instance through both and compare everything.
        let mut edges = Vec::new();
        for i in 0..9u32 {
            edges.push((i, (i + 1) % 10, 1 + u64::from(i % 3)));
        }
        edges.push((0, 5, 2));
        let topo = Topology::from_edges(10, &edges).unwrap().with_delays(|w| w);
        let sources: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let tags: Vec<bool> = (0..10).map(|i| i % 4 == 0).collect();
        for (h, sigma) in [(4, 2), (9, 3), (20, 10)] {
            // Through the collecting wrapper's loop and straight off the
            // visitor: the same rows either way, in both representations.
            let detect = |dense| {
                let space = SourceSpace::new(&sources, &tags);
                collect(&space, solve(&topo, &space, &params(h, sigma), dense))
            };
            let rows = |dense| rows_via_visitor(&topo, &sources, &tags, &params(h, sigma), dense);
            let (lists, _, msgs) = rows(true);
            assert_eq!(rows(false), rows(true), "h={h} sigma={sigma}");
            for dense in [true, false] {
                let out = detect(dense);
                assert_eq!(out.lists, lists, "h={h} sigma={sigma} dense={dense}");
                assert_eq!(out.msgs_per_node, msgs, "h={h} sigma={sigma} dense={dense}");
            }
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
