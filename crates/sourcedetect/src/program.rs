//! The per-node source-detection program.

use congest::{bits_for, Ctx, Message, NodeId, Program};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A `(distance, source)` announcement, with the auxiliary tag bit the
/// PODC 2015 paper appends to indicate membership of the source in a
/// higher-level sample set (Lemma 4.7: "by appending a bit to messages
/// indicating whether `s ∈ S_l` is also in `S_{l+1}`").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SdMsg {
    /// Distance from the announcing node to the source, in delay-hops.
    pub dist: u64,
    /// The source.
    pub src: NodeId,
    /// Auxiliary source attribute carried alongside.
    pub tag: bool,
}

impl Message for SdMsg {
    fn bit_size(&self) -> usize {
        // (distance, source id, tag): distances are < h + max_delay, ids
        // < n; both are O(log n) under the paper's assumptions.
        bits_for(self.dist.saturating_add(1)) + bits_for(u64::from(self.src.0) + 1) + 1
    }
}

/// One entry of a node's output list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SdEntry {
    /// Delay-hop distance to the source.
    pub dist: u64,
    /// The source.
    pub src: NodeId,
    /// The source's tag bit.
    pub tag: bool,
}

/// Dense indexing of the source set `S`.
///
/// Only source ids ever appear as state-table keys (every announcement
/// originates at a source), so per-node state is stored in flat vectors
/// indexed by *source index* instead of `HashMap<NodeId, …>` — no SipHash,
/// no per-entry heap boxes, O(1) lookups. One `SourceSpace` is shared by
/// all node programs of a detection instance via [`Arc`]; it also owns the
/// per-source tag bits (a source's tag is a global attribute carried
/// verbatim by every announcement, so storing it once replaces `n` per-node
/// copies).
///
/// Source indices are assigned in increasing node-id order, so
/// `(dist, source index)` ordering coincides with the paper's
/// `(dist, source id)` lexicographic ordering.
#[derive(Debug)]
pub struct SourceSpace {
    /// Node id → source index, `u32::MAX` for non-sources.
    index_of: Vec<u32>,
    /// Source index → node id, strictly increasing.
    ids: Vec<NodeId>,
    /// Source index → auxiliary tag bit.
    tags: Vec<bool>,
}

impl SourceSpace {
    /// Builds the index over `sources` (one flag per node) with the
    /// per-node auxiliary `tags`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn new(sources: &[bool], tags: &[bool]) -> Self {
        assert_eq!(sources.len(), tags.len(), "one tag per node");
        let mut index_of = vec![u32::MAX; sources.len()];
        let mut ids = Vec::new();
        let mut src_tags = Vec::new();
        for (v, &is_src) in sources.iter().enumerate() {
            if is_src {
                index_of[v] = ids.len() as u32;
                ids.push(NodeId::from_index(v));
                src_tags.push(tags[v]);
            }
        }
        SourceSpace {
            index_of,
            ids,
            tags: src_tags,
        }
    }

    /// Number of sources.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the source set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of nodes the space was built over (sources or not).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.index_of.len()
    }

    /// The source index of node `v`, if `v` is a source.
    #[inline]
    pub fn index_of(&self, v: NodeId) -> Option<u32> {
        match self.index_of.get(v.index()) {
            Some(&si) if si != u32::MAX => Some(si),
            _ => None,
        }
    }

    /// The node id of source index `si`.
    #[inline]
    pub fn id(&self, si: u32) -> NodeId {
        self.ids[si as usize]
    }

    /// The tag bit of source index `si`.
    #[inline]
    pub fn tag(&self, si: u32) -> bool {
        self.tags[si as usize]
    }

    /// The list entry for source index `si` at distance `dist`.
    #[inline]
    pub fn entry(&self, dist: u32, si: u32) -> SdEntry {
        SdEntry {
            dist: u64::from(dist),
            src: self.id(si),
            tag: self.tag(si),
        }
    }
}

/// Sentinel for "no distance recorded" in the packed per-source state.
const NONE32: u32 = u32::MAX;

/// Packs a `(dist, source index)` pair into one ordered key.
#[inline]
fn pack(dist: u32, si: u32) -> u64 {
    (u64::from(dist) << 32) | u64::from(si)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Per-source node state, packed into one 8-byte record so the arrival
/// hot path (best-distance check, announce bookkeeping) touches a single
/// cache line per source instead of two tables.
#[derive(Clone, Copy, Debug)]
struct SourceState {
    /// Best known distance ([`NONE32`] = unknown).
    best: u32,
    /// Smallest announced distance ([`NONE32`] = never announced).
    sent: u32,
}

const EMPTY_STATE: SourceState = SourceState {
    best: NONE32,
    sent: NONE32,
};

/// Node state of the pipelined detection algorithm.
///
/// Each round the node broadcasts the lexicographically smallest
/// not-yet-announced `(dist, src)` pair that (i) is currently among its σ
/// smallest known pairs and (ii) has `dist < h` (a neighbor's copy would
/// otherwise overshoot the horizon). This is the Lenzen–Peleg algorithm
/// with the message-pruning modification of Lemma 3.4 of the PODC 2015
/// paper.
///
/// All per-source state lives in one dense `SourceState` vector indexed
/// by [`SourceSpace`] source index. Distances are stored as `u32` (the
/// horizon bounds them far below `u32::MAX`).
#[derive(Debug)]
pub struct SdProgram {
    space: Arc<SourceSpace>,
    /// `Some(tag)` if this node is a source.
    self_source: Option<bool>,
    h: u32,
    sigma: usize,
    cap: u64,
    /// Current best `(dist, source index)` pairs, packed as
    /// `dist << 32 | si` (same lexicographic order, single-word compares).
    known: BTreeSet<u64>,
    /// Entries not yet announced (kept pruned to the current top-σ, with
    /// `dist < h`), same packing as `known`.
    pending: BTreeSet<u64>,
    /// Dense per-source state (best/sent), indexed by source index.
    state: Vec<SourceState>,
    /// Cached packed key of the σ-th smallest `known` entry
    /// (`u64::MAX` while `known.len() ≤ σ`). Monotonically non-increasing
    /// (entries only ever improve), maintained by [`SdProgram::insert`] so
    /// neither the announce path nor non-improving inserts walk the tree.
    cut: u64,
    msgs_sent: u64,
}

impl SdProgram {
    /// Creates the program for one node.
    ///
    /// `space` is the instance-wide source index (shared across nodes);
    /// `source` is `Some(tag)` if the node is in `S` (with auxiliary bit
    /// `tag`), `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `h ≥ u32::MAX` (distances are stored as `u32`; every
    /// meaningful horizon is a hop count far below that).
    pub fn new(
        space: Arc<SourceSpace>,
        source: Option<bool>,
        h: u64,
        sigma: usize,
        cap: Option<u64>,
    ) -> Self {
        assert!(
            h < u64::from(u32::MAX),
            "horizon {h} too large for the packed distance representation"
        );
        let s = space.len();
        SdProgram {
            space,
            self_source: source,
            h: h as u32,
            sigma,
            cap: cap.unwrap_or(u64::MAX),
            known: BTreeSet::new(),
            pending: BTreeSet::new(),
            state: vec![EMPTY_STATE; s],
            cut: u64::MAX,
            msgs_sent: 0,
        }
    }

    /// The node's current output list: its up-to-σ smallest entries.
    pub fn list(&self) -> Vec<SdEntry> {
        self.known
            .iter()
            .take(self.sigma)
            .map(|&key| {
                let (dist, si) = unpack(key);
                self.space.entry(dist, si)
            })
            .collect()
    }

    /// Messages broadcast by this node so far.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    fn insert(&mut self, dist: u32, si: u32) {
        if dist > self.h {
            return;
        }
        let st = &mut self.state[si as usize];
        if dist >= st.best {
            return;
        }
        let old = st.best;
        st.best = dist;
        let already_announced_better = st.sent <= dist;
        let key = pack(dist, si);
        if old != NONE32 {
            self.known.remove(&pack(old, si));
            self.pending.remove(&pack(old, si));
        }
        self.known.insert(key);
        // Rank pruning: an entry's rank in `known` never improves over
        // time (improvements only move other entries further *up*), so
        // anything outside the current top-σ can never become worth
        // announcing — it never enters `pending`.
        if dist < self.h && !already_announced_better && key <= self.cut {
            self.pending.insert(key);
        }
        // The cached cut only needs refreshing when the top-σ prefix
        // changed, i.e. when the new key landed inside it.
        if self.known.len() > self.sigma && key < self.cut {
            self.cut = *self
                .known
                .iter()
                .nth(self.sigma - 1)
                .expect("known has more than sigma entries");
            self.pending.retain(|e| *e <= self.cut);
        }
    }
}

impl Program for SdProgram {
    type Msg = SdMsg;

    fn round(&mut self, ctx: &mut Ctx<'_, SdMsg>) {
        if ctx.round() == 0 && self.self_source.is_some() {
            let si = self
                .space
                .index_of(ctx.node())
                .expect("self-source must be in the source space");
            self.insert(0, si);
        }
        // Ingest arrivals in place (the receiver adds the arc's delay: the
        // message crossed `delay` virtual unit edges). The inbox slice
        // outlives the ctx borrow, so no arrival is cloned.
        for a in ctx.inbox() {
            let d = a.msg.dist.saturating_add(ctx.delay(a.port));
            if d > u64::from(self.h) {
                continue;
            }
            let d = d as u32;
            let si = self
                .space
                .index_of(a.msg.src)
                .expect("announcements originate at sources");
            self.insert(d, si);
        }
        // Announce the smallest pending entry; `pending ⊆ {e ≤ cut}` is an
        // invariant of `insert`, so the head of `pending` is always inside
        // the current top-σ.
        if self.msgs_sent < self.cap {
            if let Some(key) = self.pending.pop_first() {
                debug_assert!(key <= self.cut, "pending entry outside top-sigma");
                let (dist, si) = unpack(key);
                self.state[si as usize].sent = dist;
                self.msgs_sent += 1;
                ctx.broadcast(SdMsg {
                    dist: u64::from(dist),
                    src: self.space.id(si),
                    tag: self.space.tag(si),
                });
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty() || self.msgs_sent >= self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A space where every node is a source, so source index == node id.
    fn full_space(n: usize) -> Arc<SourceSpace> {
        Arc::new(SourceSpace::new(&vec![true; n], &vec![false; n]))
    }

    #[test]
    fn msg_bit_size_is_logarithmic() {
        let m = SdMsg {
            dist: 100,
            src: NodeId(1000),
            tag: true,
        };
        assert_eq!(m.bit_size(), 7 + 10 + 1);
    }

    #[test]
    fn source_space_indexes_densely() {
        let space = SourceSpace::new(
            &[false, true, false, true, true],
            &[false, true, false, false, true],
        );
        assert_eq!(space.len(), 3);
        assert_eq!(space.index_of(NodeId(1)), Some(0));
        assert_eq!(space.index_of(NodeId(2)), None);
        assert_eq!(space.index_of(NodeId(4)), Some(2));
        assert_eq!(space.id(1), NodeId(3));
        assert!(space.tag(0));
        assert!(!space.tag(1));
        assert!(space.tag(2));
    }

    #[test]
    fn insert_keeps_best_per_source() {
        let mut p = SdProgram::new(full_space(8), None, 10, 4, None);
        p.insert(5, 1);
        p.insert(3, 1);
        p.insert(7, 1); // worse: ignored
        assert_eq!(p.list().len(), 1);
        assert_eq!(p.list()[0].dist, 3);
    }

    #[test]
    fn insert_respects_horizon() {
        let mut p = SdProgram::new(full_space(8), None, 4, 4, None);
        p.insert(5, 1);
        assert!(p.list().is_empty());
        p.insert(4, 2);
        assert_eq!(p.list().len(), 1);
        // dist == h is recorded but never pending (can't help neighbors).
        assert!(p.is_idle());
    }

    #[test]
    fn pending_pruned_outside_top_sigma() {
        let mut p = SdProgram::new(full_space(8), None, 100, 2, None);
        p.insert(10, 5);
        p.insert(11, 6);
        assert_eq!(p.pending.len(), 2);
        p.insert(1, 1);
        p.insert(2, 2);
        // (10,5) and (11,6) fell out of the top-2 forever.
        assert_eq!(p.pending.len(), 2);
        assert!(p.pending.contains(&pack(1, 1)));
        assert!(p.pending.contains(&pack(2, 2)));
    }
}
