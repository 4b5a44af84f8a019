//! Source-grouped batch query schedules.
//!
//! A shuffled batch thrashes per-row metadata: every query re-resolves
//! its source row's CSR offsets and fit, and the row's entries fall out
//! of cache between visits. A [`BatchSchedule`] fixes the *shape* of the
//! batch without touching its answers: it is an order-preserving
//! permutation of the query indices, sorted by `(source row, dest key)`,
//! so the one kernel, [`estimate_grouped`], opens a backend's row state
//! ([`RowEstimate`]) once per group of equal-source queries and walks
//! each row's records monotonically — then the answers are scattered
//! back through the permutation, leaving the output byte-identical to
//! the unscheduled batch for every batch order and thread count.
//!
//! The permutation is built with a two-pass stable counting sort (radix
//! by dest, then by source) over the `n` node ids — `O(q + n)`, no
//! comparisons (the oracle builds a schedule only for batches of at
//! least 4 096 pairs). Ties (duplicate pairs) keep their original
//! submission order, so the schedule itself is a pure, deterministic
//! function of the pair list.
//!
//! [`BatchSchedule::shard_lens`] is the group-aware shard splitter for
//! the parallel path: contiguous shards over the permutation that only
//! cut at group boundaries, so no source row's group is split across
//! workers and each worker still writes one contiguous output region.

use congest::NodeId;

/// An order-preserving source-grouped execution order for one batch.
///
/// `order` is a permutation of `0..pairs.len()` such that
/// `pairs[order[i]]` is sorted by `(u, v)` (ties in original order);
/// `group_starts` marks the runs of equal `u` within it. Answers computed
/// in schedule order are scattered back via [`BatchSchedule::scatter`].
#[derive(Clone, Debug)]
pub struct BatchSchedule {
    order: Vec<u32>,
    /// Boundaries of equal-source runs in `order`: `group_starts[g]..
    /// group_starts[g + 1]` is one group; first 0, last `order.len()`.
    group_starts: Vec<u32>,
}

impl BatchSchedule {
    /// Builds the schedule for `pairs` on an `n`-node oracle: `O(q + n)`
    /// time and `n + 1` counters.
    ///
    /// # Panics
    ///
    /// Panics when `pairs.len()` exceeds `u32::MAX` (batches are bounded
    /// far below that by every serving layer), and when a pair names a
    /// node id `≥ n` — the same precondition as
    /// `DistanceOracle::estimate`'s — before anything is allocated.
    pub fn build(pairs: &[(NodeId, NodeId)], n: usize) -> Self {
        let q = u32::try_from(pairs.len()).expect("batch fits u32 indices");
        for id in pairs.iter().flat_map(|&(u, v)| [u, v]) {
            assert!(
                id.index() < n,
                "batch names node {id}, past the {n}-node oracle"
            );
        }
        let order = radix_order(pairs, n, q);
        let mut group_starts = Vec::with_capacity(64);
        group_starts.push(0u32);
        for i in 1..order.len() {
            if pairs[order[i] as usize].0 != pairs[order[i - 1] as usize].0 {
                group_starts.push(i as u32);
            }
        }
        if *group_starts.last().expect("seeded with 0") != q {
            group_starts.push(q);
        }
        BatchSchedule {
            order,
            group_starts,
        }
    }

    /// The execution order: query indices sorted by `(source, dest)`.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of equal-source groups.
    pub fn groups(&self) -> usize {
        self.group_starts.len().saturating_sub(1)
    }

    /// Splits the schedule into at most `workers` contiguous shard
    /// lengths, each covering whole groups (never cutting a source row's
    /// run) and each at least `min_len` queries long except possibly the
    /// last. The lengths sum to `order.len()`; a pure function of the
    /// schedule and the arguments, so sharding is deterministic.
    pub fn shard_lens(&self, workers: usize, min_len: usize) -> Vec<usize> {
        let q = self.order.len();
        let workers = workers.max(1);
        let target = q.div_ceil(workers).max(min_len.max(1));
        let mut lens = Vec::with_capacity(workers);
        let mut shard_start = 0usize;
        for w in self.group_starts.windows(2) {
            let end = w[1] as usize;
            if end - shard_start >= target && end < q {
                lens.push(end - shard_start);
                shard_start = end;
            }
        }
        if q > shard_start || lens.is_empty() {
            lens.push(q - shard_start);
        }
        lens
    }

    /// Scatters schedule-order answers back to submission order:
    /// `out[order[i]] = grouped[i]`.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree with the schedule.
    pub fn scatter(&self, grouped: &[u64], out: &mut [u64]) {
        assert_eq!(grouped.len(), self.order.len(), "one answer per query");
        assert_eq!(out.len(), self.order.len(), "one slot per query");
        for (&slot, &ans) in self.order.iter().zip(grouped) {
            out[slot as usize] = ans;
        }
    }
}

/// Two-pass stable LSD radix sort of query indices by `(u, v)`.
fn radix_order(pairs: &[(NodeId, NodeId)], n: usize, q: u32) -> Vec<u32> {
    let mut counts = vec![0u32; n + 1];
    // Pass 1: stable counting sort by dest.
    for &(_, v) in pairs {
        counts[v.0 as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut by_dest = vec![0u32; q as usize];
    for i in 0..q {
        let v = pairs[i as usize].1 .0 as usize;
        by_dest[counts[v] as usize] = i;
        counts[v] += 1;
    }
    // Pass 2: stable counting sort by source over the dest-sorted order.
    counts.clear();
    counts.resize(n + 1, 0);
    for &(u, _) in pairs {
        counts[u.0 as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut order = vec![0u32; q as usize];
    for &i in &by_dest {
        let u = pairs[i as usize].0 .0 as usize;
        order[counts[u] as usize] = i;
        counts[u] += 1;
    }
    order
}

/// A backend seen as rows: what a query resolves from the queried node
/// `u` alone is a *row*, opened once per equal-source group by
/// [`estimate_grouped`]; each destination `v` is one read of it.
///
/// `open` may capture anything that depends only on `u` and immutable
/// scheme state (CSR cursors, `u`'s own index); it overwrites `row` in
/// place, so buffers inside it are reused across groups. `est` must be a
/// pure function of `(u, v)` — the backend's scalar estimate — which is
/// what keeps grouped answers byte-identical for every batch order.
pub trait RowEstimate {
    /// Per-group state; `Default` is the not-yet-opened row.
    type Row<'a>: Default
    where
        Self: 'a;

    /// Re-opens `row` at node `u`.
    fn open<'a>(&'a self, u: NodeId, row: &mut Self::Row<'a>);

    /// The estimate from the opened row's node to `v`.
    fn est(&self, row: &Self::Row<'_>, v: NodeId) -> u64;
}

/// The one source-grouped kernel: writes the estimate for
/// `pairs[order[i]]` into `out[i]`, opening one row per run of equal
/// sources in `order` (a [`BatchSchedule`] permutation, a slice of one,
/// or — at one open per maximal run — any unsorted order).
///
/// # Panics
///
/// Panics when `out.len() != order.len()` or an index in `order` is out
/// of bounds for `pairs`.
pub fn estimate_grouped<R: RowEstimate>(
    r: &R,
    pairs: &[(NodeId, NodeId)],
    order: &[u32],
    out: &mut [u64],
) {
    assert_eq!(order.len(), out.len(), "one answer slot per query");
    let mut row = R::Row::default();
    let mut start = 0usize;
    while start < order.len() {
        let end = group_end(pairs, order, start);
        r.open(pairs[order[start] as usize].0, &mut row);
        for (slot, &i) in out[start..end].iter_mut().zip(&order[start..end]) {
            *slot = r.est(&row, pairs[i as usize].1);
        }
        start = end;
    }
}

/// The end of the equal-source group starting at `order[start]`: the
/// first position whose source differs (or `order.len()`) — found by
/// walking, so shards (slices of the order) need no boundary table.
#[inline]
fn group_end(pairs: &[(NodeId, NodeId)], order: &[u32], start: usize) -> usize {
    let u = pairs[order[start] as usize].0;
    let mut end = start + 1;
    while end < order.len() && pairs[order[end] as usize].0 == u {
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs_of(raw: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        raw.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect()
    }

    #[test]
    fn order_is_sorted_and_stable() {
        let pairs = pairs_of(&[(3, 1), (0, 2), (3, 1), (1, 9), (0, 0), (3, 0)]);
        let s = BatchSchedule::build(&pairs, 10);
        let keys: Vec<(u32, u32)> = s
            .order()
            .iter()
            .map(|&i| (pairs[i as usize].0 .0, pairs[i as usize].1 .0))
            .collect();
        assert_eq!(keys, vec![(0, 0), (0, 2), (1, 9), (3, 0), (3, 1), (3, 1)]);
        // Duplicate (3, 1) pairs keep submission order: index 0 before 2.
        assert_eq!(&s.order()[4..], &[0, 2]);
        assert_eq!(s.groups(), 3);
    }

    #[test]
    fn a_huge_claimed_n_gives_the_same_order() {
        let raw: Vec<(u32, u32)> = (0..200)
            .map(|i: u32| (i.wrapping_mul(37) % 50, i.wrapping_mul(91) % 50))
            .collect();
        let pairs = pairs_of(&raw);
        let tight = BatchSchedule::build(&pairs, 50);
        let huge = BatchSchedule::build(&pairs, 160_000);
        assert_eq!(tight.order(), huge.order());
        assert_eq!(tight.group_starts, huge.group_starts);
    }

    #[test]
    #[should_panic(expected = "batch names node v9, past the 9-node oracle")]
    fn an_id_at_or_past_n_panics_naming_it() {
        BatchSchedule::build(&pairs_of(&[(0, 2), (1, 9)]), 9);
    }

    #[test]
    fn shards_align_with_groups_and_cover_everything() {
        let raw: Vec<(u32, u32)> = (0..1000).map(|i: u32| (i % 7, i % 13)).collect();
        let pairs = pairs_of(&raw);
        let s = BatchSchedule::build(&pairs, 16);
        for workers in [1usize, 2, 3, 5, 100] {
            let lens = s.shard_lens(workers, 1);
            assert!(lens.len() <= workers.max(1));
            assert_eq!(lens.iter().sum::<usize>(), pairs.len());
            // Every shard boundary is a group boundary.
            let mut pos = 0usize;
            for &len in &lens {
                pos += len;
                assert!(
                    s.group_starts.contains(&(pos as u32)),
                    "shard boundary {pos} splits a group (workers={workers})"
                );
            }
        }
    }

    #[test]
    fn scatter_inverts_the_permutation() {
        let pairs = pairs_of(&[(2, 1), (0, 3), (1, 1), (0, 1)]);
        let s = BatchSchedule::build(&pairs, 4);
        // Answer i in schedule order is the scheduled query's index × 10.
        let grouped: Vec<u64> = s.order().iter().map(|&i| u64::from(i) * 10).collect();
        let mut out = vec![0u64; pairs.len()];
        s.scatter(&grouped, &mut out);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    /// A row view that only counts its `open` calls.
    #[derive(Default)]
    struct CountingRows(std::cell::Cell<usize>);

    impl RowEstimate for CountingRows {
        type Row<'a> = ();

        fn open(&self, _: NodeId, _: &mut ()) {
            self.0.set(self.0.get() + 1);
        }

        fn est(&self, _: &(), _: NodeId) -> u64 {
            0
        }
    }

    /// Rows the kernel opens over `order` cut into `lens`-long slices.
    fn opens(pairs: &[(NodeId, NodeId)], mut order: &[u32], lens: &[usize]) -> usize {
        let rows = CountingRows::default();
        for &len in lens {
            let (part, rest) = order.split_at(len);
            estimate_grouped(&rows, pairs, part, &mut vec![0; len]);
            order = rest;
        }
        rows.0.get()
    }

    #[test]
    fn grouped_kernel_opens_one_row_per_run() {
        let raw: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 37 % 11, i % 13)).collect();
        let pairs = pairs_of(&raw);
        let s = BatchSchedule::build(&pairs, 16);
        let q = pairs.len();
        assert_eq!(opens(&pairs, s.order(), &[q]), s.groups());
        // Shards cut at group boundaries only, so sharding re-opens nothing;
        // a cut inside a group costs exactly the one extra open.
        for workers in [2usize, 3, 5] {
            let lens = s.shard_lens(workers, 1);
            assert_eq!(opens(&pairs, s.order(), &lens), s.groups());
        }
        assert_eq!(opens(&pairs, s.order(), &[1, q - 1]), s.groups() + 1);
        // An unsorted order: one open per maximal run of equal sources.
        let identity: Vec<u32> = (0..q as u32).collect();
        let runs = 1 + raw.windows(2).filter(|w| w[0].0 != w[1].0).count();
        assert_eq!(opens(&pairs, &identity, &[q]), runs);
    }

    #[test]
    fn empty_batch_is_fine() {
        let s = BatchSchedule::build(&[], 8);
        assert_eq!(s.order().len(), 0);
        assert_eq!(s.groups(), 0);
        assert_eq!(s.shard_lens(4, 1), vec![0]);
    }
}
