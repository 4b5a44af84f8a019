//! Overlapping rooted trees with DFS-interval labels.

use congest::NodeId;
use std::collections::{BTreeMap, HashMap};

/// One rooted tree (e.g. the detection tree `T_s` of a skeleton node `s`),
/// possibly spanning only a subset of the graph's nodes.
#[derive(Clone, Debug, Default)]
pub struct TreeData {
    /// Parent of each member (the root has no entry).
    pub parent: HashMap<NodeId, NodeId>,
    /// Children of each member, sorted by id (deterministic DFS order).
    pub children: HashMap<NodeId, Vec<NodeId>>,
    /// DFS interval `[in, out)` of each member; `in` is the member's label.
    pub interval: HashMap<NodeId, (u64, u64)>,
    /// Depth of each member (root = 0).
    pub depth: HashMap<NodeId, u32>,
}

impl TreeData {
    /// The DFS label of `v`, if `v` is a member.
    pub fn label(&self, v: NodeId) -> Option<u64> {
        self.interval.get(&v).map(|&(i, _)| i)
    }

    /// `true` if the DFS index `dfs` lies in `x`'s subtree.
    pub fn in_subtree(&self, x: NodeId, dfs: u64) -> bool {
        self.interval
            .get(&x)
            .is_some_and(|&(lo, hi)| (lo..hi).contains(&dfs))
    }

    /// The child of `x` whose subtree contains `dfs`, for descending
    /// towards the labeled node. `None` if `dfs` is `x` itself or outside
    /// `x`'s subtree.
    pub fn next_hop_down(&self, x: NodeId, dfs: u64) -> Option<NodeId> {
        if !self.in_subtree(x, dfs) || self.label(x) == Some(dfs) {
            return None;
        }
        self.children
            .get(&x)
            .and_then(|ch| ch.iter().find(|&&c| self.in_subtree(c, dfs)))
            .copied()
    }

    /// Number of members (0 before [`TreeSet::build`] populated intervals).
    pub fn len(&self) -> usize {
        self.interval.len()
    }

    /// `true` if the tree has no labeled members.
    pub fn is_empty(&self) -> bool {
        self.interval.is_empty()
    }

    /// Height (max member depth).
    pub fn height(&self) -> u32 {
        self.depth.values().copied().max().unwrap_or(0)
    }
}

/// A collection of possibly-overlapping rooted trees, keyed by root.
///
/// Built by adding next-hop *chains* (the paths PDE routing induces from
/// each node to its pivot); [`TreeSet::build`] then computes children
/// lists, depths and DFS intervals for every tree.
#[derive(Clone, Debug, Default)]
pub struct TreeSet {
    /// The trees, keyed by root id.
    pub trees: BTreeMap<NodeId, TreeData>,
}

impl TreeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a chain `path[0] → path[1] → … → root` to the tree rooted at
    /// `path.last()`. Consistency is required: a node already present in
    /// that tree must have the same parent.
    ///
    /// # Panics
    ///
    /// Panics if the chain disagrees with an existing parent pointer
    /// (chains come from per-node next-hop tables, which are functions of
    /// the node, so disagreement indicates a bug).
    pub fn add_chain(&mut self, path: &[NodeId]) {
        if path.len() < 2 {
            if let Some(&root) = path.last() {
                self.trees.entry(root).or_default();
            }
            return;
        }
        let root = *path.last().expect("nonempty path");
        let tree = self.trees.entry(root).or_default();
        for w in path.windows(2) {
            let (child, parent) = (w[0], w[1]);
            if let Some(&p) = tree.parent.get(&child) {
                assert_eq!(
                    p, parent,
                    "inconsistent parent for {child} in tree {root}: {p} vs {parent}"
                );
                break; // the rest of the chain is already present
            }
            tree.parent.insert(child, parent);
        }
    }

    /// Computes children, depths and DFS intervals for every tree.
    ///
    /// # Panics
    ///
    /// Panics if some tree contains a cycle or is disconnected from its
    /// root (again: indicates broken next-hop chains; loud failure
    /// wanted). Parent maps decoded from *untrusted* bytes must go
    /// through [`TreeSet::try_build`] instead.
    pub fn build(&mut self) {
        if let Err(e) = self.try_build() {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`TreeSet::build`] for parent maps decoded
    /// from untrusted bytes: a cycle or a tree disconnected from its
    /// root is reported as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed tree.
    pub fn try_build(&mut self) -> Result<(), String> {
        for (&root, tree) in &mut self.trees {
            tree.children.clear();
            for (&c, &p) in &tree.parent {
                tree.children.entry(p).or_default().push(c);
                tree.children.entry(c).or_default();
            }
            tree.children.entry(root).or_default();
            for ch in tree.children.values_mut() {
                ch.sort_unstable();
            }
            // Iterative DFS assigning intervals.
            tree.interval.clear();
            tree.depth.clear();
            let mut counter = 0u64;
            // Stack entries: (node, child_index, depth).
            let mut stack = vec![(root, 0usize, 0u32)];
            let mut in_time: HashMap<NodeId, u64> = HashMap::new();
            let member_count = tree.children.len();
            while let Some(top) = stack.last_mut() {
                let (v, ci, d) = (top.0, top.1, top.2);
                if ci == 0 {
                    in_time.insert(v, counter);
                    tree.depth.insert(v, d);
                    counter += 1;
                }
                let ch = &tree.children[&v];
                if ci < ch.len() {
                    let c = ch[ci];
                    top.1 += 1;
                    stack.push((c, 0, d + 1));
                    if stack.len() > member_count + 1 {
                        return Err(format!("cycle detected in tree {root}"));
                    }
                } else {
                    stack.pop();
                    tree.interval.insert(v, (in_time[&v], counter));
                }
            }
            if tree.interval.len() != tree.children.len() {
                return Err(format!("tree {root} is disconnected from its root"));
            }
        }
        Ok(())
    }

    /// Serializes the set (snapshot wire format): per tree, the root and
    /// its parent pointers sorted by child id. Children lists, depths and
    /// DFS intervals are *not* written — [`TreeSet::read_from`] recomputes
    /// them with [`TreeSet::build`], which is a deterministic function of
    /// the parent structure, so reloaded labels are identical.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_into(&self, sink: &mut dyn std::io::Write) -> std::io::Result<()> {
        let mut w = congest::wire::WireWriter::new(sink);
        w.len(self.trees.len())?;
        for (&root, tree) in &self.trees {
            w.u32(root.0)?;
            let mut parents: Vec<(NodeId, NodeId)> =
                tree.parent.iter().map(|(&c, &p)| (c, p)).collect();
            parents.sort_unstable();
            w.len(parents.len())?;
            for (c, p) in parents {
                w.u32(c.0)?;
                w.u32(p.0)?;
            }
        }
        Ok(())
    }

    /// Deserializes a set written by [`TreeSet::write_into`] and rebuilds
    /// children/depth/interval tables.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed bytes, including decoded
    /// parent pointers that form a cycle or disconnect a tree from its
    /// root — corrupted snapshots must error, never panic.
    pub fn read_from(source: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let mut r = congest::wire::WireReader::new(source);
        let num_trees = r.len64(congest::wire::MAX_SEQ_LEN)?;
        let mut set = TreeSet::new();
        for _ in 0..num_trees {
            let root = NodeId(r.u32()?);
            let tree = set.trees.entry(root).or_default();
            let edges = r.len64(congest::wire::MAX_SEQ_LEN)?;
            for _ in 0..edges {
                let c = NodeId(r.u32()?);
                let p = NodeId(r.u32()?);
                tree.parent.insert(c, p);
            }
        }
        set.try_build().map_err(congest::wire::invalid_data)?;
        Ok(set)
    }

    /// One step of DFS-interval descent in the tree rooted at `root`: the
    /// child of `x` whose subtree holds the node labeled `dfs`. `None` when
    /// there is no such tree, `x` is not above that node, or `x` is it.
    pub fn descend(&self, root: NodeId, x: NodeId, dfs: u64) -> Option<NodeId> {
        self.trees.get(&root)?.next_hop_down(x, dfs)
    }

    /// The table rows `v` keeps for this set: per tree it belongs to, one
    /// for itself and one per child.
    pub fn rows_at(&self, v: NodeId) -> usize {
        self.trees
            .values()
            .filter_map(|t| t.children.get(&v))
            .map(|ch| 1 + ch.len())
            .sum()
    }

    /// Trees containing `v`, as `(root, depth_of_v)` pairs.
    pub fn memberships(&self, v: NodeId) -> Vec<(NodeId, u32)> {
        self.trees
            .iter()
            .filter_map(|(&r, t)| t.depth.get(&v).map(|&d| (r, d)))
            .collect()
    }

    /// The maximum number of trees any single node belongs to (the
    /// quantity Lemma 4.4 bounds by `O(log n)`).
    pub fn max_membership(&self, n: usize) -> usize {
        let mut count = vec![0usize; n];
        for t in self.trees.values() {
            for v in t.interval.keys() {
                count[v.index()] += 1;
            }
        }
        count.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn single_chain_tree() {
        let mut ts = TreeSet::new();
        ts.add_chain(&[v(3), v(2), v(1), v(0)]);
        ts.build();
        let t = &ts.trees[&v(0)];
        assert_eq!(t.len(), 4);
        assert_eq!(t.label(v(0)), Some(0));
        assert_eq!(t.depth[&v(3)], 3);
        assert_eq!(t.height(), 3);
        // Descend from the root towards node 3.
        let l3 = t.label(v(3)).unwrap();
        assert_eq!(t.next_hop_down(v(0), l3), Some(v(1)));
        assert_eq!(t.next_hop_down(v(1), l3), Some(v(2)));
        assert_eq!(t.next_hop_down(v(2), l3), Some(v(3)));
        assert_eq!(t.next_hop_down(v(3), l3), None);
    }

    #[test]
    fn merged_chains_share_prefix() {
        let mut ts = TreeSet::new();
        ts.add_chain(&[v(3), v(1), v(0)]);
        ts.add_chain(&[v(4), v(1), v(0)]);
        ts.add_chain(&[v(2), v(0)]);
        ts.build();
        let t = &ts.trees[&v(0)];
        assert_eq!(t.len(), 5);
        assert_eq!(t.children[&v(1)], vec![v(3), v(4)]);
        // Intervals nest properly.
        let (lo1, hi1) = t.interval[&v(1)];
        let (lo3, hi3) = t.interval[&v(3)];
        assert!(lo1 <= lo3 && hi3 <= hi1);
        // Root's interval covers everything.
        assert_eq!(t.interval[&v(0)], (0, 5));
    }

    #[test]
    fn overlapping_trees_are_independent() {
        let mut ts = TreeSet::new();
        ts.add_chain(&[v(2), v(1), v(0)]);
        ts.add_chain(&[v(2), v(3)]); // node 2 also in tree rooted at 3
        ts.build();
        assert_eq!(ts.trees.len(), 2);
        assert_eq!(ts.memberships(v(2)).len(), 2);
        assert_eq!(ts.max_membership(5), 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent parent")]
    fn conflicting_chains_panic() {
        let mut ts = TreeSet::new();
        ts.add_chain(&[v(2), v(1), v(0)]);
        ts.add_chain(&[v(2), v(3), v(0)]);
    }

    #[test]
    fn snapshot_round_trip_preserves_labels() {
        let mut ts = TreeSet::new();
        ts.add_chain(&[v(3), v(1), v(0)]);
        ts.add_chain(&[v(4), v(1), v(0)]);
        ts.add_chain(&[v(2), v(0)]);
        ts.add_chain(&[v(2), v(5)]); // second tree
        ts.add_chain(&[v(6)]); // singleton tree
        ts.build();
        let mut buf = Vec::new();
        ts.write_into(&mut buf).unwrap();
        let back = TreeSet::read_from(&mut &buf[..]).unwrap();
        assert_eq!(back.trees.len(), ts.trees.len());
        for (root, tree) in &ts.trees {
            let other = &back.trees[root];
            assert_eq!(tree.parent, other.parent, "tree {root}");
            assert_eq!(tree.interval, other.interval, "tree {root}");
            assert_eq!(tree.depth, other.depth, "tree {root}");
            assert_eq!(tree.children, other.children, "tree {root}");
        }
        // Re-serializing the reloaded set gives identical bytes.
        let mut buf2 = Vec::new();
        back.write_into(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn corrupt_parent_maps_error_instead_of_panicking() {
        // A cycle (1 → 2 → 1 in the tree rooted at 0) and a component
        // disconnected from its root are both representable on the wire;
        // decoding must reject them as InvalidData.
        let mut cyclic = TreeSet::new();
        cyclic
            .trees
            .entry(v(0))
            .or_default()
            .parent
            .extend([(v(1), v(2)), (v(2), v(1))]);
        let mut buf = Vec::new();
        cyclic.write_into(&mut buf).unwrap();
        let err = TreeSet::read_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let mut floating = TreeSet::new();
        floating
            .trees
            .entry(v(0))
            .or_default()
            .parent
            .insert(v(5), v(6)); // 5 → 6, neither reaches root 0
        let mut buf = Vec::new();
        floating.write_into(&mut buf).unwrap();
        let err = TreeSet::read_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn next_hop_down_rejects_foreign_labels() {
        let mut ts = TreeSet::new();
        ts.add_chain(&[v(2), v(1), v(0)]);
        ts.add_chain(&[v(4), v(3), v(0)]);
        ts.build();
        let t = &ts.trees[&v(0)];
        let l2 = t.label(v(2)).unwrap();
        // From node 3 (sibling branch), label of 2 is not in the subtree.
        assert_eq!(t.next_hop_down(v(3), l2), None);
        assert!(!t.in_subtree(v(3), l2));
    }
}
