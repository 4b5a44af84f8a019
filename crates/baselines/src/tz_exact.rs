//! Centralized exact-distance Thorup–Zwick hierarchy (comparison
//! baseline).
//!
//! Same level structure, labels and forwarding rules as the distributed
//! `compact` scheme, but with *exact* distances everywhere — the ideal
//! the paper's approximate construction is measured against in
//! experiment E5. (Being a centralized baseline, its distance options use
//! an exact oracle; its *table sizes* are still the TZ bunches, which is
//! the quantity compared.)

use compact::{level_flags, sample_levels};
use congest::{bits_for, NodeId};
use graphs::algo::apsp_with_first_hops;
use graphs::{Seed, WGraph};
use routing::RoutingScheme;
use treeroute::TreeSet;

/// Exact Thorup–Zwick baseline scheme.
#[derive(Debug)]
pub struct ExactTz {
    n: usize,
    k: u32,
    /// Row-major `n × n` exact distances.
    dist: Vec<u64>,
    /// `pivots[l−1][v] = (s'_l(v), wd(v, s'_l(v)))` for `l ∈ 1..k`.
    pivots: Vec<Vec<(NodeId, u64)>>,
    /// Shortest-path trees towards each pivot, per level.
    trees: Vec<TreeSet>,
    /// Σ_l |S'_l(v)| (bunch sizes).
    bunch_sizes: Vec<u32>,
    /// First-hop matrix from exact shortest paths.
    next: Vec<Option<NodeId>>,
}

impl ExactTz {
    /// Builds the exact hierarchy with `k` levels and the given seed
    /// (any `u64` converts into a [`graphs::Seed`]); the exact distance
    /// sweep runs on `threads` workers (`0` = one per core; every count
    /// gives the same scheme).
    ///
    /// # Panics
    ///
    /// Panics on disconnected inputs.
    pub fn new(g: &WGraph, k: u32, seed: impl Into<Seed>, threads: usize) -> Self {
        assert!(g.is_connected(), "exact TZ requires connectivity");
        let n = g.len();
        let (levels, _) = sample_levels(n, k, seed.into());
        // Distances and exact first hops from one Dijkstra sweep.
        let (exact, first_hops) = apsp_with_first_hops(g, threads);
        let next: Vec<Option<NodeId>> = first_hops
            .into_iter()
            .map(|raw| (raw != u32::MAX).then_some(NodeId(raw)))
            .collect();

        // Exact pivots per level.
        let mut pivots = Vec::with_capacity(k as usize - 1);
        for l in 1..k {
            let flags = level_flags(&levels, l);
            let pv: Vec<(NodeId, u64)> = g
                .nodes()
                .map(|v| {
                    g.nodes()
                        .filter(|s| flags[s.index()])
                        .map(|s| (exact.dist(v, s), s))
                        .min()
                        .map(|(d, s)| (s, d))
                        .expect("S_l nonempty")
                })
                .collect();
            pivots.push(pv);
        }

        // Bunches: |{s ∈ S_l : wd(v,s) < wd(v, S_{l+1})}| summed over l.
        let mut bunch_sizes = vec![0u32; n];
        for l in 0..k {
            let flags = level_flags(&levels, l);
            for v in g.nodes() {
                let cut = if l + 1 < k {
                    let (s, d) = pivots[l as usize][v.index()];
                    (d, s)
                } else {
                    (u64::MAX, NodeId(u32::MAX))
                };
                bunch_sizes[v.index()] += g
                    .nodes()
                    .filter(|s| flags[s.index()])
                    .filter(|&s| (exact.dist(v, s), s) < cut)
                    .count() as u32;
            }
        }

        // Exact shortest-path chains to pivots → trees (centrally built).
        let mut trees = Vec::with_capacity(k as usize - 1);
        for l in 1..k {
            let mut set = TreeSet::new();
            for v in g.nodes() {
                let (s, _) = pivots[(l - 1) as usize][v.index()];
                // Chain via exact first hops towards s.
                let mut path = vec![v];
                let mut cur = v;
                while cur != s {
                    cur = next[cur.index() * n + s.index()].expect("connected");
                    path.push(cur);
                }
                set.add_chain(&path);
            }
            set.build();
            trees.push(set);
        }

        ExactTz {
            n,
            k,
            dist: exact.into_dist(),
            pivots,
            trees,
            bunch_sizes,
            next,
        }
    }

    fn first_hop(&self, x: NodeId, t: NodeId) -> Option<NodeId> {
        self.next[x.index() * self.n + t.index()]
    }

    fn dist(&self, x: NodeId, t: NodeId) -> u64 {
        self.dist[x.index() * self.n + t.index()]
    }

    /// Emits the hierarchy into an arena: `[n, k]` meta, the distance
    /// matrix, the table counts and the first-hop matrix as typed
    /// sections, pivots as flat per-level arrays, trees as an embedded
    /// wire stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the tree stream.
    pub fn write_arena(&self, a: &mut congest::arena::ArenaWriter) -> std::io::Result<()> {
        a.u64s(&[self.n as u64, u64::from(self.k)]);
        a.u64s(&self.dist);
        let piv_s: Vec<u32> = self
            .pivots
            .iter()
            .flat_map(|level| level.iter().map(|&(s, _)| s.0))
            .collect();
        let piv_d: Vec<u64> = self
            .pivots
            .iter()
            .flat_map(|level| level.iter().map(|&(_, d)| d))
            .collect();
        a.u32s(&piv_s);
        a.u64s(&piv_d);
        a.stream(|sink| {
            let mut w = congest::wire::WireWriter::new(sink);
            w.len(self.trees.len())?;
            for set in &self.trees {
                set.write_into(sink)?;
            }
            Ok(())
        })?;
        a.u32s(&self.bunch_sizes);
        let next: Vec<u32> = self
            .next
            .iter()
            .map(|nx| nx.map_or(u32::MAX, |v| v.0))
            .collect();
        a.u32s(&next);
        Ok(())
    }

    /// Reads what [`ExactTz::write_arena`] wrote. Queries index
    /// `pivots[l-1][v]` for `l` in `1..k`, the `n × n` matrices at a
    /// pivot's row and the pivot's tree, so every level must cover all `n`
    /// nodes with pivots that root a tree of that level — a short table or
    /// a foreign pivot fails here, not at query time.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed sections.
    pub fn read_arena(c: &mut congest::arena::ArenaCursor<'_>) -> std::io::Result<Self> {
        use congest::wire::{invalid_data, MAX_SNAPSHOT_NODES};
        let meta = c.u64s()?;
        let [n, k] = meta[..] else {
            return Err(invalid_data("ExactTz meta section misshapen"));
        };
        let n = usize::try_from(n).map_err(|_| invalid_data("ExactTz n overflow"))?;
        if n > MAX_SNAPSHOT_NODES {
            return Err(invalid_data(format!("ExactTz snapshot claims {n} nodes")));
        }
        let k = u32::try_from(k).map_err(|_| invalid_data("ExactTz k overflow"))?;
        if k == 0 {
            return Err(invalid_data("ExactTz snapshot with k = 0"));
        }
        let cells = congest::wire::seq_product(n, n, "ExactTz")?;
        let dist = c.u64s()?;
        if dist.len() != cells {
            return Err(invalid_data("ExactTz distance cell count mismatch"));
        }
        let piv_s = c.u32s()?;
        let piv_d = c.u64s()?;
        let np = (k - 1) as usize;
        let piv_total = congest::wire::seq_product(n, np, "ExactTz pivots")?;
        if piv_s.len() != piv_total || piv_d.len() != piv_total {
            return Err(invalid_data("ExactTz pivot sections disagree on length"));
        }
        let pivots: Vec<Vec<(NodeId, u64)>> = (0..np)
            .map(|l| {
                (l * n..(l + 1) * n)
                    .map(|i| (NodeId(piv_s[i]), piv_d[i]))
                    .collect()
            })
            .collect();
        let mut tree_bytes = c.bytes()?;
        let nt = congest::wire::WireReader::new(&mut tree_bytes).len(n)?;
        if nt != np {
            return Err(invalid_data("ExactTz tree set count mismatch"));
        }
        let mut trees = Vec::with_capacity(nt);
        for _ in 0..nt {
            trees.push(TreeSet::read_from(&mut tree_bytes)?);
        }
        for (level, set) in pivots.iter().zip(&trees) {
            if level
                .iter()
                .any(|(s, _)| s.index() >= n || !set.trees.contains_key(s))
            {
                return Err(invalid_data("ExactTz pivot is no tree root of its level"));
            }
        }
        let bunch_sizes = c.u32s()?;
        if bunch_sizes.len() != n {
            return Err(invalid_data("ExactTz bunch table shorter than n"));
        }
        let raw_next = c.u32s()?;
        if raw_next.len() != cells {
            return Err(invalid_data("ExactTz first-hop cell count mismatch"));
        }
        let next: Vec<Option<NodeId>> = raw_next
            .into_iter()
            .map(|raw| {
                if raw == u32::MAX {
                    Ok(None)
                } else if (raw as usize) < n {
                    Ok(Some(NodeId(raw)))
                } else {
                    Err(invalid_data(format!("first hop {raw} out of range")))
                }
            })
            .collect::<std::io::Result<_>>()?;
        Ok(ExactTz {
            n,
            k,
            dist,
            pivots,
            trees,
            bunch_sizes,
            next,
        })
    }
}

impl RoutingScheme for ExactTz {
    fn len(&self) -> usize {
        self.n
    }

    fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
        if x == dest {
            return None;
        }
        // Tree mode first (as in the distributed scheme).
        for (level, set) in self.pivots.iter().zip(&self.trees) {
            let (pivot, _) = level[dest.index()];
            let dfs = set.trees.get(&pivot).and_then(|t| t.label(dest));
            if let Some(child) = dfs.and_then(|dfs| set.descend(pivot, x, dfs)) {
                return Some(child);
            }
        }
        // Exact potential: min over levels of d(x, p_l) + d(p_l, dest),
        // level 0 meaning the direct exact distance.
        let mut best: Option<(u64, NodeId)> = None;
        if let Some(h) = self.first_hop(x, dest) {
            best = Some((self.dist(x, dest), h));
        }
        for l in 1..self.k {
            let (pivot, d_w) = self.pivots[(l - 1) as usize][dest.index()];
            if x == pivot {
                continue;
            }
            let est = self.dist(x, pivot).saturating_add(d_w);
            if best.is_none_or(|(b, _)| est < b) {
                if let Some(h) = self.first_hop(x, pivot) {
                    best = Some((est, h));
                }
            }
        }
        best.map(|(_, h)| h)
    }

    fn estimate(&self, x: NodeId, dest: NodeId) -> u64 {
        if x == dest {
            return 0;
        }
        // What the TZ distance oracle would answer: min over levels of
        // d(x, p_l(dest)) + d(p_l(dest), dest), and d(x,dest) itself when
        // dest is in x's bunch (approximated here by the exact value,
        // which only makes the baseline stronger).
        let mut best = self.dist(x, dest);
        for l in 1..self.k {
            let (pivot, d_w) = self.pivots[(l - 1) as usize][dest.index()];
            best = best.min(self.dist(x, pivot).saturating_add(d_w));
        }
        best
    }

    fn label_bits(&self, v: NodeId) -> usize {
        let id = bits_for(self.n as u64);
        id + (1..self.k)
            .map(|l| {
                let (_, d) = self.pivots[(l - 1) as usize][v.index()];
                2 * id + bits_for(d + 1)
            })
            .sum::<usize>()
    }

    fn table_entries(&self, v: NodeId) -> usize {
        let tree_rows: usize = self.trees.iter().map(|set| set.rows_at(v)).sum();
        self.bunch_sizes[v.index()] as usize + tree_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::algo::apsp;
    use graphs::gen::{self, Weights};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use routing::{evaluate, PairSelection};

    #[test]
    fn stretch_within_4k_minus_3() {
        for (k, seed) in [(2u32, 1u64), (3, 2)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::gnp_connected(
                26,
                0.15,
                Weights::Uniform {
                    lo: 1,
                    hi: rng.random_range(10..50),
                },
                &mut rng,
            );
            let scheme = ExactTz::new(&g, k, seed, 1);
            let exact = apsp(&g);
            let report = evaluate(&g, &scheme, &exact, PairSelection::All);
            assert!(report.failures.is_empty(), "{:?}", report.failures);
            let bound = (4 * k - 3) as f64;
            assert!(
                report.max_stretch <= bound + 1e-9,
                "stretch {} > {bound} (k={k})",
                report.max_stretch
            );
        }
    }

    #[test]
    fn snapshot_round_trip_is_query_identical() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = gen::gnp_connected(22, 0.2, Weights::Uniform { lo: 1, hi: 25 }, &mut rng);
        let scheme = ExactTz::new(&g, 3, 8, 1);
        let save = |scheme: &ExactTz| {
            let mut a = congest::arena::ArenaWriter::new();
            scheme.write_arena(&mut a).unwrap();
            let mut buf = Vec::new();
            a.finish(&mut buf).unwrap();
            buf
        };
        let buf = save(&scheme);
        let bytes = congest::arena::SharedBytes::from_vec(buf.clone());
        let reader = congest::arena::ArenaReader::parse(bytes).unwrap();
        let back = ExactTz::read_arena(&mut reader.cursor()).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(scheme.estimate(u, v), back.estimate(u, v), "({u},{v})");
                assert_eq!(scheme.next_hop(u, v), back.next_hop(u, v), "({u},{v})");
            }
            assert_eq!(scheme.label_bits(u), back.label_bits(u));
            assert_eq!(scheme.table_entries(u), back.table_entries(u));
        }
        assert_eq!(buf, save(&back));
    }

    #[test]
    fn k1_is_exact() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::grid(4, 5, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
        let scheme = ExactTz::new(&g, 1, 5, 1);
        let exact = apsp(&g);
        let report = evaluate(&g, &scheme, &exact, PairSelection::All);
        assert!(report.failures.is_empty());
        assert!((report.max_stretch - 1.0).abs() < 1e-12);
    }
}
