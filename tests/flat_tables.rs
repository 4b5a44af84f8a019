//! Property-based tests for the flat SoA tables every scheme builds and
//! serves (`pde_core::tables`): dense [`PairTable`] lookups must agree
//! with a `HashMap` model across random probes — including misses
//! and out-of-range keys — and [`FlatTables`] lookups with a per-node
//! `BTreeMap` model over a random rung ladder — including hop counts and
//! ports that take the escape, in keyed and direct rows, at every word
//! width from 1 to 4 bytes, with rows keyed by node id or, when they name
//! a proper subset of the nodes, by rank through the table's source map
//! — with byte-identical round-trips through the arena codec and records
//! of exactly the derived width; real builds
//! whose words need 3 bytes (long hop counts, a hub's ports) answer within
//! Definition 2.2 of exact APSP.

use pde_repro::congest::arena::{ArenaReader, ArenaWriter, SharedBytes};
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{algo, DenseIndex, NodeId, Seed, WGraph, INF};
use pde_repro::oracle::{Backend, DistanceOracle, Oracle, OracleBuilder};
use pde_repro::pde_core::tables::{resolve_entries, FlatTables, PairTable};
use pde_repro::pde_core::RouteInfo;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A generated case: side length `k`, unique in-range pair entries, and
/// probe keys (deliberately allowed to fall outside `k`, which must
/// behave as a miss, matching the `HashMap` model).
type PairCase = (usize, Vec<(u32, u32, u64)>, Vec<(usize, usize)>);

fn pair_entries() -> impl Strategy<Value = PairCase> {
    (1usize..=40).prop_flat_map(|k| {
        let entries = proptest::collection::vec(
            ((0..k as u32), (0..k as u32), 0u64..1_000_000),
            0..(2 * k).min(60),
        );
        let probes = proptest::collection::vec(((0..k + 3), (0..k + 3)), 40);
        (Just(k), entries, probes).prop_map(|(k, raw, probes)| {
            // Deduplicate keys, first writer wins (the builders never
            // produce duplicates; PairTable asserts on them).
            let mut seen = HashMap::new();
            for (r, c, v) in raw {
                seen.entry((r, c)).or_insert(v);
            }
            let mut entries: Vec<(u32, u32, u64)> =
                seen.into_iter().map(|((r, c), v)| (r, c, v)).collect();
            entries.sort_unstable();
            (k, entries, probes)
        })
    })
}

/// One generated route: `(src, hops, port, level)`; the level is taken
/// modulo the ladder's length.
type RouteRow = (u32, u64, u32, u32);

/// A rung ladder `1 = b₀ < b₁ < …` of 1 to 40 rungs (up to six level
/// bits), and the horizon every drawn hop count stays within.
type Ladder = (u64, Vec<u64>);

fn ladders() -> impl Strategy<Value = Ladder> {
    proptest::collection::vec(1u64..40, 0..40).prop_map(|steps| {
        let rungs = steps.iter().fold(vec![1], |mut rungs, step| {
            rungs.push(rungs.last().unwrap() + step);
            rungs
        });
        (u64::from(u32::MAX), rungs)
    })
}

/// How a drawn row's small ids become source keys: the shapes the row
/// forms have to hold on, from direct rows (dense, dense with holes)
/// through the keyed fit's best case to rows no straight line describes
/// (clusters, an outlier).
#[derive(Clone, Copy, Debug)]
enum KeyShape {
    /// The drawn ids themselves: uniform over a small range.
    Uniform,
    /// `0..len`.
    Dense,
    /// `0..len` with every fifth id left out.
    DenseWithHoles,
    /// `16·id`.
    Strided,
    /// Even ids near 0, odd ids near 2¹².
    Clusters,
    /// The drawn ids, with the row's first entry moved to `2¹³ − 2`.
    Outlier,
}

impl KeyShape {
    /// The key of drawn `id` at position `rank` of its row (injective in
    /// `id` for every shape but `Dense`, which is injective in `rank`).
    fn key(self, id: u32, rank: usize) -> u32 {
        match self {
            KeyShape::Uniform => id,
            KeyShape::Dense => rank as u32,
            KeyShape::DenseWithHoles => (rank + rank / 4) as u32,
            KeyShape::Strided => 16 * id,
            KeyShape::Clusters => ((id % 2) << 12) | (id / 2),
            KeyShape::Outlier if rank == 0 => (1 << 13) - 2,
            KeyShape::Outlier => id,
        }
    }

    /// The node count of a case of `rows` drawn rows whose largest key is
    /// `max_key`. The uniform and dense keys come with as many nodes as
    /// rows, so keys past them keep node ids as keys. The other shapes'
    /// keys are node ids of a graph one node larger than their largest,
    /// which no row names: their rows name a proper subset of the nodes,
    /// so their tables key rows by rank, through a source map.
    fn nodes(self, rows: usize, max_key: Option<u32>) -> usize {
        match self {
            KeyShape::Uniform | KeyShape::Dense => rows,
            _ => rows.max(max_key.map_or(0, |k| k as usize + 2)),
        }
    }

    fn mapped(self) -> bool {
        !matches!(self, KeyShape::Uniform | KeyShape::Dense)
    }
}

/// Per-node rows of routes. The narrow class is what the builders
/// produce in the paper's regime (short rows, few hops). The wide class
/// draws a port bound and a hop bound of 0 to 32 bits each and its
/// values up to them, the bounds themselves often — so the derived words
/// take every width from 1 to 4 bytes, and past 32 bits together some
/// values take the escape — over rows long enough to leave the small-row
/// scan. Every class comes in every key shape, with the shape's node
/// count (see [`KeyShape::nodes`]) and whether it maps.
fn route_rows(wide: bool) -> BoxedStrategy<(Vec<Vec<RouteRow>>, usize, bool)> {
    let shape = prop_oneof![
        Just(KeyShape::Uniform),
        Just(KeyShape::Dense),
        Just(KeyShape::DenseWithHoles),
        Just(KeyShape::Strided),
        Just(KeyShape::Clusters),
        Just(KeyShape::Outlier),
    ];
    let rows = if !wide {
        let row = proptest::collection::vec(((0u32..30), 0u64..200, (0u32..4), 0u32..64), 0..12);
        proptest::collection::vec(row, 1..8).boxed()
    } else {
        (0u32..=32, 0u32..=32)
            .prop_flat_map(|(port_bits, hop_bits)| {
                let (port, hops) = ((1u64 << port_bits) - 1, (1u64 << hop_bits) - 1);
                let port = prop_oneof![0..=port, Just(port)].prop_map(|p| p as u32);
                let hops = prop_oneof![0..=hops, Just(hops)];
                let row = proptest::collection::vec(((0u32..400), hops, port, 0u32..64), 0..160);
                proptest::collection::vec(row, 1..8)
            })
            .boxed()
    };
    (rows, shape)
        .prop_map(|(mut rows, shape)| {
            for row in &mut rows {
                for (rank, route) in row.iter_mut().enumerate() {
                    route.0 = shape.key(route.0, rank);
                }
            }
            let max_key = rows.iter().flatten().map(|r| r.0).max();
            let nodes = shape.nodes(rows.len(), max_key);
            (rows, nodes, shape.mapped())
        })
        .boxed()
}

/// The model's rows, in order, through the one constructor.
fn flatten(model: &[BTreeMap<u32, RouteInfo>], (h, rungs): &Ladder) -> FlatTables {
    FlatTables::from_rows(model.len(), row_count(model), (*h, rungs), |v, row| {
        row.extend(model[v].iter().map(|(&s, &r)| (NodeId(s), r)));
    })
}

/// Flattens `tables`, followed by empty rows up to `nodes`, over `ladder`
/// and checks every read path — `get`, `est`, `cursor`, `row_iter`,
/// `row_routes`, `resolve_entries` — on the built table and on its arena
/// reload against the per-node `BTreeMap` model (a later duplicate source
/// overrides an earlier one), probing every stored key, both its
/// neighbours, ids at and past `nodes` and `probes`; that the table has
/// a source map exactly when the rows name a proper subset of
/// `0..nodes` (the members' ids, increasing, and each node's rank); that
/// the
/// rows `row_routes` hands back rebuild the same table; that the arena
/// reload re-saves byte-identically; that the field widths are the ones
/// the rows need (the widest port and hop count, unless those two pass 32
/// bits with the level: then an even split of the bits the level leaves,
/// and only then an escape); that a key takes the bytes its count needs
/// (the members', the nodes', or 4 for node ids past the node count); and
/// that the records take exactly `w` bytes a direct slot and `kb + w` a
/// keyed one, so the table is no larger than that plus its fixed
/// sections and its map.
/// Returns the word bytes `w`, the escaped slots and whether the table
/// maps.
fn check_against_model(
    tables: &[Vec<RouteRow>],
    nodes: usize,
    ladder: &Ladder,
    probes: &[(u32, u32)],
) -> Result<(usize, usize, bool), TestCaseError> {
    let rungs = &ladder.1;
    let empty = vec![Vec::new(); nodes - tables.len()];
    let model: Vec<BTreeMap<u32, RouteInfo>> = tables
        .iter()
        .chain(&empty)
        .map(|rows| {
            rows.iter()
                .map(|&(src, hops, port, level)| {
                    let level = level % rungs.len() as u32;
                    let est = hops * rungs[level as usize];
                    (src, RouteInfo { est, port, level })
                })
                .collect()
        })
        .collect();
    let flat = flatten(&model, ladder);
    prop_assert_eq!(flat.len_nodes(), model.len());

    // The arena codec hands back the same table, and re-saving the
    // loaded views is a byte passthrough.
    let saved = arena_bytes(|a| flat.write_arena(a));
    let reader = ArenaReader::parse(SharedBytes::from_vec(saved.clone())).unwrap();
    let mut cursor = reader.cursor();
    let loaded = FlatTables::read_arena(&mut cursor).unwrap();
    cursor.expect_end().unwrap();
    prop_assert_eq!(&flat, &loaded);
    prop_assert_eq!(&saved, &arena_bytes(|a| loaded.write_arena(a)));

    // Starts, records, row words, ladder, escape indices and values,
    // members and ranks. The map is there exactly when the rows name a
    // proper subset of the nodes: then a key is a rank among the members.
    let sections = sections(&flat);
    // Ranks take the bytes that hold the member count, which is their
    // all-ones sentinel at most.
    let members: BTreeSet<u32> = model.iter().flat_map(BTreeMap::keys).copied().collect();
    let past = members.iter().any(|&s| s as usize >= nodes);
    let mapped = members.len() < nodes && !past;
    let members: Vec<u32> = members.into_iter().collect();
    let rb = [1, 2, 4]
        .into_iter()
        .find(|&b| members.len() < 1 << (8 * b))
        .unwrap();
    let ranks: Vec<u32> = (0..nodes as u32)
        .map(|v| members.binary_search(&v).map_or(u32::MAX, |r| r as u32))
        .collect();
    let u32s = |xs: &[u32]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let narrow = |xs: &[u32]| {
        xs.iter()
            .flat_map(|x| x.to_le_bytes()[..rb].to_vec())
            .collect()
    };
    match mapped {
        true => prop_assert_eq!(&sections[6..], &[u32s(&members), narrow(&ranks)]),
        false => prop_assert!(sections[6].is_empty() && sections[7].is_empty()),
    }
    let (key, id) = (
        |s: u32| if mapped { ranks[s as usize] } else { s },
        |k: u32| if mapped { members[k as usize] } else { k },
    );
    let direct: usize = (0..model.len())
        .filter(|&v| get_u64(&sections[2], v) as u32 & 0xC000_0000 == 0xC000_0000)
        .map(|v| flat.row_range(NodeId(v as u32)).len())
        .sum();
    let keyed = flat.len_entries() - direct;
    let widths = get_u64(&sections[3], 0);
    let (pb, hb, lb) = (widths & 0xFF, widths >> 8 & 0xFF, widths >> 16 & 0xFF);
    let keys = match (past, mapped) {
        (true, _) => 1 << 32,
        (false, true) => members.len(),
        (false, false) => nodes,
    };
    let kb = [1, 2, 4]
        .into_iter()
        .find(|&b| keys <= 1 << (8 * b))
        .unwrap_or(4);
    prop_assert_eq!(widths >> 24, kb as u64);
    let bits = |x: u64| u64::from(u64::BITS - x.leading_zeros());
    let routes = || model.iter().flat_map(BTreeMap::values);
    let widest_port = bits(routes().map(|r| u64::from(r.port)).max().unwrap_or(0) + 1);
    let hops = routes().map(|r| r.est / rungs[r.level as usize]);
    let widest_hops = bits(hops.max().unwrap_or(0) + 1);
    let escaped = sections[4].len() / 4;
    prop_assert_eq!(lb, bits(rungs.len() as u64 - 1));
    if lb + widest_port + widest_hops <= 32 {
        prop_assert_eq!((pb, hb, escaped), (widest_port, widest_hops, 0));
    } else {
        prop_assert_eq!((pb, hb), ((32 - lb) / 2, (33 - lb) / 2));
        prop_assert!(escaped > 0);
    }
    let w = (pb + hb + lb).div_ceil(8) as usize;
    prop_assert_eq!(sections[1].len(), w * direct + (kb + w) * keyed + 8 - w);
    let map = (4 * members.len() + rb * nodes) * usize::from(mapped);
    let fixed = 12 * (model.len() + 1) + 8 * (rungs.len() + 2) + 12 * escaped + 8 - w + map;
    let framing = 8 + 16 * sections.len() + 8 * sections.len() + 8;
    prop_assert!(
        saved.len() <= w * direct + (kb + w) * keyed + fixed + framing,
        "{} bytes for {} keyed and {} direct slots of {} bytes",
        saved.len(),
        keyed,
        direct,
        w
    );

    // Every source fits a small dense index unless a key shape spreads
    // them over the id space.
    let max_src = model.iter().flat_map(BTreeMap::keys).max().copied();
    let small = max_src
        .filter(|&m| m < 1 << 16)
        .map(|m| DenseIndex::new(m as usize + 1, &[]));
    for t in [&flat, &loaded] {
        let resolved = small.as_ref().map(|index| resolve_entries(t, index));
        // Stored keys, their neighbours (non-members in a mapped table
        // whose keys are not consecutive) and ids at and past `nodes`.
        let stored = model.iter().enumerate().flat_map(|(v, table)| {
            table
                .keys()
                .flat_map(move |s| [(v as u32, s.wrapping_sub(1)), (v as u32, *s)])
                .chain(table.keys().map(move |s| (v as u32, s.wrapping_add(1))))
        });
        let past = (0..tables.len() as u32)
            .flat_map(|v| [nodes as u32, nodes as u32 + 1, u32::MAX].map(|s| (v, s)));
        for (v, s) in stored.chain(past).chain(probes.iter().copied()) {
            let v = NodeId(v % model.len() as u32);
            let want = model[v.index()].get(&s);
            let got = t.get(v, NodeId(s));
            prop_assert_eq!(
                want.map(|r| (r.est, r.port)),
                got.map(|e| (e.est, e.port)),
                "({}, {})",
                v,
                s
            );
            prop_assert_eq!(
                want.map(|r| r.est),
                t.est(v, NodeId(s)),
                "est ({}, {})",
                v,
                s
            );
            let row = t.cursor(v);
            prop_assert_eq!(row.get(NodeId(s)), got, "cursor ({}, {})", v, s);
            prop_assert_eq!(row.est(NodeId(s)), want.map(|r| r.est));
        }
        // Rows enumerate exactly the model's entries, sorted by source.
        for (v, table) in model.iter().enumerate() {
            let v = NodeId(v as u32);
            // The level comes back out of the code with the rest of the row.
            let routes: Vec<(u32, RouteInfo)> = t.row_routes(v).map(|(s, r)| (s.0, r)).collect();
            let want: Vec<(u32, RouteInfo)> = table.iter().map(|(&s, &r)| (s, r)).collect();
            prop_assert_eq!(routes, want);
            let row: Vec<_> = t.row_iter(v).collect();
            prop_assert_eq!(row.len(), table.len());
            prop_assert!(row.windows(2).all(|w| w[0].src < w[1].src));
            for e in &row {
                let want = &table[&e.src];
                prop_assert_eq!((e.est, e.port), (want.est, want.port));
            }
            // One slot per keyed entry or per key offset of a direct
            // row: `resolve_entries` reads every slot (`INF` in a hole),
            // `row_iter` only the stored ones.
            let range = t.row_range(v);
            let slots: Vec<u64> = if range.len() == table.len() {
                row.iter().map(|e| e.est).collect()
            } else {
                let lo = key(*table.keys().next().unwrap());
                (lo..)
                    .take(range.len())
                    .map(|k| table.get(&id(k)).map_or(INF, |r| r.est))
                    .collect()
            };
            if let Some(resolved) = &resolved {
                let ests: Vec<u64> = resolved[range].iter().map(|r| r.1).collect();
                prop_assert_eq!(ests, slots);
            }
        }
        // Unflattened, the rows rebuild the table they came from.
        let again = FlatTables::from_rows(
            t.len_nodes(),
            row_count(&model),
            (ladder.0, rungs),
            |v, row| row.extend(t.row_routes(NodeId(v as u32))),
        );
        prop_assert_eq!(&again, &flat);
    }
    Ok((w, escaped, mapped))
}

/// Entries across all rows of the model.
fn row_count(model: &[BTreeMap<u32, RouteInfo>]) -> usize {
    model.iter().map(BTreeMap::len).sum()
}

/// What `write` emits, as a finished arena container.
fn arena_bytes(write: impl FnOnce(&mut ArenaWriter)) -> Vec<u8> {
    let mut a = ArenaWriter::new();
    write(&mut a);
    let mut buf = Vec::new();
    a.finish(&mut buf).unwrap();
    buf
}

fn get_u64(section: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(section[8 * i..8 * i + 8].try_into().unwrap())
}

/// The rung ladder of ε = 0.25 over weights up to 32: 14 rungs.
fn ladder_32() -> Ladder {
    let rungs = vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 22, 27];
    (241, rungs)
}

/// A row no fit describes: 70 000 consecutive ids and one at the far end
/// of the key space put the residuals past `u16`, so the row stores
/// `win = 0` (pinned by `pde_core::tables`' `fits_are_measured_per_row`)
/// and every probe of it is a whole-row binary search. A 17-bit port and
/// a 30-bit hop count ride along: together with the level they pass 32
/// bits, so each field gets 15 of the 30 bits the level leaves and both
/// values take the escape.
#[test]
fn row_without_a_usable_fit_agrees_with_model() {
    let ladder = (u64::from(u32::MAX), vec![1, 2, 3]);
    let wide = [
        (7, 3, 1 << 16, 2),
        (69_999, (1 << 30) - 1, 0, 0),
        (500, 3, 1, 1),
    ];
    let row: Vec<RouteRow> = (0..70_000)
        .chain([u32::MAX - 1])
        .map(|s| (s, u64::from(s % 977), s % 4, s % 3))
        .chain(wide)
        .collect();
    let tables = [row, (0..20).map(|s| (3 * s, 5, 0, 0)).collect()];
    let probes = [(0, 70_000), (0, 1 << 31), (0, u32::MAX), (1, 70_000)];
    let (w, escapes, mapped) = check_against_model(&tables, 2, &ladder, &probes).unwrap();
    assert!(!mapped, "sources past the node count keep node ids as keys");
    assert_eq!(
        (w, escapes),
        (4, 2),
        "the 17-bit port and the 30-bit hop count escape"
    );
}

/// Every word width and the escape, each from rows of one shape: ports
/// below `port`, hop counts below `hops` and 14 rungs (4 level bits), so
/// `w` is 1 (2 + 2 + 4 bits), 2 (5 + 7 + 4: the benchmark tables' widths),
/// 3 (7 + 7 + 4, a hub's ports), 4 (11 + 17 + 4) and, past 32 bits, 4 with
/// some values escaped.
#[test]
fn every_word_width_and_the_escape_agree_with_model() {
    let ladder = (u64::from(u32::MAX), ladder_32().1);
    for (port, hops, w, escaped) in [
        (3, 3, 1, false),
        (19, 92, 2, false),
        (64, 92, 3, false),
        (1 << 10, 1 << 16, 4, false),
        (1 << 20, 1 << 20, 4, true),
    ] {
        let row = |v: u32, len: u32| -> Vec<RouteRow> {
            (0..len)
                .map(|s| {
                    (
                        s * (1 + v % 3),
                        u64::from(s * 7919 % hops),
                        s * 31 % port,
                        s % 14,
                    )
                })
                .chain([(len * 4, u64::from(hops - 1), port - 1, 13)])
                .collect()
        };
        let tables: Vec<Vec<RouteRow>> = (0..6).map(|v| row(v, 40 * v)).collect();
        let probes = [(1, 3), (4, 160), (5, 1 << 20)];
        let got = check_against_model(&tables, tables.len(), &ladder, &probes).unwrap();
        assert_eq!(
            (got.0, got.1 > 0),
            (w, escaped),
            "ports < {port}, hops < {hops}"
        );
    }
}

/// Rows of `(source, hops = source % 16)` routes on port 0, level 1.
fn model_of(rows: &[Vec<u32>]) -> Vec<BTreeMap<u32, RouteInfo>> {
    let route = |s: u32| {
        let r = RouteInfo {
            est: u64::from(s % 16) * 2,
            port: 0,
            level: 1,
        };
        (s, r)
    };
    rows.iter()
        .map(|row| row.iter().map(|&s| route(s)).collect())
        .collect()
}

/// The sections of `flat`'s arena, in write order.
fn sections(flat: &FlatTables) -> Vec<Vec<u8>> {
    let reader = ArenaReader::parse(SharedBytes::from_vec(arena_bytes(|a| flat.write_arena(a))));
    let reader = reader.unwrap();
    (0..reader.sections())
        .map(|i| reader.section(i).unwrap().to_vec())
        .collect()
}

/// The direct layout's size contract: one 2-byte word per slot (port,
/// hops and level packed) plus one row word per row — a key, an index, a
/// separate port or a side section creeping back in would show here
/// first.
#[test]
fn dense_table_costs_at_most_2_1_bytes_per_entry() {
    let flat = flatten(&model_of(&vec![(0..1024).collect(); 1024]), &ladder_32());
    let per_entry = arena_bytes(|a| flat.write_arena(a)).len() as f64 / flat.len_entries() as f64;
    assert!(per_entry <= 2.1, "{per_entry} bytes per entry");
}

/// Rows over every 16th id of 4 096 nodes (offset by the rank mod 16, so
/// hops reach 15), ≈ 220 of the 256 sources each as in the partial
/// regime, go direct over source ranks: every row spans at most 256
/// ranks, so a slot is one 2-byte word and the table costs at most 2.1
/// bytes a slot plus its source map — and every section is exactly what
/// the direct encoding writes: offset words `0xC000_0000 | lo` beside the
/// direct slots before each row, `word u16` slots with the all-ones word
/// in each hole and the tail padding, the widths and the ladder, no
/// escapes, the members' ids and each node's rank — at 2 bytes, since
/// 256 ranks leave no room in one for the non-members' all-ones
/// sentinel.
#[test]
fn strided_rows_go_direct_over_source_ranks() {
    let (n, sources) = (4096u32, 256u32);
    let id = |i: u32| 16 * i + i % 16;
    let ranks: Vec<Vec<u32>> = (0..n)
        .map(|v| (0..sources).filter(|i| (i + v) % 7 != 0).collect())
        .collect();
    let rows: Vec<Vec<u32>> = ranks
        .iter()
        .map(|r| r.iter().map(|&i| id(i)).collect())
        .collect();
    let model = model_of(&rows);
    let ladder = ladder_32();
    let flat = flatten(&model, &ladder);
    let slots = flat.len_entries();
    let bytes = arena_bytes(|a| flat.write_arena(a)).len();
    let map = (4 * sources + 2 * n) as usize + 2 * 16;
    assert!(
        bytes as f64 <= 2.1 * slots as f64 + map as f64,
        "{bytes} bytes, {slots} slots"
    );

    // Port 0 (1 bit), hops below 16 (5 bits) and 14 rungs (4 bits): a
    // 2-byte word `hops << 4 | level`, `0x3FF` all ones.
    let mut want: [Vec<u8>; 8] = Default::default();
    want[0].extend(0u32.to_le_bytes());
    let mut before = 0u64;
    for (row, keys) in model.iter().zip(&ranks) {
        let (lo, hi) = (keys[0], keys[keys.len() - 1]);
        want[2].extend((0xC000_0000 | u64::from(lo) | before << 32).to_le_bytes());
        for rank in lo..=hi {
            let word = row
                .get(&id(rank))
                .map_or(0x3FF, |r| (r.est / 2) << 4 | u64::from(r.level));
            want[1].extend(&word.to_le_bytes()[..2]);
        }
        before += u64::from(hi - lo + 1);
        want[0].extend((before as u32).to_le_bytes());
    }
    assert_eq!(before as usize, slots);
    assert!(slots <= 256 * n as usize);
    want[1].extend([0; 6]);
    let widths = 1 | 5 << 8 | 4 << 16 | 1 << 24;
    want[3] = [widths, ladder.0]
        .iter()
        .chain(&ladder.1)
        .flat_map(|w| w.to_le_bytes())
        .collect();
    want[6] = (0..sources).flat_map(|i| id(i).to_le_bytes()).collect();
    want[7] = (0..n)
        .flat_map(|v| match v % 16 == v / 16 % 16 {
            true => (v as u16 / 16).to_le_bytes(),
            false => u16::MAX.to_le_bytes(),
        })
        .collect();
    assert_eq!(sections(&flat), want);
}

/// At the byte rule's boundary a row takes the smaller form: at 2-byte
/// words (hops up to 15) 7 entries cost 42 bytes keyed and `2 · span`
/// direct, so spans 20 and 21 are direct (one slot per id) and 22 is
/// keyed. Either way 6 bytes of tail padding follow.
#[test]
fn rows_at_the_boundary_take_the_smaller_form() {
    for span in [20u32, 21, 22] {
        let flat = flatten(
            &model_of(&[(10..16).chain([9 + span]).collect()]),
            &ladder_32(),
        );
        let direct = span * 2 <= 7 * 6;
        assert_eq!(flat.len_entries(), if direct { span } else { 7 } as usize);
        let records = sections(&flat)[1].len();
        assert_eq!(records as u32, (2 * span).min(7 * 6) + 6, "span {span}");
    }
}

/// Builds a PDE oracle over `g` at `eps` and returns the word bytes `w`
/// of its route table, after checking that the records take exactly `w`
/// bytes a direct slot and `kb + w` a keyed one with no escape, that every
/// pair is answered within Definition 2.2 of exact APSP, and that the
/// artifact reloads and re-saves byte-identically and answers and routes
/// as built.
fn real_build_word_bytes(g: &WGraph, eps: f64) -> usize {
    let oracle = OracleBuilder::new(Backend::Pde).eps(eps).build(g);
    let bytes = oracle.artifact_bytes();
    // A PDE arena ends with its table: starts, records, row words, ladder
    // (after its widths word), the escape pair and the source map, after
    // the 40-byte snapshot header.
    let reader = ArenaReader::parse(SharedBytes::from_vec(bytes[40..].to_vec())).unwrap();
    let section = |back: usize| reader.section(reader.sections() - back).unwrap();
    let (starts, records, words) = (section(8), section(7), section(6));
    let widths = get_u64(section(5), 0);
    let w = ((widths & 0xFF) + (widths >> 8 & 0xFF) + (widths >> 16 & 0xFF)).div_ceil(8) as usize;
    let kb = (widths >> 24) as usize;
    let slots = u32::from_le_bytes(starts[starts.len() - 4..].try_into().unwrap()) as usize;
    let keyed: usize = (0..g.len())
        .filter(|&v| get_u64(words, v) as u32 & 0xC000_0000 != 0xC000_0000)
        .map(|v| {
            let start = |v: usize| u32::from_le_bytes(starts[4 * v..4 * v + 4].try_into().unwrap());
            (start(v + 1) - start(v)) as usize
        })
        .sum();
    assert_eq!(
        records.len(),
        w * slots + kb * keyed + 8 - w,
        "{w}-byte words"
    );
    assert!(section(4).is_empty(), "a real build took the escape");
    assert!(
        section(2).is_empty() && section(1).is_empty(),
        "full coverage keeps node ids as keys"
    );

    let exact = algo::apsp(g);
    let loaded = Oracle::load_bytes(&bytes).unwrap();
    assert_eq!(loaded.artifact_bytes(), bytes);
    for u in g.nodes() {
        for v in g.nodes() {
            let (wd, est) = (exact.dist(u, v), oracle.estimate(u, v));
            assert!(
                wd <= est && est as f64 <= (1.0 + eps) * wd as f64,
                "({u}, {v}): {est} vs {wd}"
            );
            assert_eq!(loaded.estimate(u, v), est);
            assert_eq!(loaded.next_hop(u, v), oracle.next_hop(u, v));
        }
    }
    w
}

/// A real build whose hop counts need wide words: at ε = 0.1 over
/// weights up to 5000 the ladder has 7 level bits and full coverage of
/// 64 nodes puts `h′` at 2113, so the hops field takes about 11 bits and
/// a word 3 bytes.
#[test]
fn wide_codes_from_a_real_build_answer_exactly_and_resave() {
    let mut rng = Seed(3).rng();
    let g = gen::gnp_connected(64, 0.08, Weights::Uniform { lo: 1, hi: 5000 }, &mut rng);
    assert_eq!(real_build_word_bytes(&g, 0.1), 3);
}

/// A real build with a hub: node 0 joined to 96 of 160 nodes over
/// weights 1 to 32, so its row routes through ports past 63 and the port
/// field alone takes 7 bits or more — with the hops and the level, at
/// least a 3-byte word, where the benchmark's tables take 2.
#[test]
fn a_hub_widens_the_words_of_a_real_build() {
    let mut rng = Seed(17).rng();
    let weights = Weights::Uniform { lo: 1, hi: 32 };
    let base = gen::gnp_connected(160, 0.02, weights, &mut rng);
    let mut edges = base.edges().to_vec();
    let linked: Vec<u32> = base.neighbors(NodeId(0)).map(|(x, _)| x.0).collect();
    for v in (1..160).filter(|v| v % 5 < 3 && !linked.contains(v)) {
        edges.push((0, v, weights.sample(&mut rng)));
    }
    let g = WGraph::from_edges(160, &edges).unwrap();
    assert!(g.degree(NodeId(0)) >= 64);
    assert!(real_build_word_bytes(&g, 0.25) >= 3);
}

/// The constructor's preconditions are checked in release builds too:
/// the fit and every probe assume strictly increasing sources, and every
/// estimate must be whole hops on its rung.
#[test]
fn unsorted_or_duplicate_source_rows_panic_in_the_constructor() {
    let (est, port, level) = (2, 0, 1);
    let route = RouteInfo { est, port, level };
    let ladder = ladder_32();
    for srcs in [[5u32, 3], [4, 4]] {
        let built = std::panic::catch_unwind(|| {
            FlatTables::from_rows(1, 2, (ladder.0, &ladder.1), |_, row| {
                row.extend(srcs.map(|s| (NodeId(s), route)))
            })
        });
        assert!(built.is_err(), "{srcs:?} was accepted");
    }
    for off in [
        RouteInfo { est: 3, ..route },
        RouteInfo { level: 14, ..route },
    ] {
        let built = std::panic::catch_unwind(|| {
            FlatTables::from_rows(1, 1, (ladder.0, &ladder.1), |_, row| {
                row.push((NodeId(0), off))
            })
        });
        assert!(built.is_err(), "{off:?} was accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense table agrees with the `HashMap` model on every probe,
    /// hits and misses alike.
    #[test]
    fn pair_table_reps_agree_with_hashmap_model(case in pair_entries()) {
        let (k, entries, probes) = case;
        let model: HashMap<(usize, usize), u64> = entries
            .iter()
            .map(|&(r, c, v)| ((r as usize, c as usize), v))
            .collect();
        let table = PairTable::dense(k, &entries);
        prop_assert_eq!(table.iter().count(), entries.len());
        for &(r, c) in &probes {
            prop_assert_eq!(table.get(r, c), model.get(&(r, c)).copied(), "({}, {})", r, c);
        }
        // And over the full (plus one out-of-range rim) key square.
        for r in 0..k + 1 {
            for c in 0..k + 1 {
                prop_assert_eq!(table.get(r, c), model.get(&(r, c)).copied());
            }
        }
    }

    /// The table round-trips through the arena codec byte-identically,
    /// and a hostile meta — the retired sparse form's tag 1, a cell count
    /// other than `k²` — is `InvalidData`, never a panic.
    #[test]
    fn pair_table_round_trips_byte_identically(case in pair_entries()) {
        let (k, entries, _probes) = case;
        let read = |buf: Vec<u8>| {
            let reader = ArenaReader::parse(SharedBytes::from_vec(buf)).unwrap();
            PairTable::read_arena(&mut reader.cursor())
        };
        let table = PairTable::dense(k, &entries);
        let buf = arena_bytes(|a| table.write_arena(a));
        let back = read(buf.clone()).unwrap();
        prop_assert_eq!(&table, &back);
        prop_assert_eq!(buf, arena_bytes(|a| back.write_arena(a)));
        // Iteration agrees with construction.
        let got: Vec<(u32, u32, u64)> = table.iter().collect();
        prop_assert_eq!(got, entries.clone());

        let values: Vec<u64> = (0..k * k)
            .map(|i| table.get(i / k, i % k).unwrap_or(u64::MAX))
            .collect();
        let sparse = arena_bytes(|a| {
            a.u64s(&[1, k as u64]);
            a.u32s(&vec![0; k + 1]);
            a.u32s(&[]);
            a.u64s(&[]);
        });
        let short = arena_bytes(|a| {
            a.u64s(&[0, k as u64]);
            a.u64s(&values[1..]);
        });
        let long = arena_bytes(|a| {
            a.u64s(&[0, k as u64]);
            a.u64s(&[values.as_slice(), &[7]].concat());
        });
        let wider = arena_bytes(|a| {
            a.u64s(&[0, k as u64 + 1]);
            a.u64s(&values);
        });
        let misshapen = arena_bytes(|a| a.u64s(&[0]));
        for (what, buf) in [
            ("sparse", sparse),
            ("short", short),
            ("long", long),
            ("wider", wider),
            ("misshapen", misshapen),
        ] {
            let err = read(buf).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{}: {}", what, err);
        }
    }

    /// Flat per-node route rows agree with the map model they were built
    /// from, across hits and misses, narrow and escaped values, and every
    /// key shape.
    #[test]
    fn flat_tables_agree_with_route_table_model(
        case in prop_oneof![route_rows(false), route_rows(true)],
        ladder in ladders(),
        probes in proptest::collection::vec(((0u32..10), (0u32..6_500)), 60),
    ) {
        let (tables, nodes, mapped) = case;
        let got = check_against_model(&tables, nodes, &ladder, &probes)?;
        if mapped {
            prop_assert!(got.2, "{} rows over {} nodes built no source map", tables.len(), nodes);
        }
    }
}
