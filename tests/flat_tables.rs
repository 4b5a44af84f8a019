//! Property-based tests for the flat SoA tables every scheme builds and
//! serves (`pde_core::tables`): dense and CSR [`PairTable`] lookups must
//! agree with a `HashMap` model across random probes — including misses
//! and out-of-range keys — and [`FlatTables`] lookups with a per-node
//! `BTreeMap` model — including values that take the narrow layout's
//! escape and the marker values themselves, in keyed and direct rows —
//! with byte-identical round-trips through the arena codec.

use pde_repro::congest::arena::{ArenaReader, ArenaWriter, SharedBytes};
use pde_repro::graphs::{NodeId, INF};
use pde_repro::pde_core::tables::{FlatTables, PairTable};
use pde_repro::pde_core::RouteInfo;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

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

/// One generated route: `(src, est, port, level)`.
type RouteRow = (u32, u64, u32, u32);

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
    /// Even ids near 0, odd ids near 2³⁰.
    Clusters,
    /// The drawn ids, with the row's first entry moved to `u32::MAX − 1`.
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
            KeyShape::Clusters => ((id % 2) << 30) | (id / 2),
            KeyShape::Outlier if rank == 0 => u32::MAX - 1,
            KeyShape::Outlier => id,
        }
    }
}

/// Per-node rows of routes. The narrow class is what
/// the builders produce in the paper's regime (short rows, small
/// values). The wide class mixes in every way a value can leave its
/// stored field — `est ≥ 2³²`, `port ≥ 2¹⁶`, `level ≥ 2⁸`, and the
/// all-ones markers with their predecessors — over rows long enough to
/// leave the small-row scan, and, in the clustered shapes, the swept
/// window for the binary search. Every class comes in every key shape.
fn route_rows(wide: bool) -> BoxedStrategy<Vec<Vec<RouteRow>>> {
    let shape = prop_oneof![
        Just(KeyShape::Uniform),
        Just(KeyShape::Dense),
        Just(KeyShape::DenseWithHoles),
        Just(KeyShape::Strided),
        Just(KeyShape::Clusters),
        Just(KeyShape::Outlier),
    ];
    let rows = if !wide {
        let row = proptest::collection::vec(((0u32..30), 0u64..1_000, (0u32..4), (0u32..3)), 0..12);
        proptest::collection::vec(row, 1..8).boxed()
    } else {
        let est = prop_oneof![
            0u64..1_000,
            Just(u64::from(u32::MAX) - 1),
            Just(u64::from(u32::MAX)),
            (1u64 << 32)..(1u64 << 41),
            Just(u64::MAX),
        ];
        let port = prop_oneof![
            0u32..4,
            Just(u32::from(u16::MAX) - 1),
            Just(u32::from(u16::MAX)),
            (1u32 << 16)..(1u32 << 20),
        ];
        let level = prop_oneof![
            0u32..3,
            Just(u32::from(u8::MAX) - 1),
            Just(u32::from(u8::MAX)),
            256u32..100_000,
        ];
        let row = proptest::collection::vec(((0u32..400), est, port, level), 0..160);
        proptest::collection::vec(row, 1..8).boxed()
    };
    (rows, shape)
        .prop_map(|(mut rows, shape)| {
            for row in &mut rows {
                for (rank, route) in row.iter_mut().enumerate() {
                    route.0 = shape.key(route.0, rank);
                }
            }
            rows
        })
        .boxed()
}

/// The model's rows, in order, through the one constructor.
fn flatten(model: &[BTreeMap<u32, RouteInfo>]) -> FlatTables {
    FlatTables::from_rows(model.len(), row_count(model), |v, row| {
        row.extend(model[v].iter().map(|(&s, &r)| (NodeId(s), r)));
    })
}

/// Flattens `tables` and checks every read path — `get`, `est`,
/// `cursor`, `row_iter`, `entries_in`, `ests_in`, `row_routes` — on the
/// built table and on its arena reload against the per-node `BTreeMap`
/// model (a later duplicate source overrides an earlier one), probing
/// every stored key, both its neighbours and `probes`; that the rows
/// `row_routes` hands back rebuild the same table; and that the arena
/// reload re-saves byte-identically.
fn check_against_model(
    tables: &[Vec<RouteRow>],
    probes: &[(u32, u32)],
) -> Result<(), TestCaseError> {
    let model: Vec<BTreeMap<u32, RouteInfo>> = tables
        .iter()
        .map(|rows| {
            rows.iter()
                .map(|&(src, est, port, level)| (src, RouteInfo { est, port, level }))
                .collect()
        })
        .collect();
    let flat = flatten(&model);
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

    for t in [&flat, &loaded] {
        let stored = model.iter().enumerate().flat_map(|(v, table)| {
            table
                .keys()
                .flat_map(move |s| [(v as u32, s.wrapping_sub(1)), (v as u32, *s)])
                .chain(table.keys().map(move |s| (v as u32, s.wrapping_add(1))))
        });
        for (v, s) in stored.chain(probes.iter().copied()) {
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
            // The cold level array comes back with the rest of the row.
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
            // One slot per keyed entry or per source offset of a direct
            // row: `ests_in` reads every slot (`INF` in a hole),
            // `entries_in` only the stored ones.
            let range = t.row_range(v);
            prop_assert_eq!(t.entries_in(range.clone()).collect::<Vec<_>>(), row.clone());
            let slots: Vec<u64> = if range.len() == table.len() {
                row.iter().map(|e| e.est).collect()
            } else {
                let lo = *table.keys().next().unwrap();
                (lo..)
                    .take(range.len())
                    .map(|s| table.get(&s).map_or(INF, |r| r.est))
                    .collect()
            };
            prop_assert_eq!(t.ests_in(range).collect::<Vec<_>>(), slots);
        }
        // Unflattened, the rows rebuild the table they came from.
        let again = FlatTables::from_rows(t.len_nodes(), row_count(&model), |v, row| {
            row.extend(t.row_routes(NodeId(v as u32)))
        });
        prop_assert_eq!(&again, &flat);
    }
    Ok(())
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

/// A row no fit describes: 70 000 consecutive ids and one at the far end
/// of the key space put the residuals past `u16`, so the row stores
/// `win = 0` (pinned by `pde_core::tables`' `fits_are_measured_per_row`)
/// and every probe of it is a whole-row binary search. Escaped values
/// ride along.
#[test]
fn row_without_a_usable_fit_agrees_with_model() {
    let wide = [
        (7, 1 << 40, 3, 2),
        (69_999, 12, 1 << 16, 0),
        (500, 3, 1, 256),
    ];
    let row: Vec<RouteRow> = (0..70_000)
        .chain([u32::MAX - 1])
        .map(|s| (s, u64::from(s % 977), s % 4, s % 3))
        .chain(wide)
        .collect();
    let tables = [row, (0..20).map(|s| (3 * s, 5, 0, 0)).collect()];
    let probes = [(0, 70_000), (0, 1 << 31), (0, u32::MAX), (1, 70_000)];
    check_against_model(&tables, &probes).unwrap();
}

/// Rows of `(source, est)` routes on port 0, level 0.
fn model_of(rows: &[Vec<u32>]) -> Vec<BTreeMap<u32, RouteInfo>> {
    let route = |s: u32| {
        let r = RouteInfo {
            est: u64::from(s),
            port: 0,
            level: 0,
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

/// The direct layout's size contract: a 4-byte estimate, a 2-byte port
/// and a 1-byte level per slot plus one word per row — a key or an index
/// creeping back in would show here first.
#[test]
fn dense_table_costs_at_most_7_1_bytes_per_entry() {
    let flat = flatten(&model_of(&vec![(0..1024).collect(); 1024]));
    let per_entry = arena_bytes(|a| flat.write_arena(a)).len() as f64 / flat.len_entries() as f64;
    assert!(per_entry <= 7.1, "{per_entry} bytes per entry");
}

/// Rows over every 16th id, ≈ 220 entries each as in the partial regime,
/// stay keyed: 8 + 2 + 1 bytes per entry, and every section exactly what
/// the keyed encoding writes — `src | est` records, ports, levels and
/// one fit word per row (`mul | lo << 32 | win << 48`, see
/// `pde_core::tables`), no escapes.
#[test]
fn strided_rows_stay_keyed() {
    let rows: Vec<Vec<u32>> = (0..64u32)
        .map(|v| {
            (0..256)
                .filter(|i| (i + v) % 7 != 0)
                .map(|i| 16 * i)
                .collect()
        })
        .collect();
    let model = model_of(&rows);
    let flat = flatten(&model);
    let bytes = arena_bytes(|a| flat.write_arena(a)).len() as f64;
    assert!(bytes / flat.len_entries() as f64 <= 11.1, "{bytes} bytes");

    // Starts, records, ports, levels, fits, and an empty escape pair.
    let mut want: [Vec<u8>; 7] = Default::default();
    want[0].extend(0u32.to_le_bytes());
    for row in &model {
        let mul = ((row.len() as u64) << 31) / (u64::from(*row.keys().last().unwrap()) + 1);
        let residual = |(i, s): (usize, &u32)| i as i64 - ((u64::from(*s) * mul) >> 31) as i64;
        let lo = row.keys().enumerate().map(residual).min().unwrap();
        let hi = row.keys().enumerate().map(residual).max().unwrap();
        let fit = mul | u64::from(lo as i16 as u16) << 32 | ((hi - lo + 1) as u64) << 48;
        want[4].extend(fit.to_le_bytes());
        for (&s, r) in row {
            want[1].extend((u64::from(s) | r.est << 32).to_le_bytes());
            want[2].extend([0, 0]);
            want[3].push(0);
        }
        let end = want[3].len() as u32;
        want[0].extend(end.to_le_bytes());
    }
    assert_eq!(sections(&flat), want);
}

/// At the byte rule's boundary a row takes the smaller form: 7 entries
/// cost 77 bytes keyed and `7 · span` direct, so spans 10 and 11 are
/// direct (one slot per id) and 12 is keyed.
#[test]
fn rows_at_the_boundary_take_the_smaller_form() {
    for span in [10u32, 11, 12] {
        let flat = flatten(&model_of(&[(0..6).chain([span - 1]).collect()]));
        let direct = span * 7 <= 7 * 11;
        assert_eq!(flat.len_entries(), if direct { span } else { 7 } as usize);
        let sections = sections(&flat);
        let slot_bytes = sections[1].len() + sections[2].len() + sections[3].len();
        assert_eq!(slot_bytes as u32, (7 * span).min(7 * 11), "span {span}");
    }
}

/// The constructor's one precondition is checked in release builds too:
/// the fit and every probe assume strictly increasing sources.
#[test]
fn unsorted_or_duplicate_source_rows_panic_in_the_constructor() {
    let (est, port, level) = (1, 0, 0);
    let route = RouteInfo { est, port, level };
    for srcs in [[5u32, 3], [4, 4]] {
        let built = std::panic::catch_unwind(|| {
            FlatTables::from_rows(1, 2, |_, row| row.extend(srcs.map(|s| (NodeId(s), route))))
        });
        assert!(built.is_err(), "{srcs:?} was accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense and CSR representations both agree with the `HashMap` model
    /// on every probe, hits and misses alike.
    #[test]
    fn pair_table_reps_agree_with_hashmap_model(case in pair_entries()) {
        let (k, entries, probes) = case;
        let model: HashMap<(usize, usize), u64> = entries
            .iter()
            .map(|&(r, c, v)| ((r as usize, c as usize), v))
            .collect();
        let dense = PairTable::dense(k, &entries);
        let csr = PairTable::csr(k, &entries);
        let auto = PairTable::auto(k, &entries);
        prop_assert_eq!(dense.len(), entries.len());
        prop_assert_eq!(csr.len(), entries.len());
        for &(r, c) in &probes {
            let want = model.get(&(r, c)).copied();
            prop_assert_eq!(dense.get(r, c), want, "dense ({}, {})", r, c);
            prop_assert_eq!(csr.get(r, c), want, "csr ({}, {})", r, c);
            prop_assert_eq!(auto.get(r, c), want, "auto ({}, {})", r, c);
        }
        // And over the full (plus one out-of-range rim) key square.
        for r in 0..k + 1 {
            for c in 0..k + 1 {
                prop_assert_eq!(dense.get(r, c), model.get(&(r, c)).copied());
                prop_assert_eq!(csr.get(r, c), model.get(&(r, c)).copied());
            }
        }
    }

    /// Both representations round-trip through the arena codec
    /// byte-identically, preserving the representation tag.
    #[test]
    fn pair_table_round_trips_byte_identically(case in pair_entries()) {
        let (k, entries, _probes) = case;
        for table in [PairTable::dense(k, &entries), PairTable::csr(k, &entries)] {
            let buf = arena_bytes(|a| table.write_arena(a));
            let reader = ArenaReader::parse(SharedBytes::from_vec(buf.clone())).unwrap();
            let back = PairTable::read_arena(&mut reader.cursor()).unwrap();
            prop_assert_eq!(&table, &back);
            prop_assert_eq!(buf, arena_bytes(|a| back.write_arena(a)));
            // Iteration agrees with construction.
            let got: Vec<(u32, u32, u64)> = table.iter().collect();
            prop_assert_eq!(got, entries.clone());
        }
    }

    /// Flat per-node route rows agree with the map model they were built
    /// from, across hits and misses, narrow and escaped values, and every
    /// key shape.
    #[test]
    fn flat_tables_agree_with_route_table_model(
        tables in prop_oneof![route_rows(false), route_rows(true)],
        probes in proptest::collection::vec(((0u32..10), (0u32..6_500)), 60),
    ) {
        check_against_model(&tables, &probes)?;
    }
}
