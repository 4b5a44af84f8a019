//! Property-based tests for the flat SoA query tables that replaced the
//! hash maps on every oracle hot path (`pde_core::tables`): dense and CSR
//! [`PairTable`] lookups must agree with a `HashMap` model across random
//! probes — including misses and out-of-range keys — and [`FlatTables`]
//! lookups with a per-node `HashMap` model — including values that take
//! the narrow layout's escape and the marker values themselves — with
//! byte-identical round-trips through the wire and arena codecs.

use pde_repro::congest::arena::{ArenaReader, ArenaWriter, SharedBytes};
use pde_repro::graphs::NodeId;
use pde_repro::pde_core::tables::{FlatTables, PairTable};
use pde_repro::pde_core::{RouteInfo, RouteTable};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// Per-node rows of routes. The narrow class is what
/// the builders produce in the paper's regime (short rows, small
/// values). The wide class mixes in every way a value can leave its
/// stored field — `est ≥ 2³²`, `port ≥ 2¹⁶`, `level ≥ 2⁸`, and the
/// all-ones markers with their predecessors — over rows long enough to
/// take the bucket probe as well as the small-row scan.
fn route_rows(wide: bool) -> BoxedStrategy<Vec<Vec<RouteRow>>> {
    if !wide {
        let row = proptest::collection::vec(((0u32..30), 0u64..1_000, (0u32..4), (0u32..3)), 0..12);
        return proptest::collection::vec(row, 1..8).boxed();
    }
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
    let row = proptest::collection::vec(((0u32..120), est, port, level), 0..48);
    proptest::collection::vec(row, 1..8).boxed()
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

    /// Both representations round-trip through the wire codec
    /// byte-identically, preserving the representation tag.
    #[test]
    fn pair_table_round_trips_byte_identically(case in pair_entries()) {
        let (k, entries, _probes) = case;
        for table in [PairTable::dense(k, &entries), PairTable::csr(k, &entries)] {
            let mut buf = Vec::new();
            table.write_into(&mut buf).unwrap();
            let back = PairTable::read_from(&mut &buf[..]).unwrap();
            prop_assert_eq!(&table, &back);
            let mut buf2 = Vec::new();
            back.write_into(&mut buf2).unwrap();
            prop_assert_eq!(buf, buf2);
            // Iteration agrees with construction.
            let got: Vec<(u32, u32, u64)> = table.iter().collect();
            prop_assert_eq!(got, entries.clone());
        }
    }

    /// Flat per-node route rows agree with the hash tables they were
    /// flattened from, across hits and misses, narrow and escaped values.
    #[test]
    fn flat_tables_agree_with_route_table_model(
        tables in prop_oneof![route_rows(false), route_rows(true)],
        probes in proptest::collection::vec(((0u32..10), (0u32..130)), 60),
    ) {
        let model: Vec<RouteTable> = tables
            .iter()
            .map(|rows| {
                let mut t = RouteTable::default();
                for &(src, est, port, level) in rows {
                    t.insert(NodeId(src), RouteInfo { est, port, level });
                }
                t
            })
            .collect();
        let flat = FlatTables::from_tables(&model);
        prop_assert_eq!(flat.len_nodes(), model.len());

        // The arena codec hands back the same table, and re-saving the
        // loaded views is a byte passthrough.
        let arena_bytes = |t: &FlatTables| {
            let mut a = ArenaWriter::new();
            t.write_arena(&mut a);
            let mut buf = Vec::new();
            a.finish(&mut buf).unwrap();
            buf
        };
        let saved = arena_bytes(&flat);
        let reader = ArenaReader::parse(SharedBytes::from_vec(saved.clone())).unwrap();
        let mut cursor = reader.cursor();
        let loaded = FlatTables::read_arena(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        prop_assert_eq!(&flat, &loaded);
        prop_assert_eq!(&saved, &arena_bytes(&loaded));

        for t in [&flat, &loaded] {
            for &(v, s) in &probes {
                let v = NodeId(v % model.len() as u32);
                let want = model[v.index()].get(&NodeId(s));
                let got = t.get(v, NodeId(s));
                prop_assert_eq!(want.map(|r| (r.est, r.port)),
                    got.map(|e| (e.est, e.port)), "({}, {})", v, s);
                prop_assert_eq!(want.map(|r| r.est), t.est(v, NodeId(s)), "est ({}, {})", v, s);
            }
            // The cold level array round-trips through unflatten.
            prop_assert_eq!(pde_repro::pde_core::tables::unflatten(t), model.clone());
            // Rows enumerate exactly the model's entries, sorted by source.
            for (v, table) in model.iter().enumerate() {
                let v = NodeId(v as u32);
                let row = t.row_vec(v);
                prop_assert_eq!(row.len(), table.len());
                prop_assert!(row.windows(2).all(|w| w[0].src < w[1].src));
                for e in &row {
                    let want = &table[&NodeId(e.src)];
                    prop_assert_eq!((e.est, e.port), (want.est, want.port));
                }
                let ests: Vec<u64> = t.ests_in(t.row_range(v)).collect();
                prop_assert_eq!(ests, row.iter().map(|e| e.est).collect::<Vec<_>>());
            }
        }
        // Byte-identical codec round-trip.
        let mut buf = Vec::new();
        flat.write_into(&mut buf).unwrap();
        let back = FlatTables::read_from(&mut &buf[..]).unwrap();
        prop_assert_eq!(&flat, &back);
        let mut buf2 = Vec::new();
        back.write_into(&mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);
    }
}
