//! Adversarial snapshot inputs: truncations at every byte boundary and
//! corrupted length fields must surface as `InvalidData` — typed
//! [`SnapshotError::Truncated`](pde_repro::congest::wire::SnapshotError)
//! for short streams — and never panic or request absurd allocations.
//! Arenas whose checksum was recomputed *after* the damage get no help
//! from it: each hostile table section must still be a typed error or a
//! bounds-checked miss. Files in a retired layout are typed
//! [`SnapshotError::Rebuild`](pde_repro::congest::wire::SnapshotError).

use pde_repro::congest::arena::ArenaWriter;
use pde_repro::congest::wire::{is_truncated, snapshot_cause, SnapshotError};
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{NodeId, Seed, WGraph, INF};
use pde_repro::oracle::{Backend, DistanceOracle, Oracle, OracleBuilder};
use pde_repro::serve::{DynamicOracle, OracleServer, PersistError};

fn graph(seed: u64) -> WGraph {
    let mut rng = Seed(seed).rng();
    gen::gnp_connected(18, 0.22, Weights::Uniform { lo: 1, hi: 9 }, &mut rng)
}

fn snapshots(backend: Backend) -> (Vec<u8>, Vec<u8>) {
    let oracle = OracleBuilder::new(backend).seed(23).k(2).build(&graph(21));
    let mut v2 = Vec::new();
    oracle.save(&mut v2).unwrap();
    let mut v3 = Vec::new();
    oracle.save_v3(&mut v3).unwrap();
    (v2, v3)
}

#[test]
fn every_one_byte_truncation_is_typed_truncated() {
    // Cut one byte at a time off the tail of a small PDOR file, through
    // every record boundary down to the empty stream: each prefix must
    // load as an error, and each error must be the *typed* truncation
    // (not a raw UnexpectedEof, not a misdiagnosed corruption). The v2
    // stream of one scheme backend and one matrix backend covers every
    // record shape (graphs, CSR tables, trees, labels, matrices); the
    // v3 arena path is swept for the same property.
    for backend in [Backend::Compact, Backend::ApproxApsp] {
        let (v2, v3) = snapshots(backend);
        for bytes in [&v2, &v3] {
            for keep in 0..bytes.len() {
                let err = match Oracle::load(&mut &bytes[..keep]) {
                    Err(e) => e,
                    Ok(_) => panic!("{backend}: truncation to {keep} bytes accepted"),
                };
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{backend} at {keep}: {err}"
                );
                assert!(
                    is_truncated(&err),
                    "{backend} at {keep}: untyped truncation: {err}"
                );
                assert!(
                    Oracle::load_bytes(&bytes[..keep]).is_err(),
                    "{backend} at {keep}: load_bytes accepted a truncation"
                );
            }
        }
    }
}

#[test]
fn every_single_byte_corruption_errors_or_loads_but_never_panics() {
    // Flip each byte of a full snapshot to 0xFF ^ original: loads may
    // succeed (bytes in unvalidated metric fields) but must never panic,
    // wrap a length into a huge allocation, or loop. The v3 arena is
    // stricter: its checksum means any body/directory damage must fail.
    for backend in [Backend::Rtc, Backend::Flooding] {
        let (v2, v3) = snapshots(backend);
        for at in 0..v2.len() {
            let mut bad = v2.clone();
            bad[at] ^= 0xFF;
            let _ = Oracle::load(&mut &bad[..]);
        }
        // v2 header metric bytes (rounds/msgs/nanos, offsets 15..39) are
        // carried, not validated — everything else must be rejected.
        let v3_header = 4 + 2 + 1 + 1; // magic + version + backend + pad
        let metrics_end = v3_header + 4 * 8;
        for at in 0..v3.len() {
            let mut bad = v3.clone();
            bad[at] ^= 0xFF;
            let loaded = Oracle::load_bytes(&bad);
            if at >= metrics_end {
                assert!(
                    loaded.is_err(),
                    "{backend}: v3 corruption at {at} survived the checksum"
                );
            }
        }
    }
}

#[test]
fn adversarial_length_fields_are_invalid_data_not_aborts() {
    // Plant maximal length/count fields at the front of each payload:
    // the readers must reject them by bound-check (InvalidData) before
    // any allocation sized by the field. The BellmanFord payload leads
    // with its node count, ApproxApsp with ε then the graph's node
    // count — both right after the 39-byte v2 header.
    let (bf_v2, _) = snapshots(Backend::BellmanFord);
    let mut bad = bf_v2.clone();
    bad[39..47].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = Oracle::load(&mut &bad[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(!is_truncated(&err), "bound check misreported as truncation");

    // Huge dense-matrix length prefix inside the payload: the length is
    // validated against the expected cell count.
    let (aps_v2, _) = snapshots(Backend::ApproxApsp);
    // Header (39) + eps (8) precede the graph; corrupt the graph's node
    // count field.
    let mut bad = aps_v2.clone();
    bad[47..55].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    let err = Oracle::load(&mut &bad[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // An adversarial v3 section directory: huge section count.
    let (_, mut v3) = snapshots(Backend::BellmanFord);
    let body_at = 4 + 2 + 1 + 1 + 4 * 8;
    v3[body_at..body_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = Oracle::load_bytes(&v3).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// Fixed v3 header: magic, version, backend, pad, n, three metrics.
const V3_HEADER: usize = 4 + 2 + 1 + 1 + 4 * 8;

/// The sections of a v3 snapshot's arena, copied out in directory order.
fn arena_sections(v3: &[u8]) -> Vec<Vec<u8>> {
    let arena = &v3[V3_HEADER..];
    let word = |at: usize| u64::from_le_bytes(arena[at..at + 8].try_into().unwrap()) as usize;
    let count = word(0);
    let body = 8 + 16 * count;
    (0..count)
        .map(|i| {
            let (off, len) = (word(8 + 16 * i), word(16 + 16 * i));
            arena[body + off..body + off + len].to_vec()
        })
        .collect()
}

/// A snapshot carrying `sections` under `v3`'s header, with a fresh
/// directory and a matching checksum trailer.
fn reassemble(v3: &[u8], sections: &[Vec<u8>]) -> Vec<u8> {
    let mut arena = ArenaWriter::new();
    for section in sections {
        arena.section(section);
    }
    let mut out = v3[..V3_HEADER].to_vec();
    arena.finish(&mut out).unwrap();
    out
}

// A PDE arena ends with its one `FlatTables`: these are the table's
// sections, counted back from the end of the directory.
const STARTS: usize = 9;
const RECS: usize = 8;
const PORTS: usize = 7;
const LEVELS: usize = 6;
const BUCKETS: usize = 5;
const ESC_IDX: usize = 2;
const ESC_VALS: usize = 1;

fn put_u32(section: &mut [u8], i: usize, x: u32) {
    section[4 * i..4 * i + 4].copy_from_slice(&x.to_le_bytes());
}

fn get_u32(section: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(section[4 * i..4 * i + 4].try_into().unwrap())
}

#[test]
fn well_checksummed_hostile_table_sections_are_typed_errors_or_misses() {
    // 40-entry rows take the bucket probe; the heavy twin (weights ≈ 2⁴⁰)
    // puts every entry in the escape sections.
    let pde_v3 = |weights: Weights| {
        let mut rng = Seed(31).rng();
        let g = gen::gnp_connected(40, 0.15, weights, &mut rng);
        let oracle = OracleBuilder::new(Backend::Pde).seed(5).build(&g);
        let mut v3 = Vec::new();
        oracle.save_v3(&mut v3).unwrap();
        (oracle, v3)
    };
    let (oracle, light) = pde_v3(Weights::Uniform { lo: 1, hi: 9 });
    let lo = 1u64 << 40;
    let (_, heavy) = pde_v3(Weights::Uniform { lo, hi: lo + 9 });
    assert_eq!(reassemble(&light, &arena_sections(&light)), light);
    let hostile = |base: &[u8], mutate: &dyn Fn(&mut [Vec<u8>], usize)| {
        let mut sections = arena_sections(base);
        let end = sections.len();
        mutate(&mut sections, end);
        Oracle::load_bytes(&reassemble(base, &sections))
    };
    let rejected = |what: &str, base: &[u8], mutate: &dyn Fn(&mut [Vec<u8>], usize)| {
        let err = match hostile(base, mutate) {
            Err(e) => e,
            Ok(_) => panic!("{what}: accepted"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    };
    let (light_sections, heavy_sections) = (arena_sections(&light), arena_sections(&heavy));
    let entries = light_sections[light_sections.len() - RECS].len() / 8;
    assert!(light_sections[light_sections.len() - ESC_IDX].is_empty());
    let escaped = heavy_sections[heavy_sections.len() - ESC_IDX].len() / 4;
    assert!(
        escaped > entries / 2,
        "heavy weights did not take the escape"
    );

    // Bucket offsets past their rows (one slot, then every slot): the
    // index is not swept at load, so the probe itself must stay in its
    // row — the original answer or a miss, nothing else.
    for every in [false, true] {
        let loaded = hostile(&light, &|s, end| {
            let buckets = &mut s[end - BUCKETS];
            let slots = if every { buckets.len() / 4 } else { 1 };
            for slot in 0..slots {
                put_u32(buckets, slot, u32::MAX - (slots - slot) as u32);
            }
        })
        .expect("bucket slots are bounds-checked per probe, not at load");
        let mut misses = 0;
        for u in (0..40).map(NodeId) {
            for v in (0..40).map(NodeId) {
                let (want, got) = (oracle.estimate(u, v), loaded.estimate(u, v));
                assert!(got == want || got == INF, "({u},{v}): {got} is out of row");
                let hop = loaded.next_hop(u, v);
                assert!(hop == oracle.next_hop(u, v) || hop.is_none(), "({u},{v})");
                misses += usize::from(got != want);
            }
        }
        assert!(misses > 0, "the hostile slots were never probed");
    }

    rejected("row offset past the arena", &light, &|s, end| {
        put_u32(&mut s[end - STARTS], 1, u32::MAX);
    });
    rejected(
        "estimate marker without an escape record",
        &light,
        &|s, end| {
            s[end - RECS][4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        },
    );
    rejected("port marker without an escape record", &light, &|s, end| {
        s[end - PORTS][..2].copy_from_slice(&u16::MAX.to_le_bytes());
    });
    rejected(
        "level marker without an escape record",
        &light,
        &|s, end| {
            s[end - LEVELS][0] = u8::MAX;
        },
    );
    rejected("port at its node's degree", &light, &|s, end| {
        s[end - PORTS][..2].copy_from_slice(&40u16.to_le_bytes());
    });
    rejected(
        "escape record dropped from under its marker",
        &heavy,
        &|s, end| {
            s[end - ESC_IDX].truncate(4 * (escaped - 1));
            s[end - ESC_VALS].truncate(16 * (escaped - 1));
        },
    );
    rejected("escape indices unsorted", &heavy, &|s, end| {
        let idx = &mut s[end - ESC_IDX];
        let (a, b) = (get_u32(idx, 3), get_u32(idx, 4));
        put_u32(idx, 3, b);
        put_u32(idx, 4, a);
    });
    rejected("escape index duplicated", &heavy, &|s, end| {
        let idx = &mut s[end - ESC_IDX];
        let a = get_u32(idx, 3);
        put_u32(idx, 4, a);
    });
    rejected("escape index out of range", &heavy, &|s, end| {
        put_u32(&mut s[end - ESC_IDX], escaped - 1, entries as u32);
    });
    rejected("escape record without a marker", &light, &|s, end| {
        s[end - ESC_IDX].extend_from_slice(&0u32.to_le_bytes());
        s[end - ESC_VALS].extend_from_slice(&[0; 16]);
    });
    for (section, name) in [
        (PORTS, "port"),
        (LEVELS, "level"),
        (ESC_VALS, "escape value"),
    ] {
        rejected(&format!("{name} section one short"), &heavy, &|s, end| {
            let len = s[end - section].len();
            s[end - section].truncate(len - 1);
        });
        rejected(&format!("{name} section one over"), &heavy, &|s, end| {
            s[end - section].push(0);
        });
    }
}

#[test]
fn retired_layouts_are_typed_rebuild_errors() {
    // Tag 1 (hash-table streams) and tag 3 (the arena with 16-byte
    // records) name layouts this binary does not read; both must say
    // "rebuild", typed, whatever follows the header.
    let (_, v3) = snapshots(Backend::Pde);
    for tag in [1u16, 3] {
        let mut old = v3.clone();
        old[4..6].copy_from_slice(&tag.to_le_bytes());
        for loaded in [Oracle::load(&mut &old[..]), Oracle::load_bytes(&old)] {
            let Err(err) = loaded else {
                panic!("a tag-{tag} file was loaded");
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(
                snapshot_cause(&err),
                Some(SnapshotError::Rebuild { version: tag }),
                "{err}"
            );
        }
    }

    // A checkpoint left behind by a binary that wrote tag-3 snapshots:
    // recovery surfaces the same typed error instead of panicking.
    let dir = std::env::temp_dir().join(format!("pde-old-layout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = OracleServer::new();
    let builder = OracleBuilder::new(Backend::Pde);
    drop(
        DynamicOracle::install_persistent(&server, "old", builder.clone(), &graph(21), &dir)
            .unwrap(),
    );
    let ckpt = dir.join("old.ckpt");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let at = bytes.windows(4).position(|w| w == b"PDOR").unwrap();
    assert_eq!(bytes[at + 4..at + 6], 4u16.to_le_bytes());
    bytes[at + 4..at + 6].copy_from_slice(&3u16.to_le_bytes());
    std::fs::write(&ckpt, bytes).unwrap();
    let err = match DynamicOracle::recover(&OracleServer::new(), "old", builder, &dir) {
        Err(PersistError::Io(e)) => e,
        Err(other) => panic!("untyped recovery failure: {other}"),
        Ok(_) => panic!("an old-layout checkpoint was recovered"),
    };
    assert_eq!(
        snapshot_cause(&err),
        Some(SnapshotError::Rebuild { version: 3 })
    );
    let _ = std::fs::remove_dir_all(&dir);
}
