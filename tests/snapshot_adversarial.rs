//! Adversarial snapshot inputs: truncations at every byte boundary and
//! corrupted length fields must surface as `InvalidData` — typed
//! [`SnapshotError::Truncated`](pde_repro::congest::wire::SnapshotError)
//! for short streams — and never panic or request absurd allocations.
//! Arenas whose checksum was recomputed *after* the damage get no help
//! from it: each hostile table section — a row fit that does not cover
//! its row, a direct row's word that misplaces it, a half-absent direct
//! slot, a marker without its escape record, a word off the table's rung
//! ladder, field widths that do not fit the word or the ladder, a record
//! section of the wrong length or without its tail padding and a
//! malformed ladder included — and each hostile transit section must
//! still be a typed error (the probe-side clamp
//! behind it, a miss and never a panic for a table that skipped
//! `validate`, is pinned by `pde_core::tables`' unit tests). Files in a
//! retired layout are typed
//! [`SnapshotError::Rebuild`](pde_repro::congest::wire::SnapshotError).

use pde_repro::congest::arena::ArenaWriter;
use pde_repro::congest::wire::{is_truncated, snapshot_cause, SnapshotError};
use pde_repro::graphs::gen::{self, Weights};
use pde_repro::graphs::{GraphDelta, NodeId, Seed, WGraph};
use pde_repro::net::{Client, NetServer, ServerConfig, WireError};
use pde_repro::oracle::{is_covered, Backend, DistanceOracle, Oracle, OracleBuilder, TracedRoute};
use pde_repro::serve::{DynamicOracle, OracleServer, PersistError};
use std::sync::Arc;

fn graph(seed: u64) -> WGraph {
    let mut rng = Seed(seed).rng();
    gen::gnp_connected(18, 0.22, Weights::Uniform { lo: 1, hi: 9 }, &mut rng)
}

fn snapshot(backend: Backend) -> Vec<u8> {
    save(&OracleBuilder::new(backend).seed(23).k(2).build(&graph(21)))
}

/// A partial PDE over every third node at σ = 1: its route table keys
/// rows by rank among those 6 sources, so it carries a source map.
fn partial_snapshot() -> Vec<u8> {
    let sources = (0..18).map(|v| v % 3 == 0).collect();
    let builder = OracleBuilder::new(Backend::Pde).seed(23).sigma(1);
    save(&builder.sources(sources).build(&graph(21)))
}

fn save(oracle: &Oracle) -> Vec<u8> {
    let mut snap = Vec::new();
    oracle.save(&mut snap).unwrap();
    snap
}

#[test]
fn every_one_byte_truncation_is_typed_truncated() {
    // Cut one byte at a time off the tail of a small PDOR file, through
    // the header, the directory and every section boundary down to the
    // empty stream: each prefix must load as an error, and each error
    // must be the *typed* truncation (not a raw UnexpectedEof, not a
    // misdiagnosed corruption). A scheme backend, the exact route table,
    // a partial route table and RTC's long-range matrices cover every
    // section shape (graphs, CSR tables, embedded tree streams, labels,
    // flooding's one-rung table, the partial table's source map and RTC's
    // n × |skeleton| long-range sections).
    let snaps = [Backend::Compact, Backend::Flooding, Backend::Rtc]
        .map(|backend| (backend.to_string(), snapshot(backend)));
    for (backend, bytes) in snaps
        .into_iter()
        .chain([("pde_partial".into(), partial_snapshot())])
    {
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

#[test]
fn every_single_byte_corruption_errors_or_loads_but_never_panics() {
    // Flip each byte of a full snapshot to 0xFF ^ original: the load must
    // never panic, wrap a length into a huge allocation, or loop. Header
    // metric bytes (n/rounds/msgs/nanos, offsets 8..40) are carried, not
    // validated; past them the arena's checksum means any directory or
    // body damage must fail. Flooding's arena is a route table, the
    // partial build's one with a source map, RTC's holds n × |skeleton|
    // matrices and truncated's nests a compact arena below its upper
    // sections.
    let snaps = [Backend::Rtc, Backend::Flooding, Backend::Truncated]
        .map(|backend| (backend.to_string(), snapshot(backend)));
    for (backend, snap) in snaps
        .into_iter()
        .chain([("pde_partial".into(), partial_snapshot())])
    {
        for at in 0..snap.len() {
            let mut bad = snap.clone();
            bad[at] ^= 0xFF;
            let streamed = Oracle::load(&mut &bad[..]);
            let loaded = Oracle::load_bytes(&bad);
            assert_eq!(streamed.is_err(), loaded.is_err(), "{backend} at {at}");
            if at >= HEADER {
                assert!(
                    loaded.is_err(),
                    "{backend}: corruption at {at} survived the checksum"
                );
            }
        }
    }
}

#[test]
fn adversarial_length_fields_are_invalid_data_not_aborts() {
    // Plant maximal length/count fields where the readers size things
    // from them, under a recomputed checksum: each must be rejected by
    // bound-check (InvalidData) before any allocation sized by the
    // field. Compact's fifth section is the scheme's `[k]` meta, which
    // sizes its n × (k−1) pivot sections (after the oracle's `[k, eps]`
    // and the topology's three sections); ApproxApsp's (the PDE
    // layout's) second section is the graph's `[n]`.
    let planted = |backend: Backend, section: usize, value: u64| {
        let snap = snapshot(backend);
        let mut sections = arena_sections(&snap);
        sections[section][..8].copy_from_slice(&value.to_le_bytes());
        let err = Oracle::load(&mut &reassemble(&snap, &sections)[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!is_truncated(&err), "bound check misreported as truncation");
    };
    planted(Backend::Compact, 4, u64::MAX);
    planted(Backend::ApproxApsp, 1, u64::MAX / 2);

    // An adversarial section directory: huge section count.
    let mut snap = snapshot(Backend::Flooding);
    snap[HEADER..HEADER + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = Oracle::load_bytes(&snap).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn pre_fold_approx_apsp_arenas_are_invalid_data() {
    // Before approx_apsp shared the PDE layout, its tag-5 arena was an
    // `[eps]` meta section, the graph's three sections, an n × n `u64`
    // distance matrix, then the routing table. Such a file must be a
    // typed InvalidData — not a truncation, not a mis-load, not a panic.
    let snap = snapshot(Backend::ApproxApsp);
    let oracle = Oracle::load_bytes(&snap).unwrap();
    let n = graph(21).len() as u32;
    let matrix: Vec<u8> = (0..n)
        .flat_map(|u| (0..n).map(move |v| (NodeId(u), NodeId(v))))
        .flat_map(|(u, v)| oracle.estimate(u, v).to_le_bytes())
        .collect();
    let mut sections = arena_sections(&snap);
    sections[0].truncate(8);
    sections.insert(4, matrix);
    let old = reassemble(&snap, &sections);
    for loaded in [Oracle::load(&mut &old[..]), Oracle::load_bytes(&old)] {
        let Err(err) = loaded else {
            panic!("a pre-fold approx_apsp arena was loaded");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(!is_truncated(&err), "misreported as truncation: {err}");
        assert_eq!(snapshot_cause(&err), None, "{err}");
    }
}

#[test]
fn pre_fold_flooding_arenas_are_invalid_data() {
    // Before flooding shared the PDE layout, its arena was an `[lsdb]`
    // meta section, the graph's three sections, an n × n `u64` distance
    // matrix and an n × n `u32` first-hop matrix (`u32::MAX` on the
    // diagonal). Such a file, under a recomputed checksum, must be a
    // typed InvalidData — not a truncation, not a mis-load, not a panic.
    let g = graph(21);
    let snap = snapshot(Backend::Flooding);
    let oracle = Oracle::load_bytes(&snap).unwrap();
    let n = g.len() as u32;
    let pairs = || (0..n).flat_map(|u| (0..n).map(move |v| (NodeId(u), NodeId(v))));
    let dist: Vec<u8> = pairs()
        .flat_map(|(u, v)| oracle.estimate(u, v).to_le_bytes())
        .collect();
    let next: Vec<u8> = pairs()
        .flat_map(|(u, v)| {
            oracle
                .next_hop(u, v)
                .map_or(u32::MAX, |h| h.0)
                .to_le_bytes()
        })
        .collect();
    let mut sections = arena_sections(&snap);
    sections.truncate(4);
    sections[0] = (g.num_edges() as u64).to_le_bytes().to_vec();
    sections.extend([dist, next]);
    let old = reassemble(&snap, &sections);
    for loaded in [Oracle::load(&mut &old[..]), Oracle::load_bytes(&old)] {
        let Err(err) = loaded else {
            panic!("a pre-fold flooding arena was loaded");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(!is_truncated(&err), "misreported as truncation: {err}");
        assert_eq!(snapshot_cause(&err), None, "{err}");
    }
}

/// Fixed header: magic, version, backend, pad, n, three metrics.
const HEADER: usize = 4 + 2 + 1 + 1 + 4 * 8;

/// The sections of a snapshot's arena, copied out in directory order.
fn arena_sections(snap: &[u8]) -> Vec<Vec<u8>> {
    let arena = &snap[HEADER..];
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

/// A snapshot carrying `sections` under `snap`'s header, with a fresh
/// directory and a matching checksum trailer.
fn reassemble(snap: &[u8], sections: &[Vec<u8>]) -> Vec<u8> {
    let mut arena = ArenaWriter::new();
    for section in sections {
        arena.section(section);
    }
    let mut out = snap[..HEADER].to_vec();
    arena.finish(&mut out).unwrap();
    out
}

// A PDE arena ends with its one `FlatTables`: these are the table's
// sections, counted back from the end of the directory.
const STARTS: usize = 8;
const RECS: usize = 7;
const WORDS: usize = 6;
const LADDER: usize = 5;
const ESC_IDX: usize = 4;
const ESC_VALS: usize = 3;
const MEMBERS: usize = 2;
const RANKS: usize = 1;

fn put_u32(section: &mut [u8], i: usize, x: u32) {
    section[4 * i..4 * i + 4].copy_from_slice(&x.to_le_bytes());
}

fn get_u32(section: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(section[4 * i..4 * i + 4].try_into().unwrap())
}

fn get_u64(section: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(section[8 * i..8 * i + 8].try_into().unwrap())
}

fn put_u64(section: &mut [u8], i: usize, x: u64) {
    section[8 * i..8 * i + 8].copy_from_slice(&x.to_le_bytes());
}

/// A table's field widths, from the first word of its ladder section:
/// the level in the low `lb` bits of a slot's word, the hops in the next
/// `hb`, the port in the top `pb`, the word `w` bytes, and a keyed
/// record's key `kb` bytes before it.
#[derive(Clone, Copy, Debug)]
struct Widths {
    lb: u32,
    hb: u32,
    pb: u32,
    kb: u32,
}

impl Widths {
    fn of(ladder: &[u8]) -> Widths {
        let word = get_u64(ladder, 0);
        let field = |at: u32| (word >> at) as u32 & 0xFF;
        let (pb, hb, lb, kb) = (field(0), field(8), field(16), field(24));
        Widths { lb, hb, pb, kb }
    }

    fn set(self, ladder: &mut [u8]) {
        let Widths { lb, hb, pb, kb } = self;
        put_u64(ladder, 0, u64::from(pb | hb << 8 | lb << 16 | kb << 24));
    }

    fn bits(self) -> u32 {
        self.lb + self.hb + self.pb
    }

    fn w(self) -> usize {
        self.bits().div_ceil(8) as usize
    }

    /// The word of `(hops, level, port)`.
    fn word(self, hops: u32, level: u32, port: u32) -> u32 {
        port << (self.lb + self.hb) | hops << self.lb | level
    }

    /// `(hops, level, port)` of a word.
    fn split(self, word: u32) -> (u32, u32, u32) {
        let mask = |bits: u32| (1u32 << bits) - 1;
        let hops = word >> self.lb & mask(self.hb);
        (hops, word & mask(self.lb), word >> (self.lb + self.hb))
    }

    /// The hops and port fields' markers, and the all-ones word.
    fn markers(self) -> (u32, u32, u32) {
        let all = (u64::MAX >> (64 - self.bits())) as u32;
        ((1 << self.hb) - 1, (1 << self.pb) - 1, all)
    }

    /// The word of direct slot `j`.
    fn get(self, recs: &[u8], j: usize) -> u32 {
        let mut word = [0; 4];
        word[..self.w()].copy_from_slice(&recs[j * self.w()..][..self.w()]);
        u32::from_le_bytes(word)
    }

    fn put(self, recs: &mut [u8], j: usize, word: u32) {
        recs[j * self.w()..][..self.w()].copy_from_slice(&word.to_le_bytes()[..self.w()]);
    }
}

/// Whether a row word is a keyed row's fit (its low half, `mul`, is at
/// most 2³¹); any other word is a direct row's or an offset word.
fn is_fit(word: u64) -> bool {
    word as u32 <= 1 << 31
}

#[test]
fn well_checksummed_hostile_table_sections_are_typed_errors_or_misses() {
    // 40-slot rows over every source are direct, with 2-byte words: a
    // slot is `port << (lb + hb) | hops << lb | level`, and weights up to
    // 12 make a 10-rung ladder, so the all-ones level is off it. The
    // partial build keys its rows by rank among the 14 sources (every
    // third id), through its source map, and keeps only σ-list entries;
    // at σ = 4 its first row (ranks 4, 10 and 13) stays keyed. Both
    // tables' keys take one byte (40 node ids, 14 ranks), and so do the
    // partial table's ranks.
    let g = gen::gnp_connected(
        40,
        0.15,
        Weights::Uniform { lo: 1, hi: 12 },
        &mut Seed(31).rng(),
    );
    let pde = |partial: bool| {
        let builder = OracleBuilder::new(Backend::Pde).seed(5);
        let builder = if partial {
            let sources = (0..g.len()).map(|v| v % 3 == 0).collect();
            builder.sigma(4).horizon(4).sources(sources)
        } else {
            builder
        };
        let mut snap = Vec::new();
        builder.build(&g).save(&mut snap).unwrap();
        snap
    };
    let (light, keyed) = (pde(false), pde(true));
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
    let light_sections = arena_sections(&light);
    let table = |back: usize| &light_sections[light_sections.len() - back];
    let entries = get_u32(table(STARTS), 40) as usize;
    let widths = Widths::of(table(LADDER));
    let (w, (hops_marker, port_marker, all)) = (widths.w(), widths.markers());
    assert_eq!(w, 2, "{widths:?}");
    assert_eq!(table(RECS).len(), w * entries + 8 - w);
    assert!(table(ESC_IDX).is_empty());
    assert!(table(MEMBERS).is_empty() && table(RANKS).is_empty());
    let ladder: Vec<u64> = (1..table(LADDER).len() / 8)
        .map(|i| get_u64(table(LADDER), i))
        .collect();
    let (h_prime, rungs) = (ladder[0], ladder.len() - 1);
    assert!(
        rungs > 1 && rungs < 1 << widths.lb,
        "level {} must be off the ladder",
        (1 << widths.lb) - 1
    );
    let keyed_sections = arena_sections(&keyed);
    let keyed_words = &keyed_sections[keyed_sections.len() - WORDS];
    let keyed_starts = &keyed_sections[keyed_sections.len() - STARTS];
    let keyed_widths = Widths::of(&keyed_sections[keyed_sections.len() - LADDER]);
    let keyed_width = 1 + keyed_widths.w();
    assert_eq!((widths.kb, keyed_widths.kb), (1, 1));
    assert!(is_fit(get_u64(keyed_words, 0)) && get_u32(keyed_starts, 1) >= 2);
    let members: Vec<u32> = (0..40).filter(|v| v % 3 == 0).collect();
    let keyed_members = &keyed_sections[keyed_sections.len() - MEMBERS];
    let keyed_ranks = &keyed_sections[keyed_sections.len() - RANKS];
    assert_eq!(keyed_members.len(), 4 * members.len());
    assert_eq!(keyed_ranks.len(), 40);
    for (rank, &id) in members.iter().enumerate() {
        assert_eq!(get_u32(keyed_members, rank), id);
        assert_eq!(keyed_ranks[id as usize], rank as u8);
    }

    // The escaped twin: the first eight present slots store the port
    // marker and their true `hops | port << 32` in the escape sections —
    // a well-formed table that answers exactly as the light one does.
    let present: Vec<usize> = (0..entries)
        .filter(|&j| widths.get(table(RECS), j) != all)
        .collect();
    let escaped = 8;
    let escape = |s: &mut [Vec<u8>], end: usize| {
        for (k, &j) in present[..escaped].iter().enumerate() {
            let (hops, level, port) = widths.split(widths.get(&s[end - RECS], j));
            let word = widths.word(hops, level, port_marker);
            widths.put(&mut s[end - RECS], j, word);
            s[end - ESC_IDX].extend((j as u32).to_le_bytes());
            let wide = u64::from(hops) | u64::from(port) << 32;
            s[end - ESC_VALS].extend(wide.to_le_bytes());
            assert_eq!(s[end - ESC_IDX].len(), 4 * (k + 1));
        }
    };
    let heavy = reassemble(&light, &{
        let mut s = light_sections.clone();
        let end = s.len();
        escape(&mut s, end);
        s
    });
    let (plain, twin) = (
        Oracle::load_bytes(&light).unwrap(),
        Oracle::load_bytes(&heavy).unwrap(),
    );
    for u in (0..40).map(NodeId) {
        for v in (0..40).map(NodeId) {
            assert_eq!(twin.estimate(u, v), plain.estimate(u, v), "({u}, {v})");
            assert_eq!(twin.next_hop(u, v), plain.next_hop(u, v), "({u}, {v})");
        }
    }
    let first = present[0];
    let (hops, level, port) = widths.split(widths.get(table(RECS), first));
    let set_first = |s: &mut [Vec<u8>], end: usize, word: u32| {
        widths.put(&mut s[end - RECS], first, word);
    };
    // The degree of the node whose row holds the first present slot: the
    // smallest port `validate` must refuse there, and one the word's port
    // field can still hold.
    let owner = (0..40u32).find(|&v| get_u32(table(STARTS), v as usize + 1) as usize > first);
    let deg = g.degree(NodeId(owner.unwrap())) as u32;
    assert!(deg < port_marker, "degree {deg} must fit the port field");

    rejected("row offset past the arena", &light, &|s, end| {
        put_u32(&mut s[end - STARTS], 1, u32::MAX);
    });
    rejected("row out of source order", &keyed, &|s, end| {
        s[end - RECS].swap(0, keyed_width);
    });

    // The source map: read_arena checks its shape, validate that it is
    // a bijection between increasing node ids and the ranks below their
    // count, and that every stored key is such a rank, at the width the
    // count needs.
    let m = members.len();
    let last_key = |s: &mut [Vec<u8>], end: usize, key: u8| {
        let row0 = get_u32(&s[end - STARTS], 1) as usize;
        s[end - RECS][(row0 - 1) * keyed_width] = key;
    };
    rejected("1-byte key at the member count", &keyed, &|s, end| {
        last_key(s, end, m as u8);
    });
    rejected("1-byte key past the members", &keyed, &|s, end| {
        last_key(s, end, u8::MAX);
    });
    for kb in [2, 4] {
        let wide = Widths { kb, ..keyed_widths };
        rejected(
            &format!("{kb}-byte keys for {m} members"),
            &keyed,
            &|s, end| {
                wide.set(&mut s[end - LADDER]);
            },
        );
        let wide = Widths { kb, ..widths };
        rejected(
            &format!("{kb}-byte keys for 40 node ids"),
            &light,
            &|s, end| {
                wide.set(&mut s[end - LADDER]);
            },
        );
    }
    rejected("3-byte keys", &keyed, &|s, end| {
        Widths {
            kb: 3,
            ..keyed_widths
        }
        .set(&mut s[end - LADDER]);
    });
    rejected("member ids out of order", &keyed, &|s, end| {
        let (a, b) = (get_u32(&s[end - MEMBERS], 1), get_u32(&s[end - MEMBERS], 2));
        put_u32(&mut s[end - MEMBERS], 1, b);
        put_u32(&mut s[end - MEMBERS], 2, a);
        s[end - RANKS][a as usize] = 2;
        s[end - RANKS][b as usize] = 1;
    });
    rejected("member id past n", &keyed, &|s, end| {
        put_u32(&mut s[end - MEMBERS], m - 1, 40);
    });
    rejected("rank not naming its member back", &keyed, &|s, end| {
        s[end - RANKS][members[0] as usize] = 1;
    });
    rejected("a non-member ranked", &keyed, &|s, end| {
        s[end - RANKS][1] = 0;
    });
    rejected("a member unranked", &keyed, &|s, end| {
        s[end - RANKS][members[3] as usize] = u8::MAX;
    });
    rejected("ranks section one node short", &keyed, &|s, end| {
        s[end - RANKS].truncate(39);
    });
    rejected("ranks at 2 bytes for 14 members", &keyed, &|s, end| {
        let ranks = &mut s[end - RANKS];
        *ranks = ranks.iter().flat_map(|&r| [r, r / 0xFF]).collect();
    });
    rejected("every member dropped", &keyed, &|s, end| {
        s[end - MEMBERS].clear();
        s[end - RANKS] = vec![u8::MAX; 40];
    });
    rejected("as many members as nodes", &keyed, &|s, end| {
        s[end - MEMBERS] = (0..40u32).flat_map(u32::to_le_bytes).collect();
        s[end - RANKS] = (0..40u8).collect();
    });
    rejected("a map on a table keyed by node id", &light, &|s, end| {
        s[end - RANKS] = (0..40u8).collect();
    });
    rejected("hops marker without an escape record", &light, &|s, end| {
        set_first(s, end, widths.word(hops_marker, level, port));
    });
    rejected("port marker without an escape record", &light, &|s, end| {
        set_first(s, end, widths.word(hops, level, port_marker));
    });
    rejected("port at its node's degree", &light, &|s, end| {
        set_first(s, end, widths.word(hops, level, deg));
    });
    rejected("escaped port at its node's degree", &heavy, &|s, end| {
        put_u64(&mut s[end - ESC_VALS], 0, u64::from(hops) | 40 << 32);
    });
    rejected("word level past the rungs", &light, &|s, end| {
        set_first(s, end, widths.word(hops, (1 << widths.lb) - 1, port));
    });
    rejected("word hops past h′", &light, &|s, end| {
        put_u64(&mut s[end - LADDER], 1, u64::from(hops) - 1);
    });
    rejected("escaped hops past h′", &heavy, &|s, end| {
        put_u64(&mut s[end - ESC_VALS], 0, h_prime + 1);
    });
    if widths.bits() < 8 * w as u32 {
        rejected("word bits past its fields", &light, &|s, end| {
            set_first(s, end, widths.word(hops, level, port) | 1 << widths.bits());
        });
    }
    rejected("empty ladder", &light, &|s, end| {
        s[end - LADDER].truncate(16)
    });
    rejected("no ladder", &light, &|s, end| s[end - LADDER].truncate(8));
    rejected("no widths either", &light, &|s, end| {
        s[end - LADDER].clear()
    });
    rejected("ladder not from 1", &light, &|s, end| {
        put_u64(&mut s[end - LADDER], 2, 2);
        put_u64(&mut s[end - LADDER], 3, 3);
    });
    rejected("ladder not strictly increasing", &light, &|s, end| {
        put_u64(&mut s[end - LADDER], 3, 1);
    });
    rejected("h′ past u32", &light, &|s, end| {
        put_u64(&mut s[end - LADDER], 1, 1 << 32);
    });
    let widen = |hb: u32| Widths { hb, ..widths };
    rejected("field widths past 32 bits", &light, &|s, end| {
        widen(33 - widths.lb - widths.pb).set(&mut s[end - LADDER]);
    });
    rejected("field widths past the word's bytes", &light, &|s, end| {
        widen(widths.hb + 8 * w as u32 + 1 - widths.bits()).set(&mut s[end - LADDER]);
    });
    rejected(
        "level field narrower than the rungs need",
        &light,
        &|s, end| {
            let lb = widths.lb - 1;
            let hb = widths.hb + 1;
            Widths { lb, hb, ..widths }.set(&mut s[end - LADDER]);
        },
    );
    rejected("hops field of no bits", &light, &|s, end| {
        widen(0).set(&mut s[end - LADDER]);
    });
    rejected(
        "record section without its tail padding",
        &light,
        &|s, end| {
            let len = s[end - RECS].len();
            s[end - RECS].truncate(len - (8 - w));
        },
    );
    rejected("tail padding not zero", &light, &|s, end| {
        *s[end - RECS].last_mut().unwrap() = 1;
    });
    rejected(
        "escape record dropped from under its marker",
        &heavy,
        &|s, end| {
            s[end - ESC_IDX].truncate(4 * (escaped - 1));
            s[end - ESC_VALS].truncate(8 * (escaped - 1));
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
        s[end - ESC_IDX].extend_from_slice(&(first as u32).to_le_bytes());
        s[end - ESC_VALS].extend_from_slice(&[0; 8]);
    });

    // Direct rows. Slot 1 of node 0's row made absent — the all-ones
    // word, no escape record — is a well-formed hole that reads as a
    // miss; every half-absent slot is not.
    let absent = |s: &mut [Vec<u8>], end: usize| widths.put(&mut s[end - RECS], 1, all);
    let holed = hostile(&light, &absent).unwrap();
    assert!(!is_covered(holed.estimate(NodeId(0), NodeId(1))));
    rejected("absent slot with a non-marker port", &light, &|s, end| {
        let (hops, level, _) = widths.split(all);
        widths.put(&mut s[end - RECS], 1, widths.word(hops, level, 0));
    });
    rejected(
        "absent slot with a non-marker hop count",
        &light,
        &|s, end| {
            let (_, level, port) = widths.split(all);
            widths.put(&mut s[end - RECS], 1, widths.word(0, level, port));
        },
    );
    rejected("direct row's lo_src past n", &light, &|s, end| {
        let word = get_u64(&s[end - WORDS], 0);
        put_u64(&mut s[end - WORDS], 0, word + 1);
    });
    rejected("direct slots before a row miscounted", &light, &|s, end| {
        let word = get_u64(&s[end - WORDS], 1);
        put_u64(&mut s[end - WORDS], 1, word + (1 << 32));
    });
    rejected("direct row read as keyed", &light, &|s, end| {
        put_u64(&mut s[end - WORDS], 0, 1 << 31);
    });
    for (section, name) in [
        (RECS, "record"),
        (LADDER, "ladder"),
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

/// The little-endian `u16` at index `i` of `section`, set to `x`.
fn put_u16(section: &mut [u8], i: usize, x: u16) {
    section[2 * i..2 * i + 2].copy_from_slice(&x.to_le_bytes());
}

/// `section`'s integers of `from` bytes each, re-encoded at `to` bytes
/// (cut to their low bytes when `to` is narrower).
fn rewidth(section: &[u8], from: usize, to: usize) -> Vec<u8> {
    let value = |c: &[u8]| c.iter().rev().fold(0u64, |x, &b| x << 8 | u64::from(b));
    section
        .chunks_exact(from)
        .flat_map(|c| value(c).to_le_bytes()[..to].to_vec())
        .collect()
}

// A PDE arena's edge list follows its `[eps, h, σ]` meta section: the
// `[n]` meta, the endpoints and the weights.
const ENDS: usize = 2;
const WEIGHTS: usize = 3;

#[test]
fn well_checksummed_hostile_narrow_sections_are_typed_errors() {
    // 600 nodes, so endpoints take 2 bytes; every other node a source,
    // 287 of them on some σ-list, so keys and ranks take 2 bytes too.
    // Power-of-two weights up to 2⁹ put the largest past one byte.
    let weights = Weights::PowerOfTwo { max_exp: 9 };
    let g = gen::gnp_connected(600, 0.01, weights, &mut Seed(7).rng());
    let sources = (0..600).map(|v| v % 2 == 0).collect();
    let builder = OracleBuilder::new(Backend::Pde).seed(5).sigma(8).horizon(8);
    let big = save(&builder.sources(sources).build(&g));
    let m = g.num_edges();
    assert!(g.max_weight() >= 256);
    let sections = arena_sections(&big);
    let end = sections.len();
    assert_eq!(
        (sections[ENDS].len(), sections[WEIGHTS].len()),
        (4 * m, 2 * m)
    );
    let (widths, members) = (Widths::of(&sections[end - LADDER]), 287);
    assert_eq!(sections[end - MEMBERS].len(), 4 * members);
    assert_eq!((widths.kb, sections[end - RANKS].len()), (2, 2 * 600));
    // Row 0 is keyed: its last record's key is where the key cases go.
    let row0 = get_u32(&sections[end - STARTS], 1) as usize;
    assert!(is_fit(get_u64(&sections[end - WORDS], 0)) && row0 > 0);
    let last_key = (row0 - 1) * (2 + widths.w());
    // The 18-node graph: 1-byte endpoints and weights.
    let small = snapshot(Backend::Pde);
    let small_m = graph(21).num_edges();
    let small_sections = arena_sections(&small);
    assert_eq!(small_sections[WEIGHTS].len(), small_m);
    let rejected = |what: &str, base: &[u8], mutate: &dyn Fn(&mut Vec<Vec<u8>>)| {
        let mut hostile = arena_sections(base);
        mutate(&mut hostile);
        let bytes = reassemble(base, &hostile);
        for loaded in [Oracle::load(&mut &bytes[..]), Oracle::load_bytes(&bytes)] {
            let Err(err) = loaded else {
                panic!("{what}: accepted");
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(
                !is_truncated(&err),
                "{what}: misreported as truncation: {err}"
            );
        }
    };
    for (what, base) in [("2-byte", &big), ("1-byte", &small)] {
        assert!(Oracle::load_bytes(base).is_ok(), "{what}");
    }

    // 2-byte keys at or past the member count, or at another width, and
    // the ranks at another width.
    rejected("2-byte key at the member count", &big, &|s| {
        let end = s.len();
        put_u16(&mut s[end - RECS][last_key..], 0, members as u16);
    });
    rejected("2-byte key past the members", &big, &|s| {
        let end = s.len();
        put_u16(&mut s[end - RECS][last_key..], 0, u16::MAX);
    });
    for kb in [1, 4] {
        rejected(
            &format!("{kb}-byte keys for {members} members"),
            &big,
            &|s| {
                let end = s.len();
                Widths { kb, ..widths }.set(&mut s[end - LADDER]);
            },
        );
    }
    for rb in [1, 4] {
        rejected(
            &format!("{rb}-byte ranks for {members} members"),
            &big,
            &|s| {
                let end = s.len();
                s[end - RANKS] = rewidth(&s[end - RANKS], 2, rb);
            },
        );
    }

    // The edge lists: an endpoint at or past n, and endpoints or weights
    // at a width other than the one their data needs. Weights cut to one
    // byte turn 2⁸ and 2⁹ into zero, which no graph carries (a narrower
    // width that kept every weight positive would be another well-formed
    // graph: only the arena checksum tells it from this one).
    rejected("2-byte endpoint at n", &big, &|s| {
        put_u16(&mut s[ENDS], 1, 600)
    });
    rejected("2-byte endpoint past n", &big, &|s| {
        put_u16(&mut s[ENDS], 1, u16::MAX)
    });
    rejected("1-byte endpoint at n", &small, &|s| s[ENDS][1] = 18);
    rejected("endpoints at 4 bytes for 600 nodes", &big, &|s| {
        s[ENDS] = rewidth(&s[ENDS], 2, 4);
    });
    rejected("endpoints at 2 bytes for 18 nodes", &small, &|s| {
        s[ENDS] = rewidth(&s[ENDS], 1, 2);
    });
    rejected("weights wider than their largest needs", &big, &|s| {
        s[WEIGHTS] = rewidth(&s[WEIGHTS], 2, 4);
    });
    rejected("1-byte weights at 2 bytes", &small, &|s| {
        s[WEIGHTS] = rewidth(&s[WEIGHTS], 1, 2);
    });
    rejected("weights narrower than their largest needs", &big, &|s| {
        s[WEIGHTS] = rewidth(&s[WEIGHTS], 2, 1);
    });
    rejected("weights one byte short", &big, &|s| {
        s[WEIGHTS].pop();
    });
    rejected("fewer weight bytes than edges", &small, &|s| {
        s[WEIGHTS].pop();
    });
    rejected("weights without endpoints", &small, &|s| s[ENDS].clear());
}

// Before its table, a PDE arena holds its transit hops: `node << 32 |
// source` keys, then one `u32` port each.
const TRANSIT_KEYS: usize = 10;
const TRANSIT_PORTS: usize = 9;

#[test]
fn well_checksummed_hostile_transit_sections_are_typed_errors() {
    // A partial PDE on a 128-node random tree at σ = 4 over every 8th
    // node: listed routes pass six (node, source) pairs whose node's list
    // dropped the source, so the table carries six transit hops.
    let g = gen::random_tree(128, Weights::Uniform { lo: 1, hi: 32 }, &mut Seed(2).rng());
    let n = g.len() as u64;
    let sources = (0..g.len()).map(|v| v % 8 == 0).collect();
    let builder = OracleBuilder::new(Backend::Pde).horizon(8).sigma(4);
    let oracle = builder.sources(sources).build(&g);
    let snap = save(&oracle);
    let sections = arena_sections(&snap);
    let end = sections.len();
    let (keys, ports) = (
        &sections[end - TRANSIT_KEYS],
        &sections[end - TRANSIT_PORTS],
    );
    let hops = keys.len() / 8;
    assert_eq!((hops, ports.len()), (6, 4 * 6));
    let key = |i: usize| get_u64(keys, i);
    let node = |key: u64| NodeId((key >> 32) as u32);
    for i in 0..hops {
        let (u, v) = (node(key(i)), NodeId(key(i) as u32));
        let hop = oracle.next_hop(u, v);
        assert!(
            !is_covered(oracle.estimate(u, v)) && hop.is_some(),
            "({u}, {v})"
        );
    }
    // One listed pair and its port: a hop that the table already holds.
    let (u, v) = g
        .nodes()
        .flat_map(|u| g.nodes().map(move |v| (u, v)))
        .find(|&(u, v)| u != v && is_covered(oracle.estimate(u, v)))
        .unwrap();
    let port = g
        .to_topology()
        .port_to(u, oracle.next_hop(u, v).unwrap())
        .unwrap();
    let rejected = |what: &str, mutate: &dyn Fn(&mut [Vec<u8>])| {
        let mut hostile = sections.clone();
        mutate(&mut hostile);
        let bytes = reassemble(&snap, &hostile);
        for loaded in [Oracle::load(&mut &bytes[..]), Oracle::load_bytes(&bytes)] {
            let Err(err) = loaded else {
                panic!("{what}: accepted");
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(
                !is_truncated(&err),
                "{what}: misreported as truncation: {err}"
            );
        }
    };
    let last = hops - 1;
    rejected("keys unsorted", &|s| {
        let (a, b) = (key(0), key(1));
        put_u64(&mut s[end - TRANSIT_KEYS], 0, b);
        put_u64(&mut s[end - TRANSIT_KEYS], 1, a);
    });
    rejected("key duplicated", &|s| {
        put_u64(&mut s[end - TRANSIT_KEYS], 1, key(0));
    });
    rejected("node past n", &|s| {
        put_u64(&mut s[end - TRANSIT_KEYS], last, n << 32);
    });
    rejected("source past n", &|s| {
        put_u64(
            &mut s[end - TRANSIT_KEYS],
            last,
            key(last) & !0xFFFF_FFFF | n,
        );
    });
    rejected("hop at its own source", &|s| {
        let x = key(last) >> 32;
        put_u64(&mut s[end - TRANSIT_KEYS], last, x << 32 | x);
    });
    rejected("port at the node's degree", &|s| {
        put_u32(
            &mut s[end - TRANSIT_PORTS],
            0,
            g.degree(node(key(0))) as u32,
        );
    });
    rejected("hop duplicating a table entry", &|s| {
        s[end - TRANSIT_KEYS] = (u64::from(u.0) << 32 | u64::from(v.0))
            .to_le_bytes()
            .to_vec();
        s[end - TRANSIT_PORTS] = port.to_le_bytes().to_vec();
    });
    rejected("a key without its port", &|s| {
        s[end - TRANSIT_PORTS].truncate(4 * last);
    });
    rejected("a port without its key", &|s| {
        s[end - TRANSIT_KEYS].truncate(8 * last);
    });
    rejected("keys section not whole words", &|s| {
        s[end - TRANSIT_KEYS].pop();
    });

    // Full-coverage tables carry none: Flooding's build and its repair.
    let flooding = OracleBuilder::new(Backend::Flooding);
    let g = graph(21);
    let (a, b) = (NodeId(0), g.to_topology().neighbor(NodeId(0), 0));
    let w = g.edge_weight(a, b).unwrap() + 5;
    let delta = GraphDelta::SetWeight { u: a, v: b, w };
    let built = flooding.build(&g);
    let repaired = flooding.repair(&g, &built, &delta).unwrap().oracle;
    for oracle in [built, repaired] {
        let sections = arena_sections(&save(&oracle));
        let end = sections.len();
        assert!(
            sections[end - TRANSIT_KEYS].is_empty() && sections[end - TRANSIT_PORTS].is_empty()
        );
    }
}

/// Directory positions of the row-word section of every `FlatTables` in
/// the arena of an `n`-node oracle, found by shape: `n + 1` row offsets
/// ending at the slot count `e`, then the records (1 to 8 bytes a slot,
/// and up to 7 bytes of tail padding), then `n` row words.
fn word_sections(sections: &[Vec<u8>], n: usize) -> Vec<usize> {
    (2..sections.len())
        .filter(|&at| {
            let len = |back: usize| sections[at - back].len();
            len(2) == 4 * (n + 1) && len(0) == 8 * n && {
                let e = get_u32(&sections[at - 2], n) as usize;
                e > 0 && (e..=8 * e + 7).contains(&len(1))
            }
        })
        .collect()
}

#[test]
fn well_checksummed_hostile_fits_are_typed_errors() {
    // A fit that does not cover its row, or a direct row's word that
    // misplaces it, would turn stored entries into silent misses or wrong
    // answers, so `read_arena` and `validate` re-prove every row word on
    // every load — for every backend that embeds a `FlatTables`. Their
    // rows over all nodes, or over a level sample by rank, go direct; a
    // partial PDE over every other node at σ = 4 keeps a row keyed, with
    // a window of more than one record.
    let n = 40;
    let mut rng = Seed(31).rng();
    let g = gen::gnp_connected(n, 0.15, Weights::Uniform { lo: 1, hi: 9 }, &mut rng);
    let (mut shrunk, mut direct) = (0, 0);
    let partial = OracleBuilder::new(Backend::Pde)
        .sigma(4)
        .sources((0..n).map(|v| v % 2 == 0).collect());
    for (backend, builder) in [
        Backend::Pde,
        Backend::ApproxApsp,
        Backend::Rtc,
        Backend::Compact,
        Backend::Truncated,
    ]
    .map(|backend| (backend, OracleBuilder::new(backend)))
    .into_iter()
    .chain([(Backend::Pde, partial)])
    {
        let oracle = builder.seed(5).k(2).build(&g);
        let mut snap = Vec::new();
        oracle.save(&mut snap).unwrap();
        let sections = arena_sections(&snap);
        let tables = word_sections(&sections, n);
        assert!(!tables.is_empty(), "{backend}: no flat table found");
        for at in tables {
            let word = |v: usize| get_u64(&sections[at], v);
            let span = |v: usize| {
                let starts = &sections[at - 2];
                (get_u32(starts, v + 1) - get_u32(starts, v)) as u64
            };
            let mut cases = Vec::new();
            // The keyed row with the widest window (`mul u32 | lo i16 |
            // win u16`), if the table has one.
            if let Some(row) = (0..n)
                .filter(|&v| is_fit(word(v)))
                .max_by_key(|&v| word(v) >> 48)
            {
                let (mul, lo, win) = (word(row) as u32, (word(row) >> 32) as u16, word(row) >> 48);
                let fit =
                    |mul: u32, lo: u16, win: u64| u64::from(mul) | u64::from(lo) << 32 | win << 48;
                cases.push(("lo shifted", row, fit(mul, lo.wrapping_add(1), win)));
                cases.push(("mul zeroed", row, fit(0, lo, win)));
                cases.push(("mul all ones", row, fit(u32::MAX, lo, win)));
                if win > 1 {
                    cases.push(("win shrunk to 1", row, fit(mul, lo, 1)));
                    shrunk += 1;
                }
            }
            // The widest direct row (`0xC000_0000 | lo_src`, and the direct
            // slots before it in the high half), if the table has one.
            let is_direct = |v: usize| word(v) as u32 & 0xC000_0000 == 0xC000_0000;
            if let Some(row) = (0..n).filter(|&v| is_direct(v)).max_by_key(|&v| span(v)) {
                let w = word(row);
                let past_n = (w & !0x0FFF_FFFF) | (n as u64 + 1 - span(row));
                cases.push(("lo_src past n", row, past_n));
                cases.push(("direct slots before it miscounted", row, w + (1 << 32)));
                cases.push(("read as keyed", row, w & !(1 << 30)));
                direct += 1;
            }
            for (what, row, word) in cases {
                let mut hostile = sections.clone();
                put_u64(&mut hostile[at], row, word);
                let err = match Oracle::load_bytes(&reassemble(&snap, &hostile)) {
                    Err(e) => e,
                    Ok(_) => panic!("{backend}, words at {at}, row {row}: {what}: accepted"),
                };
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{backend}: {what}: {err}"
                );
            }
        }
    }
    assert!(shrunk > 0, "no table had a window to shrink");
    assert!(direct > 0, "no table had a direct row");
}

#[test]
fn well_checksummed_rtc_home_out_of_range_is_invalid_data() {
    // An RTC arena is the `[k, eps]` meta section, the topology's three
    // sections, then the label arrays: ids (0..n), homes, …. A home past
    // `n` under a recomputed checksum must fail the load, not the first
    // query that indexes the skeleton table with it.
    const IDS: usize = 4;
    let snap = snapshot(Backend::Rtc);
    let n = graph(21).len();
    let mut sections = arena_sections(&snap);
    let ids: Vec<u32> = (0..n).map(|v| get_u32(&sections[IDS], v)).collect();
    assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "ids section moved");
    put_u32(&mut sections[IDS + 1], 3, n as u32 + 7);
    let hostile = reassemble(&snap, &sections);
    for loaded in [
        Oracle::load(&mut &hostile[..]),
        Oracle::load_bytes(&hostile),
    ] {
        match loaded {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}"),
            Ok(oracle) => {
                for u in 0..n as u32 {
                    oracle.estimate(NodeId(u), NodeId(3));
                }
                panic!("a home past n was loaded");
            }
        }
    }
}

#[test]
fn well_checksummed_section_splices_across_graphs_are_typed_errors_or_serve() {
    // Two builds of one backend on graphs of 12 and 18 nodes share a
    // section directory shape at different sizes. Splicing one into the
    // other under a recomputed checksum — each single section swapped,
    // then each prefix of one file ahead of the other's suffix, both
    // ways round — must either fail the load with a typed, non-truncation
    // InvalidData, or load an oracle that answers every query over its
    // own node range without a panic: every scalar estimate, next hop
    // and route, and one scheduled batch.
    let mut rng = Seed(4).rng();
    let graphs = [
        gen::gnp_connected(12, 0.3, Weights::Uniform { lo: 1, hi: 9 }, &mut rng),
        graph(21),
    ];
    let partial = |g: &WGraph| {
        let sources = (0..g.len()).map(|v| v % 3 == 0).collect();
        let builder = OracleBuilder::new(Backend::Pde).seed(23).sigma(1);
        save(&builder.sources(sources).build(g))
    };
    let builds = Backend::ALL
        .map(|backend| {
            let builder = OracleBuilder::new(backend).seed(23).k(2);
            (
                backend.to_string(),
                graphs.each_ref().map(|g| save(&builder.build(g))),
            )
        })
        .into_iter()
        .chain([("pde_partial".to_string(), graphs.each_ref().map(partial))]);
    let mut loaded_splices = 0;
    for (backend, [small, big]) in builds {
        let (a, b) = (arena_sections(&small), arena_sections(&big));
        let mut splices = Vec::new();
        for (snap, mine, theirs) in [(&small, &a, &b), (&big, &b, &a)] {
            let common = mine.len().min(theirs.len());
            for at in 0..common {
                let mut spliced = mine.clone();
                spliced[at].clone_from(&theirs[at]);
                splices.push((format!("section {at}"), reassemble(snap, &spliced)));
            }
            for cut in 1..common {
                let spliced: Vec<_> = mine[..cut].iter().chain(&theirs[cut..]).cloned().collect();
                splices.push((format!("suffix from {cut}"), reassemble(snap, &spliced)));
            }
        }
        for (what, bytes) in splices {
            let streamed = Oracle::load(&mut &bytes[..]);
            let shared = Oracle::load_bytes(&bytes);
            assert_eq!(
                streamed.is_err(),
                shared.is_err(),
                "{backend}, {what}: the entry points disagree"
            );
            for loaded in [streamed, shared] {
                match loaded {
                    Err(err) => {
                        let context = format!("{backend}, {what}: {err}");
                        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{context}");
                        assert!(!is_truncated(&err), "misreported as truncation: {context}");
                    }
                    Ok(oracle) => {
                        serve_every_query(&oracle);
                        loaded_splices += 1;
                    }
                }
            }
        }
    }
    // The sweep reaches the query paths, not only the loaders.
    assert!(loaded_splices > 0, "every splice was refused");
}

/// Runs every scalar `estimate`, `next_hop` and `route_into` over
/// `0..len()`, then one batch large enough to take the scheduled path.
fn serve_every_query(oracle: &Oracle) {
    let n = oracle.len() as u32;
    let mut route = TracedRoute::default();
    for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (NodeId(u), NodeId(v)))) {
        oracle.estimate(u, v);
        oracle.next_hop(u, v);
        oracle.route_into(u, v, &mut route);
    }
    if n == 0 {
        return;
    }
    let pairs: Vec<_> = (0..4096)
        .map(|i| (NodeId(i % n), NodeId(i / n % n)))
        .collect();
    let mut out = Vec::new();
    oracle.estimate_many_with(&pairs, &mut out, 1);
    assert_eq!(out.len(), pairs.len());
}

#[test]
fn retired_backend_tag_is_invalid_data_not_rebuild() {
    // Backend tag 5 was exact_tz, the centralized exact Thorup–Zwick
    // hierarchy over n × n matrices, and tag 6 was bellman_ford, a served
    // n × n distance matrix without routes; flooding's exact rows answer
    // the same pairs as either. A current-version file carrying one, as
    // an old file of that backend would, has no backend left to load or
    // rebuild it: typed InvalidData through both entry points, and never
    // a panic.
    let snap = snapshot(Backend::Flooding);
    assert_eq!(snap[4..7], [13, 0, Backend::Flooding.wire_tag()]);
    for tag in [5, 6] {
        let mut old = snap.clone();
        old[6] = tag;
        for loaded in [Oracle::load(&mut &old[..]), Oracle::load_bytes(&old)] {
            let Err(err) = loaded else {
                panic!("a backend-tag-{tag} file was loaded");
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(!is_truncated(&err), "misreported as truncation: {err}");
            assert_eq!(snapshot_cause(&err), None, "{err}");
        }
    }

    // A checkpoint persisted under a retired backend: recovery surfaces
    // the same typed InvalidData instead of panicking or rebuilding.
    let dir = std::env::temp_dir().join(format!("pde-retired-tag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = OracleServer::new();
    let builder = OracleBuilder::new(Backend::Flooding);
    drop(
        DynamicOracle::install_persistent(&server, "old", builder.clone(), &graph(21), &dir)
            .unwrap(),
    );
    let ckpt = dir.join("old.ckpt");
    let current = std::fs::read(&ckpt).unwrap();
    let at = current.windows(4).position(|w| w == b"PDOR").unwrap();
    assert_eq!(current[at + 6], Backend::Flooding.wire_tag());
    for tag in [5, 6] {
        let mut bytes = current.clone();
        bytes[at + 6] = tag;
        std::fs::write(&ckpt, bytes).unwrap();
        let recovered = DynamicOracle::recover(&OracleServer::new(), "old", builder.clone(), &dir);
        let err = match recovered {
            Err(PersistError::Io(e)) => e,
            Err(other) => panic!("untyped recovery failure: {other}"),
            Ok(_) => panic!("a backend-tag-{tag} checkpoint was recovered"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert_eq!(snapshot_cause(&err), None, "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_layouts_are_typed_rebuild_errors() {
    // Tag 1 (hash-table streams), tag 2 (element-by-element wire
    // streams), tag 3 (the arena with 16-byte records), tag 4 (narrow
    // tables with a stored per-row index), tag 5 (every route row keyed),
    // tag 6 (schemes embedding σ-lists, spanner and metrics), tag 7
    // (truncated keeping its own lower levels, `u64` table counts), tag 8
    // (a full `u32` estimate per slot beside port and level side
    // sections), tag 9 (a ladder code per slot beside a `u16` port), tag
    // 10 (route rows keyed by node id, no source map), tag 11 (a
    // partial PDE table serving its whole routing archive, no transit
    // sections) and tag 12 (4-byte keys, `u32` ranks and a `u32`/`u64`
    // edge list whatever the data) name layouts this binary does not
    // read; all must say
    // "rebuild", typed, whatever follows the header — a re-tagged arena,
    // or for tag 2 its own 39-byte header (no pad byte) with a payload
    // behind it.
    let snap = snapshot(Backend::Pde);
    let retagged = |tag: u16| {
        let mut old = snap.clone();
        old[4..6].copy_from_slice(&tag.to_le_bytes());
        (tag, old)
    };
    let (_, mut v2) = retagged(2);
    v2.remove(7);
    for (tag, old) in [1u16, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        .map(retagged)
        .into_iter()
        .chain([(2, v2.clone())])
    {
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

    // A checkpoint left behind by a binary that wrote tag-2, tag-5, tag-6,
    // tag-7, tag-8, tag-9, tag-10, tag-11 or tag-12 snapshots: recovery
    // surfaces the same typed error instead of panicking.
    let dir = std::env::temp_dir().join(format!("pde-old-layout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = Arc::new(OracleServer::new());
    let builder = OracleBuilder::new(Backend::Pde);
    drop(
        DynamicOracle::install_persistent(&server, "old", builder.clone(), &graph(21), &dir)
            .unwrap(),
    );
    let ckpt = dir.join("old.ckpt");
    let current = std::fs::read(&ckpt).unwrap();
    let at = current.windows(4).position(|w| w == b"PDOR").unwrap();
    assert_eq!(current[at + 4..at + 6], 13u16.to_le_bytes());
    for tag in [2u16, 5, 6, 7, 8, 9, 10, 11, 12] {
        let mut bytes = current.clone();
        bytes[at + 4..at + 6].copy_from_slice(&tag.to_le_bytes());
        std::fs::write(&ckpt, bytes).unwrap();
        let recovered = DynamicOracle::recover(&OracleServer::new(), "old", builder.clone(), &dir);
        let err = match recovered {
            Err(PersistError::Io(e)) => e,
            Err(other) => panic!("untyped recovery failure: {other}"),
            Ok(_) => panic!("a tag-{tag} checkpoint was recovered"),
        };
        assert_eq!(
            snapshot_cause(&err),
            Some(SnapshotError::Rebuild { version: tag })
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // An inline wire swap of a tag-2 stream: the client gets the error
    // back, and the server keeps answering from what it served before.
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server), ServerConfig::default()).unwrap();
    let mut client = Client::connect(net.local_addr()).unwrap();
    let (u, v) = (NodeId(0), NodeId(5));
    let before = client.estimate("old", u, v).unwrap();
    match client.swap("old", &v2) {
        Err(WireError::Remote(msg)) => assert!(msg.contains("version 2"), "{msg}"),
        other => panic!("a tag-2 swap answered {other:?}"),
    }
    assert_eq!(client.estimate("old", u, v).unwrap(), before);
    net.shutdown();
}
