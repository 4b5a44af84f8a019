//! Crash-safe persistence for dynamic serving: an atomic checkpoint
//! (the served snapshot) plus a checksummed delta write-ahead log.
//!
//! The durability contract mirrors what [`crate::DynamicOracle`]
//! actually mutates. A *checkpoint* captures one consistent state —
//! the served snapshot, which carries the live graph as its topology,
//! written via temp file + `fsync` + rename so a crash leaves either
//! the old file or the new one, never a torn hybrid. Every applied
//! repair then appends its [`GraphDelta`] to the *WAL* before the
//! swapped snapshot becomes visible. Recovery is checkpoint + replay:
//! re-running [`oracle::OracleBuilder::repair`] for each logged delta
//! reproduces the live artifact **byte-identically** (repairs are
//! deterministic and rebuild-equivalent), which is the property
//! `tests/chaos_recovery.rs` pins.
//!
//! Two corruptions a crash can leave behind are handled explicitly:
//!
//! * **Torn tail** — the process died mid-append. Each WAL record is a
//!   [`congest::wire`] frame carrying a sequence number and an FNV-1a
//!   checksum; replay stops at the first truncated, misnumbered, or
//!   checksum-failing record and truncates the file back to the last
//!   good one. A half-written repair was never installed (the append
//!   happens first), so dropping it is correct, not lossy.
//! * **Checkpoint/WAL race** — the process died between writing a new
//!   checkpoint and resetting the WAL. Both files carry an *epoch*;
//!   a WAL whose epoch differs from the checkpoint's holds deltas
//!   already folded into that checkpoint, so recovery discards it
//!   instead of replaying deltas twice (which would fail or corrupt).
//!
//! The in-memory [`oracle::LivenessMask`] is deliberately **not**
//! persisted: a mask entry is a failure *observed but not yet
//! repaired*, and after a crash the honest state is "re-report what is
//! still down", not "trust a possibly stale mask".

use crate::ServeError;
use congest::arena::SharedBytes;
use congest::wire::{self, invalid_data, WireReader, WireWriter};
use graphs::{GraphDelta, NodeId, WGraph};
use oracle::{BuildError, DistanceOracle, Oracle, RepairError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

const WAL_MAGIC: &[u8; 4] = b"PDWL";
const CKPT_MAGIC: &[u8; 4] = b"PDCK";
const WAL_VERSION: u16 = 1;
/// Version 1 wrote the graph's own edge list before the snapshot.
const CKPT_VERSION: u16 = 2;
/// Header layout for both files: magic, version, reserved, epoch.
const HEADER_LEN: u64 = 4 + 2 + 2 + 8;
/// A WAL record is one delta plus bookkeeping — tiny. Bounding the
/// frame keeps a corrupted length prefix from provoking a giant
/// allocation during replay.
const MAX_WAL_RECORD: usize = 1 << 16;

/// Why a persistence operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem said no (or a file was corrupt beyond the
    /// tolerated torn tail).
    Io(io::Error),
    /// Building the initial oracle failed
    /// ([`crate::DynamicOracle::install_persistent`]).
    Build(BuildError),
    /// Replaying a logged delta failed — the WAL disagrees with the
    /// checkpoint it claims to extend.
    Replay(RepairError),
    /// The serving layer rejected the operation (name not served).
    Serve(ServeError),
    /// The handle was created without persistence
    /// ([`crate::DynamicOracle::install`]), so there is nothing to
    /// checkpoint.
    NotPersistent,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence i/o failed: {e}"),
            PersistError::Build(e) => write!(f, "initial build failed: {e}"),
            PersistError::Replay(e) => write!(f, "wal replay failed: {e}"),
            PersistError::Serve(e) => write!(f, "{e}"),
            PersistError::NotPersistent => {
                write!(f, "this dynamic oracle was installed without persistence")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Build(e) => Some(e),
            PersistError::Replay(e) => Some(e),
            PersistError::Serve(e) => Some(e),
            PersistError::NotPersistent => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<BuildError> for PersistError {
    fn from(e: BuildError) -> Self {
        PersistError::Build(e)
    }
}

impl From<ServeError> for PersistError {
    fn from(e: ServeError) -> Self {
        PersistError::Serve(e)
    }
}

/// What [`crate::DynamicOracle::recover`] found and did.
#[derive(Clone, Copy, Debug)]
pub struct RecoverReport {
    /// Deltas replayed from the WAL on top of the checkpoint.
    pub deltas_replayed: u64,
    /// Whether the WAL ended in a torn (half-written) record that was
    /// truncated away.
    pub torn_tail: bool,
    /// Whether the WAL was discarded for predating the checkpoint (a
    /// crash between checkpoint write and WAL reset).
    pub stale_wal_discarded: bool,
    /// Wall-clock time spent replaying deltas.
    pub replay_nanos: u64,
    /// Generation of the recovered snapshot now being served.
    pub generation: u64,
}

// ------------------------------------------------------------ codec --

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const TAG_SET_WEIGHT: u8 = 1;
const TAG_FAIL_EDGE: u8 = 2;
const TAG_FAIL_NODE: u8 = 3;

fn encode_delta(w: &mut WireWriter<'_>, delta: &GraphDelta) -> io::Result<()> {
    match *delta {
        GraphDelta::SetWeight { u, v, w: weight } => {
            w.u8(TAG_SET_WEIGHT)?;
            w.u32(u.0)?;
            w.u32(v.0)?;
            w.u64(weight)
        }
        GraphDelta::FailEdge { u, v } => {
            w.u8(TAG_FAIL_EDGE)?;
            w.u32(u.0)?;
            w.u32(v.0)
        }
        GraphDelta::FailNode { v } => {
            w.u8(TAG_FAIL_NODE)?;
            w.u32(v.0)
        }
    }
}

fn decode_delta(r: &mut WireReader<'_>) -> io::Result<GraphDelta> {
    Ok(match r.u8()? {
        TAG_SET_WEIGHT => GraphDelta::SetWeight {
            u: NodeId(r.u32()?),
            v: NodeId(r.u32()?),
            w: r.u64()?,
        },
        TAG_FAIL_EDGE => GraphDelta::FailEdge {
            u: NodeId(r.u32()?),
            v: NodeId(r.u32()?),
        },
        TAG_FAIL_NODE => GraphDelta::FailNode {
            v: NodeId(r.u32()?),
        },
        tag => return Err(invalid_data(format!("unknown wal delta tag {tag}"))),
    })
}

fn write_header(sink: &mut dyn Write, magic: &[u8; 4], version: u16, epoch: u64) -> io::Result<()> {
    let mut w = WireWriter::new(sink);
    w.bytes(magic)?;
    w.u16(version)?;
    w.u16(0)?; // reserved
    w.u64(epoch)
}

fn read_header(
    source: &mut dyn Read,
    magic: &[u8; 4],
    expected: u16,
    what: &str,
) -> io::Result<u64> {
    let mut r = WireReader::new(source);
    let got = r.bytes(4)?;
    if got != magic {
        return Err(invalid_data(format!("{what}: bad magic {got:?}")));
    }
    let version = r.u16()?;
    if version != expected {
        return Err(invalid_data(format!(
            "{what}: version {version}, expected {expected}"
        )));
    }
    let _reserved = r.u16()?;
    r.u64()
}

// -------------------------------------------------------------- wal --

/// An append-only, checksummed log of applied [`GraphDelta`]s.
///
/// See the [module docs](self) for the format and the crash-recovery
/// semantics. Appends are flushed and `fdatasync`ed before returning,
/// so a delta acknowledged durable survives a crash immediately after.
#[derive(Debug)]
pub struct DeltaWal {
    file: File,
    epoch: u64,
    next_seq: u64,
    records: u64,
}

/// What [`DeltaWal::open`] recovered from an existing log.
#[derive(Debug)]
pub struct WalReplay {
    /// The valid records, in append order.
    pub deltas: Vec<GraphDelta>,
    /// Whether a torn tail was truncated away.
    pub torn_tail: bool,
    /// The log's epoch (matched against the checkpoint's by recovery).
    pub epoch: u64,
}

impl DeltaWal {
    /// Creates (or truncates) the log at `path` under `epoch`.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write failures.
    pub fn create(path: &Path, epoch: u64) -> io::Result<DeltaWal> {
        let mut file = File::create(path)?;
        write_header(&mut file, WAL_MAGIC, WAL_VERSION, epoch)?;
        file.sync_all()?;
        Ok(DeltaWal {
            file,
            epoch,
            next_seq: 1,
            records: 0,
        })
    }

    /// Opens an existing log, replaying its records and truncating a
    /// torn tail (see the [module docs](self)); the handle is
    /// positioned for further appends.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a bad header (a torn *tail* is tolerated, a
    /// corrupt *head* is not — there is nothing to recover from it);
    /// otherwise the underlying i/o failure.
    pub fn open(path: &Path) -> io::Result<(DeltaWal, WalReplay)> {
        let mut reader = BufReader::new(File::open(path)?);
        let epoch = read_header(&mut reader, WAL_MAGIC, WAL_VERSION, "delta wal")?;
        let mut deltas = Vec::new();
        let mut valid_len = HEADER_LEN;
        let mut next_seq = 1u64;
        let mut torn_tail = false;
        loop {
            match wire::read_frame(&mut reader, MAX_WAL_RECORD) {
                Ok(None) => break,
                Ok(Some(payload)) => match decode_record(&payload, next_seq) {
                    Some(delta) => {
                        deltas.push(delta);
                        next_seq += 1;
                        valid_len += 4 + payload.len() as u64;
                    }
                    None => {
                        torn_tail = true;
                        break;
                    }
                },
                Err(e) if wire::is_truncated(&e) => {
                    torn_tail = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        drop(reader);
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if torn_tail {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let records = deltas.len() as u64;
        Ok((
            DeltaWal {
                file,
                epoch,
                next_seq,
                records,
            },
            WalReplay {
                deltas,
                torn_tail,
                epoch,
            },
        ))
    }

    /// Appends one delta, durably (flush + sync), returning its
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Propagates the write or sync failure; on error the record may be
    /// half-written, which the next [`DeltaWal::open`] truncates away.
    pub fn append(&mut self, delta: &GraphDelta) -> io::Result<u64> {
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(32);
        {
            let mut w = WireWriter::new(&mut payload);
            w.u64(seq)?;
            encode_delta(&mut w, delta)?;
        }
        let checksum = fnv64(&payload);
        payload.extend_from_slice(&checksum.to_le_bytes());
        wire::write_frame(&mut self.file, &payload)?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.next_seq += 1;
        self.records += 1;
        Ok(seq)
    }

    /// Truncates the log back to an empty one under a new epoch —
    /// called after a checkpoint has folded the records in.
    ///
    /// # Errors
    ///
    /// Propagates the truncate/write failure.
    pub fn reset(&mut self, epoch: u64) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        write_header(&mut self.file, WAL_MAGIC, WAL_VERSION, epoch)?;
        self.file.sync_all()?;
        self.epoch = epoch;
        self.next_seq = 1;
        self.records = 0;
        Ok(())
    }

    /// Records currently in the log (since the last reset/create).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Decodes and verifies one WAL record; `None` means "treat as torn
/// tail" (bad checksum, wrong sequence number, malformed body).
fn decode_record(payload: &[u8], expected_seq: u64) -> Option<GraphDelta> {
    if payload.len() < 8 {
        return None;
    }
    let (body, tail) = payload.split_at(payload.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv64(body) != stored {
        return None;
    }
    let mut cursor = body;
    let mut r = WireReader::new(&mut cursor);
    let seq = r.u64().ok()?;
    if seq != expected_seq {
        return None;
    }
    let delta = decode_delta(&mut r).ok()?;
    if !cursor.is_empty() {
        return None; // trailing garbage inside a "valid" checksum
    }
    Some(delta)
}

// ------------------------------------------------------- checkpoint --

/// One consistent persisted state: epoch, graph, snapshot.
pub struct Checkpoint {
    /// The epoch this checkpoint was written under.
    pub epoch: u64,
    /// The graph the snapshot was built on, read back from its topology.
    pub graph: WGraph,
    /// The decoded snapshot.
    pub oracle: Oracle,
}

/// Atomically writes a checkpoint ([`wire::write_file_atomic`]): a
/// crash mid-write leaves the previous checkpoint intact. The graph is
/// not written beside the snapshot: every snapshot carries the graph it
/// was built on as its topology.
///
/// # Errors
///
/// Propagates the i/o failure; the temp file is cleaned up.
pub fn write_checkpoint(path: &Path, epoch: u64, oracle: &Oracle) -> io::Result<()> {
    let mut snap = Vec::new();
    oracle.save(&mut snap)?;
    wire::write_file_atomic(path, |sink| {
        write_header(sink, CKPT_MAGIC, CKPT_VERSION, epoch)?;
        let mut w = WireWriter::new(sink);
        w.u64(snap.len() as u64)?;
        w.bytes(&snap)
    })
}

/// Reads a checkpoint back.
///
/// # Errors
///
/// `InvalidData` for corruption (checkpoints are written atomically, so
/// unlike a WAL tail this is never expected) or another version,
/// otherwise the i/o failure.
pub fn read_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let mut reader = BufReader::new(File::open(path)?);
    let epoch = read_header(&mut reader, CKPT_MAGIC, CKPT_VERSION, "checkpoint")?;
    let mut r = WireReader::new(&mut reader);
    let snap_len = usize::try_from(r.u64()?)
        .map_err(|_| invalid_data("checkpoint snapshot length overflows usize"))?;
    if snap_len > wire::MAX_FRAME_LEN {
        return Err(invalid_data(format!(
            "checkpoint snapshot claims {snap_len} bytes"
        )));
    }
    let snap = r.bytes(snap_len)?;
    let oracle = Oracle::load_shared(SharedBytes::from_vec(snap))?;
    let topo = oracle.topology();
    let graph = WGraph::from_edges(topo.len(), &topo.undirected_edges())
        .map_err(|e| invalid_data(format!("checkpoint topology is not a graph: {e}")))?;
    Ok(Checkpoint {
        epoch,
        graph,
        oracle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pde-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn some_deltas() -> Vec<GraphDelta> {
        vec![
            GraphDelta::SetWeight {
                u: NodeId(0),
                v: NodeId(1),
                w: 7,
            },
            GraphDelta::FailEdge {
                u: NodeId(2),
                v: NodeId(3),
            },
            GraphDelta::FailNode { v: NodeId(4) },
        ]
    }

    #[test]
    fn wal_round_trips_in_order() {
        let path = temp_path("wal-rt");
        let mut wal = DeltaWal::create(&path, 1).unwrap();
        for d in &some_deltas() {
            wal.append(d).unwrap();
        }
        assert_eq!(wal.records(), 3);
        drop(wal);
        let (wal, replay) = DeltaWal::open(&path).unwrap();
        assert_eq!(replay.deltas, some_deltas());
        assert!(!replay.torn_tail);
        assert_eq!(replay.epoch, 1);
        assert_eq!(wal.records(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_path("wal-torn");
        let mut wal = DeltaWal::create(&path, 1).unwrap();
        for d in &some_deltas() {
            wal.append(d).unwrap();
        }
        drop(wal);
        // Tear the last record: chop a few bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let (mut wal, replay) = DeltaWal::open(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.deltas, some_deltas()[..2]);
        // The log keeps working after truncation, seq numbers intact.
        wal.append(&some_deltas()[2]).unwrap();
        drop(wal);
        let (_, replay) = DeltaWal::open(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.deltas.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_checksum_stops_replay() {
        let path = temp_path("wal-sum");
        let mut wal = DeltaWal::create(&path, 1).unwrap();
        for d in &some_deltas() {
            wal.append(d).unwrap();
        }
        drop(wal);
        // Flip one byte inside the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let header = HEADER_LEN as usize;
        // Record layout: 4-byte frame length + payload. Skip record 1.
        let rec1_len =
            4 + u32::from_le_bytes(bytes[header..header + 4].try_into().unwrap()) as usize;
        let target = header + rec1_len + 4 + 9; // inside record 2's delta body
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = DeltaWal::open(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.deltas, some_deltas()[..1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_bumps_epoch_and_empties() {
        let path = temp_path("wal-reset");
        let mut wal = DeltaWal::create(&path, 1).unwrap();
        wal.append(&some_deltas()[0]).unwrap();
        wal.reset(2).unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.epoch(), 2);
        wal.append(&some_deltas()[1]).unwrap();
        drop(wal);
        let (_, replay) = DeltaWal::open(&path).unwrap();
        assert_eq!(replay.epoch, 2);
        assert_eq!(replay.deltas, vec![some_deltas()[1]]);
        std::fs::remove_file(&path).ok();
    }

    /// The graph is read back from the snapshot's topology, for every
    /// backend; a version-1 checkpoint, which wrote the graph's own edge
    /// list first, is refused as typed `InvalidData`.
    #[test]
    fn checkpoints_round_trip_graph_and_snapshot() {
        use graphs::gen::{self, Weights};
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let g = gen::gnp_connected(24, 0.2, Weights::Uniform { lo: 1, hi: 40 }, &mut rng);
        let path = temp_path("ckpt-rt");
        for backend in oracle::Backend::ALL {
            let built = oracle::OracleBuilder::new(backend).k(2).build(&g);
            write_checkpoint(&path, 3, &built).unwrap();
            let back = read_checkpoint(&path).unwrap();
            assert_eq!(back.epoch, 3);
            assert_eq!(back.graph.edges(), g.edges(), "{backend}");
            assert_eq!(
                back.oracle.artifact_bytes(),
                built.artifact_bytes(),
                "{backend}"
            );
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let Err(err) = read_checkpoint(&path) else {
            panic!("a version-1 checkpoint was read");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_wal_head_is_a_hard_error() {
        let path = temp_path("wal-head");
        std::fs::write(&path, b"NOPE").unwrap();
        let err = DeltaWal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
