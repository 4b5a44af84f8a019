//! Adversarial sweep against the socket server's read loop: torn
//! frames, garbage, oversized lengths, slow-loris drips, and hostile
//! request contents. The contract under attack input is always the
//! same — a *typed* error frame (or a clean close), never a panic, and
//! never collateral damage to other connections.
//!
//! Wire shape pinned here (see `net`'s module docs): every response
//! payload starts `version u8 | status u8 | op u8 | req_id u64`, with
//! status `0xEE` marking an error frame and `req_id == 0` marking a
//! pre-decode failure.

use congest::NodeId;
use graphs::{DeltaError, GraphDelta, WGraph};
use net::{Client, NetServer, ServerConfig, WireError};
use oracle::{Backend, OracleBuilder};
use serve::{DynamicOracle, OracleServer, ServeError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const STATUS_ERR: u8 = 0xEE;

fn ring_with_chord(n: u32) -> WGraph {
    let mut edges: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, (i + 1) % n, 2)).collect();
    edges.push((0, n / 2, 3));
    WGraph::from_edges(n as usize, &edges).unwrap()
}

fn serve_ring(cfg: ServerConfig) -> NetServer {
    let g = ring_with_chord(8);
    let registry = Arc::new(OracleServer::new());
    registry.install("ring", OracleBuilder::new(Backend::Flooding).build(&g));
    NetServer::bind("127.0.0.1:0", registry, cfg).unwrap()
}

/// A valid `Estimate("ring", 0, 2)` request frame, length prefix
/// included — the donor body for the truncation sweep.
fn estimate_frame(req_id: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(1u8); // NET_VERSION
    payload.push(1u8); // Op::Estimate
    payload.extend_from_slice(&req_id.to_le_bytes());
    payload.extend_from_slice(&(4u16).to_le_bytes()); // name len
    payload.extend_from_slice(b"ring");
    payload.extend_from_slice(&0u32.to_le_bytes()); // u
    payload.extend_from_slice(&2u32.to_le_bytes()); // v
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Reads everything the server sends until EOF (bounded by the read
/// timeout), returning the raw bytes.
fn drain(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    out
}

/// Asserts `bytes` is exactly one error frame with `req_id == 0` (a
/// pre-decode failure report) followed by the close.
fn assert_predecode_error_frame(bytes: &[u8], what: &str) {
    assert!(bytes.len() >= 4 + 11, "{what}: no frame before close");
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let payload = &bytes[4..];
    assert_eq!(payload.len(), len, "{what}: trailing bytes after the frame");
    assert_eq!(payload[0], 1, "{what}: wrong version byte");
    assert_eq!(payload[1], STATUS_ERR, "{what}: not an error frame");
    let req_id = u64::from_le_bytes(payload[3..11].try_into().unwrap());
    assert_eq!(req_id, 0, "{what}: pre-decode failures carry no request id");
}

#[test]
fn every_torn_request_prefix_leaves_the_server_serving() {
    let server = serve_ring(ServerConfig::default());
    let frame = estimate_frame(7);
    // Every strict prefix of a valid frame: a torn length prefix, a
    // torn header, a torn body — each on a fresh connection.
    for cut in 1..frame.len() {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&frame[..cut]).unwrap();
        raw.flush().unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        // The server may answer nothing (mid-frame EOF) or an error
        // frame (a whole-but-malformed payload); it must never hang or
        // panic. Draining to EOF proves the connection was closed.
        let _ = drain(&mut raw);
    }
    // The sweep cost the server nothing: a fresh client gets the right
    // answer.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.estimate("ring", NodeId(0), NodeId(2)).unwrap(), 4);
    server.shutdown();
}

#[test]
fn garbage_version_and_unknown_op_get_typed_error_frames() {
    let server = serve_ring(ServerConfig::default());
    // Bogus version byte.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = estimate_frame(9);
    frame[4] = 0x42; // version byte inside the payload
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    assert_predecode_error_frame(&drain(&mut raw), "bad version");
    // Unknown opcode.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = estimate_frame(9);
    frame[5] = 0xAA; // op byte
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    assert_predecode_error_frame(&drain(&mut raw), "unknown op");
    // Truncated body wrapped in a *complete* frame (the length prefix
    // is honest, the payload is not): a malformed-payload report.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let whole = estimate_frame(9);
    let cut_payload = &whole[4..whole.len() - 3];
    let mut frame = Vec::new();
    frame.extend_from_slice(&(cut_payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(cut_payload);
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    assert_predecode_error_frame(&drain(&mut raw), "truncated body");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.estimate("ring", NodeId(0), NodeId(2)).unwrap(), 4);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    let server = serve_ring(ServerConfig {
        max_frame: 1 << 16,
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // A length prefix claiming 256 MiB against a 64 KiB cap; no body
    // ever follows.
    raw.write_all(&(1u32 << 28).to_le_bytes()).unwrap();
    raw.flush().unwrap();
    assert_predecode_error_frame(&drain(&mut raw), "oversized");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.estimate("ring", NodeId(0), NodeId(2)).unwrap(), 4);
    server.shutdown();
}

#[test]
fn slow_loris_drip_is_shed_by_the_frame_deadline() {
    let server = serve_ring(ServerConfig {
        deadline: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let frame = estimate_frame(1);
    // Drip one byte per 100 ms: each read lands inside the socket
    // timeout, but the whole frame blows the per-frame deadline — the
    // exact hole a per-byte timeout leaves open.
    let start = std::time::Instant::now();
    let mut dripped = 0;
    for &b in frame.iter() {
        if raw.write_all(&[b]).is_err() {
            break; // the server already hung up — the point is made
        }
        let _ = raw.flush();
        dripped += 1;
        std::thread::sleep(Duration::from_millis(100));
        if start.elapsed() > Duration::from_secs(2) {
            break;
        }
    }
    assert!(dripped < frame.len(), "the server accepted the whole drip");
    // The connection is dead, and the server is not: the handler thread
    // was released for honest clients.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.estimate("ring", NodeId(0), NodeId(2)).unwrap(), 4);
    server.shutdown();
}

#[test]
fn out_of_range_node_id_costs_one_request_not_the_connection() {
    // Every backend on one 16-node graph; the admission window is long
    // enough for the hostile batch to arrive while an honest submitter is
    // still waiting in it.
    let g = ring_with_chord(16);
    let n = g.len();
    let registry = Arc::new(OracleServer::new());
    for backend in Backend::ALL {
        registry.install(backend.name(), OracleBuilder::new(backend).build(&g));
    }
    let cfg = ServerConfig {
        batch_window: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", registry, cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let honest = [(NodeId(0), NodeId(2)), (NodeId(3), NodeId(1))];
    let bad = NodeId(n as u32 + 5);
    let hostile = [honest[0], (NodeId(1), bad)];
    // A typed refusal naming the id and `n`: not an answer read from a
    // neighbouring row, and not a handler panic relayed as text.
    let refused = |reply: WireError, what: &str| match reply {
        WireError::Serve(ServeError::NodeOutOfRange { id, n: got }) => {
            assert_eq!((id, got), (bad, n), "{what}");
        }
        other => panic!("{what}: hostile node id got {other:?}, wanted NodeOutOfRange"),
    };
    for backend in Backend::ALL {
        let name = backend.name();
        let (want, _) = client.estimate_many(name, &honest, false).unwrap();
        refused(client.estimate(name, NodeId(0), bad).unwrap_err(), name);
        refused(client.estimate(name, bad, NodeId(0)).unwrap_err(), name);
        refused(client.next_hop(name, NodeId(0), bad).unwrap_err(), name);
        refused(client.route(name, bad, NodeId(0)).unwrap_err(), name);
        refused(
            client.estimate_many(name, &hostile, false).unwrap_err(),
            name,
        );

        // An honest batched submission opens an admission group; once the
        // server reports it queued, the hostile batch is refused without
        // joining it and the honest submitter is still answered.
        let addr = server.local_addr();
        let submitter = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.estimate_many(name, &honest, true).unwrap().0
        });
        let queued = |client: &mut Client| {
            let stats = client.stats().unwrap();
            let batch = stats.oracles.iter().find(|o| o.name == name);
            batch.is_some_and(|o| o.batch.submissions >= 1)
        };
        while !queued(&mut client) {
            std::thread::yield_now();
        }
        refused(
            client.estimate_many(name, &hostile, true).unwrap_err(),
            name,
        );
        assert_eq!(submitter.join().unwrap(), want, "{name}: honest submitter");

        // Same connection, same server: still serving.
        assert_eq!(client.estimate_many(name, &honest, true).unwrap().0, want);
        assert_eq!(
            client.estimate(name, NodeId(0), NodeId(2)).unwrap(),
            want[0]
        );
    }
    server.shutdown();
}

#[test]
fn hostile_failure_ids_cost_one_request_not_the_connection_or_the_mask() {
    // `FailNode`/`FailEdge` ids go straight into the liveness mask: one
    // past its last word used to panic under the state lock, and one in
    // `[n, 64·⌈n/64⌉)` or a non-edge was recorded and never lifted.
    let g = ring_with_chord(8);
    let n = g.len();
    let registry = Arc::new(OracleServer::new());
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .unwrap();
    let dynamic =
        DynamicOracle::install(&registry, "dyn", OracleBuilder::new(Backend::Flooding), &g);
    let dynamic = server.register_dynamic(dynamic.unwrap());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let want = client.estimate("dyn", NodeId(0), NodeId(2)).unwrap();
    let (at_n, past) = (NodeId(n as u32), NodeId(64 * n.div_ceil(64) as u32 + 1));
    let unknown = |v| DeltaError::UnknownNode { v, n };
    // The ring's chord is 0–4; 0–3 is no edge.
    let (u, v) = (NodeId(0), NodeId(3));
    let cases = [
        (GraphDelta::FailNode { v: at_n }, unknown(at_n)),
        (GraphDelta::FailNode { v: past }, unknown(past)),
        (GraphDelta::FailEdge { u, v: past }, unknown(past)),
        (
            GraphDelta::FailEdge { u, v },
            DeltaError::UnknownEdge { u, v },
        ),
    ];
    for (delta, refusal) in cases {
        let masked = match delta {
            GraphDelta::FailNode { v } => client.fail_node("dyn", v),
            GraphDelta::FailEdge { u, v } => client.fail_edge("dyn", u, v),
            GraphDelta::SetWeight { .. } => unreachable!(),
        };
        let repaired = client.repair_and_swap("dyn", &delta).map(drop);
        for (op, reply) in [("mask", masked), ("repair", repaired)] {
            match reply {
                Err(WireError::Delta(got)) => assert_eq!(got, refusal, "{delta} {op}"),
                other => panic!("{delta} {op}: got {other:?}, wanted {refusal:?}"),
            }
        }
        assert!(dynamic.mask().is_clear(), "{delta}: the mask was dirtied");
        let got = client.estimate("dyn", NodeId(0), NodeId(2)).unwrap();
        assert_eq!(got, want, "{delta}: the connection stopped serving");
    }
    server.shutdown();
}

#[test]
fn oversized_batch_is_shed_with_a_typed_error_and_the_connection_survives() {
    let server = serve_ring(ServerConfig {
        max_batch_pairs: 4,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let big: Vec<(NodeId, NodeId)> = (0..8u32).map(|i| (NodeId(i % 8), NodeId(0))).collect();
    let err = client.estimate_many("ring", &big, false).unwrap_err();
    match err {
        WireError::Overloaded { active, cap } => {
            assert_eq!((active, cap), (8, 4));
        }
        other => panic!("oversized batch got {other:?}, wanted Overloaded"),
    }
    let (small, _) = client.estimate_many("ring", &big[..2], false).unwrap();
    assert_eq!(small.len(), 2);
    assert_eq!(server.metrics().requests_shed, 1);
    server.shutdown();
}
