// Quickstart: build a distance oracle once, query it many times, and
// serve it from a snapshot — the unified `DistanceOracle` API.
//
// Run with: `cargo run --release --example quickstart`
//
// (Plain `//` comments and a separate `demo` entry point, so that
// `tests/quickstart_smoke.rs` can `include!` this file verbatim and keep
// the public umbrella API exercised by `cargo test`.)

use pde_repro::graphs::{NodeId, WGraph};
use pde_repro::oracle::{Backend, DistanceOracle, Oracle, OracleBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    demo()
}

/// The whole example; also run as a smoke test by the test suite.
pub fn demo() -> Result<(), Box<dyn std::error::Error>> {
    // A small weighted network: a ring with one expensive chord.
    let g = WGraph::from_edges(
        6,
        &[
            (0, 1, 3),
            (1, 2, 4),
            (2, 3, 2),
            (3, 4, 6),
            (4, 5, 1),
            (5, 0, 5),
            (0, 3, 20),
        ],
    )?;

    // 1. One builder for every backend. Here: PDE at its defaults (every
    //    node a source, h = σ = n), which is deterministic (1+ε)-
    //    approximate APSP (Theorem 4.1), built once, queried many times.
    let apsp = OracleBuilder::new(Backend::Pde).eps(0.25).build(&g);
    println!(
        "approx-APSP oracle: {} CONGEST rounds to build, {} KiB artifact, stretch <= {:.2}",
        apsp.build_metrics().rounds,
        apsp.size_bits() / 8 / 1024,
        apsp.stretch_bound(),
    );
    for u in g.nodes() {
        for v in g.nodes() {
            if u < v {
                println!("  wd'({u}, {v}) = {:>3}", apsp.estimate(u, v));
            }
        }
    }

    // 2. Batch queries answer straight out of flat tables — the serving
    //    path for heavy query traffic.
    let pairs: Vec<(NodeId, NodeId)> = vec![
        (NodeId(2), NodeId(0)),
        (NodeId(2), NodeId(5)),
        (NodeId(1), NodeId(4)),
    ];
    let mut answers = Vec::new();
    apsp.estimate_many_with(&pairs, &mut answers, 1);
    println!("\nbatch answers: {answers:?}");

    // 3. Route tracing lives on the trait — no Topology plumbing. A PDE
    //    oracle towards a server set S = {0, 3} (Corollary 3.5).
    let servers = vec![true, false, false, true, false, false];
    let pde = OracleBuilder::new(Backend::Pde)
        .sources(servers)
        .horizon(3)
        .sigma(2)
        .build(&g);
    let route = pde
        .route(NodeId(2), NodeId(0))
        .ok_or("routing failed: no route 2 -> 0")?;
    let hops: Vec<String> = route.nodes.iter().map(ToString::to_string).collect();
    println!(
        "route 2 -> 0: {} (weight {}, {} hops)",
        hops.join(" -> "),
        route.weight,
        route.hops()
    );

    // 4. Build once, serve from disk: `save` writes the one snapshot
    //    format (header + checksummed arena; `size_bits()` above is 8 ×
    //    its length), and the reload answers bit-identically from
    //    zero-copy views into the bytes it read.
    let mut bytes = Vec::new();
    apsp.save(&mut bytes)?;
    let served = Oracle::load(&mut &bytes[..])?;
    assert_eq!(
        served.estimate(NodeId(2), NodeId(0)),
        apsp.estimate(NodeId(2), NodeId(0)),
    );
    println!(
        "\nsnapshot: {} bytes, backend {}, answers identical after reload",
        bytes.len(),
        served.backend(),
    );
    Ok(())
}
