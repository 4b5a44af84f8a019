//! E9 — the paper's positioning table: rounds and stretch of every
//! algorithm family on the same graphs.

use crate::table::{f, Table};
use crate::workloads;
use baselines::{bellman_ford_apsp, flooding_apsp};
use compact::{build_hierarchy, CompactParams};
use graphs::algo::{apsp, hop_diameter};
use graphs::Seed;
use pde_core::approx_apsp;
use routing::{build_rtc, evaluate, PairSelection, RtcParams};

/// For each `n`: distance-vector Bellman–Ford (exact, `Θ(n²)`), link-state
/// flooding (exact, `Θ(m+D)`), Theorem 4.1 `(1+ε)`-APSP (`Õ(n)`),
/// Theorem 4.5 RTC (`Õ(√n·n^{1/(4k)}+D)`), and the Theorem 4.8 compact
/// hierarchy — the stretch-vs-rounds trade-off of the paper's
/// introduction.
pub fn e9_comparison(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E9 (intro comparison): rounds and stretch across algorithm families (k=2, eps=0.5)",
        &[
            "graph",
            "n",
            "m",
            "D",
            "algorithm",
            "rounds",
            "max_stretch",
            "table",
        ],
    );
    let mut cases: Vec<(String, graphs::WGraph)> = sizes
        .iter()
        .map(|&n| (format!("gnp{n}"), workloads::gnp(n, seed)))
        .collect();
    // The paper's "Congested Clique" extreme: D = 1, SPD = Θ(n), m = Θ(n²)
    // — where the flooding and distance-vector baselines hurt most.
    let wc = sizes.iter().max().copied().unwrap_or(24).min(32);
    cases.push((
        format!("clique{wc}"),
        graphs::gen::weighted_clique_multihop(wc),
    ));
    for (gname, g) in &cases {
        let n = g.len();
        let exact = apsp(g);
        let d = hop_diameter(g);
        let m = g.num_edges();
        let pairs = if n <= 32 {
            PairSelection::All
        } else {
            PairSelection::Sample {
                count: 400,
                seed: 5,
            }
        };
        let mut push = |alg: &str, rounds: u64, stretch: f64, table: String| {
            t.row(vec![
                gname.clone(),
                n.to_string(),
                m.to_string(),
                d.to_string(),
                alg.to_string(),
                rounds.to_string(),
                f(stretch),
                table,
            ]);
        };

        let bf = bellman_ford_apsp(g);
        push(
            "bellman-ford (RIP)",
            bf.metrics.rounds,
            1.0,
            format!("{n} dists"),
        );

        let fl = flooding_apsp(g, 0);
        push(
            "flooding (OSPF)",
            fl.metrics.rounds,
            1.0,
            format!("{} edges", fl.lsdb_edges),
        );

        let a = approx_apsp(g, 0.5);
        push(
            "PDE APSP (Thm 4.1)",
            a.rounds(),
            a.max_stretch(&exact),
            format!("{n} ests"),
        );

        let mut rp = RtcParams::new(2);
        rp.seed = Seed(seed);
        let rtc = build_rtc(g, &rp);
        let rr = evaluate(g, &rtc, &exact, pairs);
        push(
            "RTC k=2 (Thm 4.5)",
            rtc.metrics.total_rounds,
            rr.max_stretch,
            format!("{} entries", rr.max_table_entries),
        );

        let mut cp = CompactParams::new(2);
        cp.seed = Seed(seed);
        cp.c = 1.5;
        let comp = build_hierarchy(g, &cp);
        let cr = evaluate(g, &comp, &exact, pairs);
        push(
            "compact k=2 (Thm 4.8)",
            comp.metrics.total_rounds,
            cr.max_stretch,
            format!("{} entries", cr.max_table_entries),
        );
    }
    t
}
