//! E5 — Lemma 4.7 / Theorem 4.8: compact tables `Õ(n^{1/k})`, labels
//! `O(k log n)`, stretch `4k−3+o(1)`.

use crate::table::{f, Table};
use crate::workloads;
use compact::{build_hierarchy, CompactParams};
use graphs::algo::apsp;
use graphs::Seed;
use routing::{evaluate, PairSelection};

/// Sweeps `k` on a fixed G(n,p); reports table entries against
/// `n^{1/k}·ln n`, label bits against `k·log₂ n`, and the measured
/// stretch of the distributed approximate hierarchy against `4k−3`.
pub fn e5_compact(n: usize, ks: &[u32], seed: u64) -> Table {
    let mut t = Table::new(
        "E5 (Thm 4.8): compact hierarchy — tables ~n^{1/k}, labels O(k log n), stretch <= ~(4k-3)",
        &[
            "k",
            "tables",
            "n^{1/k}ln",
            "t/bound",
            "label_bits",
            "k*log2n",
            "stretch",
            "4k-3",
            "fails",
        ],
    );
    let g = workloads::gnp(n, seed);
    let exact = apsp(&g);
    let pairs = if n <= 40 {
        PairSelection::All
    } else {
        PairSelection::Sample {
            count: 600,
            seed: 7,
        }
    };
    for &k in ks {
        let mut params = CompactParams::new(k);
        params.seed = Seed(seed ^ u64::from(k));
        params.c = 1.5;
        let scheme = build_hierarchy(&g, &params);
        let report = evaluate(&g, &scheme, &exact, pairs);
        let table_bound = (n as f64).powf(1.0 / f64::from(k)) * (n as f64).ln();
        let label_bound = f64::from(k) * (n as f64).log2();
        t.row(vec![
            k.to_string(),
            report.max_table_entries.to_string(),
            f(table_bound),
            f(report.max_table_entries as f64 / table_bound),
            report.max_label_bits.to_string(),
            f(label_bound),
            f(report.max_stretch),
            (4 * k - 3).to_string(),
            report.failures.len().to_string(),
        ]);
    }
    t
}
