//! Prints the paper-reproduction tables (E1–E9 and the `DistanceOracle`
//! comparison).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin experiments             # all
//! cargo run --release -p bench --bin experiments -- e1 e4    # selected
//! cargo run --release -p bench --bin experiments -- oracles  # DistanceOracle table
//! ```
//!
//! Exits non-zero, naming the table and row, when a theorem check fails.

use bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = 0x5EED;
    let e3_cases = [
        (8, 4, 0.5),
        (16, 4, 0.5),
        (32, 4, 0.5),
        (16, 8, 0.5),
        (16, 16, 0.5),
        (16, 8, 0.25),
    ];
    let tables: [(&str, &dyn Fn() -> Table); 10] = [
        ("e1", &|| e1_apsp(&[32, 48, 64, 96], &[0.5, 0.25], seed)),
        ("e2", &|| {
            e2_figure1(&[(4, 4), (6, 6), (8, 8), (6, 12), (10, 10)], 0.5)
        }),
        ("e3", &|| e3_pde(128, &e3_cases, seed)),
        ("e4", &|| e4_rtc(&[32, 48, 64], &[1, 2, 3], seed)),
        ("e5", &|| e5_compact(64, &[2, 3, 4], seed)),
        ("e6", &|| e6_truncated(40, 3, seed)),
        ("e7", &|| e7_trees(&[32, 48, 64], 2, seed)),
        ("e8", &|| e8_spanner(&[20, 30, 40], &[2, 3], seed)),
        ("e9", &|| e9_comparison(&[24, 32, 48], seed)),
        ("oracles", &|| oracles(48, seed)),
    ];
    let mut failed = false;
    for (name, table) in tables {
        if args.is_empty() || args.iter().any(|a| a == name) {
            let t = table();
            println!("{t}");
            for row in t.failed_rows() {
                eprintln!(
                    "theorem check failed in {}: | {} |",
                    t.title,
                    row.join(" | ")
                );
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}
