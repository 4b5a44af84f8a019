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

use bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    let seed = 0x5EED;

    if want("e1") {
        println!("{}", e1_apsp(&[32, 48, 64, 96], &[0.5, 0.25], seed));
    }
    if want("e2") {
        let cases = [(4, 4), (6, 6), (8, 8), (6, 12), (10, 10)];
        println!("{}", e2_figure1(&cases, 0.5));
    }
    if want("e3") {
        let cases = [
            (8, 4, 0.5),
            (16, 4, 0.5),
            (32, 4, 0.5),
            (16, 8, 0.5),
            (16, 16, 0.5),
            (16, 8, 0.25),
        ];
        println!("{}", e3_pde(128, &cases, seed));
    }
    if want("e4") {
        println!("{}", e4_rtc(&[32, 48, 64], &[1, 2, 3], seed));
    }
    if want("e5") {
        println!("{}", e5_compact(64, &[2, 3, 4], seed));
    }
    if want("e6") {
        println!("{}", e6_truncated(40, 3, seed));
    }
    if want("e7") {
        println!("{}", e7_trees(&[32, 48, 64], 2, seed));
    }
    if want("e8") {
        println!("{}", e8_spanner(&[20, 30, 40], &[2, 3], seed));
    }
    if want("e9") {
        println!("{}", e9_comparison(&[24, 32, 48], seed));
    }
    if want("oracles") {
        println!("{}", oracles(48, seed));
    }
}
