//! Process counters read from Linux `/proc` (the benchmark's one
//! platform assumption besides loopback TCP).

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported `USER_HZ = 100` to user space on every architecture for two
/// decades; reading `sysconf` would need libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("Linux /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let after_name = stat.rsplit_once(')').expect("stat has a command name").1;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_positive_and_monotone() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        assert!(peak_rss_mib() > 0.5);
    }
}
