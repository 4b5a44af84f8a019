//! `compare A B`: applies every end-to-end metric's direction and bound
//! to two sets of runs of the same workloads. `A` is the parent (or the
//! first A/A set), `B` the change. Per-layer metrics are listed without
//! a verdict — they explain a difference, they do not gate it.

use crate::report::{parse_result, RunResult};
use crate::spec::{self, Better};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// The outcome for one `(workload, metric)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `B` is better than `A` by more than the spread of the runs.
    Improved,
    /// Within the bound, and the runs are steady enough to say so.
    Unchanged,
    /// `B`'s median is worse than `A`'s by more than the bound.
    Regressed,
    /// The runs' quartiles are wider than the bound and the two sides
    /// overlap: the data cannot tell unchanged from regressed.
    Unresolved,
}

/// The runs of one side for one metric: each run's value, or — when the
/// side is a single run — that run's own quartiles.
#[derive(Clone, Debug)]
pub struct Side {
    /// Median / quartiles across the side's runs.
    pub summary: Summary,
    /// Smallest run value.
    pub min: f64,
    /// Largest run value.
    pub max: f64,
}

impl Side {
    /// A side made of several runs' values.
    pub fn of_runs(values: &[f64]) -> Option<Side> {
        Some(Side {
            summary: summarize(values)?,
            min: values.iter().copied().fold(f64::MAX, f64::min),
            max: values.iter().copied().fold(f64::MIN, f64::max),
        })
    }

    /// A side made of one run: its within-run quartiles stand in for the
    /// run-to-run spread.
    pub fn of_one(summary: Summary) -> Side {
        Side {
            summary,
            min: summary.q1.min(summary.median),
            max: summary.q3.max(summary.median),
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better), for the metric's direction.
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges one metric.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let worse = worse_by(a.summary.median, b.summary.median, better);
    let spread = a.summary.spread().max(b.summary.spread());
    // Every run of one side beats every run of the other.
    let (b_all_better, b_all_worse) = match better {
        Better::Lower => (b.max < a.min, b.min > a.max),
        Better::Higher => (b.min > a.max, b.max < a.min),
    };
    if spread > bound {
        return if b_all_better {
            Verdict::Improved
        } else if b_all_worse && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Result files under `path`: the file itself, or every `result-*.json`
/// in the directory.
fn load(path: &Path) -> Result<Vec<RunResult>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("result-") && name.ends_with(".json") {
                files.push(entry.path());
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        return Err(format!("{}: no result-*.json files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_result(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

type Grouped = BTreeMap<(String, bool), Vec<RunResult>>;

fn group(runs: Vec<RunResult>) -> Grouped {
    let mut grouped = Grouped::new();
    for run in runs {
        grouped
            .entry((run.workload.clone(), run.traced))
            .or_default()
            .push(run);
    }
    grouped
}

fn side(runs: &[RunResult], metric: &str) -> Option<Side> {
    let summaries: Vec<Summary> = runs
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    match summaries.as_slice() {
        [] => None,
        [one] => Some(Side::of_one(*one)),
        many => Side::of_runs(&many.iter().map(|s| s.median).collect::<Vec<_>>()),
    }
}

/// Compares two sets of runs; prints one row per `(workload, metric)`
/// and returns whether anything regressed.
pub fn compare(a: Vec<RunResult>, b: Vec<RunResult>) -> (String, bool) {
    use std::fmt::Write as _;
    let (a, b) = (group(a), group(b));
    let directions = spec::directions();
    let mut out = String::new();
    let mut regressed = false;
    for ((workload, traced), a_runs) in &a {
        let Some(b_runs) = b.get(&(workload.clone(), *traced)) else {
            let _ = writeln!(out, "# {workload}: only in A");
            continue;
        };
        let failed: u64 = a_runs.iter().chain(b_runs).map(|r| r.failed).sum();
        let _ = writeln!(
            out,
            "# {workload} ({}) — A: {} runs, B: {} runs, failed operations: {failed}\n{:<40} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
            if *traced { "per-layer" } else { "end-to-end" },
            a_runs.len(),
            b_runs.len(),
            "metric",
            "A median",
            "B median",
            "worse%",
            "A iqr%",
            "B iqr%",
            "bound%"
        );
        regressed |= failed > 0;
        let names: Vec<&String> = a_runs[0].metrics.keys().collect();
        for name in names {
            let (Some(sa), Some(sb)) = (side(a_runs, name), side(b_runs, name)) else {
                continue;
            };
            let gate = spec::end_to_end(name);
            let better = directions.get(name).copied().unwrap_or(Better::Lower);
            let worse = worse_by(sa.summary.median, sb.summary.median, better);
            let verdict = gate.map(|m| judge(&sa, &sb, m.better, m.bound));
            regressed |= verdict == Some(Verdict::Regressed);
            let _ = writeln!(
                out,
                "{name:<40} {:>14.6} {:>14.6} {:>8.2} {:>8.2} {:>8.2} {:>6}  {}",
                sa.summary.median,
                sb.summary.median,
                100.0 * worse,
                100.0 * sa.summary.spread(),
                100.0 * sb.summary.spread(),
                gate.map_or("-".to_string(), |m| format!("{:.0}", 100.0 * m.bound)),
                match verdict {
                    Some(Verdict::Improved) => "improved",
                    Some(Verdict::Unchanged) => "unchanged",
                    Some(Verdict::Regressed) => "REGRESSED",
                    Some(Verdict::Unresolved) => "unresolved",
                    None => "",
                }
            );
        }
        // Exact outputs: a digest present on both sides must agree when
        // the seeds do (same-seed sets are what A/A compares).
        for (ra, rb) in a_runs.iter().zip(b_runs) {
            if ra.digests.get("inputs") == rb.digests.get("inputs") && ra.digests != rb.digests {
                let _ = writeln!(out, "DIGESTS DIFFER on equal inputs in {workload}");
                regressed = true;
            }
        }
    }
    (out, regressed)
}

/// `compare A B` from the command line.
pub fn cli(a: &Path, b: &Path) -> ExitCode {
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (text, regressed) = compare(a, b);
            print!("{text}");
            if regressed {
                eprintln!("regression (or failed operations) found");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Side {
        Side::of_runs(values).unwrap()
    }

    #[test]
    fn steady_runs_within_the_bound_are_unchanged() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let b = runs(&[100.5, 101.5, 99.5, 101.0, 100.0]);
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Unchanged);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Unchanged);
        // Worse, but inside the bound.
        let b = runs(&[103.0, 104.0, 102.0, 103.5, 102.5]);
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = runs(&[115.0, 116.0, 114.0, 115.5, 114.5]);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.10), Verdict::Regressed);
        // The same numbers are an improvement for a throughput…
        assert_eq!(judge(&a, &slower, Better::Higher, 0.10), Verdict::Improved);
        // …and a throughput that drops is a regression.
        let lower = runs(&[85.0, 86.0, 84.0, 85.5, 84.5]);
        assert_eq!(judge(&a, &lower, Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(judge(&a, &lower, Better::Lower, 0.10), Verdict::Improved);
    }

    #[test]
    fn wide_overlapping_quartiles_are_unresolved_not_unchanged() {
        let a = runs(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        let b = runs(&[85.0, 104.0, 125.0, 95.0, 112.0]);
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        // Unless every run of B beats every run of A.
        let clear = runs(&[40.0, 50.0, 60.0, 45.0, 55.0]);
        assert_eq!(judge(&a, &clear, Better::Lower, 0.10), Verdict::Improved);
        let bad = runs(&[160.0, 200.0, 240.0, 180.0, 220.0]);
        assert_eq!(judge(&a, &bad, Better::Lower, 0.10), Verdict::Regressed);
    }

    #[test]
    fn a_single_run_uses_its_own_quartiles() {
        let one = |q1, median, q3| {
            Side::of_one(Summary {
                n: 9,
                q1,
                median,
                q3,
            })
        };
        assert_eq!(
            judge(
                &one(99.0, 100.0, 101.0),
                &one(101.0, 102.0, 103.0),
                Better::Lower,
                0.10
            ),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(
                &one(80.0, 100.0, 120.0),
                &one(85.0, 105.0, 125.0),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn whole_files_compare_and_flag_regressions() {
        let result = |setup_s: f64| {
            format!(
                "{{\"workload\": \"build-weighted\", \"seed\": 1, \"trace\": 0, \"correct\": true,
                  \"attempted\": 5, \"failed\": 0, \"failures\": [], \"digests\": {{}},
                  \"metrics\": {{\"setup_s\": {{\"value\": {setup_s}, \"unit\": \"s\", \"q1\": {setup_s}, \"q3\": {setup_s}, \"n\": 1}}}}}}"
            )
        };
        let set = |values: &[f64]| -> Vec<RunResult> {
            values
                .iter()
                .map(|&v| parse_result(&result(v)).unwrap())
                .collect()
        };
        let (text, regressed) = compare(set(&[10.0, 10.1, 9.9]), set(&[10.2, 10.0, 10.1]));
        assert!(!regressed && text.contains("unchanged"), "{text}");
        let (text, regressed) = compare(set(&[10.0, 10.1, 9.9]), set(&[13.0, 13.1, 12.9]));
        assert!(regressed && text.contains("REGRESSED"), "{text}");
    }
}
