//! What a run collects — samples per metric, the correctness gate's
//! tally, digests — and the three ways it is printed: a table for
//! people, a result file for `compare`, and the one-line JSON object the
//! driver reads.

use crate::json::{self, quote};
use crate::spec::{self, Workload};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples, gate tally and digests of one run.
#[derive(Default)]
pub struct Report {
    samples: BTreeMap<String, Vec<f64>>,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed a check.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Answer digests per `(oracle, path)`; exact across runs of a seed.
    pub digests: BTreeMap<String, u64>,
}

impl Report {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// Adds several samples of `name`.
    pub fn extend(&mut self, name: impl Into<String>, values: impl IntoIterator<Item = f64>) {
        self.samples.entry(name.into()).or_default().extend(values);
    }

    /// The samples of `name` so far.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`, if measured.
    #[cfg(test)]
    pub fn median(&self, name: &str) -> Option<f64> {
        summarize(self.samples(name)).map(|s| s.median)
    }

    /// Counts `ops` checked operations; all of them failed when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// One run's identity.
#[derive(Clone, Copy, Debug)]
pub struct RunId {
    /// The workload whose phase was repeated.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// Whether spans were recorded.
    pub traced: bool,
}

/// `(name, unit)` of the metrics a run of this kind must report.
pub fn expected_metrics(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// A measured metric: `(name, unit, summary)`.
pub type Row = (String, &'static str, Summary);

/// The finite summary of `name`, if it was measured.
fn row(report: &Report, name: String, unit: &'static str) -> Result<Row, String> {
    match summarize(report.samples(&name)) {
        Some(s) if s.median.is_finite() => Ok((name, unit, s)),
        _ => Err(name),
    }
}

/// The summaries of every expected metric; a metric that was never
/// measured is a failure of the run, not a silent gap.
pub fn collect(report: &mut Report, traced: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, unit) in expected_metrics(traced) {
        match row(report, name, unit) {
            Ok(r) => rows.push(r),
            Err(name) => report.check(false, 1, || format!("metric {name} was not measured")),
        }
    }
    rows
}

/// Metrics of the *other* kind that this run measured anyway (an untraced
/// run still measures the whole-run figures kept in the per-layer set):
/// shown in the table and the result file, never in the driver's line.
pub fn also_measured(report: &Report, traced: bool) -> Vec<Row> {
    expected_metrics(!traced)
        .into_iter()
        .filter_map(|(name, unit)| row(report, name, unit).ok())
        .collect()
}

/// The table printed for people: every metric by name with unit, median,
/// quartiles and sample count.
pub fn table(id: RunId, rows: &[Row]) -> String {
    let mut out = format!(
        "# {} seed {} ({})\n{:<40} {:>8} {:>16} {:>16} {:>16} {:>6}\n",
        id.workload.name(),
        id.seed,
        if id.traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        "metric",
        "unit",
        "median",
        "q1",
        "q3",
        "n"
    );
    for (name, unit, s) in rows {
        let _ = writeln!(
            out,
            "{name:<40} {unit:>8} {:>16.6} {:>16.6} {:>16.6} {:>6}",
            s.median, s.q1, s.q3, s.n
        );
    }
    out
}

/// The result file `compare` reads.
pub fn result_json(id: RunId, report: &Report, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", quote(id.workload.name()));
    let _ = writeln!(out, "  \"seed\": {},", id.seed);
    let _ = writeln!(out, "  \"trace\": {},", u8::from(id.traced));
    let _ = writeln!(out, "  \"correct\": {},", report.failed == 0);
    let _ = writeln!(out, "  \"attempted\": {},", report.attempted);
    let _ = writeln!(out, "  \"failed\": {},", report.failed);
    let failures: Vec<String> = report.failures.iter().map(|f| quote(f)).collect();
    let _ = writeln!(out, "  \"failures\": [{}],", failures.join(", "));
    let digests: Vec<String> = report
        .digests
        .iter()
        .map(|(k, d)| format!("    {}: \"{d:016x}\"", quote(k)))
        .collect();
    let _ = writeln!(out, "  \"digests\": {{\n{}\n  }},", digests.join(",\n"));
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                quote(name),
                s.median,
                quote(unit),
                s.q1,
                s.q3,
                s.n
            )
        })
        .collect();
    let _ = write!(
        out,
        "  \"metrics\": {{\n{}\n  }}\n}}\n",
        metrics.join(",\n")
    );
    out
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(report: &Report, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                s.median,
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// One run as read back from a result file.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Whether it was the traced run.
    pub traced: bool,
    /// Failed operations.
    pub failed: u64,
    /// Metric name → (value, q1, q3, n).
    pub metrics: BTreeMap<String, Summary>,
    /// Digest key → hex digest.
    pub digests: BTreeMap<String, String>,
}

/// Parses a result file written by [`result_json`].
///
/// # Errors
///
/// A description of what is missing or malformed.
pub fn parse_result(text: &str) -> Result<RunResult, String> {
    let doc = json::parse(text)?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result has no \"{k}\""));
    let num = |v: &json::Value, k: &str| {
        v.get(k)
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("metric has no numeric \"{k}\""))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?.members() {
        metrics.insert(
            name.clone(),
            Summary {
                n: num(m, "n")? as usize,
                q1: num(m, "q1")?,
                median: num(m, "value")?,
                q3: num(m, "q3")?,
            },
        );
    }
    let digests = field("digests")?
        .members()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
        .collect();
    Ok(RunResult {
        workload: field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        traced: field("trace")?.as_f64() == Some(1.0),
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        digests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(traced: bool) -> Report {
        let mut report = Report::default();
        for (i, (name, _)) in expected_metrics(traced).into_iter().enumerate() {
            report.extend(name, [1.0 + i as f64, 2.0 + i as f64, 4.0 + i as f64]);
        }
        report.check(true, 5, String::new);
        report
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
        for traced in [false, true] {
            let mut report = measured(traced);
            let rows = collect(&mut report, traced);
            let line = driver_line(&report, &rows);
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
            let metrics = doc.get("metrics").unwrap().members();
            assert_eq!(metrics.len(), expected_metrics(traced).len());
            assert_eq!(
                metrics[0].1.get("value").and_then(json::Value::as_f64),
                Some(2.0)
            );
        }
    }

    #[test]
    fn an_unmeasured_metric_fails_the_run() {
        let mut report = Report::default();
        report.push("setup_s", 1.0);
        let rows = collect(&mut report, false);
        assert_eq!(rows.len(), 1);
        assert_eq!(report.failed as usize, spec::END_TO_END.len() - 1);
        assert!(report.failures[0].contains("was not measured"));
    }

    #[test]
    fn result_file_round_trips() {
        let mut report = measured(false);
        report.digests.insert("pde.answers".to_string(), 0xABCD);
        report.check(false, 10, || "ten wrong answers".to_string());
        assert_eq!((report.failed, report.attempted), (10, 15));
        let rows = collect(&mut report, false);
        let id = RunId {
            workload: Workload::SocketBulk,
            seed: 11,
            traced: false,
        };
        let back = parse_result(&result_json(id, &report, &rows)).unwrap();
        assert_eq!(back.workload, "socket-bulk");
        assert!(!back.traced);
        assert_eq!(back.failed, 10);
        assert_eq!(back.metrics["setup_s"].median, 2.0);
        assert_eq!(back.metrics["setup_s"].n, 3);
        assert_eq!(back.digests["pde.answers"], "000000000000abcd");
        assert!(table(id, &rows).contains("setup_s"));
    }
}
