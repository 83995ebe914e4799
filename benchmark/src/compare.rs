//! `--compare A B`: two sets of runs, per (end-to-end metric, workload).
//!
//! Each file holds one record per line as the all-workloads mode writes
//! them. A set usually holds several runs of each workload; medians are
//! compared, and the quartile spread decides whether the comparison can
//! be trusted at the metric's bound.

use crate::json::Json;
use crate::spec::{Declared, Spec};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;

/// The end-to-end runs of one record file.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunSet {
    /// (workload, metric) → the value of every run.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// workload → the failed-op count of every run. A run whose document
    /// says `"correct": false` counts at least one.
    pub failed: BTreeMap<String, Vec<f64>>,
}

/// Reads a record file.
///
/// # Errors
///
/// A message with the line number of the first malformed record.
pub fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let fail = |what: &str| format!("line {}: {what}", n + 1);
        let rec = Json::parse(line).map_err(|e| fail(&e))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue; // per-layer records carry no bound to hold
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("no `workload`"))?;
        let result = rec.get("result").ok_or_else(|| fail("no `result`"))?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| fail("no `result.metrics`"))?;
        let failed = result
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or_else(|| fail("no `result.failed`"))?;
        let wrong = result.get("correct") != Some(&Json::Bool(true));
        set.failed
            .entry(workload.to_string())
            .or_default()
            .push(if wrong { failed.max(1.0) } else { failed });
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| fail("a metric without a value"))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B reads better than every run of A.
    Better,
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs of one set spread wider than the bound, so a difference
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Share of the base by which B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads, as a share of the median.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn judge(a: &[f64], b: &[f64], d: &Declared) -> (f64, f64, Verdict) {
    let bound = d.bound.unwrap_or(0.0);
    let (base, new) = (median(a), median(b));
    let sign = if d.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (new - base) / base.abs();
    let spread_of = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
    let spread = spread_of(a).max(spread_of(b));
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let verdict = if b.iter().all(|&x| a.iter().all(|&y| better(x, y))) {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (worse_by, spread, verdict)
}

/// The name of the row that compares failed ops.
const FAILED_ROW: &str = "ops_failed";

/// One row per declared (end-to-end metric, workload), and one per
/// workload for its failed ops: the worst run of B against the worst
/// run of A. More failures than the parent had is a regression whatever
/// the timings say — a gain does not count when more ops fail.
///
/// # Errors
///
/// Every declared pair that either set lacks: a workload that crashed,
/// or was never run, must not read as "0 regressed".
pub fn compare(a: &RunSet, b: &RunSet, spec: &Spec) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    let worst = |v: &Vec<f64>| v.iter().copied().fold(0.0, f64::max);
    for workload in &spec.workloads {
        for d in &spec.end_to_end {
            let key = (workload.clone(), d.name.clone());
            for (label, set) in [("A", a), ("B", b)] {
                if !set.values.contains_key(&key) {
                    missing.push(format!("{workload} {} is not in set {label}", d.name));
                }
            }
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (worse_by, spread, verdict) = judge(va, vb, d);
            rows.push(Row {
                workload: workload.clone(),
                metric: d.name.clone(),
                base: median(va),
                new: median(vb),
                worse_by,
                spread,
                bound: d.bound.unwrap_or(0.0),
                verdict,
            });
        }
        if let (Some(fa), Some(fb)) = (a.failed.get(workload), b.failed.get(workload)) {
            let (base, new) = (worst(fa), worst(fb));
            rows.push(Row {
                workload: workload.clone(),
                metric: FAILED_ROW.into(),
                base,
                new,
                worse_by: (new - base) / base.max(1.0),
                spread: 0.0,
                bound: 0.0,
                verdict: if new > base {
                    Verdict::Regressed
                } else {
                    Verdict::Within
                },
            });
        }
    }
    if missing.is_empty() {
        Ok(rows)
    } else {
        Err(missing.join("\n"))
    }
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<17} {:<22} {:>14} {:>14} {:>8} {:>9} {:>8} {:>8}  verdict\n",
        "workload", "metric", "base (A)", "new (B)", "B/A", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<17} {:<22} {:>14.6} {:>14.6} {:>8.4} {:>+8.2}% {:>7.2}% {:>7.2}%  {:?}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            if r.base == r.new { 1.0 } else { r.new / r.base },
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(lower: bool, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            unit: "us".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let lat = declared(true, 0.10);
        // +5 % on a latency: inside a 10 % bound.
        assert_eq!(
            judge(&a, &[105.0, 106.0, 104.0, 105.5], &lat).2,
            Verdict::Within
        );
        // +20 %: regressed.
        let (worse, _, v) = judge(&a, &[120.0, 121.0, 119.0, 120.5], &lat);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.1975).abs() < 0.01);
        // Every run lower: better, whatever the spread.
        assert_eq!(
            judge(&a, &[80.0, 98.0, 60.0, 90.0], &lat).2,
            Verdict::Better
        );
        // One set spreads ±20 % around the same median: cannot tell.
        assert_eq!(
            judge(&a, &[80.0, 120.0, 100.0, 90.0, 110.0], &lat).2,
            Verdict::Unresolved
        );
        // A throughput falls 20 %: regressed; rises: better.
        let rate = declared(false, 0.10);
        assert_eq!(
            judge(&a, &[80.0, 80.5, 79.5, 80.2], &rate).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.0], &rate).2,
            Verdict::Better
        );
        // An exact metric: identical is within, any rise regresses.
        let exact = declared(true, 1e-9);
        assert_eq!(judge(&[6.5, 6.5], &[6.5, 6.5], &exact).2, Verdict::Within);
        assert_eq!(
            judge(&[6.5, 6.5], &[6.5001, 6.5001], &exact).2,
            Verdict::Regressed
        );
    }

    fn record(workload: &str, trace: u8, value: f64, failed: u32) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": {trace}, \"result\": \
             {{\"correct\": {}, \"attempted\": 9, \"failed\": {failed}, \"metrics\": \
             {{\"m\": {{\"value\": {value}, \"unit\": \"us\"}}}}}}}}",
            failed == 0
        )
    }

    fn spec_of(workloads: &[&str]) -> Spec {
        Spec {
            workloads: workloads.iter().map(|w| w.to_string()).collect(),
            end_to_end: vec![declared(true, 0.1)],
            per_layer: vec![],
        }
    }

    #[test]
    fn records_group_by_workload_and_metric() {
        let text = [
            record("w1", 0, 1.0, 0),
            record("w1", 1, 9.0, 0),
            record("w1", 0, 3.0, 0),
            record("w2", 0, 5.0, 0),
        ]
        .join("\n");
        let set = parse_runs(&text).unwrap();
        assert_eq!(set.values[&("w1".to_string(), "m".to_string())], [1.0, 3.0]);
        assert_eq!(set.values[&("w2".to_string(), "m".to_string())], [5.0]);
        assert_eq!(set.failed["w1"], [0.0, 0.0], "traced records are skipped");
        assert!(parse_runs("{\"trace\": 0}")
            .unwrap_err()
            .starts_with("line 1"));

        let rows = compare(&set, &set, &spec_of(&["w1"])).unwrap();
        assert_eq!(rows.len(), 2, "the metric and the failed ops");
        assert_eq!((rows[0].base, rows[0].verdict), (2.0, Verdict::Unresolved));
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            (FAILED_ROW, Verdict::Within)
        );
        assert!(render(&rows).contains("Unresolved"));
    }

    #[test]
    fn a_missing_workload_is_an_error_not_a_pass() {
        let a = parse_runs(&[record("w1", 0, 1.0, 0), record("w2", 0, 1.0, 0)].join("\n")).unwrap();
        let b = parse_runs(&record("w1", 0, 1.0, 0)).unwrap();
        let err = compare(&a, &b, &spec_of(&["w1", "w2"])).unwrap_err();
        assert_eq!(err, "w2 m is not in set B");
        let err = compare(&b, &b, &spec_of(&["w1", "w2"])).unwrap_err();
        assert_eq!(err.lines().count(), 2, "missing from both: {err}");
    }

    #[test]
    fn more_failed_ops_than_the_parent_is_a_regression() {
        let a = parse_runs(&[record("w1", 0, 9.0, 0), record("w1", 0, 9.0, 0)].join("\n")).unwrap();
        // Faster in every run, but one run failed three ops.
        let b = parse_runs(&[record("w1", 0, 5.0, 0), record("w1", 0, 5.0, 3)].join("\n")).unwrap();
        let rows = compare(&a, &b, &spec_of(&["w1"])).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Better);
        assert_eq!(
            (rows[1].base, rows[1].new, rows[1].verdict),
            (0.0, 3.0, Verdict::Regressed)
        );
        // The parent failing as often is not the change's regression.
        assert_eq!(
            compare(&b, &b, &spec_of(&["w1"])).unwrap()[1].verdict,
            Verdict::Within
        );
        // `"correct": false` with no count still counts.
        let wrong = record("w1", 0, 5.0, 0).replace("\"correct\": true", "\"correct\": false");
        let c = parse_runs(&wrong).unwrap();
        assert_eq!(
            compare(&a, &c, &spec_of(&["w1"])).unwrap()[1].verdict,
            Verdict::Regressed
        );
    }
}
