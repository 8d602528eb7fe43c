//! `sfbench check <a> <b>`: two result sets held against the bounds fixed
//! in `BENCHMARK.json`.
//!
//! For every pairing of workload and end-to-end metric the change's
//! median (`b`) may be worse than the parent's (`a`) by at most the
//! metric's bound. Where either set's own run-to-run spread is wider than
//! the bound the pairing is reported as *unresolved*, never as unchanged.
//! The exact-repeat counts must be equal, and the share of failed
//! operations must not rise.

use crate::report::EXACT;
use crate::stats::Summary;
use sfcc_trace::json::{self, Value};
use std::fmt::Write as _;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// Reads the end-to-end metrics and their bounds from the text of
/// `BENCHMARK.json`.
///
/// # Errors
///
/// The text is not JSON or an entry lacks `name`, `better` or `bound`.
pub fn parse_bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no \"end_to_end\" list")?;
    entries
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str);
            let better = entry.get("better").and_then(Value::as_str);
            let bound = entry.get("bound").and_then(number);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err("an end_to_end entry lacks name, better or bound".to_string()),
            }
        })
        .collect()
}

/// One workload of a result set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Failed ÷ attempted operations.
    pub fail_ratio: f64,
    /// Each metric's summary over the set's runs.
    pub metrics: Vec<(String, Summary)>,
}

/// Reads the workloads of a results file written by `sfbench run`.
///
/// # Errors
///
/// The text is not a results document.
pub fn parse_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("no \"workloads\" list")?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a workload has no name")?;
            let fail_ratio = w.get("fail_ratio").and_then(number).unwrap_or(0.0);
            let metrics = w
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("a workload has no metrics")?
                .iter()
                .map(|(metric, v)| {
                    let field = |key: &str| v.get(key).and_then(number).unwrap_or(0.0);
                    let summary = Summary {
                        n: field("n") as usize,
                        q1: field("q1"),
                        median: field("median"),
                        q3: field("q3"),
                    };
                    (metric.clone(), summary)
                })
                .collect();
            Ok(WorkloadResult {
                name: name.to_string(),
                fail_ratio,
                metrics,
            })
        })
        .collect()
}

/// The outcome of one pairing of workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, both sets steady enough to say so.
    Ok,
    /// A set's own spread exceeds the bound: nothing can be said.
    Unresolved,
    /// Worse than the bound allows.
    Regression,
    /// An exact-repeat count differs.
    Mismatch,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::Mismatch => "MISMATCH",
        }
    }
}

/// Holds one metric of `b` against the same metric of `a`. Returns the
/// verdict and by how much `b` is worse, as a share of `a`'s median
/// (negative when it is better).
pub fn judge(bound: &Bound, a: &Summary, b: &Summary) -> (Verdict, f64) {
    let worse = if a.median == 0.0 {
        0.0
    } else if bound.higher_is_better {
        (a.median - b.median) / a.median.abs()
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let verdict = if EXACT.contains(&bound.name.as_str()) {
        if a.median == b.median && a.spread() == 0.0 && b.spread() == 0.0 {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        }
    } else if a.spread() > bound.bound || b.spread() > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// The printed comparison and whether it found a violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload and metric.
    pub table: String,
    /// Regressions, mismatches and rises in `fail_ratio`.
    pub violations: usize,
    /// Pairings whose spread was too wide to judge.
    pub unresolved: usize,
}

/// Compares result set `b` (the change) with `a` (the parent).
pub fn compare(bounds: &[Bound], a: &[WorkloadResult], b: &[WorkloadResult]) -> Comparison {
    let mut table = format!(
        "{:<22} {:<15} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "a.median",
        "a.q1",
        "a.q3",
        "b.median",
        "b.q1",
        "b.q3",
        "worse%",
        "bound%"
    );
    let (mut violations, mut unresolved) = (0, 0);
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(table, "{:<22} missing from the second set", wa.name);
            violations += 1;
            continue;
        };
        for bound in bounds {
            let find = |w: &WorkloadResult| {
                w.metrics
                    .iter()
                    .find(|(name, _)| *name == bound.name)
                    .map(|(_, s)| *s)
            };
            let (Some(sa), Some(sb)) = (find(wa), find(wb)) else {
                let _ = writeln!(
                    table,
                    "{:<22} {:<15} missing from a set",
                    wa.name, bound.name
                );
                violations += 1;
                continue;
            };
            let (verdict, worse) = judge(bound, &sa, &sb);
            match verdict {
                Verdict::Ok => {}
                Verdict::Unresolved => unresolved += 1,
                Verdict::Regression | Verdict::Mismatch => violations += 1,
            }
            let _ = writeln!(
                table,
                "{:<22} {:<15} {:>12.4} {:>10.4} {:>10.4} {:>12.4} {:>10.4} {:>10.4} {:>8.2} {:>6.1}  {}",
                wa.name,
                bound.name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                worse * 100.0,
                bound.bound * 100.0,
                verdict.label()
            );
        }
        let rose = wb.fail_ratio > wa.fail_ratio;
        violations += usize::from(rose);
        let _ = writeln!(
            table,
            "{:<22} {:<15} {:>12.4} {:>10} {:>10} {:>12.4} {:>10} {:>10} {:>8} {:>6}  {}",
            wa.name,
            "fail_ratio",
            wa.fail_ratio,
            "",
            "",
            wb.fail_ratio,
            "",
            "",
            "",
            "0",
            if rose { "REGRESSION" } else { "ok" }
        );
    }
    Comparison {
        table,
        violations,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    fn steady(median: f64) -> Summary {
        Summary {
            n: 5,
            q1: median * 0.99,
            median,
            q3: median * 1.01,
        }
    }

    #[test]
    fn within_the_bound_is_ok_and_beyond_is_a_regression() {
        let b = bound("incr_min_ms", false, 0.10);
        assert_eq!(judge(&b, &steady(100.0), &steady(108.0)).0, Verdict::Ok);
        assert_eq!(judge(&b, &steady(100.0), &steady(80.0)).0, Verdict::Ok);
        let (verdict, worse) = judge(&b, &steady(100.0), &steady(112.0));
        assert_eq!(verdict, Verdict::Regression);
        assert!((worse - 0.12).abs() < 1e-9);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let b = bound("builds_per_s", true, 0.10);
        assert_eq!(judge(&b, &steady(10.0), &steady(12.0)).0, Verdict::Ok);
        assert_eq!(
            judge(&b, &steady(10.0), &steady(8.5)).0,
            Verdict::Regression
        );
    }

    #[test]
    fn a_noisy_set_is_unresolved_not_unchanged() {
        let b = bound("noop_min_ms", false, 0.10);
        let noisy = Summary {
            n: 5,
            q1: 90.0,
            median: 100.0,
            q3: 105.0,
        };
        assert_eq!(judge(&b, &noisy, &steady(100.0)).0, Verdict::Unresolved);
        assert_eq!(judge(&b, &steady(100.0), &noisy).0, Verdict::Unresolved);
        // Even a large shift cannot be called a regression from noisy sets.
        assert_eq!(judge(&b, &noisy, &steady(150.0)).0, Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let b = bound("image_bytes", false, 0.02);
        assert_eq!(
            judge(&b, &Summary::of(&[5000.0]), &Summary::of(&[5000.0])).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&b, &Summary::of(&[5000.0]), &Summary::of(&[5001.0])).0,
            Verdict::Mismatch
        );
        // Not even a smaller image passes: the sets are of one commit.
        assert_eq!(
            judge(&b, &Summary::of(&[5000.0]), &Summary::of(&[4000.0])).0,
            Verdict::Mismatch
        );
    }

    const SPEC: &str = r#"{"end_to_end":[
        {"name":"incr_min_ms","unit":"ms","better":"lower","bound":0.1},
        {"name":"image_bytes","unit":"B","better":"lower","bound":0.02}]}"#;

    fn results(incr: f64, image: f64, fail_ratio: f64) -> String {
        format!(
            r#"{{"workloads":[{{"name":"w","fail_ratio":{fail_ratio},"metrics":{{
              "incr_min_ms":{{"unit":"ms","median":{incr},"q1":{incr},"q3":{incr},"n":3}},
              "image_bytes":{{"unit":"B","median":{image},"q1":{image},"q3":{image},"n":3}}}}}}]}}"#
        )
    }

    #[test]
    fn two_equal_sets_pass_and_every_pairing_has_a_row() {
        let bounds = parse_bounds(SPEC).unwrap();
        let a = parse_results(&results(100.0, 5000.0, 0.0)).unwrap();
        let cmp = compare(&bounds, &a, &a);
        assert_eq!((cmp.violations, cmp.unresolved), (0, 0));
        assert_eq!(cmp.table.lines().count(), 1 + 3, "{}", cmp.table);
        assert!(cmp.table.contains("fail_ratio"));
    }

    #[test]
    fn a_rise_in_fail_ratio_is_a_violation_whatever_the_timings() {
        let bounds = parse_bounds(SPEC).unwrap();
        let a = parse_results(&results(100.0, 5000.0, 0.0)).unwrap();
        let b = parse_results(&results(50.0, 5000.0, 0.01)).unwrap();
        assert_eq!(compare(&bounds, &a, &b).violations, 1);
    }

    #[test]
    fn a_missing_workload_is_a_violation() {
        let bounds = parse_bounds(SPEC).unwrap();
        let a = parse_results(&results(100.0, 5000.0, 0.0)).unwrap();
        assert_eq!(compare(&bounds, &a, &[]).violations, 1);
    }
}
