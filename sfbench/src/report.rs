//! Metric names and units, and the JSON the benchmark prints and stores.

use crate::e2e::E2eRun;
use crate::stats::{self, Summary};
use sfcc_trace::json::escape_into;
use std::fmt::Write as _;

/// One named measurement of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The run's value: a minimum, a median, a tail, a rate or a count.
    pub value: f64,
    /// Samples behind the value within the run (1 for counts and rates).
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// The end-to-end metrics `BENCHMARK.json` bounds, in reporting order:
/// `(name, unit, better)`. `fail_ratio` is not among them: a metric that is
/// 0 on every healthy run has no median to hold a bound against, so
/// failures travel as the `attempted`/`failed` counts of every result
/// instead.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("full_min_ms", "ms", "lower"),
    ("incr_min_ms", "ms", "lower"),
    ("noop_min_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("image_bytes", "B", "lower"),
    ("run_vm_steps", "count", "lower"),
];

/// What an untraced run reports beside [`END_TO_END`] and no bound is held
/// against: the middle and the tail of the same samples, which on a shared
/// host say more about the neighbours than about the compiler.
pub const REPORTED: [(&str, &str, &str); 5] = [
    ("full_p50_ms", "ms", "lower"),
    ("incr_p50_ms", "ms", "lower"),
    ("incr_tail_ms", "ms", "lower"),
    ("noop_p50_ms", "ms", "lower"),
    ("builds_per_s", "1/s", "higher"),
];

/// The end-to-end metrics whose value is a count that must repeat exactly
/// between two runs of one commit and seed.
pub const EXACT: [&str; 2] = ["image_bytes", "run_vm_steps"];

fn named(names: &[(&str, &'static str, &str)], values: &[(f64, usize)]) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), &(value, samples))| Metric::new(name, unit, value, samples))
        .collect()
}

/// The bounded end-to-end metrics of one untraced run, in [`END_TO_END`]
/// order.
pub fn end_to_end(run: &E2eRun) -> Vec<Metric> {
    named(
        &END_TO_END,
        &[
            (stats::fastest(&run.setup_s), run.setup_s.len()),
            (stats::fastest(&run.full_ms), run.full_ms.len()),
            (stats::fastest(&run.incr_ms), run.incr_ms.len()),
            (stats::fastest(&run.noop_ms), run.noop_ms.len()),
            (run.peak_rss_kb as f64 / 1024.0, 1),
            (run.image_bytes as f64, 1),
            (run.run_vm_steps as f64, 1),
        ],
    )
}

/// The unbounded metrics of the same run, in [`REPORTED`] order.
pub fn reported(run: &E2eRun) -> Vec<Metric> {
    named(
        &REPORTED,
        &[
            (stats::median(&run.full_ms), run.full_ms.len()),
            (stats::median(&run.incr_ms), run.incr_ms.len()),
            (run.incr_tail().0, run.incr_ms.len()),
            (stats::median(&run.noop_ms), run.noop_ms.len()),
            (stats::median(&run.incr_rates), run.incr_rates.len()),
        ],
    )
}

/// `"name": {"value": v, "unit": "u"}` for each of `metrics`, separated by
/// commas.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        escape_into(&mut out, &m.name);
        let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_num(m.value));
        escape_into(&mut out, m.unit);
        out.push('}');
    }
    out
}

/// Renders a number so that it parses back to the same `f64` and never as
/// `NaN`/`inf` (which JSON lacks): non-finite values become 0.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The one-line result of a driver run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        metrics_json(metrics)
    )
}

/// Renders a [`Summary`] plus the values behind it as a JSON object.
pub fn summary_json(unit: &str, summary: &Summary, values: &[f64], samples: u64) -> String {
    let mut out = String::from("{\"unit\":");
    escape_into(&mut out, unit);
    let _ = write!(
        out,
        ",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples_per_run\":{samples},\"values\":[",
        json_num(summary.median),
        json_num(summary.q1),
        json_num(summary.q3),
        summary.n
    );
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_num(*v));
    }
    out.push_str("]}");
    out
}

/// The machine this run is on: what every result must carry to be
/// comparable with another.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores available to this process.
    pub cores: usize,
    /// CPU model string (`/proc/cpuinfo`), empty when unknown.
    pub cpu: String,
    /// One-minute load average at start, negative when unknown.
    pub loadavg_1m: f64,
}

impl Host {
    /// Reads the host's description.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_default();
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|text| text.split_whitespace().next()?.parse().ok())
            .unwrap_or(-1.0);
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            loadavg_1m,
        }
    }

    /// A warning when the machine is already busy: timings taken beside
    /// another load do not compare with ones taken alone.
    pub fn load_warning(&self) -> Option<String> {
        (self.loadavg_1m > self.cores as f64 / 2.0).then(|| {
            format!(
                "warning: loadavg_1m {:.2} exceeds half of {} core(s); timings will not compare with a quiet run",
                self.loadavg_1m, self.cores
            )
        })
    }

    /// The host as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"cores\":{},\"cpu\":", self.cores);
        escape_into(&mut out, &self.cpu);
        let _ = write!(out, ",\"loadavg_1m\":{}}}", json_num(self.loadavg_1m));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            12,
            0,
            &[
                Metric::new("incr_min_ms", "ms", 1.25, 60),
                Metric::new("setup_s", "s", 0.5, 7),
            ],
        );
        let doc = sfcc_trace::json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let m = doc.get("metrics").unwrap().get("incr_min_ms").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let line = result_line(5, 1, &[]);
        assert!(line.contains("\"correct\": false"));
        assert!(line.contains("\"failed\": 1"));
    }

    #[test]
    fn non_finite_numbers_never_reach_the_json() {
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn busy_hosts_are_flagged() {
        let mut host = Host {
            cores: 2,
            cpu: String::new(),
            loadavg_1m: 0.4,
        };
        assert!(host.load_warning().is_none());
        host.loadavg_1m = 1.5;
        assert!(host.load_warning().unwrap().contains("loadavg_1m 1.50"));
    }
}
