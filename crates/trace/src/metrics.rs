//! Typed metrics registry: counters, gauges, and histograms.
//!
//! One [`Registry`] is populated per build and snapshotted into the
//! `BuildReport`, making it the single source for every numeric field the
//! report emits (query stats, cache stats, pass profiles, dormancy
//! counts, faultfs op counts, recovery counters). Names are dotted paths
//! (`query.hits`, `pass.inline.runs`); snapshots iterate in name order so
//! their JSON rendering is deterministic.

use crate::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Summary of a recorded value distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Histogram {
    fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean sample value, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// One metric's current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-set value.
    Gauge(u64),
    /// Distribution summary.
    Histogram(Histogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A thread-safe collection of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to the counter `name`, creating it at zero first.
    ///
    /// # Panics
    /// If `name` already exists with a different metric type.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Set the gauge `name` to `value`.
    ///
    /// # Panics
    /// If `name` already exists with a different metric type.
    pub fn gauge_set(&self, name: &str, value: u64) {
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match map.entry(name.to_string()).or_insert(MetricValue::Gauge(0)) {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Record one sample into the histogram `name`.
    ///
    /// # Panics
    /// If `name` already exists with a different metric type.
    pub fn histogram_record(&self, name: &str, sample: u64) {
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert(MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h.record(sample),
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Copy the current values into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            values: self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }
}

/// An immutable, ordered copy of a [`Registry`]'s values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Metric values keyed by dotted name, in name order.
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Look up a metric by name.
    pub fn value(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// The value of a counter or gauge, if present.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        match self.values.get(name)? {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// The snapshot as a JSON object, `{"name":{"type":"counter","value":N},…}`
    /// in name order.
    pub fn to_value(&self) -> Value {
        Value::Obj(
            self.values
                .iter()
                .map(|(name, value)| {
                    let entry = match value {
                        MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                            Value::obj([("type", value.kind().into()), ("value", (*v).into())])
                        }
                        MetricValue::Histogram(h) => Value::obj([
                            ("type", value.kind().into()),
                            ("count", h.count.into()),
                            ("sum", h.sum.into()),
                            ("min", h.min.into()),
                            ("max", h.max.into()),
                        ]),
                    };
                    (name.clone(), entry)
                })
                .collect(),
        )
    }

    /// Rebuild a snapshot from the JSON of [`Self::to_value`].
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let fields = value.as_obj().ok_or("metrics: expected object")?;
        let mut values = BTreeMap::new();
        for (name, entry) in fields {
            let kind = entry
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metric {name:?}: missing \"type\""))?;
            let num = |key: &str| -> Result<u64, String> {
                entry
                    .get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("metric {name:?}: missing number {key:?}"))
            };
            let parsed = match kind {
                "counter" => MetricValue::Counter(num("value")?),
                "gauge" => MetricValue::Gauge(num("value")?),
                "histogram" => MetricValue::Histogram(Histogram {
                    count: num("count")?,
                    sum: num("sum")?,
                    min: num("min")?,
                    max: num("max")?,
                }),
                other => return Err(format!("metric {name:?}: unknown type {other:?}")),
            };
            values.insert(name.clone(), parsed);
        }
        Ok(MetricsSnapshot { values })
    }

    /// Render a human-readable aligned table (for `minicc stats`).
    pub fn render_pretty(&self) -> String {
        let width = self
            .values
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        let mut out = String::new();
        let _ = writeln!(out, "{:<width$}  {:>9}  value", "metric", "type");
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name:<width$}  {:>9}  {v}", "counter");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:<width$}  {:>9}  {v}", "gauge");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<width$}  {:>9}  count={} sum={} min={} max={} mean={}",
                        "histogram",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.mean()
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn registry_records_all_three_kinds() {
        let reg = Registry::new();
        reg.counter_add("query.hits", 2);
        reg.counter_add("query.hits", 3);
        reg.gauge_set("build.jobs", 8);
        reg.gauge_set("build.jobs", 4);
        reg.histogram_record("pass.cost", 10);
        reg.histogram_record("pass.cost", 2);
        let snap = reg.snapshot();
        assert_eq!(snap.scalar("query.hits"), Some(5));
        assert_eq!(snap.scalar("build.jobs"), Some(4));
        match snap.value("pass.cost") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!((h.count, h.sum, h.min, h.max, h.mean()), (2, 12, 2, 10, 6));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        reg.counter_add("x", 1);
        reg.gauge_set("x", 1);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let reg = Registry::new();
        reg.counter_add("a.count", 7);
        reg.gauge_set("b.gauge", 9);
        reg.histogram_record("c.hist", 3);
        let snap = reg.snapshot();
        let text = json::write(&snap.to_value());
        let parsed = json::parse(&text).expect("valid json");
        let back = MetricsSnapshot::from_json(&parsed).expect("roundtrip");
        assert_eq!(back, snap);
        // Deterministic rendering.
        assert_eq!(text, json::write(&reg.snapshot().to_value()));
    }
}
