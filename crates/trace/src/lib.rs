//! Hierarchical build tracing and a typed metrics registry for sfcc.
//!
//! A trace is a tree of *spans* (build → module → phase → function → pass,
//! plus query/cache/IO instants) held by a plain [`Trace`] value: the
//! build that wants one creates it, records into it through `&mut`
//! ([`Trace::span`], [`Trace::instant`]) and hands it back in its report.
//! Nothing is process state, so concurrent builds cannot see each other's
//! spans, and a build that does not trace holds no recorder at all — the
//! disabled path is a branch on the caller's own `Option<Trace>`.
//!
//! Determinism contract: exported traces carry *cost units* (deterministic
//! instruction/op counts) as their timeline, never wall-clock. Wall-clock
//! nanoseconds are captured alongside but only exported as an optional
//! annotation (see [`export::Trace::to_chrome_json`]). Export sorts
//! siblings by `(seq, cat, name, cost)` and never prints ids, so the
//! exported JSON is byte-identical across runs and across `--jobs` values
//! as long as the recorded structure and cost fields are deterministic.

pub mod export;
pub mod json;
pub mod metrics;

pub use export::{validate_chrome_trace, Trace, TraceSummary};
pub use metrics::{Histogram, MetricValue, MetricsSnapshot, Registry};

/// Identifier of a recorded span, unique within its [`Trace`]. `SpanId(0)`
/// means "no parent / root".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no parent.
    pub const NONE: SpanId = SpanId(0);

    /// True if this id refers to an actual recorded span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// A dynamically typed span/event argument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// String argument.
    Str(String),
    /// Boolean argument.
    Bool(bool),
}

/// One recorded span or instant event, before export.
#[derive(Debug, Clone)]
pub struct RawSpan {
    /// Unique id within the trace (from the recorder's counter).
    pub id: u64,
    /// Parent span id, or 0 for roots.
    pub parent: u64,
    /// Category (stable taxonomy: `build`, `module`, `phase`, `function`,
    /// `pass`, `query`, `cache`, `io`).
    pub cat: &'static str,
    /// Human-readable name (module/function/pass name, …).
    pub name: String,
    /// Deterministic sibling ordering key; assigned by the recording site.
    pub seq: u64,
    /// Deterministic cost in cost units (live-instruction / op counts).
    pub cost: u64,
    /// Wall-clock nanoseconds (non-deterministic annotation only).
    pub wall_ns: u64,
    /// True for instant events (exported as phase `i`, no duration).
    pub instant: bool,
    /// Extra key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge() {
        let mut trace = Trace::default();
        let root = trace.span(SpanId::NONE, "build", "root", 0, 0, 9, Vec::new());
        assert!(root.is_some());
        let wave = trace.span(
            root,
            "wave",
            "wave 0",
            1,
            7,
            5,
            vec![("tag", ArgValue::Str("t".into()))],
        );
        assert_ne!(wave, root, "ids are unique within the trace");
        trace.span(root, "module", "m", 2, 3, 0, Vec::new());
        trace.instant(root, "query", "hit", 0, Vec::new());
        trace.set_wall_ns(root, 11);

        assert_eq!(trace.len(), 4);
        let recorded_root = trace.spans.iter().find(|s| s.cat == "build").unwrap();
        assert_eq!((recorded_root.parent, recorded_root.wall_ns), (0, 11));
        for s in &trace.spans {
            if s.cat != "build" {
                assert_eq!(s.parent, root.0, "span {} under root", s.name);
            }
        }
        let wave = trace.spans.iter().find(|s| s.cat == "wave").unwrap();
        assert_eq!((wave.cost, wave.wall_ns, wave.instant), (7, 5, false));
        assert!(trace.spans.iter().any(|s| s.instant && s.name == "hit"));
        validate_chrome_trace(&trace.to_chrome_json(false)).expect("recorded trace exports");
    }
}
