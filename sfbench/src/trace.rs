//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions; nothing inside the compiler is
//! instrumented. A span carries its name, its layer (a crate name), start
//! and end, the span that caused it, and the request it belongs to. Spans
//! stay in memory until the run ends.

use sfcc_trace::json::escape_into;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in [`Recorder::spans`].
    pub id: usize,
    /// The enclosing span, `None` at the top.
    pub parent: Option<usize>,
    /// The request the span belongs to (0 for probes outside requests).
    pub request: usize,
    /// What was called.
    pub name: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    request: usize,
    requests: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty, enabled recorder.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: true,
            request: 0,
            requests: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording off or on; while off, [`Recorder::span`] only calls
    /// its closure. The difference between the two is the harness's own
    /// overhead.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts the next request; spans recorded from now on carry its id.
    pub fn next_request(&mut self) -> usize {
        self.requests += 1;
        self.request = self.requests;
        self.request
    }

    /// Leaves the last request: spans recorded from now on (probes) carry
    /// request id 0.
    pub fn outside_requests(&mut self) {
        self.request = 0;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` going into `layer`; spans
    /// opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time in milliseconds: its length minus the part its
    /// direct children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        (self.spans[id].ms() - children).max(0.0)
    }

    /// For the spans named `name`: the share of their total length that
    /// their direct children cover (1.0 when there are none).
    pub fn coverage(&self, name: &str) -> f64 {
        let (mut total, mut uncovered) = (0.0, 0.0);
        for span in self.spans.iter().filter(|s| s.name == name) {
            total += span.ms();
            uncovered += self.self_ms(span.id);
        }
        if total > 0.0 {
            1.0 - uncovered / total
        } else {
            1.0
        }
    }

    /// The trace as a JSON document: one object per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::from("{\"workload\":");
        escape_into(&mut out, workload);
        let _ = write!(out, ",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{{\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"request_id\":{},\"name\":", s.request);
            escape_into(&mut out, s.name);
            out.push_str(",\"layer\":");
            escape_into(&mut out, s.layer);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.start_ns,
                s.end_ns,
                (self.self_ms(s.id) * 1e6) as u64
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_carry_their_request() {
        let mut rec = Recorder::new();
        let request = rec.next_request();
        let answer = rec.span("session", "buildsys", |rec| {
            rec.span("project_read", "buildsys", |_| {
                busy(Duration::from_millis(2))
            });
            rec.span("build", "buildsys", |rec| {
                rec.span("link", "backend", |_| busy(Duration::from_millis(1)));
            });
            42
        });
        assert_eq!(answer, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.request == request));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[3].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_is_length_minus_children() {
        let mut rec = Recorder::new();
        rec.span("session", "buildsys", |rec| {
            rec.span("build", "buildsys", |_| busy(Duration::from_millis(4)));
            busy(Duration::from_millis(4));
        });
        let session = rec.spans()[0].ms();
        let own = rec.self_ms(0);
        assert!(own >= 3.9 && own < session, "self {own} of {session}");
        let coverage = rec.coverage("session");
        assert!(coverage > 0.3 && coverage < 0.7, "{coverage}");
        assert_eq!(rec.coverage("absent"), 1.0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        rec.set_enabled(false);
        assert_eq!(rec.span("session", "buildsys", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn the_trace_is_valid_json() {
        let mut rec = Recorder::new();
        rec.next_request();
        rec.span("session", "buildsys", |rec| {
            rec.span("build", "buildsys", |_| ())
        });
        let doc = sfcc_trace::json::parse(&rec.to_json("w", 3)).expect("valid JSON");
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[1].get("layer").unwrap().as_str(), Some("buildsys"));
        assert_eq!(spans[0].get("request_id").unwrap().as_u64(), Some(1));
    }
}
