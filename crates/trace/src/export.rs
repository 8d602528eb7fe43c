//! Canonical merge and Chrome/Perfetto trace-event JSON export.
//!
//! The timeline is synthetic: every span occupies `1 + cost + Σ(children)`
//! *cost units*, children are laid out sequentially inside their parent in
//! `(seq, cat, name, cost)` order, and `ts`/`dur` are derived from that
//! layout. Nothing in the default export depends on wall-clock or thread
//! scheduling, so the bytes are stable across runs and `--jobs` values.
//! Pass `include_wall = true` to annotate each event with its (non-
//! deterministic) measured `wall_ns`.

use crate::json::{self, parse, Value};
use crate::{ArgValue, RawSpan, SpanId};
use std::collections::HashMap;

/// One build's span recorder and the trace it produces: an unordered set
/// of recorded spans, owned by whoever records into it.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All recorded spans and instants, in recording order (canonicalized
    /// at export time).
    pub spans: Vec<RawSpan>,
    /// The last id handed out; ids start at 1 ([`SpanId::NONE`] is 0).
    last_id: u64,
}

impl Trace {
    fn next_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    /// Records a complete span under `parent` ([`SpanId::NONE`] for a
    /// root) and returns its id so children can be attached.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        parent: SpanId,
        cat: &'static str,
        name: impl Into<String>,
        seq: u64,
        cost: u64,
        wall_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanId {
        let id = self.next_id();
        self.spans.push(RawSpan {
            id,
            parent: parent.0,
            cat,
            name: name.into(),
            seq,
            cost,
            wall_ns,
            instant: false,
            args,
        });
        SpanId(id)
    }

    /// Records an instant event under `parent`.
    pub fn instant(
        &mut self,
        parent: SpanId,
        cat: &'static str,
        name: impl Into<String>,
        seq: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let id = self.next_id();
        self.spans.push(RawSpan {
            id,
            parent: parent.0,
            cat,
            name: name.into(),
            seq,
            cost: 0,
            wall_ns: 0,
            instant: true,
            args,
        });
    }

    /// Sets the measured wall time of an already recorded span — for a
    /// span that must exist before its children do and ends after them.
    pub fn set_wall_ns(&mut self, id: SpanId, wall_ns: u64) {
        if let Some(span) = self.spans.iter_mut().find(|s| s.id == id.0) {
            span.wall_ns = wall_ns;
        }
    }

    /// Total recorded events (spans + instants).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Export as Chrome trace-event JSON (one `pid`/`tid` lane,
    /// complete-`X` events plus instant-`i` events). Deterministic unless
    /// `include_wall` adds the measured `wall_ns` annotations.
    pub fn to_chrome_json(&self, include_wall: bool) -> String {
        // Index spans and group children under their parents. A parent id
        // that was never recorded demotes the span to a root rather than
        // dropping it.
        let by_id: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != 0 && by_id.contains_key(&s.parent) {
                children.entry(s.parent).or_default().push(i);
            } else {
                roots.push(i);
            }
        }
        let sort_key = |&i: &usize| {
            let s = &self.spans[i];
            (s.seq, s.cat, s.name.clone(), s.cost)
        };
        roots.sort_by_key(sort_key);
        for list in children.values_mut() {
            list.sort_by_key(sort_key);
        }

        // Post-order width computation: width = 1 + cost + Σ child widths
        // (instants have width 1).
        let mut width = vec![0u64; self.spans.len()];
        let mut order: Vec<usize> = Vec::with_capacity(self.spans.len());
        let mut stack: Vec<usize> = roots.clone();
        while let Some(i) = stack.pop() {
            order.push(i);
            if let Some(kids) = children.get(&self.spans[i].id) {
                stack.extend(kids.iter().copied());
            }
        }
        for &i in order.iter().rev() {
            let s = &self.spans[i];
            width[i] = if s.instant {
                1
            } else {
                let kids_w: u64 = children
                    .get(&s.id)
                    .map(|kids| kids.iter().map(|&k| width[k]).sum())
                    .unwrap_or(0);
                1 + s.cost + kids_w
            };
        }

        // Preorder timestamp assignment and event emission.
        let mut events = Vec::with_capacity(self.spans.len());
        let mut dfs: Vec<(usize, u64)> = Vec::new();
        let mut cursor = 0u64;
        for &r in &roots {
            dfs.push((r, cursor));
            cursor += width[r];
        }
        // Re-walk in preorder (stack reversed so earlier siblings emit first).
        dfs.reverse();
        while let Some((i, ts)) = dfs.pop() {
            let s = &self.spans[i];
            events.push(event(s, ts, width[i], include_wall));
            if let Some(kids) = children.get(&s.id) {
                let mut child_ts = ts + 1;
                let mut frames: Vec<(usize, u64)> = Vec::with_capacity(kids.len());
                for &k in kids {
                    frames.push((k, child_ts));
                    child_ts += width[k];
                }
                frames.reverse();
                dfs.extend(frames);
            }
        }
        json::write(&Value::obj([
            ("displayTimeUnit", "ns".into()),
            ("traceEvents", Value::Arr(events)),
            (
                "meta",
                Value::obj([
                    ("format", "sfcc-trace".into()),
                    ("version", 1u64.into()),
                    ("time_unit", "cost-units".into()),
                ]),
            ),
        ]))
    }
}

fn event(s: &RawSpan, ts: u64, dur: u64, include_wall: bool) -> Value {
    let mut args = vec![("seq", s.seq.into())];
    if !s.instant {
        args.push(("cost", s.cost.into()));
    }
    args.extend(s.args.iter().map(|(key, value)| {
        let value = match value {
            ArgValue::U64(v) => (*v).into(),
            ArgValue::Str(v) => v.as_str().into(),
            ArgValue::Bool(v) => (*v).into(),
        };
        (*key, value)
    }));
    if include_wall {
        args.push(("wall_ns", s.wall_ns.into()));
    }
    let mut fields = vec![("name", s.name.as_str().into()), ("cat", s.cat.into())];
    if s.instant {
        fields.extend([("ph", "i".into()), ("ts", ts.into()), ("s", "t".into())]);
    } else {
        fields.extend([("ph", "X".into()), ("ts", ts.into()), ("dur", dur.into())]);
    }
    fields.extend([
        ("pid", 1u64.into()),
        ("tid", 1u64.into()),
        ("args", Value::obj(args)),
    ]);
    Value::obj(fields)
}

/// Summary statistics returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`ph:"X"`) span events.
    pub complete: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Deepest span nesting observed.
    pub max_depth: usize,
    /// Events whose category is `pass`.
    pub pass_events: usize,
}

/// Validate Chrome trace-event JSON produced by
/// [`Trace::to_chrome_json`]: well-formed JSON, the schema every event
/// must satisfy, and strict nesting — within a `(pid, tid)` lane every
/// span is fully contained in the enclosing open span and siblings never
/// overlap. Returns summary statistics on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        complete: 0,
        instants: 0,
        max_depth: 0,
        pass_events: 0,
    };
    // One nesting stack per (pid, tid) lane; events arrive in preorder.
    let mut lanes: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for (idx, ev) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {idx}: {msg}");
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string \"name\""))?;
        ev.get("cat")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string \"cat\""))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string \"ph\""))?;
        let ts = ev
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("missing numeric \"ts\""))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("missing numeric \"pid\""))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("missing numeric \"tid\""))?;
        let args = ev
            .get("args")
            .ok_or_else(|| ctx("missing \"args\" object"))?;
        args.get("seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("missing numeric args.seq"))?;
        if ev.get("cat").and_then(Value::as_str) == Some("pass") {
            summary.pass_events += 1;
        }
        let stack = lanes.entry((pid, tid)).or_default();
        while let Some(&(_, end)) = stack.last() {
            if ts >= end {
                stack.pop();
            } else {
                break;
            }
        }
        match ph {
            "X" => {
                summary.complete += 1;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ctx("\"X\" event missing numeric \"dur\""))?;
                if dur == 0 {
                    return Err(ctx(&format!("span {name:?} has zero duration")));
                }
                args.get("cost")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ctx("\"X\" event missing numeric args.cost"))?;
                if let Some(&(open_ts, open_end)) = stack.last() {
                    if ts < open_ts || ts + dur > open_end {
                        return Err(ctx(&format!(
                            "span {name:?} [{ts},{}) overlaps enclosing span [{open_ts},{open_end})",
                            ts + dur
                        )));
                    }
                }
                stack.push((ts, ts + dur));
                summary.max_depth = summary.max_depth.max(stack.len());
            }
            "i" => {
                summary.instants += 1;
                if ev.get("s").and_then(Value::as_str) != Some("t") {
                    return Err(ctx("instant event without thread scope \"s\" = \"t\""));
                }
                if let Some(&(open_ts, open_end)) = stack.last() {
                    if ts < open_ts || ts >= open_end {
                        return Err(ctx(&format!(
                            "instant {name:?} at {ts} escapes enclosing span [{open_ts},{open_end})"
                        )));
                    }
                }
            }
            other => return Err(ctx(&format!("unsupported phase {other:?}"))),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(id: u64, parent: u64, cat: &'static str, name: &str, seq: u64, cost: u64) -> RawSpan {
        RawSpan {
            id,
            parent,
            cat,
            name: name.to_string(),
            seq,
            cost,
            wall_ns: 12345,
            instant: false,
            args: Vec::new(),
        }
    }

    fn sample() -> Trace {
        let mut spans = vec![
            raw(1, 0, "build", "build", 0, 2),
            raw(2, 1, "wave", "wave 0", 1, 0),
            raw(3, 2, "module", "alpha", 0, 10),
            raw(4, 2, "module", "beta", 1, 4),
            raw(5, 3, "pass", "inline", 0, 6),
        ];
        spans.push(RawSpan {
            instant: true,
            ..raw(6, 1, "query", "hit frontend(alpha)", 2, 0)
        });
        Trace { spans, last_id: 6 }
    }

    #[test]
    fn export_is_deterministic_and_shuffle_invariant() {
        let a = sample();
        let mut b = sample();
        b.spans.reverse();
        let ja = a.to_chrome_json(false);
        let jb = b.to_chrome_json(false);
        assert_eq!(ja, jb, "canonical merge must erase buffer order");
        // wall_ns must not appear in deterministic output.
        assert!(!ja.contains("wall_ns"));
        assert!(a.to_chrome_json(true).contains("\"wall_ns\":12345"));
    }

    #[test]
    fn export_validates_and_nests() {
        let trace = sample();
        let json = trace.to_chrome_json(false);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.events, 6);
        assert_eq!(summary.complete, 5);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.pass_events, 1);
        assert_eq!(summary.max_depth, 4); // build > wave > module > pass
    }

    #[test]
    fn validator_rejects_overlap_and_bad_schema() {
        // Sibling overlap: second span starts inside the first but ends
        // outside it.
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"x","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{"seq":0,"cost":0}},
            {"name":"b","cat":"x","ph":"X","ts":5,"dur":10,"pid":1,"tid":1,"args":{"seq":1,"cost":0}}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("overlaps"), "got: {err}");

        let missing_dur = r#"{"traceEvents":[
            {"name":"a","cat":"x","ph":"X","ts":0,"pid":1,"tid":1,"args":{"seq":0,"cost":0}}
        ]}"#;
        assert!(validate_chrome_trace(missing_dur).is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn orphan_parent_becomes_root() {
        let trace = Trace {
            spans: vec![raw(7, 99, "module", "orphan", 0, 1)],
            last_id: 7,
        };
        let json = trace.to_chrome_json(false);
        validate_chrome_trace(&json).expect("orphan exported as root");
    }
}
