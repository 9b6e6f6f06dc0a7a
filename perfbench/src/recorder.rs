//! The traced run's span recorder.
//!
//! Spans are opened around each public call the benchmark makes into
//! the stack, on the benchmark's own thread, and kept in memory until
//! the run ends. Each span has a dotted name whose first segment is
//! the layer (`serve.step` → `serve`), a start and an end, the span
//! that was open when it started (its parent) and an id tying it to a
//! request or a pass. At the end the spans are written as a Chrome
//! trace-event file and folded into per-name totals and per-layer
//! self time (span time minus the time its children cover).
//!
//! A disabled recorder hands out guards that record nothing, so the
//! untraced run pays one branch per call site.

use crate::json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// Indices into `spans` of the spans currently open, innermost
    /// last. An open span is stored with `end_ns == start_ns` and
    /// completed when its guard drops.
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
#[derive(Debug)]
pub struct Guard<'a> {
    rec: &'a Recorder,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.rec.now_ns();
            self.rec.spans.borrow_mut()[index].end_ns = now;
            let mut open = self.rec.open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.truncate(pos);
            }
        }
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` for request or pass `id`.
    pub fn span(&self, name: &'static str, id: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                rec: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let mut open = self.open.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: open.last().copied(),
            id,
        });
        open.push(index);
        Guard {
            rec: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, id);
        f()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Total duration per span name, nanoseconds, and call count.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    out
}

/// Self time per layer, nanoseconds: each span's duration minus the
/// durations of its direct children, summed by layer. Children of one
/// parent run one after another on one thread, so they never overlap.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_default() += s.duration_ns().saturating_sub(children);
    }
    out
}

/// The spans as a Chrome trace-event document (`"ph":"X"` complete
/// events, microsecond timestamps) that Perfetto and
/// `chrome://tracing` open. The layer is the event category; the
/// request or pass id and the parent's index ride in `args`.
pub fn chrome_trace(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
        json::string(process)
    ));
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            ",{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
            json::string(s.name),
            json::string(s.layer()),
            json::number(s.start_ns as f64 / 1.0e3),
            json::number(s.duration_ns() as f64 / 1.0e3),
            s.id
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        rec.time("serve.step", 1, || ());
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_closes_in_order() {
        let rec = Recorder::new(true);
        {
            let _outer = rec.span("bench.pass", 7);
            rec.time("serve.step", 7, || {
                rec.time("core.gemm", 7, || ());
            });
            rec.time("serve.finish", 7, || ());
        }
        rec.time("bench.check", 8, || ());
        let spans = rec.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), None]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("serve.step", 10, 60, Some(0)),
            span("core.gemm", 20, 50, Some(1)),
            span("serve.step", 70, 90, Some(0)),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 100 - 50 - 20);
        assert_eq!(by_layer["serve"], (50 - 30) + 20);
        assert_eq!(by_layer["core"], 30);
        // Self times partition the root span.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        assert_eq!(totals_by_name(&spans)["serve.step"], (70, 2));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let spans = vec![
            span("bench.pass", 0, 2_000, None),
            span("serve.step", 500, 1_500, Some(0)),
        ];
        let doc = crate::json::parse(&chrome_trace(&spans, "perfbench \"x\"")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[1].get("cat").unwrap().as_str(), Some("serve"));
        assert_eq!(complete[1].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(complete[1].get("ts").unwrap().as_f64(), Some(0.5));
    }
}
