//! The benchmark's own span recorder. Spans wrap the public calls the
//! benchmark makes into each layer (build, prune, compile, `plan_for`,
//! forwards, kernel replays, submit/wait); nothing is recorded inside
//! the program. Spans stay in memory and are written out once, at the
//! end of the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Request (or frame) the span belongs to, if any.
    pub request: Option<u64>,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u64>>,
    next_id: RefCell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_id: RefCell::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open on this tracer.
    pub fn span<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.fresh_id();
        let parent = self.current();
        self.open.borrow_mut().push(id);
        let start_ns = self.ns_at(Instant::now());
        let out = f();
        let end_ns = self.ns_at(Instant::now());
        self.open.borrow_mut().pop();
        self.record(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        out
    }

    /// Records a span measured elsewhere (e.g. on another thread).
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.borrow_mut().push(span);
        }
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<u64> {
        self.open.borrow().last().copied()
    }

    /// Nanoseconds from the tracer's start to `t` (0 if earlier).
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id for [`Tracer::record`].
    pub fn fresh_id(&self) -> u64 {
        let mut next = self.next_id.borrow_mut();
        *next += 1;
        *next - 1
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("outer", None, || t.span("inner", Some(7), || 41) + 1);
        assert_eq!(v, 42);
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(7));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        drop(spans);
        assert_eq!(t.to_jsonl().lines().count(), 2);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, || 3), 3);
        assert!(off.to_jsonl().is_empty());
    }
}
