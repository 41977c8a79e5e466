//! Benchmark-owned spans: recorded in memory around calls into the
//! program's public API, written out when the run ends.

use crate::stats::{json_str, Obj};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Process-unique id.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The job this span belongs to; spans of one job share it.
    pub job: u64,
    /// Span name (the public call it wraps).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder shared by every thread of the run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking job")
            .push(Span {
                id,
                parent,
                job,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking job")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Per-name totals: calls, inclusive seconds and self seconds (duration
/// minus the part covered by direct children).
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Number of spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_s: f64,
    /// Sum of their self times.
    pub self_s: f64,
}

/// Aggregates spans by name. Children of one span run sequentially on the
/// parent's thread, so their durations never overlap and subtract exactly.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
    }
    out
}

/// [`totals`] as a JSON object: calls, total and self seconds per name.
#[must_use]
pub fn totals_json(spans: &[Span]) -> String {
    let mut t = Obj::new();
    for (name, v) in totals(spans) {
        let mut e = Obj::new();
        e.int("calls", v.calls)
            .num("total_s", v.total_s)
            .num("self_s", v.self_s);
        t.raw(name, e.render());
    }
    t.render()
}

/// Renders the spans one JSON object per line.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut o = Obj::new();
        o.int("id", s.id)
            .int("parent", s.parent)
            .int("job", s.job)
            .raw("name", json_str(s.name))
            .int("start_ns", s.start_ns)
            .int("end_ns", s.end_ns);
        out.push_str(&o.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        t.span("outer", 1, 0, |id| {
            t.span("inner", 1, id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let tot = totals(&spans);
        let outer = &tot["outer"];
        let inner = &tot["inner"];
        assert!(inner.self_s >= 0.002);
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
    }
}
