//! In-memory spans for the traced pass.
//!
//! A [`Tracer`] belongs to one thread.  Each span records its name, start,
//! end, parent span and the job it belongs to; nothing is written until the
//! pass ends.  A layer's self time is its span's duration minus the time
//! covered by its direct children (children of one thread never overlap).
//! A disabled tracer runs the closure and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the pass origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    job: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            job: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with a job id.
    pub fn set_job(&self, job: u64) {
        self.job.set(job);
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                job: self.job.get(),
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let value = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        value
    }

    /// Records an already measured interval as a span (used where the two
    /// ends of a layer are separate calls, e.g. a submitted job's frames).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            job: self.job.get(),
            parent: self.open.borrow().last().copied(),
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
        };
        self.spans.borrow_mut().push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Time each span's direct children cover.  `spans` must be the spans of
/// one tracer (parent indices are positions in that vector).
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    child_ns
}

/// Sums inclusive and self time per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let child_ns = child_ns(spans);
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(*children);
    }
    totals
}

/// Share of the time of spans called `root` that their direct children
/// cover.
pub fn child_coverage(spans: &[Span], root: &str) -> f64 {
    let child_ns = child_ns(spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for (span, children) in spans.iter().zip(&child_ns) {
        if span.name == root {
            covered += children;
            total += span.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// One JSON object per line: name, job, parent, start and end.
pub fn to_jsonl(spans: &[Span], thread: usize) -> String {
    let mut out = String::new();
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"thread\":{thread},\"id\":{index},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            span.name, span.job, span.start_ns, span.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "job",
                job: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                job: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                job: 1,
                parent: Some(1),
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                name: "a",
                job: 1,
                parent: Some(0),
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["job"].self_ns, 30);
        assert_eq!(totals["a"].self_ns, 60);
        assert_eq!(totals["a"].total_ns, 70);
        assert_eq!(totals["b"].self_ns, 10);
        assert!((child_coverage(&spans, "job") - 0.7).abs() < 1e-9);
    }
}
