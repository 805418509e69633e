//! In-memory spans around the benchmark's own calls into the product.
//!
//! Nothing inside the product is instrumented: a span is two clock reads
//! in this crate, kept in a vector and written out once, at exit.

use std::time::Instant;

use serde_json::{json, Value};

pub type SpanId = u32;

/// What caused a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Parent {
    /// A top-level span (one workload op, or the top rung of a ladder).
    None,
    /// The enclosing span of a replayed op.
    Span(SpanId),
    /// Ladder rungs run one after another on the same inputs, so in time
    /// they are siblings; the parent of a rung is the rung whose call
    /// *contains* this layer's call in the product, named here and
    /// resolved to that rung's first span when the trace is written.
    Rung(&'static str),
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Parent,
    op: u32,
}

/// Span recorder. While `recording` is off, `begin`/`end` do nothing, so
/// a traced run can alternate traced and untraced ops and report the
/// difference as its own overhead.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
}

const OFF: SpanId = SpanId::MAX;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u32, parent: Parent) -> SpanId {
        if !self.recording {
            return OFF;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != OFF {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Span around one call that itself records nothing.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Parent,
        call: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = call();
        self.end(id);
        out
    }

    /// A child of `id` (a top-level span when recording is off).
    pub fn child_of(id: SpanId) -> Parent {
        if id == OFF {
            Parent::None
        } else {
            Parent::Span(id)
        }
    }

    /// Durations of every span called `name`, in nanoseconds.
    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in nanoseconds.
    pub fn p50_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ns(name))
    }

    /// Spans as `[name index, start_ns, end_ns, parent or -1, op]` rows
    /// plus the name table they index.
    pub fn to_json(&self) -> Value {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index_of = |name: &'static str| match names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        let rows: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let parent: i64 = match s.parent {
                    Parent::None => -1,
                    Parent::Span(id) => i64::from(id),
                    Parent::Rung(rung) => self
                        .spans
                        .iter()
                        .position(|p| p.name == rung)
                        .map_or(-1, |i| i as i64),
                };
                json!([(index_of(s.name)), (s.start_ns), (s.end_ns), parent, (s.op)])
            })
            .collect();
        json!({
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "span_names": names,
            "spans": rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_resolve_rung_parents() {
        let mut tr = Tracer::new();
        assert_eq!(tr.begin("ignored", 0, Parent::None), OFF);
        tr.set_recording(true);
        let child = tr.begin("ladder.inner", 0, Parent::Rung("ladder.outer"));
        tr.end(child);
        let op = tr.begin("op", 3, Parent::None);
        tr.leaf("call", 3, Tracer::child_of(op), || ());
        tr.end(op);
        tr.leaf("ladder.outer", 0, Parent::None, || ());
        assert_eq!(tr.durations_ns("call").len(), 1);
        let doc = tr.to_json();
        let spans = doc["spans"].as_array().unwrap();
        assert_eq!(spans.len(), 4);
        // ladder.inner (row 0) points at ladder.outer (row 3); call at op.
        assert_eq!(spans[0][3], 3);
        assert_eq!(spans[2][3], 1);
        assert_eq!(spans[1][4], 3);
    }
}
