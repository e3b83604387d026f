//! In-memory span recorder for the traced run.
//!
//! Spans are taken only in the benchmark's own code, around its calls
//! into each layer's public functions; the program under test is not
//! instrumented. A disabled tracer runs the closure and records
//! nothing, so the untraced run pays one branch per call site.

use crate::stats::{median, tail_percentile};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span: layer-qualified name and duration.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub dur_ns: u64,
}

/// Per-name summary of recorded spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub count: usize,
    pub busy_ns: u64,
    pub durations_ns: Vec<f64>,
}

impl SpanStats {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    pub fn p50_ns(&self) -> Option<f64> {
        median(&self.durations_ns)
    }

    pub fn p99_ns(&self) -> Option<f64> {
        tail_percentile(&self.durations_ns, 0.99)
    }
}

pub struct Tracer {
    on: bool,
    spans: RefCell<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.borrow_mut().push(SpanRec { name, dur_ns });
        out
    }

    /// Summaries of every span name recorded so far.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.busy_ns += s.dur_ns;
            e.durations_ns.push(s.dur_ns as f64);
        }
        out
    }

    /// The named span's summary, empty when it never ran.
    pub fn stats(&self, name: &str) -> SpanStats {
        self.summary().remove(name).unwrap_or_default()
    }

    /// The span summaries as a JSON object, one entry per name.
    pub fn summary_json(&self) -> String {
        let entries: Vec<String> = self
            .summary()
            .iter()
            .map(|(name, s)| {
                let p99 = s.p99_ns().map_or("null".to_string(), |v| format!("{v:?}"));
                format!(
                    "\"{name}\": {{\"count\": {}, \"busy_ns\": {}, \
                     \"p50_ns\": {:?}, \"p99_ns\": {p99}}}",
                    s.count,
                    s.busy_ns,
                    s.p50_ns().unwrap_or(0.0)
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.summary().is_empty());
    }

    #[test]
    fn spans_add_up_per_name() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", || ());
        });
        let s = t.summary();
        assert_eq!(s["inner"].count, 2);
        assert_eq!(s["outer"].count, 1);
        assert!(s["inner"].busy_ns >= 5_000_000);
        assert!(s["outer"].busy_ns >= s["inner"].busy_ns);
        assert_eq!(s["inner"].durations_ns.len(), 2);
    }
}
