//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds a name, a start, an end and the span that was open when it
//! began. Spans stay in memory while the benchmark runs and are written out
//! once it ends. A disabled recorder does nothing, so untraced passes run
//! the same code with no spans kept.

use std::collections::BTreeMap;
use std::time::Instant;

use pdr_sim_core::json::{Json, ToJson};

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `pdr.system.reconfigure`.
    pub name: &'static str,
    /// Index of the enclosing span, in opening order.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder, initially enabled or not.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between passes.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "spans left open across passes");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        let n = self.open.len();
        if n >= 2 {
            self.spans[self.open[n - 1]].parent = Some(self.open[n - 2]);
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if recording is on and no span is open.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn record<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Durations of every span named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover. Children of one span never overlap, because spans
    /// nest on a single thread.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns();
            }
        }
        own
    }

    /// Span count and total self time per span name, ns.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = by_name.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += own;
        }
        by_name
    }

    /// The spans as JSON lines: id, parent, name, start, end and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), i.to_json()),
                ("parent".into(), s.parent.to_json()),
                ("name".into(), s.name.to_json()),
                ("start_ns".into(), s.start_ns.to_json()),
                ("end_ns".into(), s.end_ns.to_json()),
                ("self_ns".into(), own.to_json()),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nesting_sets_parents_and_self_time_subtracts_children() {
        let mut rec = Spans::new(true);
        rec.enter("pass");
        rec.record("a", || ());
        rec.enter("b");
        rec.record("c", || ());
        rec.exit();
        rec.exit();
        let parents: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("pass", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        // Replace the clock readings with fixed ones to check the arithmetic.
        rec.spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("c", Some(2), 50, 60),
        ];
        assert_eq!(rec.self_ns(), [30, 20, 40, 10]);
        assert_eq!(rec.self_by_name()["pass"], (1, 30));
        assert_eq!(rec.durations_ms("b"), [50e-6]);
        assert!(rec
            .to_jsonl()
            .starts_with("{\"id\":0,\"parent\":null,\"name\":\"pass\",\"start_ns\":0,\"end_ns\":100,\"self_ns\":30}\n"));
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut rec = Spans::new(false);
        rec.enter("x");
        assert_eq!(rec.record("y", || 7), 7);
        rec.exit();
        assert!(rec.spans.is_empty());
    }
}
