//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::begin`]/[`Tracer::end`], which
//! always return the call's wall time (the untraced runs need it for their
//! metrics). Only a traced run also keeps the span — name, start, end and
//! parent — in memory; the spans are written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// An open span: its start and, when tracing, its slot.
#[must_use]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being kept (a traced run).
    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_s: (start - self.origin).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start, slot }
    }

    /// Closes `open` and returns its wall time in seconds. Spans close in
    /// the reverse order they opened.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.slot {
            assert_eq!(self.stack.pop(), Some(i), "spans must nest");
            self.spans[i].end_s = (end - self.origin).as_secs_f64();
        }
        (end - open.start).as_secs_f64()
    }

    /// Self time of every span: its duration minus what its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_s - s.start_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_s - s.start_s;
            }
        }
        own
    }

    /// Self time of the named root span: the part of the run no layer span
    /// accounts for.
    pub fn unattributed_s(&self, root: &str) -> f64 {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.parent.is_none() && s.name == root)
            .map(|(_, t)| t)
            .sum()
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(e) => e.1 += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("[\n");
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {:.6}, \
                 \"end_s\": {:.6}, \"self_s\": {:.6}}}{}",
                s.name,
                s.start_s,
                s.end_s,
                t,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let da = t.end(a);
        let total = t.end(root);
        let own = t.unattributed_s("root");
        assert!((own - (total - da)).abs() < 1e-3);
        assert!(t.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn untraced_spans_still_time() {
        let mut t = Tracer::new(false);
        let o = t.begin("x");
        assert!(t.end(o) >= 0.0);
        assert_eq!(t.to_json(), "[\n]\n");
    }
}
