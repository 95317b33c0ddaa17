//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end offset from the recorder's origin,
//! and the index of the span that was open when it started. Spans stay
//! in memory and are written out once, when the run ends. A disabled
//! recorder runs the closures without reading the clock, so the
//! untraced passes share the traced passes' code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `drive.tage`.
    pub name: String,
    /// Seconds from the recorder's origin to the span's start.
    pub start: f64,
    /// Seconds from the recorder's origin to the span's end.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording recorder whose origin is now.
    pub fn on() -> Tracer {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span called `name`. Spans opened by `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start: origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = origin.elapsed().as_secs_f64();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name: each span's length minus the
    /// lengths of its direct children (children run inside their
    /// parent, one after another, so they never overlap).
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            *out.entry(span.name.clone()).or_insert(0.0) += span.duration() - children;
        }
        out
    }

    /// Summed length of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The spans as JSON lines (`name`, `start`, `end`, `parent`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                span.name, span.start, span.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_times();
        let outer = spans[0].duration();
        assert!((selfs["outer"] + selfs["inner"] - outer).abs() < 1e-12);
        assert!(selfs["inner"] >= 0.010);
        assert_eq!(t.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
