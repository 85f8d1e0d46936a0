//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans are kept in a `Vec` and written out
//! as JSON lines when the run ends.
//!
//! A span names a layer call, carries its start and end (ns since the
//! run's origin), its parent span, and the request it serves. A span's
//! `share` is the fraction of its duration charged against its parent:
//! 1 for a call the parent makes, `1 / workers` for the sequential
//! replay of work the pool spreads over `workers` threads. A layer's self
//! time is its duration minus the charged durations of its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::json_str;

/// Request ids: reader requests are `stream << 32 | sequence`; set-up
/// and publish spans use their own ranges.
pub const SETUP_REQUEST: u64 = 1 << 62;
pub const PUBLISH_REQUEST: u64 = 2 << 62;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub share: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder. When off, [`Tracer::time`] only runs the call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Self {
        Self {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; returns its result and the span's index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            share: 1.0,
        });
        (out, Some(id))
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append spans recorded elsewhere (another thread's recorder with
    /// the same origin), re-basing their parent indices.
    pub fn absorb(&mut self, spans: Vec<Span>) -> usize {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        base
    }

    /// Durations (µs) of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Self time (µs) of each span: duration minus its children's
    /// charged durations, floored at 0.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_us() * s.share;
            }
        }
        out.iter_mut().for_each(|v| *v = v.max(0.0));
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"share\": {}}}",
                json_str(s.name),
                s.request,
                s.start_ns,
                s.end_ns,
                s.share
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_charged_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let span = |name, parent, start_ns, end_ns, share| Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
            share,
        };
        let root = t.push(span("root", None, 0, 10_000, 1.0));
        let pool = t.push(span("pool", Some(root), 1_000, 7_000, 1.0));
        // a sequential replay of 8 µs the pool ran on two workers
        t.push(span("replay", Some(pool), 20_000, 28_000, 0.5));
        assert_eq!(t.self_times_us(), vec![4.0, 2.0, 8.0]);
        assert_eq!(t.durations_us("pool"), vec![6.0]);
    }
}
