//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the run measures
//! and are written out as JSON lines when the run ends. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover.
//!
//! With tracing off every call is a branch on a bool, so the untraced
//! run pays nothing measurable for the hooks.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (`None` when tracing is
    /// off).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(1),
            parent,
            req,
        };
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(span);
        Some((spans.len() - 1) as SpanId)
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: 0,
            parent,
            req,
        });
        Some((spans.len() - 1) as SpanId)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now()).max(1);
            self.spans.lock().expect("span buffer poisoned")[id as usize].end_ns = now;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Per span name: every span's (duration, self time) in microseconds.
pub fn durations(spans: &[Span]) -> HashMap<&'static str, Vec<(f64, f64)>> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p as usize)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, Vec<(f64, f64)>> = HashMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.end_ns == 0 {
            continue;
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&id).map_or(0, |c| union_len(c, s));
        out.entry(s.name)
            .or_default()
            .push((dur as f64 / 1e3, dur.saturating_sub(covered) as f64 / 1e3));
    }
    out
}

/// Length of the union of `intervals`, clipped to `within`.
fn union_len(intervals: &mut [(u64, u64)], within: &Span) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(within.start_ns), b.min(within.end_ns));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 10_000, None),
            span("child", 1_000, 4_000, Some(0)),
            span("child", 3_000, 5_000, Some(0)), // overlaps the first
            span("child", 8_000, 12_000, Some(0)), // runs past the parent
        ];
        let d = durations(&spans);
        let (dur, own) = d["root"][0];
        assert_eq!(dur, 10.0);
        // Covered: [1000, 5000) ∪ [8000, 10000) = 6000 ns.
        assert_eq!(own, 4.0);
        assert_eq!(d["child"].len(), 3);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", now, now, None, 1), None);
        assert!(t.spans().is_empty());
    }
}
