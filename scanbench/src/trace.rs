//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each module
//! of the scanner, kept in memory, and written once when the run ends. A
//! disabled tracer times nothing and stores nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.uap`.
    pub name: &'static str,
    /// Unique id within the run (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Scan or request id the span belongs to.
    pub job: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Wall seconds covered by the span.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own spans on (0 when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(name, id, parent, job, start, Instant::now());
        out
    }

    /// Records a span whose interval was measured by the caller (a request
    /// that crosses threads). Returns its id, or 0 when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(name, id, parent, job, start, end);
        id
    }

    fn push(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let span = Span {
            name,
            id,
            parent,
            job,
            start: at(start),
            end: at(end),
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }
}

/// Durations in seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Seconds of `span` not covered by any of its children.
fn self_seconds(span: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.seconds() - covered).max(0.0)
}

/// Per span name: call count, total seconds, and self seconds (total
/// minus the part of each span's interval its child spans cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.seconds();
        e.2 += self_seconds(s, kids);
    }
    out
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"job\":{},\"start\":{},\"end\":{}}}",
            s.name, s.id, s.parent, s.job, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: f64, end: f64) -> Span {
        Span {
            name,
            id,
            parent,
            job: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("scan", 1, 0, 0.0, 10.0),
            span("uap", 2, 1, 1.0, 4.0),
            span("refine", 3, 1, 3.0, 6.0),
            span("uap", 4, 1, 8.0, 12.0),
        ];
        let t = self_times(&spans);
        let (n, total, own) = t["scan"];
        assert_eq!((n, total), (1, 10.0));
        // Children cover [1, 6] and [8, 10] of the parent's interval.
        assert!((own - 3.0).abs() < 1e-12, "{own}");
        assert_eq!(t["uap"].0, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", 0, 0, |id| id + 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
