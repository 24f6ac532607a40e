//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.function`), a start and an end on one
//! monotonic clock, the span that was open when it began (its parent),
//! and a trace id shared by every span of one online cycle, one served
//! query or one batch study. Spans are only recorded in the traced run;
//! the timed runs keep a [`Tracer::off`] whose calls do nothing.
//!
//! A layer's *busy* time is the summed duration of its outermost spans
//! (spans whose parent belongs to another layer); its *self* time is the
//! summed duration of its spans minus the part of each that its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Spans from several threads are combined
/// with [`Tracer::absorb`] after the threads end.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before it closes are its children.
    pub fn begin(&mut self, name: &'static str, trace: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Run `f` inside a span with no children.
    pub fn time<R>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, trace);
        let r = f();
        self.end();
        r
    }

    /// Append another thread's closed spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part its children
/// cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per-layer `(busy_ms, self_ms)`.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let selfs = self_ns(spans);
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let entry = out.entry(s.layer()).or_default();
        let outermost = s.parent.is_none_or(|p| spans[p].layer() != s.layer());
        if outermost {
            entry.0 += s.ns() as f64 / 1e6;
        }
        entry.1 += own as f64 / 1e6;
    }
    out
}

/// Mean cost of recording one span (a `begin` and an `end`), in ns,
/// measured on a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    for i in 0..N {
        t.begin("bench.probe", i as u64);
        t.end();
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Summed duration of the spans that have no parent (the benchmark's own
/// root spans around each cycle, query, study, round or publish), in ms.
pub fn root_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.ns() as f64 / 1e6)
        .sum()
}

/// Summed duration of every span with this exact name, in ms.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.cycle", None, 0, 100),
            // Overlapping children count once; the part past the parent's
            // end does not count at all.
            span("apps.advance", Some(0), 10, 30),
            span("apps.checkpoint", Some(0), 20, 50),
            span("collector.ingest", Some(0), 90, 120),
            // A grandchild is covered by its parent, not the root.
            span("events.extract", Some(1), 12, 18),
        ];
        assert_eq!(self_ns(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn layer_busy_counts_outermost_spans_and_self_excludes_children() {
        let spans = vec![
            span("bench.round", None, 0, 1_000_000),
            span("core.screen", Some(0), 0, 400_000),
            // Nested in the same layer: busy counts only the outer span.
            span("core.candidate_series", Some(1), 0, 100_000),
            span("correlation.test", Some(1), 100_000, 300_000),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["bench"], (1.0, 0.6));
        assert_eq!(t["core"], (0.4, 0.2));
        assert_eq!(t["correlation"], (0.2, 0.2));
        assert_eq!(total_ms(&spans, "core.screen"), 0.4);
    }

    #[test]
    fn tracer_nests_and_absorbs_other_threads() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        t.begin("bench.cycle", 7);
        t.time("apps.advance", 7, || ());
        t.end();
        let mut other = t.fork();
        other.begin("serve.query", 9);
        other.time("serve.submit", 9, || ());
        other.end();
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));

        let mut off = Tracer::off();
        off.begin("bench.cycle", 1);
        off.end();
        assert!(off.spans().is_empty());
    }
}
