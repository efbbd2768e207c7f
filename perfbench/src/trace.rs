//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions; nothing inside the program is instrumented. Closed trees are
//! buffered and folded in batches into per-name totals (so the per-layer
//! figures cover every span) and kept for the span file up to a cap,
//! which bounds memory on long runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the span file; later trees are only folded into totals.
const KEEP_SPANS: usize = 200_000;
/// Closed spans buffered before they are folded.
const FOLD_BATCH: usize = 8192;

/// One closed (or open) span. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the enclosing span (within the open tree
/// while pending, across the whole run once kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer function the span wraps, e.g. `driver.prepare`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children always nest inside their parent on one
/// thread, so this is the part of the parent's interval no child covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur());
        }
    }
    out
}

/// The recorder.
pub struct Tracer {
    origin: Instant,
    pending: Vec<Span>,
    open: Vec<usize>,
    kept: Vec<Span>,
    folded: usize,
    totals: BTreeMap<&'static str, Total>,
    fold_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            pending: Vec::with_capacity(FOLD_BATCH),
            open: Vec::new(),
            kept: Vec::new(),
            folded: 0,
            totals: BTreeMap::new(),
            fold_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.pending.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.pending.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let Some(i) = self.open.pop() else { return };
        self.pending[i].end = end;
        if self.open.is_empty() && self.pending.len() >= FOLD_BATCH {
            self.fold();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Folds the pending closed trees into the totals and the kept list.
    fn fold(&mut self) {
        let start = Instant::now();
        for (s, own) in self.pending.iter().zip(self_times(&self.pending)) {
            let t = self.totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur();
            t.self_ns += own;
        }
        let base = self.folded;
        self.folded += self.pending.len();
        let room = KEEP_SPANS.saturating_sub(self.kept.len());
        self.kept
            .extend(self.pending.drain(..).take(room).map(|s| Span {
                parent: s.parent.map(|p| base + p),
                ..s
            }));
        self.pending.clear();
        self.fold_ns += start.elapsed().as_nanos() as u64;
    }

    /// Folds everything closed so far (call with no span open).
    fn flush(&mut self) {
        if self.open.is_empty() && !self.pending.is_empty() {
            self.fold();
        }
    }

    /// Time the recorder spent on its own bookkeeping, seconds. It falls
    /// between spans, so it is tracing overhead rather than program time.
    pub fn bookkeeping_s(&mut self) -> f64 {
        self.flush();
        self.fold_ns as f64 / 1e9
    }

    /// The aggregate for `name` (zero if it never ran).
    pub fn total(&mut self, name: &str) -> Total {
        self.flush();
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of `name`, seconds.
    pub fn self_s(&mut self, name: &str) -> f64 {
        self.total(name).self_ns as f64 / 1e9
    }

    /// Every span name seen, with its aggregate.
    pub fn totals(&mut self) -> &BTreeMap<&'static str, Total> {
        self.flush();
        &self.totals
    }

    /// The kept spans as tab-separated `id parent name start_ns end_ns`
    /// lines (`parent` is `-` for roots).
    pub fn render_tsv(&mut self) -> String {
        self.flush();
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{id}\t{parent}\t{}\t{}\t{}", s.name, s.start, s.end);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_its_children() {
        // op [0,100) holds prepare [10,30) and run [30,90); run holds a
        // nested check [40,50).
        let spans = [
            span("op", None, 0, 100),
            span("prepare", Some(0), 10, 30),
            span("run", Some(0), 30, 90),
            span("check", Some(2), 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn folded_totals_cover_every_span_and_sum_to_the_root() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            t.enter("op");
            t.time("a", || std::hint::black_box(1 + 1));
            t.enter("b");
            t.time("c", || ());
            t.exit();
            t.exit();
        }
        assert_eq!(t.total("op").count, 3);
        assert_eq!(t.total("c").count, 3);
        let self_sum: u64 = t.totals().values().map(|x| x.self_ns).sum();
        assert_eq!(
            self_sum,
            t.total("op").total_ns,
            "self times partition the roots"
        );
        let tsv = t.render_tsv();
        assert_eq!(tsv.lines().count(), 1 + 12);
        assert!(
            tsv.lines().nth(5).unwrap().starts_with("4\t-\top\t"),
            "{tsv}"
        );
        assert!(
            tsv.lines().nth(6).unwrap().starts_with("5\t4\ta\t"),
            "{tsv}"
        );
        assert!(
            tsv.lines().nth(8).unwrap().starts_with("7\t6\tc\t"),
            "{tsv}"
        );
    }
}
