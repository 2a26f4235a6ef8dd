//! In-memory span recording for the traced run.
//!
//! The benchmark's own code wraps each call into a layer's public function
//! in a span: a name, start and end, the span that caused it, and the
//! request it belongs to. Spans stay in memory (one buffer per benchmark
//! thread, so recording takes no lock) and are written out when the run
//! ends. The untraced run uses [`NoTrace`], whose methods do nothing and
//! compile away.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// A handle to a recorded span (its index in the thread's buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call or benchmark step, e.g. `"session.run"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same buffer.
    pub parent: Option<usize>,
    /// The request (or image, or round) this span served.
    pub request: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where the benchmark reports spans: a [`Tracer`] in the traced run,
/// [`NoTrace`] otherwise.
pub trait Trace {
    /// Opens a span starting now; [`Trace::close`] ends it.
    fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId;
    /// Ends a span opened with [`Trace::open`].
    fn close(&mut self, id: SpanId);
    /// Records a span whose bounds were measured by the caller.
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId;
    /// `true` when spans are kept, so callers can skip work (such as
    /// sampling server stats) that only feeds the trace.
    fn enabled(&self) -> bool;
    /// An empty sink on the same clock, for another benchmark thread.
    fn fork(&self) -> Self
    where
        Self: Sized;
    /// Takes over a forked sink's spans once its thread has ended.
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;
}

/// The untraced run's sink: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: Option<SpanId>, _: u64) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn close(&mut self, _: SpanId) {}
    #[inline(always)]
    fn record(
        &mut self,
        _: &'static str,
        _: Option<SpanId>,
        _: u64,
        _: Instant,
        _: Instant,
    ) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    fn fork(&self) -> Self {
        NoTrace
    }
    fn absorb(&mut self, _: Self) {}
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A buffer timing spans from `epoch` (shared by every thread of a
    /// run, so their spans share one clock).
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::with_capacity(1 << 16) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Trace for Tracer {
    fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.map(|p| p.0),
            request,
        });
        SpanId(self.spans.len() - 1)
    }

    fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans[id.0].end_ns = now;
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.map(|p| p.0),
            request,
        };
        self.spans.push(span);
        SpanId(self.spans.len() - 1)
    }

    fn enabled(&self) -> bool {
        true
    }

    fn fork(&self) -> Self {
        Tracer::new(self.epoch)
    }

    /// Appends the other buffer, rebasing its parent indices.
    fn absorb(&mut self, other: Self) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Runs `f` inside a span named `name`.
pub fn step<T: Trace, R>(
    trace: &mut T,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    let id = trace.open(name, parent, request);
    let out = f();
    trace.close(id);
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children that overlap each other count once;
/// the parts of a child outside its parent's interval do not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name timing of a span set, in milliseconds.
#[derive(Debug, Default)]
pub struct NameStats {
    /// Wall time of each span.
    pub total: Samples,
    /// Self time of each span.
    pub own: Samples,
}

/// Groups spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times(spans);
    let mut raw: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let entry = raw.entry(s.name).or_default();
        entry.0.push(s.duration_ns() as f64 / 1e6);
        entry.1.push(own_ns as f64 / 1e6);
    }
    raw.into_iter()
        .map(|(name, (total, own))| {
            (name, NameStats { total: Samples::new(total), own: Samples::new(own) })
        })
        .collect()
}

/// Writes spans as tab-separated rows: id, name, start, end, parent,
/// request.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.request)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 10, 40, None)]), vec![30]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30).
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("g", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,50) and [30,70) overlap on [30,50): union is 60.
        let spans =
            [span("root", 0, 100, None), span("a", 10, 50, Some(0)), span("b", 30, 70, Some(0))];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn disjoint_and_contained_children() {
        // [10,20), [15,18) inside it, and [50,60): union is 20.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 15, 18, Some(0)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn child_time_outside_the_parent_is_ignored() {
        // A child started before and ended after its parent (e.g. a
        // request span recorded from its due time) covers it fully.
        let spans =
            [span("p", 10, 20, None), span("c", 0, 15, Some(0)), span("d", 18, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 3);
        let spans = [span("p", 10, 20, None), span("c", 0, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let mut b = a.fork();
        for t in [&mut a, &mut b] {
            let root = t.open("root", None, 0);
            t.open("child", Some(root), 0);
        }
        a.absorb(b);
        let spans = a.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
    }

    #[test]
    fn tracer_records_open_close_and_explicit_spans() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let root = t.open("root", None, 7);
        let child = t.record("child", Some(root), 7, epoch, epoch);
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].request, 7);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(child, SpanId(1));
        let stats = by_name(&spans);
        assert_eq!(stats["root"].total.len(), 1);
    }

    #[test]
    fn no_trace_records_nothing() {
        let mut t = NoTrace;
        let id = t.open("x", None, 0);
        t.close(id);
        assert!(!t.enabled());
    }
}
