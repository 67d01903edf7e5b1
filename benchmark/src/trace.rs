//! Outside-in tracing: in-memory spans recorded by the benchmark around
//! its calls into each layer's public functions. Nothing inside the
//! crates is instrumented; a disabled tracer costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (interval, tick, controller interval) the span belongs to.
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, job: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = end_ns;
    }

    /// Record a span whose duration was measured elsewhere (the fleet's
    /// `TickReport` phases), placed at `start_ns` under the open span.
    pub fn record(&mut self, name: &'static str, job: u64, start_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.stack.last().copied(),
            job,
        });
    }

    /// Nanoseconds since the tracer's epoch, for [`Tracer::record`].
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

/// A span's self time is its duration minus what its direct children
/// cover (children of one parent never overlap here: one thread opens
/// and closes them in order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.durs_ns.push(s.dur_ns());
    }
    out
}

/// Write spans as JSON lines: `{name,start_ns,end_ns,parent,job}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start_ns, s.end_ns, s.job
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        let t = totals_by_name(&spans);
        assert_eq!(t["job"].total_ns, 100);
        assert_eq!(t["job"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x", 1);
        t.end(o);
        t.record("y", 1, 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new(true);
        let job = t.begin("job", 7);
        let a = t.begin("a", 7);
        t.end(a);
        t.record("phase", 7, 0, 3);
        t.end(job);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.job == 7));
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
