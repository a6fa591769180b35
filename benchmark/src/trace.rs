//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from outside the program, around calls into each
//! crate's public functions. A span names its layer (`crate.stage`), its
//! start and end in nanoseconds since the tracer was created, the span that
//! caused it and the op it belongs to. Nothing is written until the pass is
//! over.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span that no other span caused.
pub const NO_PARENT: u32 = u32::MAX;

/// A traced pass stops early once it holds this many spans, which keeps the
/// trace file in the tens of megabytes on the microsecond-op workloads.
const MAX_SPANS: usize = 300_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the tracer, or [`NO_PARENT`].
    pub parent: u32,
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans of one thread; the open spans form a stack, so a span's
/// parent is whichever span was open when it started.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens the root span of op `op_id`; close it with [`Tracer::exit`].
    pub fn begin_op(&mut self, name: &'static str, op_id: u32) {
        self.op_id = op_id;
        self.enter(name);
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id: self.op_id,
        });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let idx = self.open.pop().expect("exit without a matching enter") as usize;
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        self.spans[idx].duration_ns()
    }

    /// Records a leaf span around `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    pub fn is_full(&self) -> bool {
        self.spans.len() >= MAX_SPANS
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name summary of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStat {
    pub count: u64,
    pub median_us: f64,
    pub self_median_us: f64,
    pub total_self_ns: u64,
}

/// Median duration, median self time and summed self time per span name.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.duration_ns());
        e.1.push(*own_ns);
    }
    by_name
        .into_iter()
        .map(|(name, (mut durs, mut owns))| {
            let stat = LayerStat {
                count: durs.len() as u64,
                total_self_ns: owns.iter().sum(),
                median_us: stats::p50_us(&mut durs),
                self_median_us: stats::p50_us(&mut owns),
            };
            (name, stat)
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op_id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 50, 0),
            span("a.inner", 20, 30, 1),
            span("b", 60, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        let stats = layer_stats(&spans);
        assert_eq!(stats["op"].total_self_ns, 30);
        assert_eq!(stats["a"].median_us, 0.04);
        assert_eq!(stats["a"].self_median_us, 0.03);
    }

    #[test]
    fn tracer_nests_by_open_stack() {
        let mut t = Tracer::new();
        t.begin_op("op", 7);
        t.span("leaf", || ());
        t.enter("mid");
        t.span("leaf", || ());
        t.exit();
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 0, 2));
        assert!(s.iter().all(|x| x.op_id == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
    }
}
