//! Span recording for the traced run.
//!
//! Spans are taken from outside the program: around each call the
//! benchmark makes into a layer, and inside the wrappers it plugs into
//! the engine's public extension points (a `ResolutionStrategy`
//! wrapper and a `MiddlewareObserver`). Each recorder owns its buffer,
//! so the engine's shard threads never contend on a shared lock; the
//! buffers are merged when the run ends and written out as JSON lines.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An instant event inside a span (an observer callback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Which recorder took it (one per engine shard), so per-shard
    /// sequences can be told apart.
    pub lane: u32,
    /// The enclosing span, or 0.
    pub parent: u32,
    /// `<layer>.<event>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub at_ns: u64,
}

#[derive(Debug, Default)]
struct Buf {
    spans: Vec<Span>,
    marks: Vec<Mark>,
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    next_id: AtomicU32,
    /// The root span currently open on the driving thread, so spans
    /// recorded on the engine's worker threads can name their parent.
    current: AtomicU32,
    bufs: Mutex<Vec<Arc<Mutex<Buf>>>>,
}

/// The shared clock and span registry of one traced run.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Shared>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Shared {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            bufs: Mutex::new(Vec::new()),
        }))
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.0.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A recorder with its own buffer, registered for [`Tracer::collect`].
    pub fn recorder(&self) -> Recorder {
        let buf = Arc::new(Mutex::new(Buf::default()));
        let mut bufs = self
            .0
            .bufs
            .lock()
            .expect("span registry lock poisoned by a panicking recorder");
        bufs.push(Arc::clone(&buf));
        Recorder {
            tracer: self.clone(),
            buf,
            lane: u32::try_from(bufs.len()).expect("fewer than 2^32 recorders"),
        }
    }

    /// The open root span, 0 between calls. The id publishes no other
    /// data, so a relaxed load suffices.
    pub fn current(&self) -> u32 {
        self.0.current.load(Ordering::Relaxed)
    }

    fn next_id(&self) -> u32 {
        self.0.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Every span and mark recorded so far, in start order.
    pub fn collect(&self) -> (Vec<Span>, Vec<Mark>) {
        let bufs = self
            .0
            .bufs
            .lock()
            .expect("span registry lock poisoned by a panicking recorder");
        let mut spans = Vec::new();
        let mut marks = Vec::new();
        for buf in bufs.iter() {
            let b = buf.lock().expect("span buffer poisoned");
            spans.extend_from_slice(&b.spans);
            marks.extend_from_slice(&b.marks);
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        marks.sort_by_key(|m| m.at_ns);
        (spans, marks)
    }
}

/// One thread's (or one shard's) handle into a [`Tracer`].
#[derive(Debug, Clone)]
pub struct Recorder {
    tracer: Tracer,
    buf: Arc<Mutex<Buf>>,
    lane: u32,
}

impl Recorder {
    /// The tracer this recorder belongs to.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records a finished span and returns its id.
    pub fn record(&self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.tracer.next_id();
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    fn push(&self, span: Span) {
        self.buf
            .lock()
            .expect("span buffer poisoned")
            .spans
            .push(span);
    }

    /// Records an instant event.
    pub fn mark(&self, name: &'static str, parent: u32, at_ns: u64) {
        self.buf
            .lock()
            .expect("span buffer poisoned")
            .marks
            .push(Mark {
                lane: self.lane,
                parent,
                name,
                at_ns,
            });
    }

    /// Times `f` as a root span. `f` receives the span's id, and spans
    /// on other threads can name it as their parent through
    /// [`Tracer::current`] while it runs.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce(u32) -> R) -> R {
        let current = &self.tracer.0.current;
        let id = self.tracer.next_id();
        let start = self.tracer.now_ns();
        current.store(id, Ordering::Relaxed);
        let out = f(id);
        let end = self.tracer.now_ns();
        current.store(0, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: 0,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Times `f` as a child of `parent` on this thread.
    pub fn child<R>(&self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let start = self.tracer.now_ns();
        let out = f();
        let end = self.tracer.now_ns();
        self.record(name, parent, start, end);
        out
    }
}

/// Per span name: calls, total time, and self time — the span's
/// duration minus the part of it covered by its children (children may
/// run on several threads at once, so coverage is their union, clipped
/// to the parent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|c| union_within(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.ns();
        e.self_ns += s.ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Spans (and marks) of each name the span file keeps. A traced run
/// records about a million; the file keeps the first ones of every name
/// so each layer is represented, and its `self_time` lines still cover
/// every span recorded.
pub const FILE_PER_NAME: usize = 20_000;

/// Writes the run's spans, marks and self-time table as JSON lines:
/// one `header` object (`header` is JSON text), then the first
/// [`FILE_PER_NAME`] spans and marks of each name, then one `self_time`
/// object per span name over all spans.
pub fn write_jsonl(
    path: &std::path::Path,
    header: &str,
    spans: &[Span],
    marks: &[Mark],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, r#"{{"header":{header}}}"#)?;
    let mut written: HashMap<&str, usize> = HashMap::new();
    let mut keep = |name: &'static str| {
        let n = written.entry(name).or_default();
        *n += 1;
        *n <= FILE_PER_NAME
    };
    for s in spans.iter().filter(|s| keep(s.name)) {
        writeln!(
            out,
            r#"{{"span":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    for m in marks.iter().filter(|m| keep(m.name)) {
        writeln!(
            out,
            r#"{{"mark":"{}","lane":{},"parent":{},"at_ns":{}}}"#,
            m.name, m.lane, m.parent, m.at_ns
        )?;
    }
    for (name, t) in self_times(spans) {
        writeln!(
            out,
            r#"{{"self_time":"{}","calls":{},"total_ns":{},"self_ns":{}}}"#,
            name, t.calls, t.total_ns, t.self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "shard.batch_add", 0, 100),
            // Two shard threads: overlapping children cover [10, 50).
            span(2, 1, "core.on_addition", 10, 30),
            span(3, 1, "core.on_addition", 20, 50),
            // A child running past its parent's end is clipped.
            span(4, 1, "core.on_use", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["shard.batch_add"].self_ns, 100 - 40 - 10);
        assert_eq!(t["shard.batch_add"].total_ns, 100);
        assert_eq!(t["core.on_addition"].calls, 2);
        assert_eq!(t["core.on_addition"].self_ns, 50);
        assert_eq!(t["core.on_use"].self_ns, 30);
    }

    #[test]
    fn root_spans_publish_themselves_to_other_threads() {
        let tracer = Tracer::default();
        let main = tracer.recorder();
        let worker = tracer.recorder();
        let root = main.root("middleware.submit", |id| {
            let parent = worker.tracer().current();
            worker.record("core.on_use", parent, 1, 2);
            id
        });
        assert_eq!(tracer.current(), 0, "no root is open between calls");
        let (spans, _) = tracer.collect();
        let child = spans.iter().find(|s| s.name == "core.on_use").unwrap();
        assert_eq!(child.parent, root);
    }
}
