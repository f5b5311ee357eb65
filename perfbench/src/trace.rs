//! Span recording from outside the program.
//!
//! Layers are timed only at public boundaries: the benchmark opens a span
//! around each entry-point call it makes (`Experiment::run`,
//! `SoakExperiment::run`, ...), and two wrapper types time every call the
//! program makes into the `JobSource` and `Scheduler` traits. Wrappers
//! delegate unchanged, buffer their spans locally and hand them to the shared
//! [`Sink`] when they are dropped, so a call costs two clock reads and a
//! push. Self times are derived afterwards from the recorded tree.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dias_core::JobSource;
use dias_engine::{JobId, JobInstance, PendingView, RunningView, Scheduler, SlotRange};

/// `JobSource::next_job`. Leaf span names are fixed indices into
/// [`LEAF_NAMES`]; root names are registered with [`Sink::name`].
pub const NEXT_JOB: u16 = 0;
/// `Scheduler::place`.
pub const PLACE: u16 = 1;
/// `Scheduler::pick_next`.
pub const PICK_NEXT: u16 = 2;
/// `Scheduler::victim`.
pub const VICTIM: u16 = 3;
/// Printable span names, indexed by the constants above and [`Sink::name`].
pub const LEAF_NAMES: [&str; 4] = [
    "workloads.next_job",
    "engine.sched.place",
    "engine.sched.pick_next",
    "engine.sched.victim",
];

/// One recorded interval. `id` is 0 for leaf spans (they never parent
/// anything); `parent` is 0 for roots.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name index (see [`Sink::name`]).
    pub name: u16,
    /// Run (configuration × iteration) the span belongs to.
    pub run: u16,
    /// This span's id, or 0 for a leaf.
    pub id: u32,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u32,
    /// Start, nanoseconds since the process's trace epoch.
    pub start: u64,
    /// End, nanoseconds since the process's trace epoch.
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Scheduler call outcomes gathered at the trait boundary (the calls
/// themselves are spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedCounts {
    /// Calls that returned `Some` (a placement, a dispatch or a victim).
    pub hits: u64,
    /// Σ `running.len()` over all calls.
    pub running_len: u64,
    /// Σ `pending.len()` over `pick_next` calls.
    pub pending_len: u64,
}

impl SchedCounts {
    fn add(&mut self, o: &SchedCounts) {
        self.hits += o.hits;
        self.running_len += o.running_len;
        self.pending_len += o.pending_len;
    }
}

#[derive(Default)]
struct SinkInner {
    spans: Vec<Span>,
    sched: SchedCounts,
    names: Vec<String>,
}

/// The process-wide span store: wrappers flush into it when dropped, root
/// spans are pushed directly.
pub struct Sink {
    inner: Mutex<SinkInner>,
    next_id: AtomicU32,
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sink")
    }
}

impl Sink {
    /// An empty store whose name table starts with the leaf names.
    pub fn new() -> Arc<Sink> {
        let inner = SinkInner {
            names: LEAF_NAMES.iter().map(|s| (*s).to_string()).collect(),
            ..SinkInner::default()
        };
        Arc::new(Sink {
            inner: Mutex::new(inner),
            next_id: AtomicU32::new(1),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkInner> {
        self.inner
            .lock()
            .expect("no thread panics while holding the sink")
    }

    /// The index of span name `name`, registering it on first use.
    pub fn name(&self, name: &str) -> u16 {
        let mut g = self.lock();
        let idx = match g.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                g.names.push(name.to_string());
                g.names.len() - 1
            }
        };
        u16::try_from(idx).expect("fewer than 65536 span names")
    }

    /// Opens a parent span; close it with [`Sink::close`].
    pub fn open(&self, name: u16, run: u16, parent: u32) -> Span {
        Span {
            name,
            run,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start: now_ns(),
            end: 0,
        }
    }

    /// Closes and stores a span opened by [`Sink::open`]; returns its
    /// duration in seconds.
    pub fn close(&self, mut span: Span) -> f64 {
        span.end = now_ns();
        self.lock().spans.push(span);
        span.dur() as f64 * 1e-9
    }

    /// A fresh per-wrapper buffer whose spans hang under `parent`.
    pub fn recorder(self: &Arc<Self>, run: u16, parent: u32) -> Recorder {
        Recorder {
            sink: Arc::clone(self),
            run,
            parent,
            spans: Vec::new(),
            sched: SchedCounts::default(),
        }
    }

    /// Every span recorded so far, in no particular order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Scheduler counts flushed so far.
    pub fn sched(&self) -> SchedCounts {
        self.lock().sched
    }

    /// Writes the spans of the runs `keep` accepts as CSV
    /// (`name,run,id,parent,start_ns,end_ns`).
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn write_csv(&self, out: &mut impl Write, keep: impl Fn(u16) -> bool) -> io::Result<()> {
        let g = self.lock();
        writeln!(out, "name,run,id,parent,start_ns,end_ns")?;
        for s in g.spans.iter().filter(|s| keep(s.run)) {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                g.names[usize::from(s.name)],
                s.run,
                s.id,
                s.parent,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// A wrapper-local span buffer, flushed into its [`Sink`] on drop.
pub struct Recorder {
    sink: Arc<Sink>,
    run: u16,
    parent: u32,
    spans: Vec<Span>,
    sched: SchedCounts,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Recorder(run {}, parent {})", self.run, self.parent)
    }
}

impl Recorder {
    #[inline]
    fn leaf(&mut self, name: u16, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            run: self.run,
            id: 0,
            parent: self.parent,
            start,
            end,
        });
    }
}

impl Clone for Recorder {
    /// A clone starts empty: checkpointed sources are cloned without having
    /// made the original's calls.
    fn clone(&self) -> Self {
        Recorder {
            sink: Arc::clone(&self.sink),
            run: self.run,
            parent: self.parent,
            spans: Vec::new(),
            sched: SchedCounts::default(),
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned sink loses this buffer only.
        if let Ok(mut g) = self.sink.inner.lock() {
            g.spans.append(&mut self.spans);
            g.sched.add(&self.sched);
        }
    }
}

/// A [`JobSource`] that times every `next_job` call of its inner source.
#[derive(Debug, Clone)]
pub struct TracedSource<S> {
    inner: S,
    rec: Recorder,
}

impl<S> TracedSource<S> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: S, rec: Recorder) -> Self {
        TracedSource { inner, rec }
    }
}

impl<S: JobSource> JobSource for TracedSource<S> {
    fn classes(&self) -> usize {
        self.inner.classes()
    }

    fn next_job(&mut self) -> Option<JobInstance> {
        let t0 = now_ns();
        let job = self.inner.next_job();
        let t1 = now_ns();
        self.rec.leaf(NEXT_JOB, t0, t1);
        job
    }
}

/// A [`Scheduler`] that times and counts every call into its inner policy.
#[derive(Debug)]
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    rec: Recorder,
}

impl TracedScheduler {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Scheduler>, rec: Recorder) -> Self {
        TracedScheduler { inner, rec }
    }

    #[inline]
    fn count(&mut self, name: u16, hit: bool, running: usize, t0: u64, t1: u64) {
        self.rec.leaf(name, t0, t1);
        let c = &mut self.rec.sched;
        c.hits += u64::from(hit);
        c.running_len += running as u64;
    }
}

impl Scheduler for TracedScheduler {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn place(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        let t0 = now_ns();
        let r = self.inner.place(class, width, total_slots, running);
        let t1 = now_ns();
        self.count(PLACE, r.is_some(), running.len(), t0, t1);
        r
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        let t0 = now_ns();
        let r = self.inner.pick_next(pending, total_slots, running);
        let t1 = now_ns();
        self.count(PICK_NEXT, r.is_some(), running.len(), t0, t1);
        self.rec.sched.pending_len += pending.len() as u64;
        r
    }

    fn victim(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        let t0 = now_ns();
        let r = self.inner.victim(class, width, total_slots, running);
        let t1 = now_ns();
        self.count(VICTIM, r.is_some(), running.len(), t0, t1);
        r
    }
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Spans with this name.
    pub calls: u64,
    /// Σ self time: duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time of every span, grouped by name index.
///
/// A span's self time is its duration minus the union of its children's
/// intervals clipped to it, so children that ran in parallel on other lanes
/// are not subtracted twice.
pub fn self_times(spans: &[Span], names: usize) -> Vec<NameStats> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = vec![NameStats::default(); names];
    for s in spans {
        let covered = match children.get_mut(&s.id).filter(|_| s.id != 0) {
            Some(iv) => covered_ns(iv, s.start, s.end),
            None => 0,
        };
        let st = &mut out[usize::from(s.name)];
        st.calls += 1;
        st.self_ns += s.dur().saturating_sub(covered);
    }
    out
}

/// Median and 99th-percentile duration (ns) of the spans named in `keep`,
/// or zeros when there are none.
pub fn duration_quantiles(spans: &[Span], keep: &[u16]) -> (f64, f64) {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| keep.contains(&s.name))
        .map(Span::dur)
        .collect();
    if d.is_empty() {
        return (0.0, 0.0);
    }
    d.sort_unstable();
    let at = |q: f64| d[((d.len() - 1) as f64 * q).round() as usize] as f64;
    (at(0.5), at(0.99))
}

/// Length of the union of `iv` clipped to `[lo, hi)`.
fn covered_ns(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Names registered in `sink`, by index.
pub fn names(sink: &Sink) -> Vec<String> {
    sink.lock().names.clone()
}
