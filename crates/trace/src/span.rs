//! Low-overhead structured span recording.
//!
//! Every instrumented thread owns an append-only buffer of finished spans —
//! the same per-worker layout as the scheduler's steal deques, so the hot
//! path never touches a global lock: starting a span is one atomic load (the
//! enabled flag) plus a monotonic clock read, and finishing one appends to
//! the thread's own buffer under its own (uncontended) mutex. A global
//! registry only holds `Arc`s to the buffers so a collector can drain them
//! all, including buffers of threads that have since exited.
//!
//! Tracing is **off by default**: with the flag down, [`span`] returns an
//! unarmed guard and records nothing, so instrumented code costs one relaxed
//! atomic load per call site. [`enable`] arms the whole process.
//!
//! Parentage is tracked per thread: the innermost open span on the current
//! thread is the parent of the next one opened, so drained spans form a
//! forest whose parent links let a profiler compute *self* time (a node
//! check's own bookkeeping, distinct from the encode and solve spans nested
//! inside it).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// The broad phase a span (or instant event) belongs to; the Chrome trace
/// category and the unit of the profiler's time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Compiling terms into solver ASTs.
    Encode,
    /// Inside a solver `check` call.
    Solve,
    /// Scheduler time spent claiming work: own-deque pops, steal scans and
    /// steal transfers (the "steal-idle" of the profile breakdown).
    Idle,
    /// Hash-consing arena interning (attributed via counters; interning is
    /// too hot for per-call spans).
    Intern,
    /// One whole node check; its self time (beyond the encode/solve spans
    /// nested inside) lands in the profile's "other" bucket.
    Node,
    /// One CEGIS inference round.
    Round,
    /// Network simulation.
    Sim,
    /// One protocol request handled by the `timepieced` daemon (its self
    /// time is the request overhead beyond the node checks nested inside).
    Request,
    /// Everything else (scope events, cancellations, harness work).
    Other,
}

impl Phase {
    /// Every phase, in profile-table order.
    pub const ALL: [Phase; 9] = [
        Phase::Encode,
        Phase::Solve,
        Phase::Idle,
        Phase::Intern,
        Phase::Node,
        Phase::Round,
        Phase::Sim,
        Phase::Request,
        Phase::Other,
    ];

    /// The phase's stable lower-case name (the Chrome `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Encode => "encode",
            Phase::Solve => "solve",
            Phase::Idle => "steal-idle",
            Phase::Intern => "intern",
            Phase::Node => "node",
            Phase::Round => "round",
            Phase::Sim => "sim",
            Phase::Request => "request",
            Phase::Other => "other",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Is the record a duration or a point event?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A completed duration span (Chrome `ph: "X"`).
    Complete,
    /// An instant event (Chrome `ph: "i"`); `dur_ns` is zero.
    Instant,
}

/// One finished span (or instant event), as drained from a thread buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never zero).
    pub id: u64,
    /// The id of the innermost span open on the same thread when this one
    /// started; zero at the top level.
    pub parent: u64,
    /// Duration span or instant event.
    pub kind: SpanKind,
    /// The phase the span's time is attributed to.
    pub phase: Phase,
    /// Display name (node name, VC name, …). May contain arbitrary
    /// user-provided text — exporters must escape it.
    pub name: String,
    /// Start, in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// Originating thread's trace-local id.
    pub tid: u64,
    /// Free-form key/value annotations (node class, verdict, …).
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// End time in nanoseconds since the trace epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// The value of annotation `key`, if present.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A thread's label, as drained alongside its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadInfo {
    /// Trace-local thread id.
    pub tid: u64,
    /// Human label (`worker0`, `pool-worker2`, …), empty if never set.
    pub label: String,
}

/// Everything one collection drained: spans and thread labels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All finished spans and instants, across threads.
    pub spans: Vec<SpanRecord>,
    /// Labels for the threads that appear in `spans`.
    pub threads: Vec<ThreadInfo>,
}

impl Trace {
    /// Is there nothing in the trace?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends another trace's contents, such as a later collection of the
    /// same process.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.threads.extend(other.threads);
    }
}

/// One thread's buffer: spans appended on drop, drained by the collector.
struct ThreadBuffer {
    tid: u64,
    state: Mutex<BufferState>,
}

#[derive(Default)]
struct BufferState {
    spans: Vec<SpanRecord>,
    label: String,
}

/// Every thread buffer there is, so [`take`] can drain them all.
fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use wins; monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
    static OPEN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_buffer<R>(f: impl FnOnce(&ThreadBuffer) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer = Arc::new(ThreadBuffer {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(BufferState::default()),
            });
            buffers().lock().push(Arc::clone(&buffer));
            buffer
        });
        f(buffer)
    })
}

/// Arms span recording process-wide. Idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Disarms span recording. Spans already open finish recording; new ones
/// become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Is recording armed?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Labels the current thread's track in exported traces (`worker0`, …).
/// Cheap enough to call unconditionally at thread start; recorded even while
/// tracing is disabled so late-enabled traces still name their tracks.
pub fn set_thread_label(label: impl Into<String>) {
    with_buffer(|b| b.state.lock().label = label.into());
}

/// Opens a span; the returned guard records it into the thread's buffer when
/// dropped. Unarmed (free) when tracing is disabled.
pub fn span(phase: Phase, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    SpanGuard {
        armed: Some(ArmedSpan {
            id,
            parent,
            phase,
            name: name.into(),
            start_ns: now_ns(),
            args: Vec::new(),
        }),
    }
}

/// Records an instant event (zero duration) under the currently open span.
/// No-op when tracing is disabled.
pub fn instant(phase: Phase, name: impl Into<String>) {
    if !enabled() {
        return;
    }
    let parent = OPEN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let record = SpanRecord {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        kind: SpanKind::Instant,
        phase,
        name: name.into(),
        start_ns: now_ns(),
        dur_ns: 0,
        tid: 0,
        args: Vec::new(),
    };
    with_buffer(|b| {
        let mut state = b.state.lock();
        let mut record = record;
        record.tid = b.tid;
        state.spans.push(record);
    });
}

struct ArmedSpan {
    id: u64,
    parent: u64,
    phase: Phase,
    name: String,
    start_ns: u64,
    args: Vec<(String, String)>,
}

/// An open span; finishes (and records) on drop.
#[derive(Debug)]
pub struct SpanGuard {
    armed: Option<ArmedSpan>,
}

impl std::fmt::Debug for ArmedSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmedSpan").field("id", &self.id).field("name", &self.name).finish()
    }
}

impl SpanGuard {
    /// Attaches a key/value annotation (node class, verdict, batch size…).
    /// No-op on unarmed guards.
    pub fn arg(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if let Some(armed) = &mut self.armed {
            armed.args.push((key.into(), value.into()));
        }
    }

    /// Is this guard actually recording?
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else { return };
        let end = now_ns();
        OPEN_STACK.with(|s| {
            // unwind the stack to (and past) this span: a guard dropped out
            // of order (e.g. held across an early return alongside inner
            // guards) must not leave stale parents behind
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == armed.id) {
                s.truncate(pos);
            }
        });
        let record = SpanRecord {
            id: armed.id,
            parent: armed.parent,
            kind: SpanKind::Complete,
            phase: armed.phase,
            name: armed.name,
            start_ns: armed.start_ns,
            dur_ns: end.saturating_sub(armed.start_ns),
            tid: 0,
            args: armed.args,
        };
        with_buffer(|b| {
            let mut state = b.state.lock();
            let mut record = record;
            record.tid = b.tid;
            state.spans.push(record);
        });
    }
}

/// Drains every thread buffer into one [`Trace`], ordered by start time.
/// Thread labels are retained for future collections; buffers of exited
/// threads are pruned once drained.
pub fn take() -> Trace {
    let mut trace = Trace::default();
    buffers().lock().retain(|buffer| {
        let mut state = buffer.state.lock();
        trace.spans.append(&mut state.spans);
        if !state.label.is_empty() {
            trace.threads.push(ThreadInfo { tid: buffer.tid, label: state.label.clone() });
        }
        // the thread-local side holds the other strong reference; when it is
        // gone the thread exited and the (now empty) buffer can go
        Arc::strong_count(buffer) > 1
    });
    trace.spans.sort_by_key(|s| (s.start_ns, s.id));
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole module shares process-global state, so tests serialize on
    /// one lock and drain before/after.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK.get_or_init(|| Mutex::new(())).lock();
        let _ = take();
        enable();
        guard
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = serial();
        disable();
        {
            let mut s = span(Phase::Solve, "ignored");
            assert!(!s.is_armed());
            s.arg("k", "v");
            instant(Phase::Other, "ignored");
        }
        assert!(take().is_empty());
        enable();
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let _g = serial();
        {
            let _outer = span(Phase::Node, "outer");
            let _inner = span(Phase::Solve, "inner");
            instant(Phase::Other, "tick");
        }
        let trace = take();
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        let tick = trace.spans.iter().find(|s| s.name == "tick").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(tick.parent, inner.id);
        assert_eq!(tick.kind, SpanKind::Instant);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        assert_eq!(outer.tid, inner.tid);
    }

    #[test]
    fn out_of_order_guard_drop_unwinds_the_stack() {
        let _g = serial();
        {
            let outer = span(Phase::Node, "outer");
            let inner = span(Phase::Solve, "inner");
            drop(outer); // dropped before `inner`: must unwind past both
            let sibling = span(Phase::Encode, "sibling");
            drop(sibling);
            drop(inner);
        }
        let trace = take();
        let sibling = trace.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(sibling.parent, 0, "stack must not point at a closed span");
    }

    #[test]
    fn threads_get_distinct_tids_and_labels() {
        let _g = serial();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    set_thread_label(format!("t{i}"));
                    let _s = span(Phase::Node, format!("on-{i}"));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = take();
        let tids: std::collections::BTreeSet<u64> =
            trace.spans.iter().filter(|s| s.name.starts_with("on-")).map(|s| s.tid).collect();
        assert_eq!(tids.len(), 3);
        let labels: std::collections::BTreeSet<&str> = trace
            .threads
            .iter()
            .filter(|t| t.label.starts_with('t'))
            .map(|t| t.label.as_str())
            .collect();
        assert!(labels.contains("t0") && labels.contains("t1") && labels.contains("t2"));
    }

    #[test]
    fn take_drains_and_second_take_is_empty_of_spans() {
        let _g = serial();
        drop(span(Phase::Other, "one"));
        assert_eq!(take().spans.len(), 1);
        assert!(take().spans.is_empty());
    }
}
