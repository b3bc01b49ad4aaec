//! The traced run's instrumentation: spans recorded at each layer
//! boundary from the benchmark's own wrappers, and a counting allocator.
//!
//! Nothing here runs in an untraced pass: the untraced loops call the
//! library directly, without wrappers, and the allocator only counts
//! while [`alloc_counting`] has switched it on.
//!
//! Spans live in a per-thread [`Recorder`]. A recorder keeps per-layer
//! aggregates (count, total and self time) for every span it sees, and
//! the full records of the first `keep` spans for the span file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use gmp_net::NodeId;
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};

/// A layer boundary the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole task, as the benchmark's loop drives it.
    Task,
    /// `Session::begin`: fault-plan set-up and the source's decision.
    SimBegin,
    /// `Session::step`: one event batch.
    SimStep,
    /// `Session::finish`: delivery maps and the failure oracle.
    SimFinish,
    /// `Protocol::on_packet` of the GMP router: one routing decision.
    OnPacket,
    /// The lifetime of one session-engine worker's protocol.
    Worker,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 6] = [
        Layer::Task,
        Layer::SimBegin,
        Layer::SimStep,
        Layer::SimFinish,
        Layer::OnPacket,
        Layer::Worker,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Task => "bench.task",
            Layer::SimBegin => "sim.begin",
            Layer::SimStep => "sim.step",
            Layer::SimFinish => "sim.finish",
            Layer::OnPacket => "core.on_packet",
            Layer::Worker => "service.worker",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Task id of spans that belong to no single task (worker lifetimes, and
/// decisions inside the session engine, which interleaves sessions).
pub const NO_TASK: u32 = u32::MAX;
/// Parent index of a root span, or of one whose parent was not kept.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary.
    pub layer: Layer,
    /// The task the span belongs to, or [`NO_TASK`].
    pub task: u32,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Start time, ns.
    pub start_ns: u64,
    /// End time, ns.
    pub end_ns: u64,
}

/// Per-layer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerAgg {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans, ns.
    pub self_ns: u64,
}

/// A routing decision's inputs, captured for the replay split.
#[derive(Debug, Clone)]
pub struct DecisionSample {
    /// The deciding node.
    pub node: NodeId,
    /// The packet as the router received it (destination list copied, so
    /// the live decision's shared list is never aliased).
    pub packet: MulticastPacket,
    /// The liveness view the router saw, when the run had timed faults.
    pub alive: Option<Vec<bool>>,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    index: u32,
}

/// Everything one thread traced.
#[derive(Debug)]
pub struct Recorder {
    /// Full records of the first `keep` spans opened.
    pub spans: Vec<Span>,
    keep: usize,
    stack: Vec<Open>,
    /// Aggregates indexed by layer.
    agg: [LayerAgg; 6],
    /// Duration of every decision, ns.
    pub decision_ns: Vec<u64>,
    /// Packet copies the wrapped router emitted.
    pub forwards: u64,
    /// Of those, copies in GPSR perimeter mode.
    pub perimeter_forwards: u64,
    /// `(start, end)` of the worker lifetime, when this recorder traced a
    /// session-engine worker.
    pub worker: Option<(u64, u64)>,
    /// Captured decision inputs (every `sample_every`-th decision, at most
    /// `sample_cap`).
    pub samples: Vec<DecisionSample>,
    sample_every: u64,
    sample_cap: usize,
    decisions_seen: u64,
    task: u32,
}

impl Recorder {
    /// A recorder keeping the first `keep` span records and sampling
    /// every `sample_every`-th decision, up to `sample_cap` samples.
    pub fn new(keep: usize, sample_every: u64, sample_cap: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(keep.min(1 << 16)),
            keep,
            stack: Vec::new(),
            agg: [LayerAgg::default(); 6],
            decision_ns: Vec::new(),
            forwards: 0,
            perimeter_forwards: 0,
            worker: None,
            samples: Vec::new(),
            sample_every: sample_every.max(1),
            sample_cap,
            decisions_seen: 0,
            task: NO_TASK,
        }
    }

    /// Aggregate of one layer.
    pub fn layer(&self, layer: Layer) -> LayerAgg {
        self.agg[layer.index()]
    }

    fn enter(&mut self, layer: Layer, now: u64) {
        let index = if self.spans.len() < self.keep {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.index);
            self.spans.push(Span {
                layer,
                task: self.task,
                parent,
                start_ns: now,
                end_ns: now,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            layer,
            start_ns: now,
            child_ns: 0,
            index,
        });
    }

    fn exit(&mut self, now: u64) -> u64 {
        let open = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = now.saturating_sub(open.start_ns);
        let agg = &mut self.agg[open.layer.index()];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.index != NO_PARENT {
            self.spans[open.index as usize].end_ns = now;
        }
        if open.layer == Layer::OnPacket {
            self.decision_ns.push(dur);
        }
        dur
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (the trace epoch
/// shared by every thread).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Makes `rec` this thread's recorder.
pub fn install(rec: Recorder) {
    CURRENT.with(|c| *c.borrow_mut() = Some(rec));
}

/// Removes and returns this thread's recorder.
pub fn take() -> Option<Recorder> {
    CURRENT.with(|c| c.borrow_mut().take())
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Opens a span on this thread's recorder (no-op without one).
pub fn enter(layer: Layer) {
    let now = now_ns();
    with(|r| r.enter(layer, now));
}

/// Closes the innermost open span, returning its duration in ns.
pub fn exit() -> u64 {
    let now = now_ns();
    with(|r| r.exit(now)).unwrap_or(0)
}

/// Sets the task id stamped on spans opened from now on.
pub fn set_task(task: u32) {
    with(|r| r.task = task);
}

/// A protocol wrapper that records a `core.on_packet` span around every
/// decision, counts the copies it emits, and samples decision inputs.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
}

impl<P> Traced<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Traced { inner }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_task_start(&mut self, ctx: &NodeContext<'_>, source: NodeId, dests: &[NodeId]) {
        self.inner.on_task_start(ctx, source, dests);
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        with(|r| {
            r.decisions_seen += 1;
            if r.decisions_seen % r.sample_every == 0 && r.samples.len() < r.sample_cap {
                r.samples.push(DecisionSample {
                    node: ctx.node,
                    packet: MulticastPacket {
                        dests: packet.dests.to_vec().into(),
                        ..packet.clone()
                    },
                    alive: ctx.alive.map(<[bool]>::to_vec),
                });
            }
        });
        let before = out.len();
        enter(Layer::OnPacket);
        self.inner.on_packet(ctx, packet, out);
        exit();
        let emitted = &out[before..];
        let perimeter = emitted
            .iter()
            .filter(|f| matches!(f.packet.state, RoutingState::Perimeter(_)))
            .count();
        with(|r| {
            r.forwards += emitted.len() as u64;
            r.perimeter_forwards += perimeter as u64;
        });
    }
}

/// Where finished worker recorders go.
pub type Sink = Arc<Mutex<Vec<Recorder>>>;

/// A session-engine worker's protocol in the traced run: built by the
/// per-worker factory when the worker starts, it installs a recorder and
/// opens a `service.worker` span; dropped when the worker ends, it closes
/// the span and hands the recorder to the sink.
#[derive(Debug)]
pub struct WorkerProbe<P> {
    inner: Traced<P>,
    sink: Sink,
    start_ns: u64,
}

impl<P> WorkerProbe<P> {
    /// Starts tracing this thread as one worker.
    pub fn new(inner: P, sink: Sink, rec: Recorder) -> Self {
        install(rec);
        let start_ns = now_ns();
        enter(Layer::Worker);
        WorkerProbe {
            inner: Traced::new(inner),
            sink,
            start_ns,
        }
    }
}

impl<P: Protocol> Protocol for WorkerProbe<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_task_start(&mut self, ctx: &NodeContext<'_>, source: NodeId, dests: &[NodeId]) {
        self.inner.on_task_start(ctx, source, dests);
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        self.inner.on_packet(ctx, packet, out);
    }
}

impl<P> Drop for WorkerProbe<P> {
    fn drop(&mut self) {
        exit();
        let end_ns = now_ns();
        if let Some(mut rec) = take() {
            rec.worker = Some((self.start_ns, end_ns));
            // A poisoned sink means another worker panicked; that panic is
            // already propagating, so this recorder is simply dropped.
            if let Ok(mut sink) = self.sink.lock() {
                sink.push(rec);
            }
        }
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while switched on by
/// [`alloc_counting`]. The counters are statistics only, so relaxed
/// ordering suffices.
#[derive(Debug)]
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and requested bytes counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
