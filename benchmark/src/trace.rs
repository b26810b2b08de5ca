//! Measuring from outside: spans, a counting allocator, and the two
//! wrappers that sit at the product's trait boundaries.
//!
//! Nothing here reaches into the product crates. [`TimedScheduler`] wraps a
//! concrete `WaterWiseScheduler` behind the `Scheduler` trait,
//! [`TimedProvider`] wraps an `Arc<dyn ConditionsProvider>`, and
//! [`CountingAlloc`] is installed as `#[global_allocator]` by the
//! `ledger_traced` binary only — the untraced `ledger` runs the system
//! allocator untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use waterwise::cluster::{Scheduler, SchedulingContext, SchedulingDecision, SolverActivity};
use waterwise::core::sched::SolveStats;
use waterwise::core::WaterWiseScheduler;
use waterwise::sustain::{CarbonIntensity, RegionConditions, Seconds, WaterScarcityFactor};
use waterwise::telemetry::{ConditionsProvider, Region};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Identifier of a recorded span; 0 means "no parent".
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// The pass, round or request the span belongs to.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span sink shared by every thread of a traced child. Spans are
/// written out once, when the workload ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span sink poisoned");
        let id = spans.len() as SpanId + 1;
        spans.push(Span {
            id,
            parent,
            name,
            key,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        });
        id
    }

    /// Open a span whose children are recorded before it ends: the id is
    /// reserved now, [`Tracer::close`] stamps the end.
    pub fn open(&self, name: &'static str, parent: SpanId, key: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, key, now, now)
    }

    /// Stamp the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.nanos(Instant::now());
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans[id as usize - 1].end_ns = end;
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover (children on other threads may overlap each other, so
/// the covered part is the union of their intervals, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len() + 1];
    for span in spans {
        if span.parent != 0 {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let intervals = &mut children[span.id as usize];
            intervals.sort_unstable();
            let (mut covered, mut frontier) = (0u64, span.start_ns);
            for &(start, end) in intervals.iter() {
                let start = start.max(frontier);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The spans as NDJSON, one object per line, self time included.
pub fn encode_spans(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let own = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96);
    for (span, self_ns) in spans.iter().zip(own) {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, span.parent, span.name, span.key, span.start_ns, span.end_ns, self_ns
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters, switched on only around the
/// timed region of a traced pass.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(size: usize) {
        // Relaxed: the counters are statistics and publish no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on this
        // allocator, which is `System`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one request for `new_size` bytes.
        Self::count(new_size);
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`
        // and the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation requests and requested bytes counted so far. Both stay 0 in a
/// binary that did not install [`CountingAlloc`].
pub fn allocation_counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// Switch allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// TimedProvider
// ---------------------------------------------------------------------------

/// A [`ConditionsProvider`] that counts the elementary lookups it forwards:
/// one per `conditions`/`wsf` call, one per hour of every trailing window. A
/// lookup costs tens of nanoseconds — less than reading the clock twice — so
/// calls are only counted here; their busy time is the count times the
/// per-lookup cost [`lookup_cost_s`] measures in a direct loop.
#[derive(Clone)]
pub struct TimedProvider {
    inner: Arc<dyn ConditionsProvider>,
    lookups: Arc<AtomicU64>,
}

impl TimedProvider {
    pub fn new(inner: Arc<dyn ConditionsProvider>) -> Self {
        Self {
            inner,
            lookups: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Elementary lookups forwarded so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    fn count(&self, lookups: usize) {
        // Relaxed: a statistic that publishes no other data.
        self.lookups.fetch_add(lookups as u64, Ordering::Relaxed);
    }
}

impl ConditionsProvider for TimedProvider {
    fn conditions(&self, region: Region, at: Seconds) -> RegionConditions {
        self.count(1);
        self.inner.conditions(region, at)
    }

    fn wsf(&self, region: Region) -> WaterScarcityFactor {
        self.count(1);
        self.inner.wsf(region)
    }

    fn trailing_carbon(&self, region: Region, at: Seconds, window_hours: usize) -> CarbonIntensity {
        self.count(window_hours.max(1));
        self.inner.trailing_carbon(region, at, window_hours)
    }

    fn trailing_water_intensity(
        &self,
        region: Region,
        at: Seconds,
        window_hours: usize,
        pue: f64,
    ) -> f64 {
        self.count(window_hours.max(1));
        self.inner
            .trailing_water_intensity(region, at, window_hours, pue)
    }
}

/// Seconds per item of a leaf function, from a direct loop: `pass` runs the
/// function over `items` inputs taken from the workload's own data, and is
/// repeated until a fifth of a second has gone by.
pub fn direct_loop_s(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < 0.2 {
        pass();
        rounds += 1;
    }
    start.elapsed().as_secs_f64() / (rounds * items) as f64
}

/// Cost of one elementary lookup, in seconds: a direct loop of `conditions`
/// over the `(region, time)` pairs the run itself touched.
pub fn lookup_cost_s(provider: &dyn ConditionsProvider, probes: &[(Region, Seconds)]) -> f64 {
    direct_loop_s(probes.len(), || {
        for &(region, at) in probes {
            std::hint::black_box(
                provider.conditions(std::hint::black_box(region), std::hint::black_box(at)),
            );
        }
    })
}

// ---------------------------------------------------------------------------
// TimedScheduler
// ---------------------------------------------------------------------------

/// What a [`TimedScheduler`] saw so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundLog {
    /// `schedule()` calls.
    pub calls: u64,
    /// Wall time inside `schedule()`.
    pub busy_ns: u64,
    /// The scheduler's cumulative statistics after the latest round.
    pub stats: SolveStats,
    /// The scheduler's cumulative solver activity after the latest round.
    pub activity: SolverActivity,
}

/// A concrete `WaterWiseScheduler` behind the `Scheduler` trait, with a span
/// per `schedule()` call and the scheduler's `stats()` / `solver_activity()`
/// after each round. The log is shared so it survives the scheduler being
/// boxed and consumed by a `ClusterHost`. (Batch sizes and per-round solver
/// deltas are already public in `SimulationReport::overhead`.)
pub struct TimedScheduler {
    inner: WaterWiseScheduler,
    tracer: Arc<Tracer>,
    parent: SpanId,
    log: Arc<Mutex<RoundLog>>,
}

impl TimedScheduler {
    pub fn new(inner: WaterWiseScheduler, tracer: Arc<Tracer>, parent: SpanId) -> Self {
        Self {
            inner,
            tracer,
            parent,
            log: Arc::new(Mutex::new(RoundLog::default())),
        }
    }

    /// A handle on the round log, valid after the scheduler is gone.
    pub fn log(&self) -> Arc<Mutex<RoundLog>> {
        self.log.clone()
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        let start = Instant::now();
        let decision = self.inner.schedule(ctx);
        let end = Instant::now();
        let mut log = self.log.lock().expect("round log poisoned");
        self.tracer
            .record("core.schedule", self.parent, log.calls, start, end);
        log.calls += 1;
        log.busy_ns += end.duration_since(start).as_nanos() as u64;
        log.stats = self.inner.stats();
        log.activity = self.inner.solver_activity().unwrap_or_default();
        decision
    }

    fn solver_activity(&self) -> Option<SolverActivity> {
        self.inner.solver_activity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_the_union_of_its_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            // Overlaps span 2 (another thread) and sticks out of the parent.
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
            span(5, 3, 25, 35),
        ];
        let own = self_times(&spans);
        // Children cover [10,50) and [90,100): 50 of the parent's 100.
        assert_eq!(own, vec![50, 20, 20, 30, 10]);
        // Roots' self times plus everything below them add up to the root,
        // once overlap and overhang are discounted.
        let text = encode_spans(&spans);
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().next().unwrap().contains("\"self_ns\":50"));
    }

    #[test]
    fn tracer_hands_out_dense_ids_and_closes_open_spans() {
        let tracer = Tracer::new();
        let root = tracer.open("pass", 0, 7);
        let t0 = Instant::now();
        let child = tracer.record("core.schedule", root, 0, t0, Instant::now());
        tracer.close(root);
        assert_eq!((root, child), (1, 2));
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn counting_is_off_by_default() {
        // The test binary does not install the allocator, and counting is
        // off: the counters never move.
        let before = allocation_counters();
        let _v: Vec<u8> = Vec::with_capacity(1024);
        assert_eq!(before, allocation_counters());
    }
}
