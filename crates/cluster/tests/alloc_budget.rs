//! Allocation budget of the event loop itself.
//!
//! The file's only test, because it installs a counting `#[global_allocator]`
//! for the whole test binary. Counting is per thread, so the harness's own
//! threads never show up in the numbers, and it is suspended inside
//! `Scheduler::schedule`, so the numbers are the engine's side of a round.
//! It counts requests and requested bytes (a grow or shrink is one request
//! for its new size), as the perf ledger's `alloc.*_per_job` columns do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use waterwise_cluster::{
    Scheduler, SchedulingContext, SchedulingDecision, SimulationConfig, Simulator,
};
use waterwise_telemetry::SyntheticTelemetry;
use waterwise_traces::{TraceConfig, TraceGenerator};

/// Allocation requests and requested bytes.
type Counts = (u64, u64);

thread_local! {
    /// `Some(counts)` while this thread is being counted. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<Option<Counts>> = const { Cell::new(None) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone.
        let _ = ALLOCATIONS.try_with(|n| {
            n.set(
                n.get()
                    .map(|(count, bytes)| (count + 1, bytes + size as u64)),
            )
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state
// and never allocates.
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
        Self::count(new_size);
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`
        // and the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation requests and requested bytes `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    ALLOCATIONS.with(|n| n.set(Some((0, 0))));
    let out = f();
    let counts = ALLOCATIONS.with(|n| n.take()).unwrap_or_default();
    (out, counts)
}

/// Every pending job to its home region, at once — and off the books: the
/// decision it allocates is the scheduler's, not the engine's.
struct HomeScheduler;

impl Scheduler for HomeScheduler {
    fn name(&self) -> &str {
        "home"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        let counted = ALLOCATIONS.with(|n| n.take());
        let decision = SchedulingDecision::from_pairs(
            ctx.pending.iter().map(|p| (p.spec.id, p.spec.home_region)),
        );
        ALLOCATIONS.with(|n| n.set(counted));
        decision
    }
}

/// Engine-side allocation requests and bytes of one offline Borg replay of
/// `days` days, the number of rounds that had work, and the number of jobs.
fn replay(days: f64) -> (Counts, usize, usize) {
    let jobs = TraceGenerator::new(TraceConfig::borg(days, 42)).generate();
    let simulator = Simulator::new(
        SimulationConfig::paper_default(280, 0.5),
        SyntheticTelemetry::with_seed(42),
    )
    .unwrap();
    let (report, allocations) = allocations_of(|| simulator.run(&jobs, &mut HomeScheduler));
    let report = report.unwrap();
    assert_eq!(report.outcomes.len(), jobs.len(), "every job completes");
    (allocations, report.overhead.len(), jobs.len())
}

/// Allocation requests a whole replay may make on the engine's side.
/// Measured: 46 for the 70-round replay, 52 for the 550-round one — the
/// outcome and report buffers sized once from the trace, the id scan's
/// scratch, and the doublings of the in-flight table and its free list, the
/// heap, the pending pool and the commit's marks over it, the region queues
/// and the overhead samples. (With a `BTreeMap` of the pool, a snapshot
/// `Vec` pair and an enacted list per round, and a set insert and heap slot
/// per preloaded job, the same replays made thousands.)
const RUN_BUDGET: u64 = 64;

/// Engine-side bytes the 5 470-job replay may request per job. Measured:
/// 138.1 — the 80-byte outcome, the rest the doublings of the in-flight
/// table, the pending pool, the event queue, the region queues and the
/// overhead samples. (With a 24-byte runtime row for every job of the trace
/// and the completion time in every outcome it read 162.7; with two 40-byte
/// footprint breakdowns in every outcome and a 32-byte row, 218.7. The
/// 537-job replay, on which the fixed costs and the in-flight table weigh
/// more, reads 210.6 against 204.7 and 260.7.)
const BYTES_PER_JOB_BUDGET: f64 = 150.0;

/// Allocation requests eight times the rounds may add: buffer doublings
/// only, so logarithmic in the run's length. Measured: 6.
const GROWTH_BUDGET: u64 = 16;

#[test]
fn the_event_loop_allocates_per_run_not_per_round() {
    let ((short, _), short_rounds, _) = replay(0.05);
    let ((long, long_bytes), long_rounds, long_jobs) = replay(0.4);
    assert!(
        short_rounds >= 50 && long_rounds >= 7 * short_rounds,
        "fixture: {short_rounds} and {long_rounds} rounds"
    );
    for (allocations, rounds) in [(short, short_rounds), (long, long_rounds)] {
        assert!(
            allocations <= RUN_BUDGET,
            "a {rounds}-round replay made {allocations} engine-side allocation \
             requests, budget {RUN_BUDGET}"
        );
    }
    let per_job = long_bytes as f64 / long_jobs as f64;
    assert!(
        per_job <= BYTES_PER_JOB_BUDGET,
        "a {long_jobs}-job replay requested {per_job:.1} engine-side bytes a job, \
         budget {BYTES_PER_JOB_BUDGET}"
    );
    assert!(
        long <= short + GROWTH_BUDGET,
        "{long_rounds} rounds made {long} allocation requests against {short} for \
         {short_rounds}: something allocates per round (budget +{GROWTH_BUDGET})"
    );
}
