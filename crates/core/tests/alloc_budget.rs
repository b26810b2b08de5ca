//! Allocation budgets of one WaterWise scheduling round and of a whole run.
//!
//! The binary installs a counting `#[global_allocator]`. Counting is per
//! thread, so the harness's own threads — and the other test of this file —
//! never show up in a number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use waterwise_cluster::{
    JobOutcome, PendingJob, RegionView, Scheduler, SchedulingContext, SimulationConfig, Simulator,
    TransferModel,
};
use waterwise_core::{WaterWiseConfig, WaterWiseScheduler};
use waterwise_sustain::{FootprintEstimator, KilowattHours, Seconds, Watts};
use waterwise_telemetry::{SyntheticTelemetry, ALL_REGIONS};
use waterwise_traces::{JobId, JobSpec, TraceConfig, TraceGenerator, ALL_BENCHMARKS};

thread_local! {
    /// `Some((requests, bytes))` while this thread is being counted.
    /// Const-initialised and without a destructor, so touching it never
    /// allocates.
    static ALLOCATIONS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

struct CountingAlloc;

impl CountingAlloc {
    /// Count one request for `bytes` (a reallocation counts its new size).
    fn count(bytes: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone.
        let _ = ALLOCATIONS.try_with(|n| {
            n.set(
                n.get()
                    .map(|(requests, total)| (requests + 1, total + bytes as u64)),
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

/// Allocation requests and bytes `f` makes on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    ALLOCATIONS.with(|n| n.set(Some((0, 0))));
    let out = f();
    let counted = ALLOCATIONS.with(|n| n.take()).unwrap_or_default();
    (out, counted)
}

/// Allocation requests `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, (requests, _)) = allocated_by(f);
    (out, requests)
}

/// The median `campaign_borg` round (13 pending jobs) and the median
/// `campaign_alibaba` one (120), both over five regions.
const BATCHES: [usize; 2] = [13, 120];

/// Allocation requests a round decided without a model (a certified hint, or
/// the transportation kernel's unique optimum) may make once the scheduler's
/// scratch has grown to the batch — every later round of a campaign: the
/// `Vec<Assignment>` it returns, and one to spare. Measured: 1, at 13 jobs
/// and at 120, and for a capacity-bound 13-job round. (When every list was
/// built afresh it made 56 at 13 jobs — 3 per job in `prepare_numerics`, 17
/// that did not grow with the batch.)
const STEADY_CERTIFIED_BUDGET: u64 = 2;

/// Allocation requests a scheduler's first such round may make, growing the
/// scratch from empty. Measured: 25 at 13 jobs, 28 at 120 — the round's
/// lists and the numerics pass's columns, some doubling as they are pushed
/// to; nothing of it is per job (the per-job terms are one buffer sized once
/// and a list of homes), and a round its columns certify builds no job-major
/// rows — and 41 for a capacity-bound 13-job round, which builds them and
/// whose kernel grows its own lists. (26, 32 and 42 while the per-job terms
/// were a list of rows pushed to; 29, 38 and 43 while every round built its
/// rows; 27, 39 and 41 before the numerics became one region-major pass over
/// per-job columns.)
const FIRST_CERTIFIED_BUDGET: u64 = 45;

/// Allocation requests a 13-job round that reaches the solver may make:
/// `[on a fresh scheduler, on the same scheduler again]`. Every solve is
/// cold, as a tied round's and the all-MILP reference's are. Measured: 74 and
/// 50 — a job's assignment row (1 each), the five capacity rows, the model's
/// own lists, the solution, the tableau and the ~25 of a solve that do not
/// grow with the batch; the first round also grows the scratch, the two
/// lists of picks the pricing pass folds among it, unused here (73 before
/// it folded them, 75 while the per-job terms were rows pushed to). (73 and 49
/// while a solver workspace pooled the tableau across solves; 85 and 58
/// warm-started from the hint, with the dense hint and a crash basis.) A
/// fresh round made 115 before the round's lists were
/// reused; 123 with a delay row per job (Eq. 11 before it became arc bounds);
/// 146 with the `assign_{job}` / `cap_{region}` row names a since-deleted
/// solution cache keyed on; 456 with the builder before that (a `String` per variable and
/// row, a `BTreeMap` node per term, every row copied again for the solver).
const SOLVED_BUDGETS: [u64; 2] = [80, 55];

/// Two rounds over `jobs` pending jobs with `servers` free servers in each
/// region, on one fresh scheduler (`warm_start` as given): the allocation
/// requests of each round and how many of the two were certified.
fn two_rounds(jobs: usize, servers: usize, warm_start: bool) -> ([u64; 2], usize) {
    let pending: Vec<PendingJob> = (0..jobs)
        .map(|i| {
            let profile = ALL_BENCHMARKS[i % ALL_BENCHMARKS.len()].profile();
            let scale = 0.9 + (i % 20) as f64 / 100.0;
            let exec = Seconds::new(profile.mean_execution_time.value() * scale);
            let energy = Watts::new(profile.mean_power.value()).energy_over(exec);
            PendingJob {
                spec: JobSpec {
                    id: JobId(i as u64),
                    benchmark: ALL_BENCHMARKS[i % ALL_BENCHMARKS.len()],
                    submit_time: Seconds::from_hours(6.0),
                    home_region: ALL_REGIONS[i % ALL_REGIONS.len()],
                    actual_execution_time: exec,
                    actual_energy: energy,
                    estimated_execution_time: exec,
                    estimated_energy: KilowattHours::new(energy.value() * 1.02),
                    package_bytes: profile.package_bytes,
                },
                received_at: Seconds::from_hours(6.0),
                deferrals: 0,
            }
        })
        .collect();
    let regions: Vec<RegionView> = ALL_REGIONS
        .iter()
        .map(|&region| RegionView {
            region,
            total_servers: servers,
            busy_servers: 0,
            queued_jobs: 0,
            inbound_jobs: 0,
        })
        .collect();
    let transfer = TransferModel::paper_default();
    let ctx = SchedulingContext {
        now: Seconds::from_hours(6.0),
        pending: &pending,
        regions: &regions,
        delay_tolerance: 0.5,
        transfer: &transfer,
    };
    let mut scheduler = WaterWiseScheduler::new(
        Arc::new(SyntheticTelemetry::with_seed(3)),
        FootprintEstimator::paper_default(),
        WaterWiseConfig::default().with_warm_start(warm_start),
    );

    let allocations = [(); 2].map(|()| {
        let (decision, allocations) = allocations_of(|| scheduler.schedule(&ctx));
        assert_eq!(decision.assignments.len(), jobs, "every job is placed");
        allocations
    });
    assert_eq!(scheduler.stats().soft_fallbacks, 0, "one solve a round");
    (allocations, scheduler.stats().certified_rounds)
}

#[test]
fn one_scheduling_round_stays_within_its_allocation_budget() {
    // Room for every job in every region: no capacity row needs a price, the
    // hint is certified and neither round builds a model. Three servers a
    // region (15 for 13 jobs): the cheapest regions fill up, a capacity row
    // needs a price, and the transportation kernel decides — no model either.
    // The second round is the steady state, and its count must not grow with
    // the batch.
    let roomy = BATCHES.map(|jobs| (jobs, jobs + 40));
    for (jobs, servers) in roomy.into_iter().chain([(BATCHES[0], 3)]) {
        let ([first, steady], certified) = two_rounds(jobs, servers, true);
        assert_eq!(
            certified, 2,
            "a {jobs}-job round on {servers} servers was solved"
        );
        assert!(
            first <= FIRST_CERTIFIED_BUDGET,
            "a scheduler's first {jobs}-job round on {servers} servers made {first} \
             allocation requests, budget {FIRST_CERTIFIED_BUDGET}"
        );
        assert!(
            steady <= STEADY_CERTIFIED_BUDGET,
            "a steady-state {jobs}-job round on {servers} servers made {steady} \
             allocation requests, budget {STEADY_CERTIFIED_BUDGET}"
        );
    }
    // Without `warm_start` the capacity-bound round is a MILP — built,
    // solved, read back.
    let (solved, certified) = two_rounds(BATCHES[0], 3, false);
    assert_eq!(certified, 0, "a round without a hint was certified");
    assert!(
        solved[0] <= SOLVED_BUDGETS[0] && solved[1] <= SOLVED_BUDGETS[1],
        "two solved {}-job rounds made {solved:?} allocation requests, budgets {SOLVED_BUDGETS:?}",
        BATCHES[0]
    );
}

#[test]
fn a_sorted_trace_is_replayed_without_a_copy() {
    // What a run must allocate per job is its outcome: a job's runtime row
    // lives only while it is in flight. A trace already in submit order is
    // borrowed; a copy of it would add `size_of::<JobSpec>()` a job on top of
    // everything else. Measured beyond the outcomes: 51 B a job (11 588 jobs
    // in 360 rounds) — the decisions' assignments, the overhead samples, the
    // in-flight table's, the pending pool's and the heap's doublings —
    // against 64 B a job for the copy.
    let trace = TraceConfig::borg(0.25, 42).with_rate_multiplier(4.0);
    let jobs = TraceGenerator::new(trace).generate();
    let telemetry = SyntheticTelemetry::with_seed(42);
    // Roomy regions: every round is decided without a model.
    let simulator =
        Simulator::new(SimulationConfig::paper_default(280, 0.5), telemetry.clone()).unwrap();
    let mut scheduler = WaterWiseScheduler::with_defaults(Arc::new(telemetry));
    let (report, (_, bytes)) = allocated_by(|| simulator.run(&jobs, &mut scheduler));
    let n = report.unwrap().outcomes.len();
    assert_eq!(n, jobs.len(), "every job completes");
    let outcomes = n * std::mem::size_of::<JobOutcome>();
    let beyond = (bytes as usize).saturating_sub(outcomes);
    let copy = n * std::mem::size_of::<JobSpec>();
    assert!(
        beyond < copy,
        "a {n}-job run allocated {beyond} B beyond its outcomes, \
         as much as a copy of the trace ({copy} B)"
    );
}
