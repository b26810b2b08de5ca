//! Allocation budget of one WaterWise scheduling round.
//!
//! The file's only test, because it installs a counting `#[global_allocator]`
//! for the whole test binary. Counting is per thread, so the harness's own
//! threads never show up in the number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use waterwise_cluster::{PendingJob, RegionView, Scheduler, SchedulingContext, TransferModel};
use waterwise_core::WaterWiseScheduler;
use waterwise_sustain::{KilowattHours, Seconds, Watts};
use waterwise_telemetry::{SyntheticTelemetry, ALL_REGIONS};
use waterwise_traces::{JobId, JobSpec, ALL_BENCHMARKS};

thread_local! {
    /// `Some(n)` while this thread is being counted. Const-initialised and
    /// without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on this
        // allocator, which is `System`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`
        // and the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation requests `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let count = ALLOCATIONS.with(|n| n.take()).unwrap_or(0);
    (out, count)
}

/// The median `campaign_borg` round: 13 pending jobs, five regions.
const JOBS: usize = 13;

/// Allocation requests a round that reaches the solver may make: the 10 per
/// job the CI ledger gate held `campaign_borg` to while every round solved.
/// Measured, such a round makes 115 (110 before the hint was kept as region
/// indices, certified, and only then expanded for the solver) — 3 per job in
/// `prepare_numerics`, 1 for a job's assignment row, ~25 per solve that do
/// not grow with the batch, the rest the five capacity rows, the hint and its
/// dense form, the decision and the carried-region map. With a delay row per
/// job (Eq. 11 before it became arc bounds) it made 123; with the
/// `assign_{job}` / `cap_{region}` row names the cache key used to need, 146;
/// the builder before that (a `String` per variable and row, a `BTreeMap`
/// node per term, every row copied again for the solver) 456.
const SOLVED_BUDGET: u64 = 10 * JOBS as u64;

/// Allocation requests a certified round may make — no model, no tableau, no
/// solution: 5 per job. Measured, 56: the 3 per job of `prepare_numerics`,
/// and 17 that do not grow with the batch (region and job lists, history
/// terms, the round's conditions, capacities, hint, decision, carried-region
/// map). Over a ~120-job `campaign_alibaba` round those 17 vanish, which is
/// how the CI ledger gate can hold that workload to 4 per job.
const CERTIFIED_BUDGET: u64 = 5 * JOBS as u64;

/// One round over the 13 jobs with `servers` free servers in each region, on
/// a fresh scheduler: its allocation requests and whether it was certified.
fn round_with(servers: usize) -> (u64, bool) {
    let pending: Vec<PendingJob> = (0..JOBS)
        .map(|i| {
            let profile = ALL_BENCHMARKS[i % ALL_BENCHMARKS.len()].profile();
            let exec = Seconds::new(profile.mean_execution_time.value() * (0.9 + i as f64 / 100.0));
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
    let mut scheduler =
        WaterWiseScheduler::with_defaults(Arc::new(SyntheticTelemetry::with_seed(3)));

    let (decision, allocations) = allocations_of(|| scheduler.schedule(&ctx));

    assert_eq!(decision.assignments.len(), JOBS, "every job is placed");
    assert_eq!(scheduler.stats().soft_fallbacks, 0, "one solve, not two");
    (allocations, scheduler.stats().certified_rounds == 1)
}

#[test]
fn one_scheduling_round_stays_within_its_allocation_budget() {
    // Fifty free servers a region: no capacity row needs a price, the hint is
    // certified and the round never builds a model. (This test used to pin
    // this round at 110 requests, when it was solved like every other.)
    let (allocations, certified) = round_with(50);
    assert!(certified, "the roomy round was solved, not certified");
    assert!(
        allocations <= CERTIFIED_BUDGET,
        "a certified {JOBS}-job round made {allocations} allocation requests, \
         budget {CERTIFIED_BUDGET}"
    );
    // Three a region (15 for 13 jobs): the cheapest regions fill up, so the
    // round is a MILP — built, crashed from the hint, solved, read back.
    let (allocations, certified) = round_with(3);
    assert!(
        !certified,
        "the capacity-bound round was certified, not solved"
    );
    assert!(
        allocations <= SOLVED_BUDGET,
        "a solved {JOBS}-job round made {allocations} allocation requests, \
         budget {SOLVED_BUDGET}"
    );
}
