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

/// Allocation requests one such round may make: the 10 per job the CI ledger
/// gate holds `campaign_borg` to. Measured, the round makes 110 — 3 per job
/// in `prepare_numerics`, 1 for a job's assignment row, ~25 per solve that do
/// not grow with the batch, the rest the five capacity rows, the hint, the
/// decision and the carried-region map. With a delay row per job (Eq. 11
/// before it became arc bounds) it made 123; with the `assign_{job}` /
/// `cap_{region}` row names the cache key used to need, 146; the builder
/// before that (a `String` per variable and row, a `BTreeMap` node per term,
/// every row copied again for the solver) 456.
const BUDGET: u64 = 10 * JOBS as u64;

#[test]
fn one_scheduling_round_stays_within_its_allocation_budget() {
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
            total_servers: 50,
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
    assert!(
        allocations <= BUDGET,
        "one {JOBS}-job round made {allocations} allocation requests, budget {BUDGET}"
    );
}
