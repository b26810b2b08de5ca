//! The scheduler abstraction: what a placement policy sees each round and
//! what it must return.
//!
//! Concrete schedulers (WaterWise, the greedy-optimal oracles, Round-Robin,
//! Least-Load, Ecovisor) live in `waterwise-core`; the simulator only depends
//! on this trait.

use crate::network::TransferModel;
use crate::state::RegionView;
use serde::{Deserialize, Serialize};
use waterwise_sustain::Seconds;
use waterwise_telemetry::Region;
use waterwise_traces::{JobId, JobSpec};

/// A job that has arrived and is waiting for a placement decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingJob {
    /// The job's trace record (the scheduler must use the *estimated*
    /// execution time and energy it contains).
    pub spec: JobSpec,
    /// When the decision controller first received the job (the `T_start`
    /// of the urgency score, Eq. 14).
    pub received_at: Seconds,
    /// How many scheduling rounds this job has already been deferred.
    pub deferrals: u32,
}

impl PendingJob {
    /// Time the job has spent waiting for a decision as of `now`.
    pub fn waiting_time(&self, now: Seconds) -> Seconds {
        Seconds::new((now.value() - self.received_at.value()).max(0.0))
    }
}

/// Everything a scheduler may look at when making its decision. Notably it
/// contains *no future information*; the greedy-optimal oracles of the paper
/// receive their future knowledge through their own provider handle instead.
#[derive(Debug, Clone)]
pub struct SchedulingContext<'a> {
    /// Current simulation time.
    pub now: Seconds,
    /// Jobs awaiting placement (includes jobs deferred from earlier rounds).
    pub pending: &'a [PendingJob],
    /// Per-region state snapshot.
    pub regions: &'a [RegionView],
    /// The configured delay tolerance (fraction of execution time).
    pub delay_tolerance: f64,
    /// The transfer model (for latency-aware decisions).
    pub transfer: &'a TransferModel,
}

impl SchedulingContext<'_> {
    /// The participating regions, in the order of `regions`.
    pub fn region_list(&self) -> Vec<Region> {
        self.regions.iter().map(|v| v.region).collect()
    }

    /// Total remaining capacity across all regions.
    pub fn total_remaining_capacity(&self) -> usize {
        self.regions.iter().map(|v| v.remaining_capacity()).sum()
    }

    /// The view of a specific region, if it participates in the campaign.
    pub fn region_view(&self, region: Region) -> Option<&RegionView> {
        self.regions.iter().find(|v| v.region == region)
    }
}

/// One placement decision: run `job` in `region`, starting as soon as the
/// package transfer completes and a server frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Which job to place.
    pub job: JobId,
    /// The region that will execute it.
    pub region: Region,
}

/// The outcome of one scheduling round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulingDecision {
    /// Placements to enact this round. Pending jobs not mentioned remain in
    /// the pending pool and will be offered again next round (the `J_delay`
    /// of Algorithm 1).
    pub assignments: Vec<Assignment>,
}

impl SchedulingDecision {
    /// A decision that assigns nothing (defer everything).
    pub fn defer_all() -> Self {
        Self::default()
    }

    /// Build a decision from `(job, region)` pairs.
    ///
    /// ```
    /// use waterwise_cluster::SchedulingDecision;
    /// use waterwise_telemetry::Region;
    /// use waterwise_traces::JobId;
    ///
    /// let decision = SchedulingDecision::from_pairs([
    ///     (JobId(1), Region::Zurich),
    ///     (JobId(2), Region::Oregon),
    /// ]);
    /// assert_eq!(decision.assignments.len(), 2);
    /// ```
    pub fn from_pairs(pairs: impl IntoIterator<Item = (JobId, Region)>) -> Self {
        Self {
            assignments: pairs
                .into_iter()
                .map(|(job, region)| Assignment { job, region })
                .collect(),
        }
    }
}

/// Cumulative optimization-solver counters a scheduler may expose so the
/// engine can attribute per-round solver work (Fig. 13/14 overhead
/// experiments). Schedulers that do not run a solver return `None` from
/// [`Scheduler::solver_activity`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverActivity {
    /// MILP solves: simplex runs performed (across all branch-and-bound
    /// nodes). A round the scheduler decides without building a model — a
    /// WaterWise round whose hint is certified, or whose optimum its
    /// transportation kernel proves unique — adds nothing here or below.
    pub solves: usize,
    /// Simplex runs that were warm-started (crash basis, phase 1 skipped).
    pub warm_solves: usize,
    /// Total simplex pivots.
    pub simplex_pivots: usize,
    /// Pivots spent in warm-started runs.
    pub warm_pivots: usize,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Dual-simplex restarts of branch-and-bound nodes: always 0; kept for
    /// the frozen ledger (ROADMAP 3a).
    pub dual_restarts: usize,
    /// Dual restarts that reused their parent's basis: always 0; kept for
    /// the frozen ledger (ROADMAP 3a).
    pub basis_reuse_hits: usize,
    /// Variable bounds moved by dual restarts: always 0; kept for the
    /// frozen ledger (ROADMAP 3a).
    pub bound_flips: usize,
    /// Solution-cache hits: always 0, there is no cache; kept for the
    /// frozen ledger (ROADMAP 3a).
    pub cache_exact_hits: usize,
    /// Solution-cache hint hits: always 0; kept for the frozen ledger
    /// (ROADMAP 3a).
    pub cache_hint_hits: usize,
    /// Solution-cache misses: always 0; kept for the frozen ledger
    /// (ROADMAP 3a).
    pub cache_misses: usize,
}

impl SolverActivity {
    /// Counters accumulated since `earlier` (both snapshots of the same
    /// scheduler). Saturating: a reset or replaced counter source clamps the
    /// delta to zero instead of underflowing.
    pub fn delta_since(&self, earlier: &SolverActivity) -> SolverActivity {
        SolverActivity {
            solves: self.solves.saturating_sub(earlier.solves),
            warm_solves: self.warm_solves.saturating_sub(earlier.warm_solves),
            simplex_pivots: self.simplex_pivots.saturating_sub(earlier.simplex_pivots),
            warm_pivots: self.warm_pivots.saturating_sub(earlier.warm_pivots),
            nodes: self.nodes.saturating_sub(earlier.nodes),
            dual_restarts: self.dual_restarts.saturating_sub(earlier.dual_restarts),
            basis_reuse_hits: self
                .basis_reuse_hits
                .saturating_sub(earlier.basis_reuse_hits),
            bound_flips: self.bound_flips.saturating_sub(earlier.bound_flips),
            cache_exact_hits: self
                .cache_exact_hits
                .saturating_sub(earlier.cache_exact_hits),
            cache_hint_hits: self.cache_hint_hits.saturating_sub(earlier.cache_hint_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
        }
    }

    /// Add another activity sample into this one.
    pub fn accumulate(&mut self, other: &SolverActivity) {
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.simplex_pivots += other.simplex_pivots;
        self.warm_pivots += other.warm_pivots;
        self.nodes += other.nodes;
        self.dual_restarts += other.dual_restarts;
        self.basis_reuse_hits += other.basis_reuse_hits;
        self.bound_flips += other.bound_flips;
        self.cache_exact_hits += other.cache_exact_hits;
        self.cache_hint_hits += other.cache_hint_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// A placement policy. Called once per scheduling round.
///
/// `Send` is required so a scheduler can move to the thread that runs its
/// campaign (a parallel campaign matrix, the service host's engine thread);
/// the engine presents it the identical sequence of contexts wherever it
/// runs, so stateful schedulers behave the same everywhere.
///
/// ```
/// use waterwise_cluster::{Scheduler, SchedulingContext, SchedulingDecision};
///
/// /// Sends every pending job to its home region.
/// struct HomeScheduler;
///
/// impl Scheduler for HomeScheduler {
///     fn name(&self) -> &str {
///         "home"
///     }
///     fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
///         SchedulingDecision::from_pairs(
///             ctx.pending.iter().map(|p| (p.spec.id, p.spec.home_region)),
///         )
///     }
/// }
/// ```
pub trait Scheduler: Send {
    /// Short name used in logs, tables, and experiment output.
    fn name(&self) -> &str;

    /// Decide placements for (a subset of) the pending jobs.
    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision;

    /// Cumulative solver counters, if this scheduler runs an optimization
    /// solver. The engine snapshots this around every [`Scheduler::schedule`]
    /// call to attribute per-round solver work in the overhead samples.
    fn solver_activity(&self) -> Option<SolverActivity> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_sustain::KilowattHours;
    use waterwise_traces::Benchmark;

    fn pending(id: u64, received: f64) -> PendingJob {
        PendingJob {
            spec: JobSpec {
                id: JobId(id),
                benchmark: Benchmark::Dedup,
                submit_time: Seconds::new(received),
                home_region: Region::Oregon,
                actual_execution_time: Seconds::new(100.0),
                actual_energy: KilowattHours::new(0.01),
                estimated_execution_time: Seconds::new(100.0),
                estimated_energy: KilowattHours::new(0.01),
                package_bytes: 1,
            },
            received_at: Seconds::new(received),
            deferrals: 0,
        }
    }

    #[test]
    fn waiting_time_is_non_negative() {
        let p = pending(1, 50.0);
        assert_eq!(p.waiting_time(Seconds::new(80.0)).value(), 30.0);
        assert_eq!(p.waiting_time(Seconds::new(10.0)).value(), 0.0);
    }

    #[test]
    fn context_helpers() {
        let pendings = vec![pending(1, 0.0)];
        let regions = vec![
            RegionView {
                region: Region::Zurich,
                total_servers: 5,
                busy_servers: 1,
                queued_jobs: 0,
                inbound_jobs: 0,
            },
            RegionView {
                region: Region::Mumbai,
                total_servers: 5,
                busy_servers: 5,
                queued_jobs: 2,
                inbound_jobs: 0,
            },
        ];
        let transfer = TransferModel::paper_default();
        let ctx = SchedulingContext {
            now: Seconds::new(10.0),
            pending: &pendings,
            regions: &regions,
            delay_tolerance: 0.25,
            transfer: &transfer,
        };
        assert_eq!(ctx.region_list(), vec![Region::Zurich, Region::Mumbai]);
        assert_eq!(ctx.total_remaining_capacity(), 4);
        assert!(ctx.region_view(Region::Zurich).is_some());
        assert!(ctx.region_view(Region::Milan).is_none());
    }

    #[test]
    fn solver_activity_deltas_saturate_and_accumulate() {
        let later = SolverActivity {
            solves: 1,
            cache_exact_hits: 2,
            cache_hint_hits: 1,
            cache_misses: 1,
            ..SolverActivity::default()
        };
        let earlier = SolverActivity {
            solves: 5,
            simplex_pivots: 100,
            dual_restarts: 3,
            ..SolverActivity::default()
        };
        // A replaced workspace (counters reset) must clamp to zero, not
        // underflow.
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.solves, 0);
        assert_eq!(delta.simplex_pivots, 0);
        assert_eq!(delta.dual_restarts, 0);
        assert_eq!(delta.cache_exact_hits, 2);
        let mut acc = later;
        acc.accumulate(&SolverActivity {
            dual_restarts: 2,
            basis_reuse_hits: 2,
            bound_flips: 7,
            ..SolverActivity::default()
        });
        assert_eq!(acc.dual_restarts, 2);
        assert_eq!(acc.basis_reuse_hits, 2);
        assert_eq!(acc.bound_flips, 7);
    }

    #[test]
    fn decision_builders() {
        let d = SchedulingDecision::from_pairs([(JobId(1), Region::Milan)]);
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(d.assignments[0].region, Region::Milan);
        assert!(SchedulingDecision::defer_all().assignments.is_empty());
    }
}
