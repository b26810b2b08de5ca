//! Per-job outcomes and campaign-level summary metrics.

use crate::scheduler::SolverActivity;
use serde::{Deserialize, Serialize};
use waterwise_sustain::{Co2Grams, FootprintTotals, Liters, Seconds};
use waterwise_telemetry::Region;
use waterwise_traces::JobId;

/// The recorded outcome of one job execution: 80 bytes, one per completed
/// job in [`crate::SimulationReport::outcomes`].
///
/// The footprints are kept as totals, which is all the summary, the
/// schedule digest and the savings read. The per-component breakdown of a
/// job's execution footprint is
/// `estimator.estimate(JobResourceUsage::new(spec.actual_energy, outcome.execution_time),
/// provider.conditions(outcome.executed_region, outcome.start_time))` with
/// the simulator's [`crate::Simulator::estimator`] and
/// [`crate::Simulator::provider`]; its transfer footprint is
/// `estimate_operational` of the config's `transfer.transfer_energy(home,
/// executed, spec.package_bytes)` under the same conditions (zero at home).
/// Both equal the recorded totals to the bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Which job.
    pub job: JobId,
    /// The job's home region.
    pub home_region: Region,
    /// Where it actually executed.
    pub executed_region: Region,
    /// Submission time.
    pub submit_time: Seconds,
    /// Time the job started executing.
    pub start_time: Seconds,
    /// Actual execution time charged.
    pub execution_time: Seconds,
    /// Execution footprint totals (carbon + water) under the conditions at
    /// start.
    pub footprint: FootprintTotals,
    /// Additional footprint totals caused by the inter-region package
    /// transfer (zero when the job ran in its home region).
    pub transfer_footprint: FootprintTotals,
    /// Transfer latency incurred (zero when the job ran at home).
    pub transfer_time: Seconds,
    /// Whether the job violated its delay tolerance.
    pub violated_tolerance: bool,
}

// One per completed job, every pass: it holds footprint totals, not
// breakdowns, and no completion time.
const _: () = assert!(std::mem::size_of::<JobOutcome>() <= 80);

impl JobOutcome {
    /// Time the job finished: `start_time + execution_time`, the sum the
    /// engine stamps the job's completion event with, so it carries that
    /// event's bits.
    pub fn completion_time(&self) -> Seconds {
        self.start_time + self.execution_time
    }

    /// Service time: completion − submission.
    pub fn service_time(&self) -> Seconds {
        self.completion_time() - self.submit_time
    }

    /// Service time normalized to the execution time (1.0 = no stretch), the
    /// metric of Table 2.
    pub fn service_stretch(&self) -> f64 {
        if self.execution_time.value() <= 0.0 {
            1.0
        } else {
            self.service_time().value() / self.execution_time.value()
        }
    }

    /// Total carbon including transfer overhead.
    pub fn total_carbon(&self) -> Co2Grams {
        self.footprint.total_carbon() + self.transfer_footprint.total_carbon()
    }

    /// Total effective water including transfer overhead.
    pub fn total_water(&self) -> Liters {
        self.footprint.total_water() + self.transfer_footprint.total_water()
    }

    /// Whether the job was migrated away from its home region.
    pub fn migrated(&self) -> bool {
        self.home_region != self.executed_region
    }
}

/// One sample of scheduler decision-making overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadSample {
    /// Simulation time of the scheduling round.
    pub sim_time: Seconds,
    /// Wall-clock time the scheduler took to decide.
    pub wall_clock: Seconds,
    /// Number of pending jobs offered in the round.
    pub batch_size: usize,
    /// Solver work spent in this round (`None` for schedulers that do not
    /// run an optimization solver; the zero delta for a round such a
    /// scheduler decided without one).
    pub solver: Option<SolverActivity>,
}

/// Aggregated results of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Number of jobs that completed.
    pub total_jobs: usize,
    /// Total carbon footprint (execution + transfer) in gCO2.
    pub total_carbon: Co2Grams,
    /// Total effective water footprint (execution + transfer) in liters.
    pub total_water: Liters,
    /// Mean service-time stretch (Table 2, "service time normalized to
    /// execution time").
    pub mean_service_stretch: f64,
    /// Fraction of jobs that violated their delay tolerance (Table 2).
    pub violation_fraction: f64,
    /// Fraction of jobs executed away from their home region.
    pub migration_fraction: f64,
    /// Number of jobs executed per region (indexed by [`Region::index`]).
    pub jobs_per_region: [usize; 5],
    /// Mean utilization across regions (busy server-seconds / capacity).
    pub mean_utilization: f64,
    /// Mean scheduler decision time per round (wall clock).
    pub mean_decision_time: Seconds,
    /// Decision time as a fraction of the mean job execution time (Fig. 13's
    /// y-axis).
    pub decision_overhead_fraction: f64,
    /// Total solver work across the campaign (zeroed for schedulers without
    /// a solver). Deterministic for a fixed seed, unlike the wall-clock
    /// fields.
    pub solver: SolverActivity,
}

/// The per-job aggregates of a [`CampaignSummary`], folded one outcome at a
/// time: every sum starts from `-0.0` (the identity `Iterator::sum` starts
/// from) and adds in the order the outcomes are added. The engine adds each
/// outcome as its job completes, so the summary needs no second pass over the
/// outcomes; [`CampaignSummary::from_outcomes`] is the same fold over a
/// slice, hence the same bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutcomeFold {
    jobs: usize,
    carbon: f64,
    water: f64,
    stretch: f64,
    execution: f64,
    violations: usize,
    migrations: usize,
    jobs_per_region: [usize; 5],
}

impl Default for OutcomeFold {
    fn default() -> Self {
        Self {
            jobs: 0,
            carbon: -0.0,
            water: -0.0,
            stretch: -0.0,
            execution: -0.0,
            violations: 0,
            migrations: 0,
            jobs_per_region: [0; 5],
        }
    }
}

impl OutcomeFold {
    /// Fold in the next outcome.
    pub(crate) fn add(&mut self, o: &JobOutcome) {
        self.jobs += 1;
        self.carbon += o.total_carbon().value();
        self.water += o.total_water().value();
        self.stretch += o.service_stretch();
        self.execution += o.execution_time.value();
        self.violations += usize::from(o.violated_tolerance);
        self.migrations += usize::from(o.migrated());
        self.jobs_per_region[o.executed_region.index()] += 1;
    }

    /// The summary of the outcomes folded so far, with the engine-level
    /// statistics.
    pub(crate) fn summary(
        &self,
        overhead: &[OverheadSample],
        mean_utilization: f64,
    ) -> CampaignSummary {
        let total_jobs = self.jobs;
        let per_job = |total: f64, empty: f64| {
            if total_jobs == 0 {
                empty
            } else {
                total / total_jobs as f64
            }
        };
        let mean_decision_time = if overhead.is_empty() {
            Seconds::zero()
        } else {
            Seconds::new(
                overhead.iter().map(|s| s.wall_clock.value()).sum::<f64>() / overhead.len() as f64,
            )
        };
        let mean_execution = per_job(self.execution, 0.0);
        let decision_overhead_fraction = if mean_execution <= 0.0 {
            0.0
        } else {
            mean_decision_time.value() / mean_execution
        };
        let mut solver = SolverActivity::default();
        for sample in overhead.iter().filter_map(|s| s.solver.as_ref()) {
            solver.accumulate(sample);
        }
        CampaignSummary {
            total_jobs,
            total_carbon: Co2Grams::new(self.carbon),
            total_water: Liters::new(self.water),
            mean_service_stretch: per_job(self.stretch, 1.0),
            violation_fraction: per_job(self.violations as f64, 0.0),
            migration_fraction: per_job(self.migrations as f64, 0.0),
            jobs_per_region: self.jobs_per_region,
            mean_utilization,
            mean_decision_time,
            decision_overhead_fraction,
            solver,
        }
    }
}

impl CampaignSummary {
    /// Compute a summary from per-job outcomes plus engine-level statistics:
    /// the fold the engine makes as jobs complete, over a slice.
    pub fn from_outcomes(
        outcomes: &[JobOutcome],
        overhead: &[OverheadSample],
        mean_utilization: f64,
    ) -> Self {
        let mut fold = OutcomeFold::default();
        outcomes.iter().for_each(|o| fold.add(o));
        fold.summary(overhead, mean_utilization)
    }

    /// This summary with the wall-clock-derived fields
    /// ([`CampaignSummary::mean_decision_time`] and
    /// [`CampaignSummary::decision_overhead_fraction`]) zeroed out.
    ///
    /// Every other field is a pure function of the seeded inputs, so two
    /// logically identical campaigns — e.g. serial versus parallel
    /// `run_all`, or two runs with the same seed — compare byte-identical
    /// through this view (wall-clock timings never repeat exactly).
    pub fn without_wall_clock(&self) -> Self {
        Self {
            mean_decision_time: Seconds::zero(),
            decision_overhead_fraction: 0.0,
            ..self.clone()
        }
    }

    /// Percentage carbon saving of this campaign relative to a baseline
    /// (positive = this campaign emits less).
    pub fn carbon_saving_vs(&self, baseline: &CampaignSummary) -> f64 {
        saving_percent(baseline.total_carbon.value(), self.total_carbon.value())
    }

    /// Percentage water saving of this campaign relative to a baseline.
    pub fn water_saving_vs(&self, baseline: &CampaignSummary) -> f64 {
        saving_percent(baseline.total_water.value(), self.total_water.value())
    }

    /// Distribution of executed jobs across regions as fractions.
    pub fn region_distribution(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        if self.total_jobs == 0 {
            return out;
        }
        for (i, n) in self.jobs_per_region.iter().enumerate() {
            out[i] = *n as f64 / self.total_jobs as f64;
        }
        out
    }
}

/// Order-sensitive 64-bit FNV-1a digest of a schedule.
///
/// Hashes every deterministic field of every [`JobOutcome`] — identity,
/// placement, all event times, footprints (execution and transfer), and the
/// violation flag — in outcome order, with floats folded in by their exact
/// IEEE-754 bit patterns. Two campaigns produce the same digest exactly when
/// their schedules and accounting are byte-identical, which makes the digest
/// the one-line form of the workspace's replay contract: the default
/// scheduler vs the all-MILP reference, online ingestion vs offline replay, and a journal replay must all
/// collide on it. Wall-clock measurements never enter the hash.
///
/// ```
/// use waterwise_cluster::schedule_digest;
///
/// assert_eq!(schedule_digest(&[]), 0xcbf2_9ce4_8422_2325); // FNV offset basis
/// ```
pub fn schedule_digest(outcomes: &[JobOutcome]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for o in outcomes {
        eat(&o.job.0.to_le_bytes());
        eat(&[o.home_region.index() as u8, o.executed_region.index() as u8]);
        for t in [
            o.submit_time,
            o.start_time,
            o.completion_time(),
            o.execution_time,
            o.transfer_time,
        ] {
            eat(&t.value().to_bits().to_le_bytes());
        }
        for v in [
            o.footprint.total_carbon().value(),
            o.footprint.total_water().value(),
            o.transfer_footprint.total_carbon().value(),
            o.transfer_footprint.total_water().value(),
        ] {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&[o.violated_tolerance as u8]);
    }
    hash
}

/// Percentage saving of `candidate` relative to `baseline` (positive when the
/// candidate is smaller).
///
/// A non-positive or non-finite baseline (for example a zero-job campaign
/// with no footprint at all) has no meaningful saving; the result is NaN so
/// renderers can show a placeholder (`waterwise-bench` prints `—`) instead
/// of a fabricated `0.0%`.
///
/// ```
/// use waterwise_cluster::saving_percent;
///
/// assert_eq!(saving_percent(200.0, 150.0), 25.0);
/// assert_eq!(saving_percent(200.0, 250.0), -25.0);
/// assert!(saving_percent(0.0, 150.0).is_nan());
/// ```
pub fn saving_percent(baseline: f64, candidate: f64) -> f64 {
    if baseline <= 0.0 || !baseline.is_finite() {
        f64::NAN
    } else {
        (baseline - candidate) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_telemetry::ALL_REGIONS;

    fn outcome(job: u64, home: Region, executed: Region, carbon: f64, water: f64) -> JobOutcome {
        JobOutcome {
            job: JobId(job),
            home_region: home,
            executed_region: executed,
            submit_time: Seconds::new(0.0),
            start_time: Seconds::new(10.0),
            execution_time: Seconds::new(100.0),
            footprint: FootprintTotals {
                carbon: Co2Grams::new(carbon),
                water: Liters::new(water),
            },
            transfer_footprint: FootprintTotals::default(),
            transfer_time: Seconds::zero(),
            violated_tolerance: false,
        }
    }

    #[test]
    fn service_stretch_and_migration() {
        let o = outcome(1, Region::Oregon, Region::Zurich, 10.0, 5.0);
        assert!((o.service_stretch() - 1.1).abs() < 1e-12);
        assert!(o.migrated());
        assert!(!outcome(2, Region::Oregon, Region::Oregon, 1.0, 1.0).migrated());
    }

    #[test]
    fn summary_aggregates_totals() {
        let outcomes = vec![
            outcome(1, Region::Oregon, Region::Oregon, 100.0, 50.0),
            outcome(2, Region::Oregon, Region::Zurich, 200.0, 30.0),
        ];
        let s = CampaignSummary::from_outcomes(&outcomes, &[], 0.15);
        assert_eq!(s.total_jobs, 2);
        assert!((s.total_carbon.value() - 300.0).abs() < 1e-9);
        assert!((s.total_water.value() - 80.0).abs() < 1e-9);
        assert!((s.migration_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.jobs_per_region[Region::Oregon.index()], 1);
        assert_eq!(s.jobs_per_region[Region::Zurich.index()], 1);
        let dist: f64 = s.region_distribution().iter().sum();
        assert!((dist - 1.0).abs() < 1e-12);
    }

    #[test]
    fn savings_are_relative_to_baseline() {
        let baseline = CampaignSummary::from_outcomes(
            &[outcome(1, Region::Oregon, Region::Oregon, 200.0, 100.0)],
            &[],
            0.1,
        );
        let better = CampaignSummary::from_outcomes(
            &[outcome(1, Region::Oregon, Region::Zurich, 150.0, 80.0)],
            &[],
            0.1,
        );
        assert!((better.carbon_saving_vs(&baseline) - 25.0).abs() < 1e-9);
        assert!((better.water_saving_vs(&baseline) - 20.0).abs() < 1e-9);
        // A baseline with zero footprint (zero-job campaign) has no defined
        // saving: NaN signals "render a placeholder", never a silent 0%.
        assert!(saving_percent(0.0, 5.0).is_nan());
        assert!(saving_percent(f64::NAN, 5.0).is_nan());
        assert!(saving_percent(-1.0, 5.0).is_nan());
    }

    #[test]
    fn one_pass_aggregates_carry_the_bits_of_per_aggregate_sums() {
        // Magnitudes 1e-3..1e9 apart, so any change of summation order or
        // starting value shows in the low bits.
        let outcomes: Vec<JobOutcome> = (0..97u64)
            .map(|i| {
                let scale = 10f64.powi((i % 13) as i32 - 3);
                let mut o = outcome(
                    i,
                    Region::Oregon,
                    ALL_REGIONS[(i % 5) as usize],
                    scale * 1.1,
                    scale / 0.7,
                );
                o.execution_time = Seconds::new(3.0 + scale);
                o.start_time = Seconds::new(14.0 + 1.3 * scale);
                o.violated_tolerance = i % 3 == 0;
                o
            })
            .collect();
        let round = OverheadSample {
            sim_time: Seconds::zero(),
            wall_clock: Seconds::new(0.25),
            batch_size: 97,
            solver: None,
        };
        for outcomes in [&outcomes[..], &[]] {
            let s = CampaignSummary::from_outcomes(outcomes, &[round], 0.5);
            let carbon: Co2Grams = outcomes.iter().map(|o| o.total_carbon()).sum();
            let water: Liters = outcomes.iter().map(|o| o.total_water()).sum();
            assert_eq!(s.total_carbon.value().to_bits(), carbon.value().to_bits());
            assert_eq!(s.total_water.value().to_bits(), water.value().to_bits());
            if outcomes.is_empty() {
                continue;
            }
            let n = outcomes.len() as f64;
            let stretch = outcomes.iter().map(|o| o.service_stretch()).sum::<f64>() / n;
            assert_eq!(s.mean_service_stretch.to_bits(), stretch.to_bits());
            let violated = outcomes.iter().filter(|o| o.violated_tolerance).count();
            assert_eq!(
                s.violation_fraction.to_bits(),
                (violated as f64 / n).to_bits()
            );
            let migrated = outcomes.iter().filter(|o| o.migrated()).count();
            assert_eq!(
                s.migration_fraction.to_bits(),
                (migrated as f64 / n).to_bits()
            );
            let execution = outcomes.iter().map(|o| o.execution_time.value());
            let overhead = 0.25 / (execution.sum::<f64>() / n);
            assert_eq!(s.decision_overhead_fraction.to_bits(), overhead.to_bits());
            assert_eq!(s.jobs_per_region.iter().sum::<usize>(), outcomes.len());
        }
    }

    #[test]
    fn empty_campaign_is_safe() {
        let s = CampaignSummary::from_outcomes(&[], &[], 0.0);
        assert_eq!(s.total_jobs, 0);
        assert_eq!(s.violation_fraction, 0.0);
        assert_eq!(s.mean_service_stretch, 1.0);
        assert_eq!(s.decision_overhead_fraction, 0.0);
    }

    #[test]
    fn overhead_statistics() {
        let outcomes = vec![outcome(1, Region::Oregon, Region::Oregon, 1.0, 1.0)];
        let overhead = vec![
            OverheadSample {
                sim_time: Seconds::new(0.0),
                wall_clock: Seconds::new(0.2),
                batch_size: 10,
                solver: Some(SolverActivity {
                    solves: 2,
                    warm_solves: 0,
                    simplex_pivots: 40,
                    warm_pivots: 0,
                    nodes: 2,
                    ..SolverActivity::default()
                }),
            },
            OverheadSample {
                sim_time: Seconds::new(60.0),
                wall_clock: Seconds::new(0.4),
                batch_size: 20,
                solver: Some(SolverActivity {
                    solves: 1,
                    warm_solves: 1,
                    simplex_pivots: 10,
                    warm_pivots: 10,
                    nodes: 1,
                    dual_restarts: 1,
                    basis_reuse_hits: 1,
                    bound_flips: 2,
                    cache_exact_hits: 1,
                    cache_hint_hits: 1,
                    cache_misses: 0,
                }),
            },
        ];
        let s = CampaignSummary::from_outcomes(&outcomes, &overhead, 0.2);
        assert!((s.mean_decision_time.value() - 0.3).abs() < 1e-12);
        assert!((s.decision_overhead_fraction - 0.003).abs() < 1e-12);
        assert_eq!(s.solver.solves, 3);
        assert_eq!(s.solver.warm_solves, 1);
        assert_eq!(s.solver.simplex_pivots, 50);
        assert_eq!(s.solver.cache_exact_hits, 1);
        assert_eq!(s.solver.cache_hint_hits, 1);
        assert_eq!(s.solver.dual_restarts, 1);
        assert_eq!(s.solver.basis_reuse_hits, 1);
        assert_eq!(s.solver.bound_flips, 2);
        // The dual-restart counters are deterministic solver work, so the
        // wall-clock scrub must keep them intact.
        assert_eq!(s.without_wall_clock().solver, s.solver);
    }
}
