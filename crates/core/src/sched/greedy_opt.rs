//! The Carbon-Greedy-Opt and Water-Greedy-Opt oracles (Sec. 5).
//!
//! These infeasible-in-practice schemes know the *future* carbon and water
//! intensity of every region (they hold the same telemetry provider the
//! simulator uses) and greedily pick, for each job independently, the
//! `(region, start time)` combination within the job's delay-tolerance
//! budget that minimizes a single objective — carbon for Carbon-Greedy-Opt,
//! water for Water-Greedy-Opt. They do not know future job arrivals, so they
//! are not truly optimal (as the paper notes), but they bound what
//! single-objective optimization can achieve.

use crate::objective::candidate_footprints;
use std::sync::Arc;
use waterwise_cluster::{Assignment, PendingJob, Scheduler, SchedulingContext, SchedulingDecision};
use waterwise_sustain::{FootprintEstimator, Seconds};
use waterwise_telemetry::{ConditionsProvider, Region};

/// Which single objective the oracle minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyObjective {
    /// Minimize the carbon footprint (Carbon-Greedy-Opt).
    Carbon,
    /// Minimize the effective water footprint (Water-Greedy-Opt).
    Water,
}

impl GreedyObjective {
    fn label(self) -> &'static str {
        match self {
            GreedyObjective::Carbon => "carbon-greedy-opt",
            GreedyObjective::Water => "water-greedy-opt",
        }
    }
}

/// Granularity of the future start-time search: 30 minutes, in seconds.
const SEARCH_STEP_S: f64 = 1800.0;

/// The greedy-optimal oracle scheduler.
pub struct GreedyOptScheduler {
    objective: GreedyObjective,
    provider: Arc<dyn ConditionsProvider>,
    estimator: FootprintEstimator,
}

impl GreedyOptScheduler {
    /// Create an oracle with future knowledge provided by `provider`.
    pub fn new(
        objective: GreedyObjective,
        provider: Arc<dyn ConditionsProvider>,
        estimator: FootprintEstimator,
    ) -> Self {
        Self {
            objective,
            provider,
            estimator,
        }
    }

    fn objective_of(&self, carbon: f64, water: f64) -> f64 {
        match self.objective {
            GreedyObjective::Carbon => carbon,
            GreedyObjective::Water => water,
        }
    }

    /// The slack (in seconds) the job can still afford to spend waiting and
    /// transferring without violating its delay tolerance.
    fn remaining_slack(&self, job: &PendingJob, ctx: &SchedulingContext<'_>) -> f64 {
        let tolerance_budget = ctx.delay_tolerance * job.spec.estimated_execution_time.value();
        let already_waited = job.waiting_time(ctx.now).value();
        tolerance_budget - already_waited
    }

    /// Decide the best `(region, extra delay)` for one job. Returns `None`
    /// when deferring to a later round is strictly better.
    fn best_choice(&self, job: &PendingJob, ctx: &SchedulingContext<'_>) -> Option<Region> {
        let regions = ctx.region_list();
        let slack = self.remaining_slack(job, ctx);
        let round_interval = SEARCH_STEP_S.min(300.0);

        let mut best_now: Option<(f64, Region)> = None;
        let mut best_later: Option<f64> = None;

        // Candidate start delays: 0, 30 min, 60 min, ... bounded by the slack.
        let mut delay = 0.0;
        while delay <= slack.max(0.0) {
            let at = Seconds::new(ctx.now.value() + delay);
            let candidates =
                candidate_footprints(job, &regions, self.provider.as_ref(), &self.estimator, at);
            for c in &candidates {
                let transfer = ctx
                    .transfer
                    .transfer_time(job.spec.home_region, c.region, job.spec.package_bytes)
                    .value();
                // The transfer + the candidate delay must fit in the slack.
                if delay + transfer > slack && slack >= 0.0 {
                    continue;
                }
                let value = self.objective_of(c.carbon, c.water);
                if delay <= round_interval {
                    if best_now.map(|(v, _)| value < v).unwrap_or(true) {
                        best_now = Some((value, c.region));
                    }
                } else if best_later.map(|v| value < v).unwrap_or(true) {
                    best_later = Some(value);
                }
            }
            delay += SEARCH_STEP_S;
        }

        match (best_now, best_later) {
            // Waiting for a clearly better future slot: defer this round.
            (Some((now_value, _)), Some(later_value)) if later_value < now_value * 0.98 => None,
            (Some((_, region)), _) => Some(region),
            // No feasible in-slack option: fall back to the cheapest region
            // right now (the job will likely violate its tolerance, as the
            // oracles also do in the paper when capacity is tight).
            (None, _) => {
                let candidates = candidate_footprints(
                    job,
                    &regions,
                    self.provider.as_ref(),
                    &self.estimator,
                    ctx.now,
                );
                candidates
                    .iter()
                    .min_by(|a, b| {
                        self.objective_of(a.carbon, a.water)
                            .partial_cmp(&self.objective_of(b.carbon, b.water))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|c| c.region)
            }
        }
    }
}

impl Scheduler for GreedyOptScheduler {
    fn name(&self) -> &str {
        self.objective.label()
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        // Respect remaining capacity greedily: most-urgent (least slack)
        // jobs first.
        let mut capacity: Vec<(Region, usize)> = ctx
            .regions
            .iter()
            .map(|v| (v.region, v.remaining_capacity()))
            .collect();
        let mut order: Vec<&PendingJob> = ctx.pending.iter().collect();
        order.sort_by(|a, b| {
            self.remaining_slack(a, ctx)
                .partial_cmp(&self.remaining_slack(b, ctx))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut assignments = Vec::new();
        for job in order {
            let Some(region) = self.best_choice(job, ctx) else {
                continue; // Defer: a later slot is better and slack allows it.
            };
            let slot = capacity.iter_mut().find(|(r, _)| *r == region);
            match slot {
                Some((_, cap)) if *cap > 0 => {
                    *cap -= 1;
                    assignments.push(Assignment {
                        job: job.spec.id,
                        region,
                    });
                }
                _ => {
                    // Preferred region full: take any region with capacity,
                    // cheapest first.
                    let regions = ctx.region_list();
                    let candidates = candidate_footprints(
                        job,
                        &regions,
                        self.provider.as_ref(),
                        &self.estimator,
                        ctx.now,
                    );
                    let mut sorted = candidates.clone();
                    sorted.sort_by(|a, b| {
                        self.objective_of(a.carbon, a.water)
                            .partial_cmp(&self.objective_of(b.carbon, b.water))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    if let Some(c) = sorted
                        .iter()
                        .find(|c| capacity.iter().any(|(r, cap)| *r == c.region && *cap > 0))
                    {
                        if let Some((_, cap)) = capacity.iter_mut().find(|(r, _)| *r == c.region) {
                            *cap -= 1;
                        }
                        assignments.push(Assignment {
                            job: job.spec.id,
                            region: c.region,
                        });
                    }
                    // Otherwise every region is full: leave the job pending.
                }
            }
        }
        SchedulingDecision { assignments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::test_support::{context_fixture, ContextFixture};
    use waterwise_telemetry::SyntheticTelemetry;

    fn oracle(objective: GreedyObjective) -> GreedyOptScheduler {
        GreedyOptScheduler::new(
            objective,
            Arc::new(SyntheticTelemetry::with_seed(3)),
            FootprintEstimator::paper_default(),
        )
    }

    #[test]
    fn carbon_oracle_avoids_the_dirtiest_region() {
        let ContextFixture {
            pending,
            regions,
            transfer,
        } = context_fixture(10, 3);
        let ctx = SchedulingContext {
            now: Seconds::new(0.0),
            pending: &pending,
            regions: &regions,
            delay_tolerance: 0.5,
            transfer: &transfer,
        };
        let decision = oracle(GreedyObjective::Carbon).schedule(&ctx);
        // No job should land in Mumbai (by far the highest carbon intensity).
        assert!(decision
            .assignments
            .iter()
            .all(|a| a.region != Region::Mumbai));
    }

    #[test]
    fn carbon_and_water_oracles_disagree() {
        let ContextFixture {
            pending,
            regions,
            transfer,
        } = context_fixture(12, 5);
        let ctx = SchedulingContext {
            now: Seconds::new(0.0),
            pending: &pending,
            regions: &regions,
            delay_tolerance: 0.5,
            transfer: &transfer,
        };
        let carbon = oracle(GreedyObjective::Carbon).schedule(&ctx);
        let water = oracle(GreedyObjective::Water).schedule(&ctx);
        // The two single-objective solutions place jobs differently — the
        // core tension motivating WaterWise (Fig. 3(b)).
        let carbon_regions: Vec<_> = carbon.assignments.iter().map(|a| a.region).collect();
        let water_regions: Vec<_> = water.assignments.iter().map(|a| a.region).collect();
        assert_ne!(carbon_regions, water_regions);
    }

    #[test]
    fn capacity_limits_are_respected() {
        let ContextFixture {
            pending,
            mut regions,
            transfer,
        } = context_fixture(20, 7);
        for v in &mut regions {
            v.total_servers = 2;
        }
        let ctx = SchedulingContext {
            now: Seconds::new(0.0),
            pending: &pending,
            regions: &regions,
            delay_tolerance: 0.5,
            transfer: &transfer,
        };
        let decision = oracle(GreedyObjective::Carbon).schedule(&ctx);
        let mut counts = [0usize; 5];
        for a in &decision.assignments {
            counts[a.region.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 2), "{counts:?}");
        // With 10 total slots and 20 jobs, at most 10 can be placed.
        assert!(decision.assignments.len() <= 10);
    }

    #[test]
    fn names_distinguish_the_two_oracles() {
        assert_eq!(oracle(GreedyObjective::Carbon).name(), "carbon-greedy-opt");
        assert_eq!(oracle(GreedyObjective::Water).name(), "water-greedy-opt");
    }
}
