//! Why WaterWise keeps no choice from one round to the next: the engine
//! never shows a scheduler a job again once a round has assigned it.
//!
//! The scheduler used to carry every placed job's region into the next
//! round's hint, for the case that the engine declined the placement and
//! offered the job again. The engine has no such case: a job leaves the
//! pending pool in the commit that enacts its assignment, and the commit
//! skips only unknown job ids, non-participating regions and jobs already
//! assigned — none of which WaterWise emits. This test is that argument, run:
//! it fails the moment an engine path re-offers an assigned job, which is
//! when a carried-forward hint would start to matter again.

use std::collections::BTreeSet;
use waterwise_cluster::{
    Scheduler, SchedulingContext, SchedulingDecision, Simulator, SolverActivity,
};
use waterwise_core::{Campaign, CampaignConfig, EngineMode, SchedulerKind};
use waterwise_traces::JobId;

/// WaterWise, with every offer checked against the jobs it has assigned.
struct NeverOfferedAgain {
    inner: Box<dyn Scheduler>,
    assigned: BTreeSet<JobId>,
    deferred_offers: usize,
}

impl Scheduler for NeverOfferedAgain {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        for job in ctx.pending {
            assert!(
                !self.assigned.contains(&job.spec.id),
                "job {} was offered again at t = {} s after a round assigned it",
                job.spec.id.0,
                ctx.now.value()
            );
            self.deferred_offers += usize::from(job.deferrals > 0);
        }
        let decision = self.inner.schedule(ctx);
        for assignment in &decision.assignments {
            assert!(
                self.assigned.insert(assignment.job),
                "job {} was assigned twice",
                assignment.job.0
            );
        }
        decision
    }

    fn solver_activity(&self) -> Option<SolverActivity> {
        self.inner.solver_activity()
    }
}

/// Replay `config` under WaterWise; returns how many offers were of a job
/// deferred by an earlier round.
fn replay(config: CampaignConfig) -> usize {
    let campaign = Campaign::new(config);
    let mut scheduler = NeverOfferedAgain {
        inner: campaign.build_scheduler(SchedulerKind::WaterWise),
        assigned: BTreeSet::new(),
        deferred_offers: 0,
    };
    let simulation = campaign.config().simulation.clone();
    let report = Simulator::new(simulation, campaign.telemetry().clone())
        .expect("a valid configuration")
        .run(campaign.jobs(), &mut scheduler)
        .expect("the replay completes");
    assert_eq!(report.outcomes.len(), campaign.jobs().len());
    assert_eq!(scheduler.assigned.len(), campaign.jobs().len());
    scheduler.deferred_offers
}

#[test]
fn no_job_is_offered_again_after_a_round_assigned_it() {
    for engine in [EngineMode::Sync, EngineMode::Pipelined { workers: 2 }] {
        // Borg at the paper's 280 servers a region: nearly every round places
        // everything it is offered.
        let borg = CampaignConfig::paper_default(0.25, 0.5, 42).with_engine_mode(engine);
        replay(borg);
        // Twelve servers a region: capacity binds, the slack manager truncates
        // and jobs are deferred from round to round — offered again because
        // no round assigned them, never after one did.
        let pressure = CampaignConfig::paper_default(0.1, 0.5, 42)
            .with_servers_per_region(12)
            .with_engine_mode(engine);
        let deferred_offers = replay(pressure);
        assert!(
            deferred_offers > 0,
            "{engine:?}: the capacity-pressure replay deferred nothing"
        );
    }
}
