//! Round-Robin load balancing: jobs are handed to regions in circular order,
//! oblivious to carbon, water, and load.

use waterwise_cluster::{Assignment, Scheduler, SchedulingContext, SchedulingDecision};

/// The Round-Robin comparison scheme (Fig. 10).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinScheduler {
    cursor: usize,
}

impl RoundRobinScheduler {
    /// Create a round-robin scheduler.
    pub fn new() -> Self {
        Self { cursor: 0 }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        let regions = ctx.region_list();
        if regions.is_empty() {
            return SchedulingDecision::defer_all();
        }
        let mut assignments = Vec::with_capacity(ctx.pending.len());
        for p in ctx.pending {
            let region = regions[self.cursor % regions.len()];
            self.cursor = self.cursor.wrapping_add(1);
            assignments.push(Assignment {
                job: p.spec.id,
                region,
            });
        }
        SchedulingDecision { assignments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::test_support::{context_fixture, ContextFixture};
    use std::collections::BTreeMap;
    use waterwise_sustain::Seconds;

    #[test]
    fn distributes_jobs_evenly_across_regions() {
        let ContextFixture {
            pending,
            regions,
            transfer,
        } = context_fixture(20, 3);
        let ctx = SchedulingContext {
            now: Seconds::new(0.0),
            pending: &pending,
            regions: &regions,
            delay_tolerance: 0.25,
            transfer: &transfer,
        };
        let decision = RoundRobinScheduler::new().schedule(&ctx);
        assert_eq!(decision.assignments.len(), 20);
        let mut counts: BTreeMap<_, usize> = BTreeMap::new();
        for a in &decision.assignments {
            *counts.entry(a.region).or_default() += 1;
        }
        // 20 jobs across 5 regions => exactly 4 each.
        assert!(counts.values().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn cursor_persists_across_rounds() {
        let ContextFixture {
            pending,
            regions,
            transfer,
        } = context_fixture(3, 5);
        let mut sched = RoundRobinScheduler::new();
        let ctx = SchedulingContext {
            now: Seconds::new(0.0),
            pending: &pending,
            regions: &regions,
            delay_tolerance: 0.25,
            transfer: &transfer,
        };
        let first = sched.schedule(&ctx);
        let second = sched.schedule(&ctx);
        // The second round continues where the first left off.
        assert_ne!(first.assignments[0].region, second.assignments[0].region);
    }
}
