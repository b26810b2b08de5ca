//! Pieces both kinds of workload share: the correctness checks on a
//! simulation report, the pooled round-time percentiles, the process's peak
//! RSS, and the assembly of a [`WorkloadResult`].

use crate::metrics::END_TO_END;
use crate::stats::{median, percentile, Summary};
use crate::workload::WorkloadResult;
use waterwise::cluster::{CampaignSummary, SimulationReport, SolverActivity};
use waterwise::core::sched::SolveStats;
use waterwise::traces::JobSpec;

/// `VmHWM` of this process, in MiB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The wrappers' overhead in percent, from timed passes that alternate
/// plain and traced (`(wall, traced)` in running order): every
/// traced pass against the mean of the plain passes next to it, median over
/// the traced passes. Neighbours share the host's mood; the medians of the
/// two kinds taken separately would not.
pub fn paired_overhead_pct(walls: &[(f64, bool)]) -> f64 {
    let ratios: Vec<f64> = walls
        .iter()
        .enumerate()
        .filter(|(_, (_, traced))| *traced)
        .filter_map(|(i, (wall, _))| {
            let plain = |j: Option<usize>| {
                j.and_then(|j| walls.get(j))
                    .filter(|(_, traced)| !traced)
                    .map(|(wall, _)| *wall)
            };
            let neighbours: Vec<f64> = [plain(i.checked_sub(1)), plain(Some(i + 1))]
                .into_iter()
                .flatten()
                .collect();
            (!neighbours.is_empty())
                .then(|| wall / (neighbours.iter().sum::<f64>() / neighbours.len() as f64))
        })
        .collect();
    100.0 * (median(&ratios) - 1.0)
}

/// Everything measured over the timed passes of one workload, plus the
/// correctness verdicts gathered on the way.
#[derive(Debug, Default)]
pub struct Ledger {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub setups_s: Vec<f64>,
    pub walls_s: Vec<f64>,
    pub jobs_per_s: Vec<f64>,
    /// Round decision times of every timed pass, in ms.
    pub rounds_ms: Vec<f64>,
    pub pass_p50_ms: Vec<f64>,
    pub pass_p99_ms: Vec<f64>,
    pub digest: Option<u64>,
    /// Solver counters of the first timed pass; later passes must repeat them.
    pub activity: Option<SolverActivity>,
}

impl Ledger {
    pub fn problem(&mut self, problem: String) {
        if !self.problems.contains(&problem) {
            self.problems.push(problem);
        }
    }

    /// Check one timed pass's report against its inputs and fold its
    /// timings in. `extra_failed` counts failures the report cannot see
    /// (error lines, missing responses).
    pub fn add_pass(
        &mut self,
        jobs: &[JobSpec],
        report: &SimulationReport,
        wall_s: f64,
        extra_failed: u64,
    ) {
        // Job ids are dense (the generator numbers them 0..n), so a tally
        // vector finds both missing and duplicated outcomes.
        let mut seen = vec![0u8; jobs.len()];
        let mut stray = 0u64;
        for outcome in &report.outcomes {
            match seen.get_mut(outcome.job.0 as usize) {
                Some(count) => *count = count.saturating_add(1),
                None => stray += 1,
            }
            let finite = [
                outcome.footprint.total_carbon().value(),
                outcome.footprint.total_water().value(),
                outcome.transfer_footprint.total_carbon().value(),
                outcome.transfer_footprint.total_water().value(),
            ]
            .iter()
            .all(|v| v.is_finite());
            if !finite {
                self.problem(format!("job {} has a non-finite footprint", outcome.job.0));
            }
        }
        let missing = seen.iter().filter(|&&c| c == 0).count() as u64;
        let duplicated = seen.iter().filter(|&&c| c > 1).count() as u64;
        if missing + duplicated + stray > 0 {
            self.problem(format!(
                "outcomes do not match the jobs one to one: {missing} missing, {duplicated} duplicated, {stray} unknown"
            ));
        }
        self.attempted += jobs.len() as u64;
        self.failed += missing + extra_failed;

        let digest = waterwise::cluster::schedule_digest(&report.outcomes);
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => self.problem(format!(
                "schedule digest changed between passes: {first:016x} vs {digest:016x}"
            )),
            Some(_) => {}
        }
        match self.activity {
            None => self.activity = Some(report.summary.solver),
            Some(first) if first != report.summary.solver => {
                self.problem("solver counters changed between passes".to_string())
            }
            Some(_) => {}
        }

        let rounds: Vec<f64> = report
            .overhead
            .iter()
            .map(|sample| sample.wall_clock.value() * 1e3)
            .collect();
        self.pass_p50_ms.push(percentile(&rounds, 50.0));
        self.pass_p99_ms.push(percentile(&rounds, 99.0));
        self.rounds_ms.extend(rounds);
        self.walls_s.push(wall_s);
        self.jobs_per_s.push(jobs.len() as f64 / wall_s);
    }

    /// Compare a digest that must equal the timed passes' (replays,
    /// ablations).
    pub fn expect_digest(&mut self, what: &str, digest: u64) {
        if let Some(first) = self.digest {
            if first != digest {
                self.problem(format!(
                    "{what} produced schedule {digest:016x}, the timed passes {first:016x}"
                ));
            }
        }
    }

    /// Assemble the nine end-to-end metrics.
    pub fn finish(
        self,
        workload: &str,
        summary: &CampaignSummary,
        baseline: &CampaignSummary,
        peak_rss_mb: f64,
        layers: Vec<(String, f64)>,
    ) -> WorkloadResult {
        // The percentile itself is pooled over every round of every pass;
        // its quartiles are those of the per-pass percentiles.
        let pooled = |p: f64, per_pass: &[f64]| {
            let mut s = Summary::of(per_pass);
            s.value = percentile(&self.rounds_ms, p);
            s
        };
        let saving = |ours: f64, theirs: f64| Summary::exact(100.0 * (1.0 - ours / theirs));
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let summary = match m.name {
                    "setup_s" => Summary::of(&self.setups_s),
                    "jobs_per_s" => Summary::of(&self.jobs_per_s),
                    "round_ms_p50" => pooled(50.0, &self.pass_p50_ms),
                    "round_ms_p99" => pooled(99.0, &self.pass_p99_ms),
                    "peak_rss_mb" => Summary::exact(peak_rss_mb),
                    "failed_share" => {
                        Summary::exact(self.failed as f64 / self.attempted.max(1) as f64)
                    }
                    "carbon_saving_pct" => {
                        saving(summary.total_carbon.value(), baseline.total_carbon.value())
                    }
                    "water_saving_pct" => {
                        saving(summary.total_water.value(), baseline.total_water.value())
                    }
                    "violation_share" => Summary::exact(summary.violation_fraction),
                    other => unreachable!("END_TO_END names a metric nothing measures: {other}"),
                };
                (m.name.to_string(), summary)
            })
            .collect();
        WorkloadResult {
            workload: workload.to_string(),
            correct: self.problems.is_empty() && self.failed == 0,
            problems: self.problems,
            attempted: self.attempted,
            failed: self.failed,
            passes: self.walls_s.len(),
            digest: self.digest.unwrap_or(0),
            round_samples: self.rounds_ms.len(),
            metrics,
            layers,
        }
    }
}

/// Set per-layer metric `name`, replacing an earlier value.
pub fn set_layer(layers: &mut Vec<(String, f64)>, name: &str, value: f64) {
    match layers.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = value,
        None => layers.push((name.to_string(), value)),
    }
}

/// The per-layer numbers every run gets for free from one pass's report and
/// the scheduler's own statistics: round and batch shape, the solver
/// counters (which must repeat exactly), and the prepare/solve split
/// (`prepare_s` / `solve_s`: the medians over the passes).
pub fn solver_layers(
    report: &SimulationReport,
    stats: &SolveStats,
    activity: &SolverActivity,
    max_nodes: usize,
    prepare_s: f64,
    solve_s: f64,
) -> Vec<(String, f64)> {
    let batches: Vec<f64> = report
        .overhead
        .iter()
        .map(|sample| sample.batch_size as f64)
        .collect();
    let cap_rounds = report
        .overhead
        .iter()
        .filter(|sample| sample.solver.is_some_and(|s| s.nodes >= max_nodes))
        .count();
    let pivots = activity.simplex_pivots as f64;
    [
        ("cluster.rounds", report.overhead.len() as f64),
        ("core.schedule.batch_p50", median(&batches)),
        (
            "core.schedule.batch_max",
            batches.iter().copied().fold(0.0, f64::max),
        ),
        ("core.prepare_s", prepare_s),
        ("core.solve_s", solve_s),
        ("core.soft_fallbacks", stats.soft_fallbacks as f64),
        ("core.slack_truncations", stats.slack_truncations as f64),
        ("milp.solves", activity.solves as f64),
        ("milp.warm_solves", activity.warm_solves as f64),
        ("milp.pivots", pivots),
        ("milp.bb.nodes", activity.nodes as f64),
        ("milp.bb.cap_rounds", cap_rounds as f64),
        ("milp.dual.restarts", activity.dual_restarts as f64),
        ("milp.dual.reuse_hits", activity.basis_reuse_hits as f64),
        ("milp.bound_flips", activity.bound_flips as f64),
        (
            "milp.us_per_pivot",
            if pivots > 0.0 {
                solve_s * 1e6 / pivots
            } else {
                0.0
            },
        ),
        ("milp.cache.exact_hits", activity.cache_exact_hits as f64),
        ("milp.cache.hint_hits", activity.cache_hint_hits as f64),
        ("milp.cache.misses", activity.cache_misses as f64),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pairs_each_traced_pass_with_its_plain_neighbours() {
        // The host slows down by half over the run; the wrappers cost 2 %.
        let walls = [
            (1.00, false),
            (1.122, true),
            (1.20, false),
            (1.326, true),
            (1.40, false),
            (1.53, true),
        ];
        let overhead = paired_overhead_pct(&walls);
        assert!((overhead - 2.0).abs() < 0.01, "{overhead}");
        // Medians of the two kinds taken apart would have said 10.5 %.
        assert!(paired_overhead_pct(&[(1.0, false)]).is_nan());
    }
}
