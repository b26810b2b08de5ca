//! The WaterWise scheduler: MILP-based carbon/water co-optimization with
//! soft constraints and slack management (Sec. 4 of the paper).
//!
//! Each scheduling round the controller:
//!
//! 1. Collects all pending jobs (newly arrived plus previously deferred —
//!    the `J ∪ J_delay` of Algorithm 1).
//! 2. If the batch exceeds the total remaining capacity, the **slack
//!    manager** keeps only the most urgent `Σ cap(n)` jobs, ranked by the
//!    urgency score of Eq. 14 (ascending — smaller means closer to a
//!    violation).
//! 3. Builds the MILP of Eq. 8–11 (`assignment_model`) and solves it with the
//!    pure-Rust solver in `waterwise-milp`.
//! 4. If the hard-constrained model is infeasible, re-solves with **soft
//!    constraints** (Eq. 12–13): overshooting a job's delay tolerance costs
//!    `σ` per unit in the objective instead of being forbidden.

use crate::experiment::{run_indexed, Parallelism};
use crate::objective::{candidate_footprints, Normalizer, ObjectiveWeights};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use waterwise_cluster::{
    Assignment, PendingJob, Scheduler, SchedulingContext, SchedulingDecision, SolverActivity,
};
use waterwise_milp::{
    BranchBoundConfig, CacheStats, LinExpr, Model, Sense, SimplexConfig, SolutionCacheHandle,
    SolverWorkspace, Var, VarKind, WarmStats,
};
use waterwise_sustain::FootprintEstimator;
use waterwise_telemetry::{ConditionsProvider, Region};
use waterwise_traces::JobId;

/// Configuration of the WaterWise decision controller.
///
/// ```
/// use waterwise_core::WaterWiseConfig;
///
/// let config = WaterWiseConfig::default()
///     .with_carbon_weight(0.7) // λ_H2O becomes 0.3
///     .with_horizon(Some(25)) // cap each MILP at the 25 most urgent jobs
///     .with_warm_start(true);
/// assert_eq!(config.weights.lambda_co2, 0.7);
/// assert_eq!(config.horizon, Some(25));
/// // A zero-job window would stall pending jobs forever; it clamps to 1.
/// assert_eq!(WaterWiseConfig::default().with_horizon(Some(0)).horizon, Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaterWiseConfig {
    /// Objective weights (`λ_CO2`, `λ_H2O`, `λ_ref`).
    pub weights: ObjectiveWeights,
    /// Window (hours) of the history learner feeding `CO2_ref` / `H2O_ref`.
    pub history_window_hours: usize,
    /// Penalty weight `σ` applied to delay-tolerance relaxation variables in
    /// the soft-constrained model (Eq. 12).
    pub soft_penalty: f64,
    /// Simplex configuration forwarded to the solver.
    pub simplex: SimplexConfig,
    /// Branch-and-bound configuration forwarded to the solver.
    pub branch_bound: BranchBoundConfig,
    /// Warm-start each slot's MILP from the carried-forward previous
    /// assignment plus a greedy completion (rolling-horizon mode). The
    /// schedule produced is identical to cold solving; only the solver work
    /// differs (see `SolveStats::warm`).
    pub warm_start: bool,
    /// Optional sliding-window cap on how many jobs enter one MILP. `None`
    /// bounds the window by the remaining cluster capacity only (the paper's
    /// behavior); `Some(h)` additionally caps it at the `h` most urgent
    /// jobs, deferring the rest to later slots.
    pub horizon: Option<usize>,
    /// Worker-pool sharding of the per-slot numerics preparation (candidate
    /// footprints, normalizers, and objective coefficients, Eq. 7/8). Each
    /// job's numerics are a pure function of the job and the slot context,
    /// so shards merge in job order and the produced schedule is
    /// byte-identical across settings; only wall-clock
    /// [`SolveStats::prepare_seconds`] changes. Defaults to
    /// [`Parallelism::Serial`] so campaigns that already parallelize at the
    /// campaign level do not nest worker pools.
    pub parallelism: Parallelism,
}

impl Default for WaterWiseConfig {
    fn default() -> Self {
        Self {
            weights: ObjectiveWeights::paper_default(),
            history_window_hours: 10,
            soft_penalty: 10.0,
            simplex: SimplexConfig::default(),
            branch_bound: BranchBoundConfig::default(),
            warm_start: true,
            horizon: None,
            parallelism: Parallelism::Serial,
        }
    }
}

impl WaterWiseConfig {
    /// Override the carbon weight (`λ_H2O` becomes `1 − λ_CO2`).
    pub fn with_carbon_weight(mut self, lambda_co2: f64) -> Self {
        self.weights = self.weights.with_carbon_weight(lambda_co2);
        self
    }

    /// Enable or disable warm-started solves.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Set the sliding-window job cap per solve.
    ///
    /// `Some(0)` is clamped to `Some(1)` at build time: a zero-job window
    /// would produce an empty solve batch every slot and stall pending jobs
    /// forever.
    pub fn with_horizon(mut self, horizon: Option<usize>) -> Self {
        self.horizon = horizon.map(|h| h.max(1));
        self
    }

    /// Shard the per-slot numerics preparation across a worker pool.
    ///
    /// ```
    /// use waterwise_core::{Parallelism, WaterWiseConfig};
    ///
    /// let sharded = WaterWiseConfig::default().with_parallelism(Parallelism::Auto);
    /// assert_eq!(sharded.parallelism, Parallelism::Auto);
    /// // Serial is the default: nested pools are opt-in.
    /// assert_eq!(WaterWiseConfig::default().parallelism, Parallelism::Serial);
    /// ```
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// Statistics the controller keeps about its own solves (exposed for the
/// overhead experiment, Fig. 13).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Rounds in which the MILP was solved.
    pub rounds: usize,
    /// Rounds that required the soft-constrained fallback.
    pub soft_fallbacks: usize,
    /// Rounds in which the slack manager had to drop jobs.
    pub slack_truncations: usize,
    /// Total simplex iterations across all solves.
    pub simplex_iterations: usize,
    /// Total branch-and-bound nodes across all solves.
    pub nodes: usize,
    /// Cold-vs-warm solver split from the shared [`SolverWorkspace`].
    pub warm: WarmStats,
    /// Solution-cache traffic of this scheduler's workspace (all zero when
    /// no cache is attached).
    pub cache: CacheStats,
    /// Wall-clock seconds spent preparing per-job numerics (candidate
    /// footprints, normalizers, objective coefficients) ahead of the solves.
    /// A timing measurement, not deterministic work: it varies run to run
    /// and shrinks when [`WaterWiseConfig::parallelism`] shards the
    /// preparation.
    pub prepare_seconds: f64,
    /// Wall-clock seconds spent building and solving the MILPs, including
    /// the soft-constrained fallback when it engages. Timing, like
    /// [`SolveStats::prepare_seconds`].
    pub solve_seconds: f64,
}

/// Everything the MILP needs to know about one job in one slot: objective
/// coefficients (Eq. 7/8 plus the history-learner reference term), the
/// latency/execution ratios of the delay constraint (Eq. 11), and the
/// remaining delay tolerance after time already spent waiting.
///
/// A pure function of `(job, slot context)` — independent across jobs —
/// which is what makes the preparation shardable across workers with a
/// deterministic job-ordered merge (see [`WaterWiseConfig::parallelism`]).
/// Computing it once per slot also means the soft-constraint fallback
/// reuses the numbers instead of re-deriving them.
#[derive(Debug, Clone)]
struct JobNumerics {
    /// Objective coefficient per region (the cost of `x[m][n] = 1`).
    coeffs: Vec<f64>,
    /// `transfer_latency / execution_time` per region (Eq. 11 lhs).
    latency_ratio: Vec<f64>,
    /// `TOL% − waited/exec`, clamped at zero (Eq. 11 rhs).
    remaining_tolerance: f64,
}

impl JobNumerics {
    /// Whether region `n` satisfies Eq. 11 for this job: the one comparison
    /// bounds, costs and hint all read, so they cannot disagree by an ulp.
    fn admits(&self, n: usize) -> bool {
        self.latency_ratio[n] <= self.remaining_tolerance
    }

    /// By how much region `n` overshoots the job's remaining tolerance (what
    /// Eq. 13 forces on `P[m]` there); zero exactly where it is admitted.
    fn violation(&self, n: usize) -> f64 {
        if self.admits(n) {
            0.0
        } else {
            self.latency_ratio[n] - self.remaining_tolerance
        }
    }
}

/// The round's MILP over binaries `x[m][n]` (index `m * n_regions + n`):
/// Eq. 8's cost, Eq. 9 (one equality per job), Eq. 10 (one unit-coefficient
/// capacity row per region). Under Eq. 9 exactly one `x[m][·]` is one, so
/// Eq. 11 (`Σ_n ratio[m][n]·x[m][n] ≤ tol[m]`) only says `x[m][n] = 0`
/// wherever [`JobNumerics::admits`] fails — the hard model (`soft_penalty`
/// `None`) fixes those by their upper bound — and Eq. 13 makes `P[m]` the
/// chosen region's [`JobNumerics::violation`], so the soft model adds
/// `σ·violation` to each `x[m][n]`'s cost (Eq. 12). What is left is a
/// transportation problem: every vertex of its relaxation is integral and
/// branch-and-bound ends at the root. Nothing is named (faults cite indices).
fn assignment_model(
    numerics: &[JobNumerics],
    capacities: &[usize],
    soft_penalty: Option<f64>,
) -> Model {
    let n_regions = capacities.len();
    let n_x = numerics.len() * n_regions;
    let x = |m: usize, n: usize| Var::from_index(m * n_regions + n);
    let mut model = Model::new("waterwise-assignment");
    model.reserve(n_x, numerics.len() + n_regions);
    let mut objective = LinExpr::with_capacity(n_x);
    for (m, numbers) in numerics.iter().enumerate() {
        for (n, &coeff) in numbers.coeffs.iter().enumerate() {
            let (upper, cost) = match soft_penalty {
                Some(sigma) => (1.0, coeff + sigma * numbers.violation(n)),
                None => (if numbers.admits(n) { 1.0 } else { 0.0 }, coeff),
            };
            model.add_var("", VarKind::Binary, 0.0, upper);
            objective.add_term(x(m, n), cost);
        }
    }
    model.minimize(objective);
    // Eq. 9: each job is assigned to exactly one region.
    for m in 0..numerics.len() {
        let mut expr = LinExpr::with_capacity(n_regions);
        for n in 0..n_regions {
            expr.add_term(x(m, n), 1.0);
        }
        model.add_constraint("", expr, Sense::Equal, 1.0);
    }
    // Eq. 10: regional capacity.
    for (n, &capacity) in capacities.iter().enumerate() {
        let mut expr = LinExpr::with_capacity(numerics.len());
        for m in 0..numerics.len() {
            expr.add_term(x(m, n), 1.0);
        }
        model.add_constraint("", expr, Sense::LessEqual, capacity as f64);
    }
    model
}

/// The WaterWise scheduler.
///
/// ```
/// use std::sync::Arc;
/// use waterwise_core::WaterWiseScheduler;
/// use waterwise_telemetry::SyntheticTelemetry;
///
/// let scheduler = WaterWiseScheduler::with_defaults(Arc::new(
///     SyntheticTelemetry::with_seed(42),
/// ));
/// assert_eq!(scheduler.stats().rounds, 0);
/// assert!(scheduler.config().warm_start);
/// ```
pub struct WaterWiseScheduler {
    provider: Arc<dyn ConditionsProvider>,
    estimator: FootprintEstimator,
    config: WaterWiseConfig,
    stats: SolveStats,
    /// Reusable solver allocations + warm-start accounting; persists across
    /// scheduling rounds because the engine reuses the scheduler instance.
    workspace: SolverWorkspace,
    /// Previous slot's chosen region per still-pending job, carried forward
    /// as the warm-start hint of the next solve. Keyed by a `BTreeMap` so
    /// any future iteration is in job-id order by construction (DET001);
    /// today only point lookups and retain touch it.
    carried: BTreeMap<JobId, Region>,
}

impl WaterWiseScheduler {
    /// Create a WaterWise scheduler.
    ///
    /// `provider` supplies *current* (not future) conditions; `estimator`
    /// must match the simulator's data-center parameters so the scheduler
    /// optimizes the same quantities the evaluation measures.
    pub fn new(
        provider: Arc<dyn ConditionsProvider>,
        estimator: FootprintEstimator,
        config: WaterWiseConfig,
    ) -> Self {
        Self {
            provider,
            estimator,
            config,
            stats: SolveStats::default(),
            workspace: SolverWorkspace::new(),
            carried: BTreeMap::new(),
        }
    }

    /// With the paper's default configuration.
    pub fn with_defaults(provider: Arc<dyn ConditionsProvider>) -> Self {
        Self::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default(),
        )
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Attach a (possibly shared) solution cache to this scheduler's solver
    /// workspace. Subsequent solves consult it before cold/warm solving; a
    /// bit-identical model skips the solve and replays the stored optimum,
    /// anything else solves as without a cache, so the produced schedule is
    /// identical with or without it.
    pub fn attach_cache(&mut self, cache: SolutionCacheHandle) {
        self.workspace.attach_cache(cache);
    }

    /// Builder form of [`WaterWiseScheduler::attach_cache`].
    pub fn with_cache(mut self, cache: SolutionCacheHandle) -> Self {
        self.attach_cache(cache);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &WaterWiseConfig {
        &self.config
    }

    /// Urgency score of Eq. 14 (smaller = more urgent):
    /// `TOL% · t_m − L_avg_m − (T_current − T_start_m)`.
    fn urgency(&self, job: &PendingJob, ctx: &SchedulingContext<'_>, regions: &[Region]) -> f64 {
        let tol_budget = ctx.delay_tolerance * job.spec.estimated_execution_time.value();
        let avg_transfer = ctx
            .transfer
            .average_transfer_time(job.spec.home_region, job.spec.package_bytes, regions)
            .value();
        let waited = job.waiting_time(ctx.now).value();
        tol_budget - avg_transfer - waited
    }

    /// The slack manager: keep the `limit` most urgent jobs.
    fn slack_select<'j>(
        &mut self,
        jobs: &[&'j PendingJob],
        ctx: &SchedulingContext<'_>,
        regions: &[Region],
        limit: usize,
    ) -> Vec<&'j PendingJob> {
        if jobs.len() <= limit {
            return jobs.to_vec();
        }
        self.stats.slack_truncations += 1;
        let mut ranked: Vec<(&PendingJob, f64)> = jobs
            .iter()
            .map(|j| (*j, self.urgency(j, ctx, regions)))
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.into_iter().take(limit).map(|(j, _)| j).collect()
    }

    /// Compute [`JobNumerics`] for every selected job, sharded across the
    /// worker pool named by [`WaterWiseConfig::parallelism`]. Jobs are
    /// partitioned by index and merged back in job order, so the output —
    /// and hence the schedule built from it — is byte-identical to the
    /// serial computation.
    fn prepare_numerics(
        &self,
        jobs: &[&PendingJob],
        ctx: &SchedulingContext<'_>,
        regions: &[Region],
        history: &[(f64, f64)],
    ) -> Vec<JobNumerics> {
        let provider = self.provider.as_ref();
        let estimator = &self.estimator;
        let weights = &self.config.weights;
        let workers = self.config.parallelism.worker_count(jobs.len());
        run_indexed(jobs.len(), workers, |m| {
            let job = jobs[m];
            // Candidate footprints and the per-job normalizer (Eq. 7).
            let candidates = candidate_footprints(job, regions, provider, estimator, ctx.now);
            let normalizer = Normalizer::from_candidates(&candidates);
            let exec = job.spec.estimated_execution_time.value().max(1.0);
            let waited = job.waiting_time(ctx.now).value();
            let remaining_tolerance = (ctx.delay_tolerance - waited / exec).max(0.0);
            let mut coeffs = Vec::with_capacity(regions.len());
            let mut latency_ratio = Vec::with_capacity(regions.len());
            for (n, region) in regions.iter().enumerate() {
                let mut coefficient = normalizer.objective_term(&candidates[n], weights);
                // History-learner reference term (normalized trailing means).
                let (carbon_ref, water_ref) = history[n];
                coefficient += weights.lambda_ref
                    * (weights.lambda_co2 * carbon_ref + weights.lambda_h2o * water_ref);
                coeffs.push(coefficient);
                let latency = ctx
                    .transfer
                    .transfer_time(job.spec.home_region, *region, job.spec.package_bytes)
                    .value();
                latency_ratio.push(latency / exec);
            }
            JobNumerics {
                coeffs,
                latency_ratio,
                remaining_tolerance,
            }
        })
    }

    /// Build and solve the round's MILP ([`assignment_model`]) for the
    /// selected jobs; `soft_penalty` selects the relaxation of Eq. 12/13.
    /// The solution is read back by position — which is what lets the
    /// solution cache replay a bit-identical batch under other job ids.
    fn solve_assignment(
        &mut self,
        jobs: &[&PendingJob],
        ctx: &SchedulingContext<'_>,
        numerics: &[JobNumerics],
        soft_penalty: Option<f64>,
    ) -> Option<Vec<Assignment>> {
        let n_regions = ctx.regions.len();
        let capacities: Vec<usize> = ctx.regions.iter().map(|v| v.remaining_capacity()).collect();
        let model = assignment_model(numerics, &capacities, soft_penalty);
        let hint = self.build_hint(jobs, ctx, numerics, capacities, soft_penalty.is_some());
        let solution = model
            .solve_warm(
                &self.config.simplex,
                &self.config.branch_bound,
                hint.as_deref(),
                &mut self.workspace,
            )
            .ok()?;
        self.stats.simplex_iterations += solution.simplex_iterations;
        self.stats.nodes += solution.nodes_explored;
        self.stats.warm = self.workspace.stats();
        self.stats.cache = self.workspace.cache_stats();
        if !solution.status.has_solution() {
            return None;
        }
        let mut assignments = Vec::with_capacity(jobs.len());
        for (m, job) in jobs.iter().enumerate() {
            let chosen =
                (0..n_regions).find(|&n| solution.is_one(Var::from_index(m * n_regions + n)));
            if let Some(n) = chosen {
                // Carried forward as the next slot's warm-start hint should
                // the job remain pending (e.g. the engine rejects the
                // placement); pruned at the end of `schedule` once the job
                // leaves the pending pool.
                let region = ctx.regions[n].region;
                self.carried.insert(job.spec.id, region);
                assignments.push(Assignment {
                    job: job.spec.id,
                    region,
                });
            }
        }
        Some(assignments)
    }

    /// Build the warm-start hint for the current model (variable layout as in
    /// [`assignment_model`]): the previous slot's region choice where one is
    /// carried and still feasible, completed greedily (cheapest feasible
    /// region per job under `capacity_left`). Returns `None` when no complete
    /// feasible candidate exists or warm starting is off — the solve then
    /// starts cold.
    fn build_hint(
        &self,
        jobs: &[&PendingJob],
        ctx: &SchedulingContext<'_>,
        numerics: &[JobNumerics],
        mut capacity_left: Vec<usize>,
        soften: bool,
    ) -> Option<Vec<f64>> {
        if !self.config.warm_start {
            return None;
        }
        let n_regions = ctx.regions.len();
        let mut hint = vec![0.0; jobs.len() * n_regions];
        for (m, job) in jobs.iter().enumerate() {
            let numbers = &numerics[m];
            let feasible = |n: usize, capacity_left: &[usize]| {
                capacity_left[n] > 0 && (soften || numbers.admits(n))
            };
            let carried = self
                .carried
                .get(&job.spec.id)
                .and_then(|region| ctx.regions.iter().position(|v| v.region == *region))
                .filter(|&n| feasible(n, &capacity_left));
            let chosen = carried.or_else(|| {
                (0..n_regions)
                    .filter(|&n| feasible(n, &capacity_left))
                    .min_by(|&a, &b| {
                        numbers.coeffs[a]
                            .partial_cmp(&numbers.coeffs[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    })
            })?;
            capacity_left[chosen] -= 1;
            hint[m * n_regions + chosen] = 1.0;
        }
        Some(hint)
    }

    /// Normalized trailing-window footprints per region, the `CO2_ref` /
    /// `H2O_ref` history terms of Eq. 8.
    fn history_terms(&self, ctx: &SchedulingContext<'_>, regions: &[Region]) -> Vec<(f64, f64)> {
        let pue = self.estimator.params.pue;
        let raw: Vec<(f64, f64)> = regions
            .iter()
            .map(|&r| {
                let carbon = self
                    .provider
                    .trailing_carbon(r, ctx.now, self.config.history_window_hours)
                    .value();
                let water = self.provider.trailing_water_intensity(
                    r,
                    ctx.now,
                    self.config.history_window_hours,
                    pue,
                );
                (carbon, water)
            })
            .collect();
        let max_carbon = raw
            .iter()
            .map(|(c, _)| *c)
            .fold(f64::MIN_POSITIVE, f64::max);
        let max_water = raw
            .iter()
            .map(|(_, w)| *w)
            .fold(f64::MIN_POSITIVE, f64::max);
        raw.iter()
            .map(|(c, w)| (c / max_carbon, w / max_water))
            .collect()
    }
}

impl Scheduler for WaterWiseScheduler {
    fn name(&self) -> &str {
        "waterwise"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        if ctx.pending.is_empty() || ctx.regions.is_empty() {
            return SchedulingDecision::defer_all();
        }
        let regions = ctx.region_list();
        let total_capacity = ctx.total_remaining_capacity();
        if total_capacity == 0 {
            // Nothing can start this round; everything stays pending.
            return SchedulingDecision::defer_all();
        }
        self.stats.rounds += 1;

        // Algorithm 1, lines 5–7: slack management when over capacity. The
        // rolling-horizon window additionally caps the batch at the most
        // urgent `horizon` jobs; the rest stay pending for later slots.
        let window = self
            .config
            .horizon
            .map_or(total_capacity, |h| h.max(1).min(total_capacity));
        let all_jobs: Vec<&PendingJob> = ctx.pending.iter().collect();
        let selected = self.slack_select(&all_jobs, ctx, &regions, window);

        // Per-job numerics (candidate footprints, normalizers, objective
        // coefficients — Eq. 7/8), sharded across the configured worker
        // pool. The history terms are per-region (a handful of trailing
        // means) and stay serial.
        let history = self.history_terms(ctx, &regions);
        // lint:allow(DET002: prepare_seconds timing capture; scrubbed from schedules by without_wall_clock)
        let prepare_start = Instant::now();
        let numerics = self.prepare_numerics(&selected, ctx, &regions, &history);
        self.stats.prepare_seconds += prepare_start.elapsed().as_secs_f64();

        // Hard-constrained solve first; soften on infeasibility
        // (Algorithm 1, lines 8–11). The fallback reuses the numerics.
        // lint:allow(DET002: solve_seconds timing capture; scrubbed from schedules by without_wall_clock)
        let solve_start = Instant::now();
        let hard = self.solve_assignment(&selected, ctx, &numerics, None);
        let assignments = hard.unwrap_or_else(|| {
            self.stats.soft_fallbacks += 1;
            let sigma = Some(self.config.soft_penalty);
            self.solve_assignment(&selected, ctx, &numerics, sigma)
                .unwrap_or_default()
        });
        self.stats.solve_seconds += solve_start.elapsed().as_secs_f64();
        // Prune carried-forward choices for jobs that already left the
        // pending pool. Entries for jobs assigned *this* round survive one
        // more round on purpose: if the engine rejects a placement the job
        // stays pending and its carried region seeds the next hint;
        // otherwise the job disappears from `pending` and the entry is
        // dropped here next round.
        let mut pending_ids: Vec<JobId> = ctx.pending.iter().map(|p| p.spec.id).collect();
        pending_ids.sort_unstable();
        self.carried
            .retain(|id, _| pending_ids.binary_search(id).is_ok());
        SchedulingDecision { assignments }
    }

    fn solver_activity(&self) -> Option<SolverActivity> {
        let warm = self.workspace.stats();
        let cache = self.workspace.cache_stats();
        Some(SolverActivity {
            solves: warm.cold_solves + warm.warm_solves,
            warm_solves: warm.warm_solves,
            simplex_pivots: warm.cold_pivots + warm.warm_pivots,
            warm_pivots: warm.warm_pivots,
            nodes: self.stats.nodes,
            dual_restarts: warm.dual_restarts,
            basis_reuse_hits: warm.basis_reuse_hits,
            bound_flips: warm.bound_flips,
            cache_exact_hits: cache.exact_hits,
            cache_hint_hits: 0,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        })
    }
}

/// Convenience constructor mirroring the paper's default deployment.
pub fn paper_default_scheduler(provider: Arc<dyn ConditionsProvider>) -> WaterWiseScheduler {
    WaterWiseScheduler::with_defaults(provider)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::test_support::{context_fixture, ContextFixture};
    use waterwise_sustain::Seconds;
    use waterwise_telemetry::SyntheticTelemetry;

    fn scheduler() -> WaterWiseScheduler {
        WaterWiseScheduler::with_defaults(Arc::new(SyntheticTelemetry::with_seed(3)))
    }

    fn ctx_from<'a>(
        fixture: &'a ContextFixture,
        now_hours: f64,
        tolerance: f64,
    ) -> SchedulingContext<'a> {
        SchedulingContext {
            now: Seconds::from_hours(now_hours),
            pending: &fixture.pending,
            regions: &fixture.regions,
            delay_tolerance: tolerance,
            transfer: &fixture.transfer,
        }
    }

    #[test]
    fn assigns_every_job_when_capacity_allows() {
        let mut fixture = context_fixture(12, 3);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        let decision = sched.schedule(&ctx);
        assert_eq!(decision.assignments.len(), 12);
        assert_eq!(sched.stats().rounds, 1);
        assert_eq!(sched.stats().slack_truncations, 0);
    }

    #[test]
    fn respects_capacity_via_slack_manager() {
        let mut fixture = context_fixture(30, 5);
        for v in &mut fixture.regions {
            v.total_servers = 2; // 10 total slots for 30 jobs.
        }
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        let decision = sched.schedule(&ctx);
        assert!(decision.assignments.len() <= 10);
        assert!(!decision.assignments.is_empty());
        assert_eq!(sched.stats().slack_truncations, 1);
        let mut counts = [0usize; 5];
        for a in &decision.assignments {
            counts[a.region.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 2), "{counts:?}");
    }

    #[test]
    fn avoids_the_carbon_worst_region_under_equal_weights() {
        let mut fixture = context_fixture(20, 7);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(12.0);
        }
        let ctx = ctx_from(&fixture, 12.0, 1.0);
        let decision = scheduler().schedule(&ctx);
        let mumbai_jobs = decision
            .assignments
            .iter()
            .filter(|a| a.region == waterwise_telemetry::Region::Mumbai)
            .count();
        // Mumbai jobs should only be those submitted there whose migration
        // would violate tolerance — with generous tolerance that is few.
        assert!(
            mumbai_jobs <= decision.assignments.len() / 3,
            "{mumbai_jobs} of {} jobs in Mumbai",
            decision.assignments.len()
        );
    }

    #[test]
    fn tight_tolerance_keeps_jobs_near_home() {
        let fixture = context_fixture(15, 9);
        // Zero tolerance: any transfer latency violates Eq. 11, so the hard
        // model forces home-region execution (latency 0).
        let ctx = ctx_from(&fixture, 3.0, 0.0);
        let decision = scheduler().schedule(&ctx);
        for a in &decision.assignments {
            let job = fixture.pending.iter().find(|p| p.spec.id == a.job).unwrap();
            assert_eq!(a.region, job.spec.home_region, "job {} migrated", a.job.0);
        }
    }

    #[test]
    fn soft_fallback_engages_when_hard_model_is_infeasible() {
        let mut fixture = context_fixture(6, 11);
        // Make the home regions unavailable so every job *must* migrate, and
        // set a zero tolerance so the hard delay constraint is unsatisfiable.
        fixture
            .regions
            .retain(|v| v.region == waterwise_telemetry::Region::Milan);
        for p in &mut fixture.pending {
            p.spec.home_region = waterwise_telemetry::Region::Oregon;
        }
        let ctx = ctx_from(&fixture, 3.0, 0.0);
        let mut sched = scheduler();
        let decision = sched.schedule(&ctx);
        // The soft model still assigns the jobs (at a penalty).
        assert_eq!(decision.assignments.len(), 6);
        assert!(sched.stats().soft_fallbacks >= 1);
        assert!(decision
            .assignments
            .iter()
            .all(|a| a.region == waterwise_telemetry::Region::Milan));
    }

    fn numerics(coeffs: &[f64], latency_ratio: &[f64], remaining_tolerance: f64) -> JobNumerics {
        JobNumerics {
            coeffs: coeffs.to_vec(),
            latency_ratio: latency_ratio.to_vec(),
            remaining_tolerance,
        }
    }

    #[test]
    fn soft_model_picks_the_least_violating_region_when_costs_tie() {
        // Three equally cheap regions, none admissible: only the folded
        // penalty `σ·violation` tells them apart.
        let job = numerics(&[0.4, 0.4, 0.4], &[0.9, 0.3, 0.6], 0.1);
        assert!((0..3).all(|n| !job.admits(n)));
        let sigma = WaterWiseConfig::default().soft_penalty;
        let solution = assignment_model(&[job], &[1, 1, 1], Some(sigma))
            .solve()
            .unwrap();
        assert_eq!(solution.status, waterwise_milp::SolveStatus::Optimal);
        assert_eq!(solution.values, [0.0, 1.0, 0.0]);
        assert!((solution.objective - (0.4 + sigma * (0.3 - 0.1))).abs() < 1e-12);
        assert_eq!(solution.nodes_explored, 1);
    }

    #[test]
    fn admissible_regions_are_never_charged() {
        // A ratio exactly at the tolerance is admissible: bound 1 in the
        // hard model, no penalty in the soft one — even when a pricier
        // penalty-free region competes with a cheaper violating one.
        let job = numerics(&[0.5, 0.2], &[0.25, 0.26], 0.25);
        assert!(job.admits(0) && !job.admits(1));
        assert_eq!(job.violation(0), 0.0);
        let hard = assignment_model(std::slice::from_ref(&job), &[1, 1], None);
        assert_eq!(hard.bounds(Var::from_index(0)), (0.0, 1.0));
        assert_eq!(hard.bounds(Var::from_index(1)), (0.0, 0.0));
        let soft = assignment_model(&[job], &[1, 1], Some(100.0));
        assert_eq!(soft.bounds(Var::from_index(1)), (0.0, 1.0));
        assert_eq!(soft.solve().unwrap().values, [1.0, 0.0]);
    }

    #[test]
    fn a_job_with_every_region_fixed_makes_the_hard_model_infeasible() {
        // Eq. 9 is an equality: a job whose arcs are all fixed at zero cannot
        // be left out of the hard model, so the whole round softens — as it
        // did when Eq. 11 was a row.
        let free = numerics(&[0.3, 0.6], &[0.0, 0.2], 0.5);
        let stuck = numerics(&[0.3, 0.6], &[0.7, 0.9], 0.5);
        let hard = assignment_model(&[free.clone(), stuck.clone()], &[2, 2], None);
        assert_eq!((hard.num_vars(), hard.num_constraints()), (4, 2 + 2));
        let solution = hard.solve().unwrap();
        assert_eq!(solution.status, waterwise_milp::SolveStatus::Infeasible);
        assert_eq!(solution.nodes_explored, 1);
        let soft = assignment_model(&[free, stuck], &[2, 2], Some(10.0))
            .solve()
            .unwrap();
        assert_eq!(soft.values, [1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn carbon_weight_shifts_the_placement_mix() {
        let mut fixture = context_fixture(25, 13);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(12.0);
        }
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        let mut carbon_heavy = WaterWiseScheduler::new(
            provider.clone(),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_carbon_weight(0.95),
        );
        let mut water_heavy = WaterWiseScheduler::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_carbon_weight(0.05),
        );
        let ctx = ctx_from(&fixture, 12.0, 1.0);
        let a = carbon_heavy.schedule(&ctx);
        let b = water_heavy.schedule(&ctx);
        let dist = |d: &SchedulingDecision| {
            let mut counts = [0usize; 5];
            for a in &d.assignments {
                counts[a.region.index()] += 1;
            }
            counts
        };
        assert_ne!(dist(&a), dist(&b), "weights should change the distribution");
    }

    #[test]
    fn warm_start_produces_identical_decisions_to_cold() {
        // Several rounds over the same fixture with evolving time: warm and
        // cold schedulers must agree on every single placement.
        let mut fixture = context_fixture(18, 21);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        let mut warm = WaterWiseScheduler::new(
            provider.clone(),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(true),
        );
        let mut cold = WaterWiseScheduler::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(false),
        );
        for hour in [6.0, 6.5, 7.0, 9.0] {
            let ctx = ctx_from(&fixture, hour, 0.5);
            let a = warm.schedule(&ctx);
            let b = cold.schedule(&ctx);
            assert_eq!(a, b, "warm and cold schedules diverged at hour {hour}");
        }
        let warm_stats = warm.stats().warm;
        let cold_stats = cold.stats().warm;
        assert!(warm_stats.warm_solves > 0, "warm path never engaged");
        assert_eq!(cold_stats.warm_solves, 0);
        assert!(
            warm_stats.warm_pivots * 2 <= cold_stats.cold_pivots + cold_stats.warm_pivots,
            "warm pivots {} should be at most half of cold pivots {}",
            warm_stats.warm_pivots,
            cold_stats.cold_pivots
        );
    }

    #[test]
    fn sharded_preparation_matches_serial_byte_for_byte() {
        // The per-job numerics are pure and merged in job order, so every
        // parallelism setting must reproduce the serial schedule exactly —
        // across several stateful rounds (carried hints included).
        let mut fixture = context_fixture(24, 31);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        for parallelism in [Parallelism::Auto, Parallelism::Threads(3)] {
            let mut serial = WaterWiseScheduler::new(
                provider.clone(),
                FootprintEstimator::paper_default(),
                WaterWiseConfig::default(),
            );
            let mut sharded = WaterWiseScheduler::new(
                provider.clone(),
                FootprintEstimator::paper_default(),
                WaterWiseConfig::default().with_parallelism(parallelism),
            );
            for hour in [6.0, 6.5, 7.5] {
                let ctx = ctx_from(&fixture, hour, 0.5);
                let a = serial.schedule(&ctx);
                let b = sharded.schedule(&ctx);
                assert_eq!(a, b, "{parallelism:?} diverged from serial at hour {hour}");
            }
            // The deterministic solver work must match too; only wall-clock
            // timing may differ between the runs.
            assert_eq!(serial.stats().warm, sharded.stats().warm);
            assert_eq!(serial.stats().nodes, sharded.stats().nodes);
            assert_eq!(
                serial.stats().simplex_iterations,
                sharded.stats().simplex_iterations
            );
        }
    }

    #[test]
    fn stats_time_the_prepare_and_solve_phases() {
        let fixture = context_fixture(10, 17);
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        assert_eq!(sched.stats().prepare_seconds, 0.0);
        assert_eq!(sched.stats().solve_seconds, 0.0);
        sched.schedule(&ctx);
        let stats = sched.stats();
        assert!(stats.prepare_seconds > 0.0, "prepare phase was never timed");
        assert!(stats.solve_seconds > 0.0, "solve phase was never timed");
    }

    #[test]
    fn solver_activity_mirrors_dual_restart_counters() {
        let fixture = context_fixture(12, 19);
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        sched.schedule(&ctx);
        let activity = sched.solver_activity().unwrap();
        let warm = sched.stats().warm;
        assert_eq!(activity.dual_restarts, warm.dual_restarts);
        assert_eq!(activity.basis_reuse_hits, warm.basis_reuse_hits);
        assert_eq!(activity.bound_flips, warm.bound_flips);
        assert!(activity.basis_reuse_hits <= activity.dual_restarts);
    }

    #[test]
    fn horizon_caps_the_solve_window_and_defers_the_rest() {
        let mut fixture = context_fixture(20, 23);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let ctx = ctx_from(&fixture, 6.0, 1.0);
        let mut sched = WaterWiseScheduler::new(
            Arc::new(SyntheticTelemetry::with_seed(3)),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_horizon(Some(5)),
        );
        let decision = sched.schedule(&ctx);
        assert_eq!(decision.assignments.len(), 5, "window must cap the batch");
        assert_eq!(sched.stats().slack_truncations, 1);
    }

    #[test]
    fn zero_horizon_is_clamped_at_config_build_time() {
        // Regression: `with_horizon(Some(0))` used to yield an empty solve
        // batch every slot, deferring every pending job forever. The config
        // builder now clamps to a one-job window.
        let config = WaterWiseConfig::default().with_horizon(Some(0));
        assert_eq!(config.horizon, Some(1));

        let mut fixture = context_fixture(8, 27);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let ctx = ctx_from(&fixture, 6.0, 1.0);
        let mut sched = WaterWiseScheduler::new(
            Arc::new(SyntheticTelemetry::with_seed(3)),
            FootprintEstimator::paper_default(),
            config,
        );
        let decision = sched.schedule(&ctx);
        assert_eq!(
            decision.assignments.len(),
            1,
            "a clamped zero horizon must still make progress"
        );
    }

    #[test]
    fn attached_cache_never_changes_decisions_and_reports_traffic() {
        let mut fixture = context_fixture(14, 29);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        let mut plain = WaterWiseScheduler::new(
            provider.clone(),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default(),
        );
        let mut cached = WaterWiseScheduler::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default(),
        )
        .with_cache(waterwise_milp::SolutionCache::shared());
        for hour in [6.0, 6.25, 6.5, 7.0] {
            let ctx = ctx_from(&fixture, hour, 0.5);
            let a = plain.schedule(&ctx);
            let b = cached.schedule(&ctx);
            assert_eq!(a, b, "cache changed the schedule at hour {hour}");
        }
        assert_eq!(plain.stats().cache, waterwise_milp::CacheStats::default());
        let stats = cached.stats().cache;
        assert!(stats.lookups() > 0, "cache was never consulted");
        assert!(stats.insertions > 0, "optimal solves were never published");
        let activity = cached.solver_activity().unwrap();
        assert_eq!(activity.cache_exact_hits, stats.exact_hits);
        assert_eq!(activity.cache_misses, stats.misses);
    }

    #[test]
    fn bit_identical_batches_replay_across_job_ids() {
        // Two batches with bit-identical numerics but different job ids are
        // one model to the cache (nothing in it is named): the second is an
        // exact hit, read back by position onto its own ids.
        let mut fixture = context_fixture(13, 33);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let mut renumbered = context_fixture(13, 33);
        for p in &mut renumbered.pending {
            p.received_at = Seconds::from_hours(6.0);
            p.spec.id = JobId(p.spec.id.0 + 1000);
        }
        let mut sched = scheduler().with_cache(waterwise_milp::SolutionCache::shared());
        let first = sched.schedule(&ctx_from(&fixture, 6.0, 0.5));
        let pivots = sched.stats().simplex_iterations;
        assert!(pivots > 0);
        let other = sched.schedule(&ctx_from(&renumbered, 6.0, 0.5));
        let cache = sched.stats().cache;
        assert_eq!((cache.misses, cache.exact_hits), (1, 1), "{cache:?}");
        assert_eq!(sched.stats().simplex_iterations, pivots, "a replay pivots");
        let renumbered_first: Vec<Assignment> = first
            .assignments
            .iter()
            .map(|a| Assignment {
                job: JobId(a.job.0 + 1000),
                region: a.region,
            })
            .collect();
        assert_eq!(other.assignments, renumbered_first);
        let again = sched.schedule(&ctx_from(&fixture, 6.0, 0.5));
        let cache = sched.stats().cache;
        assert_eq!((cache.misses, cache.exact_hits), (1, 2), "{cache:?}");
        assert_eq!(sched.stats().soft_fallbacks, 0);
        assert_eq!(first, again);
    }

    #[test]
    fn solver_activity_reports_cumulative_work() {
        let fixture = context_fixture(10, 25);
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        assert_eq!(sched.solver_activity().unwrap(), SolverActivity::default());
        sched.schedule(&ctx);
        let activity = sched.solver_activity().unwrap();
        assert!(activity.solves > 0);
        assert!(activity.simplex_pivots > 0);
        assert_eq!(
            activity.simplex_pivots,
            sched.stats().simplex_iterations,
            "workspace pivots and solution iterations must agree"
        );
    }

    #[test]
    fn empty_pending_or_zero_capacity_defers() {
        let mut fixture = context_fixture(5, 15);
        let empty_ctx = SchedulingContext {
            now: Seconds::zero(),
            pending: &[],
            regions: &fixture.regions,
            delay_tolerance: 0.5,
            transfer: &fixture.transfer,
        };
        assert!(scheduler().schedule(&empty_ctx).assignments.is_empty());

        for v in &mut fixture.regions {
            v.busy_servers = v.total_servers;
        }
        let ctx = ctx_from(&fixture, 1.0, 0.5);
        assert!(scheduler().schedule(&ctx).assignments.is_empty());
    }

    /// The round's MILP as the paper writes it — Eq. 11/13 as one weighted
    /// row per job, Eq. 12's penalty as a variable `P[m]` per job after the
    /// `x` block. The oracle [`assignment_model`] is held to; lives only here.
    fn paper_literal_model(
        numerics: &[JobNumerics],
        capacities: &[usize],
        soft_penalty: Option<f64>,
    ) -> Model {
        let n_regions = capacities.len();
        let x = |m: usize, n: usize| Var::from_index(m * n_regions + n);
        let penalty = |m: usize| Var::from_index(numerics.len() * n_regions + m);
        let mut model = Model::new("paper-literal");
        for _ in 0..numerics.len() * n_regions {
            model.add_binary("");
        }
        let mut objective = LinExpr::zero();
        for (m, numbers) in numerics.iter().enumerate() {
            for (n, &coeff) in numbers.coeffs.iter().enumerate() {
                objective.add_term(x(m, n), coeff);
            }
        }
        if let Some(sigma) = soft_penalty {
            for m in 0..numerics.len() {
                model.add_non_negative("");
                objective.add_term(penalty(m), sigma);
            }
        }
        model.minimize(objective);
        for (m, numbers) in numerics.iter().enumerate() {
            let assign = LinExpr::sum((0..n_regions).map(|n| LinExpr::from(x(m, n))));
            model.add_constraint("", assign, Sense::Equal, 1.0);
            let mut delay = LinExpr::zero();
            for (n, &ratio) in numbers.latency_ratio.iter().enumerate() {
                delay.add_term(x(m, n), ratio);
            }
            if soft_penalty.is_some() {
                delay.add_term(penalty(m), -1.0);
            }
            model.add_constraint("", delay, Sense::LessEqual, numbers.remaining_tolerance);
        }
        for (n, &capacity) in capacities.iter().enumerate() {
            let load = LinExpr::sum((0..numerics.len()).map(|m| LinExpr::from(x(m, n))));
            model.add_constraint("", load, Sense::LessEqual, capacity as f64);
        }
        model
    }

    use proptest::prelude::*;

    /// Batch size up to which the paper-literal MILP is solved to proven
    /// optimality in the property test below.
    const ORACLE_JOBS: usize = 12;

    /// A random batch in the shape `prepare_numerics` hands the model, and
    /// its regions' capacities (`fill` × the batch size, split by `shares`).
    fn random_round(
        n_jobs: usize,
        n_regions: usize,
        (loose, homes, fill): (bool, bool, f64),
        draws: &[(f64, f64, f64)],
        shares: &[f64],
    ) -> (Vec<JobNumerics>, Vec<usize>) {
        let batch = (0..n_jobs)
            .map(|m| {
                let row = &draws[m * 8..m * 8 + n_regions];
                let mut latency_ratio: Vec<f64> = row.iter().map(|d| d.1).collect();
                if homes {
                    latency_ratio[m * 5 % n_regions] = 0.0;
                }
                let coeffs: Vec<f64> = row.iter().map(|d| d.0).collect();
                numerics(&coeffs, &latency_ratio, if loose { 0.5 } else { row[0].2 })
            })
            .collect();
        let share_sum: f64 = shares[..n_regions].iter().sum();
        let capacities = shares[..n_regions]
            .iter()
            .map(|s| (fill * n_jobs as f64 * s / share_sum).round() as usize)
            .collect();
        (batch, capacities)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arc bounds + folded penalty == weighted rows + penalty variables,
        /// and the former never branches.
        #[test]
        fn transportation_form_matches_the_paper_literal_milp_at_the_root(
            shape in (1usize..61, 1usize..9),
            // Tolerance 0.5 for every job, or per job and mostly tight.
            loose in 0usize..2,
            // Whether every job has a zero-latency home region.
            homes in 0usize..2,
            // Total capacity as a fraction of the batch: < 1 cannot place
            // every job (Eq. 9 fails in both forms), ≈ 1 binds, > 1 is slack.
            fill in 0.8f64..2.2,
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            use waterwise_milp::SolveStatus::{Infeasible, Optimal};
            let (n_jobs, n_regions) = shape;
            let regime = (loose == 1, homes == 1, fill);
            let simplex = SimplexConfig::default();
            // No dual restarts for the oracle: an open node then holds two
            // bound vectors, not a tableau.
            let to_optimality = BranchBoundConfig {
                max_nodes: 20_000,
                use_dual_restart: false,
                ..BranchBoundConfig::default()
            };
            for soft_penalty in [None, Some(10.0)] {
                // Integral at the root at every size ...
                let (batch, capacities) = random_round(n_jobs, n_regions, regime, &draws, &shares);
                let model = assignment_model(&batch, &capacities, soft_penalty);
                prop_assert_eq!(model.num_vars(), n_jobs * n_regions);
                prop_assert_eq!(model.num_constraints(), n_jobs + n_regions);
                let solution = model.solve().unwrap();
                prop_assert_eq!(solution.nodes_explored, 1);
                prop_assert!(matches!(solution.status, Optimal | Infeasible));

                // ... and equal to the literal MILP wherever branch-and-bound
                // can finish that one: its relaxation is weak enough that
                // 20 000 nodes do not settle 31 jobs × 5 regions under binding
                // capacity, so the oracle sees the first ORACLE_JOBS jobs.
                let n_jobs = n_jobs.min(ORACLE_JOBS);
                let (batch, capacities) = random_round(n_jobs, n_regions, regime, &draws, &shares);
                let ours = assignment_model(&batch, &capacities, soft_penalty).solve().unwrap();
                prop_assert_eq!(ours.nodes_explored, 1);
                let literal = paper_literal_model(&batch, &capacities, soft_penalty);
                let theirs = literal.solve_with(&simplex, &to_optimality).unwrap();
                prop_assert!(
                    matches!(theirs.status, Optimal | Infeasible),
                    "the oracle ran out of nodes: {:?}", theirs.status
                );
                prop_assert_eq!(ours.status, theirs.status);
                if theirs.status == Infeasible {
                    continue;
                }
                prop_assert!(
                    (ours.objective - theirs.objective).abs() < 1e-7,
                    "objective {} vs the literal model's {}", ours.objective, theirs.objective
                );
                // Our assignment, with each `P[m]` at the violation it incurs,
                // is a feasible point of the literal model at the same cost.
                let mut point = ours.values.clone();
                let mut cost = 0.0;
                for (m, numbers) in batch.iter().enumerate() {
                    let chosen = (0..n_regions)
                        .find(|&n| ours.values[m * n_regions + n] == 1.0)
                        .expect("an integral assignment row");
                    cost += numbers.coeffs[chosen];
                    if let Some(sigma) = soft_penalty {
                        point.push(numbers.violation(chosen));
                        cost += sigma * numbers.violation(chosen);
                    }
                }
                prop_assert!(literal.is_feasible(&point, 1e-9));
                prop_assert!((cost - theirs.objective).abs() < 1e-7);
            }
        }
    }
}
