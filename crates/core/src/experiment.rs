//! Campaign configuration and the experiment runner.
//!
//! A *campaign* is one end-to-end evaluation: generate synthetic telemetry
//! and a workload trace, build a scheduler, replay the trace through the
//! cluster simulator, and collect the summary metrics the paper reports
//! (carbon/water savings, service-time stretch, violations, overhead).
//! Every figure and table of the paper is regenerated by running campaigns
//! with different parameters (see `waterwise-bench`).

use crate::error::WaterWiseError;
use crate::objective::ObjectiveWeights;
use crate::sched::{
    BaselineScheduler, EcovisorConfig, EcovisorScheduler, GreedyObjective, GreedyOptScheduler,
    LeastLoadScheduler, RoundRobinScheduler, WaterWiseConfig, WaterWiseScheduler,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use waterwise_cluster::{
    CampaignSummary, ConfigError, EngineMode, Scheduler, SimulationConfig, SimulationReport,
    Simulator,
};
use waterwise_sustain::FootprintEstimator;
use waterwise_telemetry::{
    ConditionsProvider, PerturbedProvider, Region, SyntheticTelemetry, TelemetryConfig,
};
use waterwise_traces::{JobSpec, TraceConfig, TraceGenerator, TraceStatistics};

/// Which scheduler a campaign should evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Carbon/water-unaware home-region execution.
    Baseline,
    /// Round-robin load balancing (Fig. 10).
    RoundRobin,
    /// Least-load load balancing (Fig. 10).
    LeastLoad,
    /// Carbon-Greedy-Opt oracle (Sec. 5).
    CarbonGreedyOpt,
    /// Water-Greedy-Opt oracle (Sec. 5).
    WaterGreedyOpt,
    /// Ecovisor-style carbon-only comparator (Fig. 7).
    Ecovisor,
    /// The WaterWise scheduler.
    WaterWise,
}

impl SchedulerKind {
    /// All schedulers, baseline first.
    pub const ALL: [SchedulerKind; 7] = [
        SchedulerKind::Baseline,
        SchedulerKind::RoundRobin,
        SchedulerKind::LeastLoad,
        SchedulerKind::CarbonGreedyOpt,
        SchedulerKind::WaterGreedyOpt,
        SchedulerKind::Ecovisor,
        SchedulerKind::WaterWise,
    ];

    /// Stable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "baseline",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::LeastLoad => "least-load",
            SchedulerKind::CarbonGreedyOpt => "carbon-greedy-opt",
            SchedulerKind::WaterGreedyOpt => "water-greedy-opt",
            SchedulerKind::Ecovisor => "ecovisor",
            SchedulerKind::WaterWise => "waterwise",
        }
    }
}

/// One row of a savings table: `(scheduler, carbon saving %, water saving %)`.
pub type SavingsRow = (SchedulerKind, f64, f64);

/// Degree of parallelism for multi-scheduler / multi-campaign runs.
///
/// Campaigns sharing a [`Campaign`] are logically independent (each run
/// builds its own scheduler and simulator from shared immutable telemetry
/// and trace data), so running them on separate threads produces results
/// identical to a serial run; only wall-clock measurements such as
/// [`CampaignSummary::mean_decision_time`] differ between any two runs.
/// ```
/// use waterwise_core::Parallelism;
///
/// assert_eq!(Parallelism::Serial.worker_count(8), 1);
/// assert_eq!(Parallelism::Threads(4).worker_count(8), 4);
/// // Never more workers than tasks, never fewer than one.
/// assert_eq!(Parallelism::Threads(16).worker_count(3), 3);
/// assert_eq!(Parallelism::Threads(0).worker_count(3), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// One campaign at a time (the reference behavior).
    Serial,
    /// One worker per available CPU core, capped by the number of tasks.
    #[default]
    Auto,
    /// Exactly this many worker threads (clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// The number of worker threads to spawn for `tasks` independent tasks.
    pub fn worker_count(self, tasks: usize) -> usize {
        let workers = match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => available_workers(),
            Parallelism::Threads(n) => n.max(1),
        };
        workers.min(tasks.max(1))
    }
}

/// Cached [`std::thread::available_parallelism`]. On Linux the std call
/// re-parses cgroup CPU quotas from the filesystem every time, and every
/// worker-count decision in the process should see the same number.
#[expect(
    clippy::disallowed_methods,
    reason = "DET004: the one permitted call site; OnceLock caches the value so every worker-count decision in the process sees the same number"
)]
fn available_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `tasks` closures (identified by index) on a scoped worker pool and
/// return their results in input order — the deterministic-merge primitive
/// behind [`Campaign::run_all`] and [`Campaign::run_matrix`]. Falls back to
/// a plain serial map
/// when either the worker count or the task count is 1, so callers never
/// pay thread-spawn overhead for degenerate inputs.
#[expect(
    clippy::expect_used,
    reason = "DET003: the strided counter hands every index in 0..tasks to exactly one worker, and each worker's results are merged, so a hole is impossible by construction"
)]
pub(crate) fn run_indexed<T, F>(tasks: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || tasks <= 1 {
        return (0..tasks).map(&task).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        local.push((i, task(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // A worker panic carries the original payload; re-raising it on
            // the coordinating thread (instead of a fresh expect) preserves
            // the task's own message in the backtrace.
            let local = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, result) in local {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every indexed task completes"))
        .collect()
}

/// Full configuration of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload trace configuration.
    pub trace: TraceConfig,
    /// Cluster / simulator configuration.
    pub simulation: SimulationConfig,
    /// Synthetic telemetry configuration.
    pub telemetry: TelemetryConfig,
    /// WaterWise scheduler configuration (ignored by other schedulers).
    pub waterwise: WaterWiseConfig,
    /// Multiplicative error applied to the *scheduler's view* of carbon
    /// intensity (the ±10% sensitivity study); ground-truth accounting is
    /// unaffected. 1.0 = accurate estimates.
    pub estimate_carbon_error: f64,
    /// Multiplicative error applied to the scheduler's view of the water
    /// intensity components (EWIF, WUE).
    pub estimate_water_error: f64,
    /// How many schedulers/campaigns [`Campaign::run_all`] and
    /// [`Campaign::run_matrix`] evaluate concurrently.
    pub parallelism: Parallelism,
}

impl CampaignConfig {
    /// The paper's default setup: Borg-like trace, all five regions with 280
    /// servers each, PUE 1.2, equal objective weights. That is ~7% mean
    /// utilization (7.3% measured at 0.25 days, seed 42; Fig. 11 prints it).
    pub fn paper_default(days: f64, delay_tolerance: f64, seed: u64) -> Self {
        Self {
            trace: TraceConfig::borg(days, seed),
            simulation: SimulationConfig::paper_default(280, delay_tolerance),
            telemetry: TelemetryConfig {
                seed,
                // A non-finite `days` is refused when the campaign runs
                // (`TraceConfig::validate`); its telemetry keeps the minimum.
                horizon_days: if days.is_finite() {
                    (days.ceil() as usize).saturating_add(2).max(3)
                } else {
                    3
                },
                ..TelemetryConfig::default()
            },
            waterwise: WaterWiseConfig::default(),
            estimate_carbon_error: 1.0,
            estimate_water_error: 1.0,
            parallelism: Parallelism::default(),
        }
    }

    /// A small, fast campaign for examples, doctests, and CI: ~an hour of
    /// Borg-like arrivals on a reduced cluster.
    pub fn small_demo(seed: u64) -> Self {
        let mut config = Self::paper_default(0.05, 0.5, seed);
        config.simulation = config.simulation.with_servers_per_region(40);
        config
    }

    /// Switch the trace to the Alibaba-like pattern (Fig. 9).
    pub fn with_alibaba_trace(mut self, days: f64, seed: u64) -> Self {
        self.trace = TraceConfig::alibaba(days, seed);
        self
    }

    /// Restrict the campaign to a subset of regions (Fig. 12). Both the trace
    /// (home regions) and the simulated cluster are restricted.
    pub fn with_regions(mut self, regions: &[Region]) -> Self {
        self.trace = self.trace.clone().with_regions(regions);
        self.simulation = self.simulation.clone().with_regions(regions);
        self
    }

    /// Override the objective weights (Fig. 8).
    pub fn with_weights(mut self, weights: ObjectiveWeights) -> Self {
        self.waterwise.weights = weights;
        self
    }

    /// Override the per-region server count (Fig. 11 utilization study).
    pub fn with_servers_per_region(mut self, servers: usize) -> Self {
        self.simulation = self.simulation.clone().with_servers_per_region(servers);
        self
    }

    /// Override the delay tolerance.
    pub fn with_delay_tolerance(mut self, tolerance: f64) -> Self {
        self.simulation.delay_tolerance = tolerance;
        self
    }

    /// Override the parallelism of multi-scheduler runs.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// This configuration unchanged: every [`EngineMode`] runs the engine's
    /// one inline path. Kept only because the frozen perf ledger calls it;
    /// ROADMAP item 1 deletes the name.
    pub fn with_engine_mode(self, _engine: EngineMode) -> Self {
        self
    }
}

/// The outcome of one campaign with one scheduler.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Which scheduler ran.
    pub kind: SchedulerKind,
    /// The summary metrics (also available inside `report`).
    pub summary: CampaignSummary,
    /// The full simulation report (per-job outcomes, overhead samples).
    pub report: SimulationReport,
}

impl CampaignOutcome {
    /// Carbon saving (%) of this outcome relative to a baseline outcome.
    pub fn carbon_saving_vs(&self, baseline: &CampaignOutcome) -> f64 {
        self.summary.carbon_saving_vs(&baseline.summary)
    }

    /// Water saving (%) of this outcome relative to a baseline outcome.
    pub fn water_saving_vs(&self, baseline: &CampaignOutcome) -> f64 {
        self.summary.water_saving_vs(&baseline.summary)
    }
}

/// A prepared campaign: telemetry and trace are generated once so that every
/// scheduler is evaluated on exactly the same workload and conditions.
///
/// ```
/// use waterwise_core::{Campaign, CampaignConfig, SchedulerKind};
///
/// let campaign = Campaign::new(CampaignConfig::small_demo(42));
/// let outcome = campaign.run(SchedulerKind::Baseline).unwrap();
/// assert_eq!(outcome.summary.total_jobs, campaign.jobs().len());
/// // The baseline never migrates away from home regions.
/// assert_eq!(outcome.summary.migration_fraction, 0.0);
/// ```
pub struct Campaign {
    config: CampaignConfig,
    telemetry: Arc<SyntheticTelemetry>,
    jobs: Vec<JobSpec>,
}

impl Campaign {
    /// Generate the telemetry and trace for a campaign. A trace
    /// configuration that [`TraceConfig::validate`] refuses draws no jobs,
    /// and every run of the campaign returns that refusal as a
    /// [`ConfigError::Trace`].
    pub fn new(config: CampaignConfig) -> Self {
        let telemetry = SyntheticTelemetry::generate(config.telemetry).shared();
        let jobs = match config.trace.validate() {
            Ok(()) => TraceGenerator::new(config.trace.clone()).generate(),
            Err(_) => Vec::new(),
        };
        Self {
            config,
            telemetry,
            jobs,
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The generated workload trace.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Statistics of the generated trace.
    pub fn trace_statistics(&self) -> TraceStatistics {
        TraceStatistics::compute(&self.jobs)
    }

    /// The shared telemetry provider (ground truth).
    pub fn telemetry(&self) -> &Arc<SyntheticTelemetry> {
        &self.telemetry
    }

    /// The provider the *scheduler* sees: ground truth, optionally perturbed
    /// by the configured estimation error.
    fn scheduler_provider(&self) -> Arc<dyn ConditionsProvider> {
        if (self.config.estimate_carbon_error - 1.0).abs() < 1e-12
            && (self.config.estimate_water_error - 1.0).abs() < 1e-12
        {
            self.telemetry.clone()
        } else {
            Arc::new(PerturbedProvider::new(
                self.telemetry.clone(),
                self.config.estimate_carbon_error,
                self.config.estimate_water_error,
            ))
        }
    }

    /// Build a scheduler instance of the given kind.
    pub fn build_scheduler(&self, kind: SchedulerKind) -> Box<dyn Scheduler> {
        build_scheduler(
            kind,
            self.scheduler_provider(),
            FootprintEstimator::new(self.config.simulation.datacenter),
            &self.config.waterwise,
        )
    }

    /// Run the campaign with one scheduler.
    pub fn run(&self, kind: SchedulerKind) -> Result<CampaignOutcome, WaterWiseError> {
        self.config.trace.validate().map_err(ConfigError::Trace)?;
        let simulator = Simulator::new(self.config.simulation.clone(), self.telemetry.clone())?;
        let mut scheduler = self.build_scheduler(kind);
        let report = simulator.run(&self.jobs, scheduler.as_mut())?;
        Ok(CampaignOutcome {
            kind,
            summary: report.summary.clone(),
            report,
        })
    }

    /// Run several schedulers on the same trace and telemetry, concurrently
    /// according to [`CampaignConfig::parallelism`].
    ///
    /// Every scheduler run is logically independent (its own scheduler and
    /// simulator instance over shared immutable telemetry/trace data), and
    /// results are merged back in input order, so the outcome vector is
    /// identical to a [`Parallelism::Serial`] run except for wall-clock
    /// overhead measurements.
    pub fn run_all(&self, kinds: &[SchedulerKind]) -> Result<Vec<CampaignOutcome>, WaterWiseError> {
        let workers = self.config.parallelism.worker_count(kinds.len());
        run_indexed(kinds.len(), workers, |i| self.run(kinds[i]))
            .into_iter()
            .collect()
    }

    /// Prepare and run a whole matrix of campaign configurations — the
    /// scheduler×seed/tolerance sweep primitive used by the bench driver.
    ///
    /// Campaign preparation (telemetry + trace generation) is parallelized
    /// across `configs`, then every `config × kind` pair runs as its own
    /// task on the pool, so the full worker count is used even when there
    /// are fewer configurations than cores. Results are returned in input
    /// order, indexed `[config][kind]`.
    pub fn run_matrix(
        configs: &[CampaignConfig],
        kinds: &[SchedulerKind],
        parallelism: Parallelism,
    ) -> Result<Vec<Vec<CampaignOutcome>>, WaterWiseError> {
        if kinds.is_empty() {
            return Ok(configs.iter().map(|_| Vec::new()).collect());
        }
        let prep_workers = parallelism.worker_count(configs.len());
        let campaigns: Vec<Campaign> = run_indexed(configs.len(), prep_workers, |i| {
            let mut config = configs[i].clone();
            // Each cell is one pool task already; no nested pools.
            config.parallelism = Parallelism::Serial;
            Campaign::new(config)
        });
        let tasks = configs.len() * kinds.len();
        let workers = parallelism.worker_count(tasks);
        let flat = run_indexed(tasks, workers, |t| {
            campaigns[t / kinds.len()].run(kinds[t % kinds.len()])
        });
        let mut cells = flat.into_iter();
        (0..configs.len())
            .map(|_| cells.by_ref().take(kinds.len()).collect())
            .collect()
    }

    /// Run the baseline plus the given schedulers and report each scheduler's
    /// savings relative to the baseline — the layout of Fig. 5/6/9/10/11.
    pub fn savings_vs_baseline(
        &self,
        kinds: &[SchedulerKind],
    ) -> Result<Vec<SavingsRow>, WaterWiseError> {
        let mut outcomes = self.run_all(&with_baseline_first(kinds))?;
        let baseline = outcomes.remove(0);
        Ok(savings_rows(&baseline, outcomes))
    }

    /// [`Campaign::run_matrix`] specialized to the savings-vs-baseline
    /// layout: for every configuration, run the baseline plus `kinds` and
    /// report each scheduler's savings relative to that configuration's own
    /// baseline.
    pub fn savings_matrix(
        configs: &[CampaignConfig],
        kinds: &[SchedulerKind],
        parallelism: Parallelism,
    ) -> Result<Vec<Vec<SavingsRow>>, WaterWiseError> {
        let matrix = Self::run_matrix(configs, &with_baseline_first(kinds), parallelism)?;
        Ok(matrix
            .into_iter()
            .map(|mut row| {
                let baseline = row.remove(0);
                savings_rows(&baseline, row)
            })
            .collect())
    }
}

/// Build a standalone scheduler of the given kind from its raw ingredients
/// — the conditions provider it estimates with, the footprint estimator
/// matching the cluster's data-center parameters, and the WaterWise
/// configuration (ignored by the other kinds). [`Campaign::build_scheduler`]
/// delegates here; the online placement service calls it directly because
/// it drives the simulator without preparing a full campaign.
///
/// ```
/// use std::sync::Arc;
/// use waterwise_core::{build_scheduler, SchedulerKind, WaterWiseConfig};
/// use waterwise_sustain::FootprintEstimator;
/// use waterwise_telemetry::SyntheticTelemetry;
///
/// let provider = SyntheticTelemetry::with_seed(7).shared();
/// let scheduler = build_scheduler(
///     SchedulerKind::WaterWise,
///     provider,
///     FootprintEstimator::paper_default(),
///     &WaterWiseConfig::default(),
/// );
/// assert_eq!(scheduler.name(), "waterwise");
/// ```
pub fn build_scheduler(
    kind: SchedulerKind,
    provider: Arc<dyn ConditionsProvider>,
    estimator: FootprintEstimator,
    waterwise: &WaterWiseConfig,
) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Baseline => Box::new(BaselineScheduler::new()),
        SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
        SchedulerKind::LeastLoad => Box::new(LeastLoadScheduler::new()),
        SchedulerKind::CarbonGreedyOpt => Box::new(GreedyOptScheduler::new(
            GreedyObjective::Carbon,
            provider,
            estimator,
        )),
        SchedulerKind::WaterGreedyOpt => Box::new(GreedyOptScheduler::new(
            GreedyObjective::Water,
            provider,
            estimator,
        )),
        SchedulerKind::Ecovisor => {
            Box::new(EcovisorScheduler::new(provider, EcovisorConfig::default()))
        }
        SchedulerKind::WaterWise => Box::new(WaterWiseScheduler::new(
            provider,
            estimator,
            waterwise.clone(),
        )),
    }
}

/// `[Baseline, kinds...]` — the scheduler list every savings comparison runs.
fn with_baseline_first(kinds: &[SchedulerKind]) -> Vec<SchedulerKind> {
    let mut all = Vec::with_capacity(kinds.len() + 1);
    all.push(SchedulerKind::Baseline);
    all.extend_from_slice(kinds);
    all
}

/// Map outcomes to `(kind, carbon saving %, water saving %)` rows relative
/// to `baseline` — the single source of truth for the savings layout.
fn savings_rows(baseline: &CampaignOutcome, outcomes: Vec<CampaignOutcome>) -> Vec<SavingsRow> {
    outcomes
        .into_iter()
        .map(|outcome| {
            (
                outcome.kind,
                outcome.carbon_saving_vs(baseline),
                outcome.water_saving_vs(baseline),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_traces::TraceConfigError;

    #[test]
    fn small_demo_campaign_runs_every_scheduler() {
        let campaign = Campaign::new(CampaignConfig::small_demo(42));
        assert!(!campaign.jobs().is_empty());
        for kind in SchedulerKind::ALL {
            let outcome = campaign.run(kind).unwrap();
            assert_eq!(outcome.kind, kind);
            assert_eq!(
                outcome.summary.total_jobs,
                campaign.jobs().len(),
                "{kind:?}"
            );
            assert!(outcome.summary.total_carbon.value() > 0.0);
            assert!(outcome.summary.total_water.value() > 0.0);
        }
    }

    #[test]
    fn waterwise_beats_the_baseline_on_both_axes() {
        let campaign = Campaign::new(CampaignConfig::paper_default(0.15, 0.5, 7));
        let baseline = campaign.run(SchedulerKind::Baseline).unwrap();
        let waterwise = campaign.run(SchedulerKind::WaterWise).unwrap();
        let carbon_saving = waterwise.carbon_saving_vs(&baseline);
        let water_saving = waterwise.water_saving_vs(&baseline);
        assert!(
            carbon_saving > 0.0,
            "expected positive carbon saving, got {carbon_saving:.2}%"
        );
        assert!(
            water_saving > 0.0,
            "expected positive water saving, got {water_saving:.2}%"
        );
    }

    #[test]
    fn trace_statistics_are_consistent() {
        let campaign = Campaign::new(CampaignConfig::small_demo(3));
        let stats = campaign.trace_statistics();
        assert_eq!(stats.job_count, campaign.jobs().len());
    }

    #[test]
    fn scheduler_labels_are_unique() {
        let mut labels: Vec<_> = SchedulerKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), SchedulerKind::ALL.len());
    }

    #[test]
    fn estimation_error_still_produces_a_valid_campaign() {
        let mut config = CampaignConfig::small_demo(11);
        config.estimate_carbon_error = 1.1;
        config.estimate_water_error = 0.9;
        let campaign = Campaign::new(config);
        let outcome = campaign.run(SchedulerKind::WaterWise).unwrap();
        assert_eq!(outcome.summary.total_jobs, campaign.jobs().len());
    }

    #[test]
    fn region_restriction_flows_through_trace_and_cluster() {
        let config = CampaignConfig::small_demo(13).with_regions(&[Region::Zurich, Region::Oregon]);
        let campaign = Campaign::new(config);
        let outcome = campaign.run(SchedulerKind::WaterWise).unwrap();
        for o in &outcome.report.outcomes {
            assert!(matches!(o.executed_region, Region::Zurich | Region::Oregon));
        }
    }

    #[test]
    fn worker_counts_respect_the_knob_and_task_count() {
        assert_eq!(Parallelism::Serial.worker_count(7), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(7), 4);
        assert_eq!(Parallelism::Threads(0).worker_count(7), 1);
        // Never more workers than tasks.
        assert_eq!(Parallelism::Threads(16).worker_count(3), 3);
        assert!(Parallelism::Auto.worker_count(7) >= 1);
    }

    #[test]
    fn run_matrix_preserves_config_and_kind_order() {
        let configs = vec![CampaignConfig::small_demo(1), CampaignConfig::small_demo(2)];
        let kinds = [SchedulerKind::Baseline, SchedulerKind::RoundRobin];
        let matrix = Campaign::run_matrix(&configs, &kinds, Parallelism::Threads(2)).unwrap();
        assert_eq!(matrix.len(), 2);
        for row in &matrix {
            assert_eq!(row.len(), 2);
            assert_eq!(row[0].kind, SchedulerKind::Baseline);
            assert_eq!(row[1].kind, SchedulerKind::RoundRobin);
        }
        // Rows must reflect their own config (different seeds -> different
        // traces), and match a direct serial run of the same config.
        let direct = Campaign::new(configs[1].clone())
            .run(SchedulerKind::Baseline)
            .unwrap();
        assert_eq!(
            format!("{:?}", matrix[1][0].summary.without_wall_clock()),
            format!("{:?}", direct.summary.without_wall_clock())
        );
        assert_ne!(
            matrix[0][0].summary.total_jobs, 0,
            "matrix campaigns must actually run jobs"
        );
    }

    #[test]
    fn a_failing_cell_does_not_poison_a_matrix() {
        // One cell with a broken config fails with a typed error; every
        // other cell of the same matrix completes normally. A trace that
        // cannot be drawn fails the same way, without a panic.
        let mut bad = CampaignConfig::small_demo(6);
        bad.simulation.delay_tolerance = -1.0;
        let endless = CampaignConfig::paper_default(f64::NAN, 0.5, 8);

        let results: Vec<_> = [
            CampaignConfig::small_demo(5),
            bad,
            CampaignConfig::small_demo(7),
            endless.clone(),
        ]
        .into_iter()
        .map(|config| Campaign::new(config).run(SchedulerKind::Baseline))
        .collect();
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(WaterWiseError::Config(
                waterwise_cluster::ConfigError::NegativeDelayTolerance { .. }
            ))
        ));
        let ok = results[2].as_ref().unwrap();
        assert_eq!(
            ok.summary.total_jobs,
            Campaign::new(CampaignConfig::small_demo(7)).jobs().len()
        );
        let nan_duration = |err: Option<&WaterWiseError>| {
            matches!(
                err,
                Some(WaterWiseError::Config(ConfigError::Trace(TraceConfigError::NonFinite {
                    field: "duration",
                    value,
                }))) if value.is_nan()
            )
        };
        let err = results[3].as_ref().err();
        assert!(nan_duration(err), "{err:?}");
        let matrix = Campaign::run_matrix(
            &[CampaignConfig::small_demo(5), endless],
            &[SchedulerKind::Baseline],
            Parallelism::Threads(2),
        );
        assert!(nan_duration(matrix.as_ref().err()));
    }

    #[test]
    fn a_trace_that_cannot_be_drawn_is_a_typed_config_error() {
        let demo = CampaignConfig::small_demo;
        let mut fast = demo(1);
        fast.trace = fast.trace.with_rate_multiplier(f64::INFINITY);
        let refused = [
            (
                demo(1).with_alibaba_trace(f64::INFINITY, 1),
                "duration = inf",
            ),
            (fast, "rate_multiplier = inf"),
            (demo(1).with_regions(&[]), "region_weights summing to 0"),
        ];
        for (config, named) in refused {
            let campaign = Campaign::new(config);
            assert!(campaign.jobs().is_empty());
            let err = campaign.run(SchedulerKind::WaterWise).unwrap_err();
            assert!(
                matches!(err, WaterWiseError::Config(ConfigError::Trace(_))),
                "{err:?}"
            );
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn campaign_errors_carry_typed_config_failures() {
        let mut config = CampaignConfig::small_demo(3);
        config.simulation.delay_tolerance = -1.0;
        let campaign = Campaign::new(config);
        let err = campaign.run(SchedulerKind::Baseline).unwrap_err();
        assert!(matches!(
            err,
            WaterWiseError::Config(waterwise_cluster::ConfigError::NegativeDelayTolerance { .. })
        ));
    }
}
