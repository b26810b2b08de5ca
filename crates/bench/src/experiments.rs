//! One function per paper table/figure. Every function returns the tables it
//! prints so that integration tests can assert on the numbers.

use crate::table::{fmt2, pct, Table};
use std::path::{Path, PathBuf};
use waterwise_core::{
    Campaign, CampaignConfig, ObjectiveWeights, Parallelism, Scenario, ScenarioError,
    SchedulerKind, SolutionCache, SolutionCacheMode,
};
use waterwise_sustain::{EwifDataset, FootprintEstimator, Seconds};
use waterwise_telemetry::{
    ConditionsProvider, Region, SyntheticTelemetry, TelemetryConfig, ALL_REGIONS,
};
use waterwise_traces::ALL_BENCHMARKS;

/// Shared scale knobs for all experiments, read from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Borg-like trace duration in days (`WATERWISE_DAYS`, default 0.25).
    pub days: f64,
    /// RNG seed (`WATERWISE_SEED`, default 42).
    pub seed: u64,
}

impl ExperimentScale {
    /// Read the scale from the environment.
    pub fn from_env() -> Self {
        let days: f64 = std::env::var("WATERWISE_DAYS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.25);
        let days = days.max(0.01);
        let seed = std::env::var("WATERWISE_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        Self { days, seed }
    }

    /// The Alibaba trace carries ~8.5× the jobs; scale its duration down so
    /// the experiment finishes in comparable time.
    pub fn alibaba_days(&self) -> f64 {
        (self.days / 4.0).max(0.02)
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            days: 0.25,
            seed: 42,
        }
    }
}

/// Print a set of tables.
pub fn print_tables(tables: &[Table]) {
    for t in tables {
        t.print();
    }
}

/// Write an experiment's tables to `BENCH_<name>.json` in the current
/// directory (the machine-readable artifact archived by CI alongside the
/// printed tables). Failures are reported on stderr but never abort the
/// experiment — the printed tables remain the source of truth.
pub fn save_json(name: &str, tables: &[Table]) {
    let path = format!("BENCH_{name}.json");
    match crate::table::write_json_report(tables, &path) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

fn tolerance_label(t: f64) -> String {
    format!("{:.0}%", t * 100.0)
}

// ---------------------------------------------------------------------------
// Declarative scenarios (scenarios/*.spec)
// ---------------------------------------------------------------------------

/// Directory holding the repo's scenario spec files: `WATERWISE_SCENARIO_DIR`
/// if set, else the workspace-level `scenarios/` directory.
pub fn scenario_dir() -> PathBuf {
    std::env::var_os("WATERWISE_SCENARIO_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("scenarios")
        })
}

/// Path of the named scenario's spec file inside [`scenario_dir`].
pub fn scenario_spec_path(name: &str) -> PathBuf {
    scenario_dir().join(format!("{name}.spec"))
}

/// Load the named scenario from [`scenario_dir`], then apply the
/// `WATERWISE_DAYS` / `WATERWISE_SEED` environment overrides when they are
/// explicitly set (CI smoke runs rescale every campaign this way).
pub fn load_scenario(name: &str) -> Result<Scenario, ScenarioError> {
    Ok(apply_env_scale(waterwise_core::load_spec(
        scenario_spec_path(name),
    )?))
}

/// Apply explicit `WATERWISE_DAYS` / `WATERWISE_SEED` overrides to a loaded
/// scenario; unset (or unparsable) variables leave the spec untouched.
pub fn apply_env_scale(mut scenario: Scenario) -> Scenario {
    if let Some(days) = std::env::var("WATERWISE_DAYS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        scenario = scenario.with_days(days);
    }
    if let Some(seed) = std::env::var("WATERWISE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        scenario = scenario.with_seed(seed);
    }
    scenario
}

/// Resolve a fig binary's scenario: `--scenario <path>` on the command line
/// (or `WATERWISE_SCENARIO=<path>`) names an explicit spec file; otherwise
/// the named default under [`scenario_dir`] is loaded. On any read, parse,
/// or validation failure the process exits with status 2 after printing the
/// offending `file:line`.
pub fn scenario_or_exit(name: &str) -> Scenario {
    let path = scenario_cli_path().unwrap_or_else(|| scenario_spec_path(name));
    match waterwise_core::load_spec(&path) {
        Ok(scenario) => apply_env_scale(scenario),
        Err(err) => {
            eprintln!("{}", err.located(path.display()));
            std::process::exit(2);
        }
    }
}

/// `--scenario <path>` (or `--scenario=<path>`) from the command line, else
/// `WATERWISE_SCENARIO` from the environment.
fn scenario_cli_path() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scenario" {
            return args.next().map(PathBuf::from);
        }
        if let Some(path) = arg.strip_prefix("--scenario=") {
            return Some(PathBuf::from(path));
        }
    }
    std::env::var_os("WATERWISE_SCENARIO").map(PathBuf::from)
}

/// Validate every spec file a `run_all` sweep will load, returning the first
/// failure as a ready-to-print `file:line: message` string. Called up front
/// so a malformed spec fails the whole suite immediately instead of dying
/// mid-sweep after the earlier figures have already burned their runtime.
pub fn validate_scenarios(names: &[&str]) -> Result<(), String> {
    for name in names {
        let path = scenario_spec_path(name);
        if let Err(err) = waterwise_core::load_spec(&path) {
            return Err(err.located(path.display()));
        }
    }
    Ok(())
}

/// The golden-snapshotted scenarios: the fig binaries' defaults in fig
/// order, plus the multi-session host scenario pinned over live TCP and
/// the save→restart→resume persistence scenario.
pub const SCENARIO_NAMES: [&str; 6] = [
    "fig05",
    "fig08",
    "fig14",
    "fig17",
    "server_multi",
    "server_resume",
];

// ---------------------------------------------------------------------------
// Fig. 1 — carbon intensity and EWIF per energy source
// ---------------------------------------------------------------------------

/// Fig. 1: carbon intensity and water requirement (EWIF) per energy source.
pub fn fig01_energy_sources() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 1 — per-source carbon intensity and EWIF",
        &[
            "source",
            "renewable",
            "carbon (gCO2/kWh)",
            "EWIF (L/kWh)",
            "EWIF WRI (L/kWh)",
        ],
    );
    for source in waterwise_sustain::ALL_SOURCES {
        t.row(&[
            source.label().to_string(),
            source.is_renewable().to_string(),
            fmt2(source.carbon_intensity().value()),
            fmt2(source.ewif().value()),
            fmt2(
                source
                    .ewif_from(EwifDataset::WorldResourcesInstitute)
                    .value(),
            ),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Fig. 2 — regional factors and temporal variation
// ---------------------------------------------------------------------------

/// Fig. 2: regional averages of carbon intensity, EWIF, WUE, WSF (a–d) and
/// the temporal variation of carbon/water intensity in Oregon (e).
pub fn fig02_regional_factors(scale: ExperimentScale) -> Vec<Table> {
    let telemetry = SyntheticTelemetry::generate(TelemetryConfig {
        seed: scale.seed,
        horizon_days: 60,
        ..TelemetryConfig::default()
    });
    let estimator = FootprintEstimator::paper_default();
    let mut regional = Table::new(
        "Fig. 2(a-d) — regional annual-average factors",
        &[
            "region",
            "carbon (gCO2/kWh)",
            "EWIF (L/kWh)",
            "WUE (L/kWh)",
            "WSF",
        ],
    );
    for region in ALL_REGIONS {
        regional.row(&[
            region.name().to_string(),
            fmt2(telemetry.carbon_series(region).mean()),
            fmt2(telemetry.ewif_series(region).mean()),
            fmt2(telemetry.wue_series(region).mean()),
            fmt2(region.profile().wsf.value()),
        ]);
    }

    let mut temporal = Table::new(
        "Fig. 2(e) — temporal variation in Oregon (hourly samples)",
        &["metric", "min", "mean", "max", "std"],
    );
    let ci = telemetry.carbon_series(Region::Oregon);
    temporal.row(&[
        "carbon intensity (gCO2/kWh)".to_string(),
        fmt2(ci.min()),
        fmt2(ci.mean()),
        fmt2(ci.max()),
        fmt2(ci.std_dev()),
    ]);
    let hours = 24 * 60;
    let wi: Vec<f64> = (0..hours)
        .map(|h| {
            let c = telemetry.conditions(Region::Oregon, Seconds::from_hours(h as f64));
            estimator.water_intensity(c).value()
        })
        .collect();
    let mean = wi.iter().sum::<f64>() / wi.len() as f64;
    let min = wi.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = wi.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let std = (wi.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / wi.len() as f64).sqrt();
    temporal.row(&[
        "water intensity (L/kWh)".to_string(),
        fmt2(min),
        fmt2(mean),
        fmt2(max),
        fmt2(std),
    ]);
    vec![regional, temporal]
}

// ---------------------------------------------------------------------------
// Generic savings sweeps (used by several figures)
// ---------------------------------------------------------------------------

/// Run the baseline plus `kinds` over every configuration concurrently (one
/// worker per core via [`Campaign::savings_matrix`]) and return, per
/// configuration, each scheduler's carbon/water savings over the baseline.
fn matrix_savings(
    configs: Vec<CampaignConfig>,
    kinds: &[SchedulerKind],
) -> Vec<Vec<(SchedulerKind, f64, f64)>> {
    Campaign::savings_matrix(&configs, kinds, Parallelism::Auto).expect("campaign must run")
}

/// Run `kinds` against the baseline for each delay tolerance and tabulate
/// carbon/water savings. The tolerance campaigns run concurrently.
fn savings_sweep(
    title: &str,
    base_config: impl Fn(f64) -> CampaignConfig,
    tolerances: &[f64],
    kinds: &[SchedulerKind],
) -> Table {
    let mut table = Table::new(
        title,
        &[
            "delay tolerance",
            "scheduler",
            "carbon saving",
            "water saving",
        ],
    );
    let configs: Vec<CampaignConfig> = tolerances.iter().map(|&tol| base_config(tol)).collect();
    for (&tol, rows) in tolerances.iter().zip(matrix_savings(configs, kinds)) {
        for (kind, carbon, water) in rows {
            table.row(&[
                tolerance_label(tol),
                kind.label().to_string(),
                pct(carbon),
                pct(water),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 3 — greedy-optimal opportunity and job distribution
// ---------------------------------------------------------------------------

/// Fig. 3: (a) savings of the greedy-optimal single-objective schemes across
/// delay tolerances; (b) job distribution across regions at 10% tolerance.
pub fn fig03_greedy_opportunity(scale: ExperimentScale) -> Vec<Table> {
    let tolerances = [0.01, 0.10, 1.00, 10.0];
    let savings = savings_sweep(
        "Fig. 3(a) — Carbon/Water-Greedy-Opt savings vs delay tolerance",
        |tol| CampaignConfig::paper_default(scale.days, tol, scale.seed),
        &tolerances,
        &[
            SchedulerKind::CarbonGreedyOpt,
            SchedulerKind::WaterGreedyOpt,
        ],
    );

    let campaign = Campaign::new(CampaignConfig::paper_default(scale.days, 0.10, scale.seed));
    let mut distribution = Table::new(
        "Fig. 3(b) — job distribution across regions (10% delay tolerance)",
        &["scheduler", "Zurich", "Madrid", "Oregon", "Milan", "Mumbai"],
    );
    let outcomes = campaign
        .run_all(&[
            SchedulerKind::CarbonGreedyOpt,
            SchedulerKind::WaterGreedyOpt,
        ])
        .expect("campaign must run");
    for outcome in outcomes {
        let dist = outcome.summary.region_distribution();
        let mut cells = vec![outcome.kind.label().to_string()];
        cells.extend(dist.iter().map(|f| pct(f * 100.0)));
        distribution.row(&cells);
    }
    vec![savings, distribution]
}

// ---------------------------------------------------------------------------
// Fig. 5 — WaterWise vs greedy-optimal on the Borg-like trace
// ---------------------------------------------------------------------------

/// Fig. 5: carbon and water savings of WaterWise and the greedy oracles over
/// the baseline, for delay tolerances 25–100%, on the Borg-like trace.
///
/// The workload comes from `scenarios/fig05.spec`; the sweep re-runs the
/// scenario at each delay tolerance.
pub fn fig05_waterwise_google(scenario: &Scenario) -> Vec<Table> {
    vec![savings_sweep(
        "Fig. 5 — savings vs baseline (Borg-like trace, Electricity-Maps-style data)",
        |tol| scenario.config.clone().with_delay_tolerance(tol),
        &[0.25, 0.50, 0.75, 1.00],
        &[
            SchedulerKind::CarbonGreedyOpt,
            SchedulerKind::WaterGreedyOpt,
            SchedulerKind::WaterWise,
        ],
    )]
}

// ---------------------------------------------------------------------------
// Fig. 6 — World Resources Institute dataset
// ---------------------------------------------------------------------------

/// Fig. 6: the same comparison with the WRI-style per-source water dataset.
pub fn fig06_wri_dataset(scale: ExperimentScale) -> Vec<Table> {
    vec![savings_sweep(
        "Fig. 6 — savings vs baseline (WRI-style water dataset)",
        |tol| {
            let mut config = CampaignConfig::paper_default(scale.days, tol, scale.seed);
            config.telemetry.dataset = EwifDataset::WorldResourcesInstitute;
            config
        },
        &[0.25, 0.50, 0.75, 1.00],
        &[
            SchedulerKind::CarbonGreedyOpt,
            SchedulerKind::WaterGreedyOpt,
            SchedulerKind::WaterWise,
        ],
    )]
}

// ---------------------------------------------------------------------------
// Fig. 7 — Ecovisor comparison
// ---------------------------------------------------------------------------

/// Fig. 7: WaterWise vs the Ecovisor-style carbon-only comparator under both
/// water datasets.
pub fn fig07_ecovisor(scale: ExperimentScale) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 7 — Ecovisor vs WaterWise (savings vs baseline, 50% tolerance)",
        &["dataset", "scheduler", "carbon saving", "water saving"],
    );
    let datasets = [
        ("electricity-maps", EwifDataset::Primary),
        ("wri", EwifDataset::WorldResourcesInstitute),
    ];
    let configs: Vec<CampaignConfig> = datasets
        .iter()
        .map(|&(_, dataset)| {
            let mut config = CampaignConfig::paper_default(scale.days, 0.5, scale.seed);
            config.telemetry.dataset = dataset;
            config
        })
        .collect();
    let per_config = matrix_savings(
        configs,
        &[SchedulerKind::Ecovisor, SchedulerKind::WaterWise],
    );
    for ((label, _), rows) in datasets.iter().zip(per_config) {
        for (kind, carbon, water) in rows {
            table.row(&[
                label.to_string(),
                kind.label().to_string(),
                pct(carbon),
                pct(water),
            ]);
        }
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 8 — objective-weight sensitivity
// ---------------------------------------------------------------------------

/// Fig. 8: WaterWise savings when λ_CO2 is 0.3 / 0.5 / 0.7 (50% tolerance).
///
/// The workload comes from `scenarios/fig08.spec`; the sweep re-weights the
/// scenario's objective at each λ_CO2.
pub fn fig08_weight_sensitivity(scenario: &Scenario) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 8 — weight sensitivity (50% delay tolerance)",
        &["lambda_co2", "carbon saving", "water saving"],
    );
    let lambdas = [0.3, 0.5, 0.7];
    let configs: Vec<CampaignConfig> = lambdas
        .iter()
        .map(|&lambda| {
            scenario
                .config
                .clone()
                .with_weights(ObjectiveWeights::paper_default().with_carbon_weight(lambda))
        })
        .collect();
    let per_config = matrix_savings(configs, &[SchedulerKind::WaterWise]);
    for (&lambda, rows) in lambdas.iter().zip(per_config) {
        let (_, carbon, water) = rows[0];
        table.row(&[format!("{lambda:.1}"), pct(carbon), pct(water)]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 9 — Alibaba trace
// ---------------------------------------------------------------------------

/// Fig. 9: the Fig. 5 comparison repeated with the Alibaba-like trace.
pub fn fig09_alibaba(scale: ExperimentScale) -> Vec<Table> {
    vec![savings_sweep(
        "Fig. 9 — savings vs baseline (Alibaba-like trace)",
        |tol| {
            CampaignConfig::paper_default(scale.alibaba_days(), tol, scale.seed)
                .with_alibaba_trace(scale.alibaba_days(), scale.seed)
                .with_delay_tolerance(tol)
        },
        &[0.25, 0.50, 0.75, 1.00],
        &[
            SchedulerKind::CarbonGreedyOpt,
            SchedulerKind::WaterGreedyOpt,
            SchedulerKind::WaterWise,
        ],
    )]
}

// ---------------------------------------------------------------------------
// Fig. 10 — load-balancer comparison
// ---------------------------------------------------------------------------

/// Fig. 10: WaterWise vs Round-Robin and Least-Load (50% tolerance).
pub fn fig10_loadbalancers(scale: ExperimentScale) -> Vec<Table> {
    let campaign = Campaign::new(CampaignConfig::paper_default(scale.days, 0.5, scale.seed));
    let mut table = Table::new(
        "Fig. 10 — savings vs baseline of load balancers and WaterWise",
        &["scheduler", "carbon saving", "water saving"],
    );
    let rows = campaign
        .savings_vs_baseline(&[
            SchedulerKind::RoundRobin,
            SchedulerKind::LeastLoad,
            SchedulerKind::WaterWise,
        ])
        .expect("campaign must run");
    for (kind, carbon, water) in rows {
        table.row(&[kind.label().to_string(), pct(carbon), pct(water)]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 11 — utilization sensitivity
// ---------------------------------------------------------------------------

/// Fig. 11: savings at roughly 5%, 15%, and 25% average utilization
/// (obtained by changing the number of available servers per region).
pub fn fig11_utilization(scale: ExperimentScale) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 11 — utilization sensitivity (50% delay tolerance)",
        &[
            "servers/region",
            "target util",
            "scheduler",
            "carbon saving",
            "water saving",
        ],
    );
    let levels = [(840usize, "5%"), (280, "15%"), (168, "25%")];
    let configs: Vec<CampaignConfig> = levels
        .iter()
        .map(|&(servers, _)| {
            CampaignConfig::paper_default(scale.days, 0.5, scale.seed)
                .with_servers_per_region(servers)
        })
        .collect();
    let per_config = matrix_savings(
        configs,
        &[
            SchedulerKind::CarbonGreedyOpt,
            SchedulerKind::WaterGreedyOpt,
            SchedulerKind::WaterWise,
        ],
    );
    for (&(servers, util), rows) in levels.iter().zip(per_config) {
        for (kind, carbon, water) in rows {
            table.row(&[
                servers.to_string(),
                util.to_string(),
                kind.label().to_string(),
                pct(carbon),
                pct(water),
            ]);
        }
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 12 — region availability
// ---------------------------------------------------------------------------

/// Fig. 12: WaterWise savings when only a subset of regions is available.
pub fn fig12_region_availability(scale: ExperimentScale) -> Vec<Table> {
    let subsets: [(&str, &[Region]); 3] = [
        (
            "Zurich-Madrid-Oregon-Milan",
            &[
                Region::Zurich,
                Region::Madrid,
                Region::Oregon,
                Region::Milan,
            ],
        ),
        (
            "Zurich-Milan-Mumbai",
            &[Region::Zurich, Region::Milan, Region::Mumbai],
        ),
        ("Zurich-Oregon", &[Region::Zurich, Region::Oregon]),
    ];
    let mut table = Table::new(
        "Fig. 12 — sensitivity to region availability (50% tolerance)",
        &["available regions", "carbon saving", "water saving"],
    );
    let configs: Vec<CampaignConfig> = subsets
        .iter()
        .map(|&(_, regions)| {
            CampaignConfig::paper_default(scale.days, 0.5, scale.seed).with_regions(regions)
        })
        .collect();
    let per_config = matrix_savings(configs, &[SchedulerKind::WaterWise]);
    for ((label, _), rows) in subsets.iter().zip(per_config) {
        let (_, carbon, water) = rows[0];
        table.row(&[label.to_string(), pct(carbon), pct(water)]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 13 — decision-making overhead
// ---------------------------------------------------------------------------

/// Fig. 13: scheduler decision-making overhead over time, for the Borg-like
/// and Alibaba-like traces, expressed as a percentage of the mean job
/// execution time.
pub fn fig13_overhead(scale: ExperimentScale) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 13 — WaterWise decision-making overhead over time",
        &[
            "trace",
            "window (min)",
            "mean decision time (ms)",
            "% of mean execution time",
        ],
    );
    for (label, config) in [
        (
            "google-borg",
            CampaignConfig::paper_default(scale.days, 0.5, scale.seed),
        ),
        (
            "alibaba-vm",
            CampaignConfig::paper_default(scale.alibaba_days(), 0.5, scale.seed)
                .with_alibaba_trace(scale.alibaba_days(), scale.seed)
                .with_delay_tolerance(0.5),
        ),
    ] {
        let campaign = Campaign::new(config);
        let outcome = campaign
            .run(SchedulerKind::WaterWise)
            .expect("campaign must run");
        let mean_exec = outcome
            .report
            .outcomes
            .iter()
            .map(|o| o.execution_time.value())
            .sum::<f64>()
            / outcome.report.outcomes.len().max(1) as f64;
        // Bin the overhead samples into ~6 windows across the campaign.
        let samples = &outcome.report.overhead;
        if samples.is_empty() {
            continue;
        }
        let start = samples.first().unwrap().sim_time.value();
        let end = samples.last().unwrap().sim_time.value().max(start + 1.0);
        let bins = 6usize;
        let width = (end - start) / bins as f64;
        for b in 0..bins {
            let lo = start + b as f64 * width;
            let hi = lo + width;
            let in_bin: Vec<f64> = samples
                .iter()
                .filter(|s| s.sim_time.value() >= lo && s.sim_time.value() < hi)
                .map(|s| s.wall_clock.value())
                .collect();
            if in_bin.is_empty() {
                continue;
            }
            let mean = in_bin.iter().sum::<f64>() / in_bin.len() as f64;
            table.row(&[
                label.to_string(),
                format!("{:.0}", (lo - start) / 60.0),
                fmt2(mean * 1000.0),
                format!("{:.4}%", mean / mean_exec * 100.0),
            ]);
        }
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 14 — warm-started rolling-horizon solves (this reproduction's own
// overhead study; not a figure of the paper)
// ---------------------------------------------------------------------------

/// Fig. 14: cold versus hinted rolling-horizon solving on the Fig. 5
/// workload, across sliding-window (horizon) lengths. Reports how many rounds
/// reached the solver at all (a hinted round whose assignment is certified,
/// or whose optimum the transportation kernel proves unique, builds no model:
/// on this trace that is every one, and the cold row's `solved` equals its
/// `rounds`), simplex pivots per solve — total
/// and on the steady-state slots (the last three quarters of the solved
/// rounds) — warm-start coverage, decision latency, and the campaign's
/// total pivots cold over hinted.
///
/// The workload comes from `scenarios/fig14.spec`; the sweep overrides the
/// scenario's warm-start flag and horizon per cell.
pub fn fig14_warmstart(scenario: &Scenario) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 14 — cold vs warm-started solves (Borg-like trace, 50% tolerance)",
        &[
            "horizon",
            "mode",
            "rounds",
            "solved",
            "pivots/solve",
            "steady pivots/solve",
            "warm solve %",
            "mean decision (ms)",
            "pivot cut",
        ],
    );
    for horizon in [Some(16), Some(32), Some(64), None] {
        let mut cold_pivots = 0usize;
        for warm in [false, true] {
            let mut config = scenario.config.clone();
            config.waterwise.warm_start = warm;
            config.waterwise.horizon = horizon;
            let outcome = Campaign::new(config)
                .run(SchedulerKind::WaterWise)
                .expect("campaign must run");
            let rounds = outcome.report.overhead.len();
            // Rounds that became a MILP; a warm row can have none.
            let samples: Vec<_> = outcome
                .report
                .overhead
                .iter()
                .filter(|s| s.solver.is_some_and(|a| a.solves > 0))
                .collect();
            let activity_over = |range: &[&waterwise_cluster::OverheadSample]| {
                let mut total = waterwise_cluster::SolverActivity::default();
                for s in range {
                    if let Some(a) = &s.solver {
                        total.accumulate(a);
                    }
                }
                total
            };
            let total = activity_over(&samples);
            // Steady state: skip the warm-up quarter of the rounds.
            let steady = activity_over(&samples[samples.len() / 4..]);
            let steady_pivots = steady.pivots_per_solve();
            // Whole-campaign pivots, cold over hinted: per-solve ratios would
            // set every cold round against the few hard ones the warm run
            // still solves.
            let speedup = match (warm, total.simplex_pivots) {
                (false, pivots) => {
                    cold_pivots = pivots;
                    "-".to_string()
                }
                (true, 0) => "no solve".to_string(),
                (true, pivots) => format!("{:.1}x", cold_pivots as f64 / pivots as f64),
            };
            table.row(&[
                horizon.map_or("capacity".to_string(), |h| h.to_string()),
                if warm { "warm" } else { "cold" }.to_string(),
                rounds.to_string(),
                samples.len().to_string(),
                fmt2(total.pivots_per_solve()),
                fmt2(steady_pivots),
                format!("{:.0}%", total.warm_solve_fraction() * 100.0),
                fmt2(outcome.summary.mean_decision_time.value() * 1000.0),
                speedup,
            ]);
        }
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 15 — cross-campaign solution caching (this reproduction's own study;
// not a figure of the paper)
// ---------------------------------------------------------------------------

/// Fig. 15: what the MILP solution cache does on a tolerance × weight
/// campaign matrix (the Fig. 5 / Fig. 8 sweep axes). The cache sees the
/// rounds that become a model: with the scheduler's hints only those with
/// tied optima (the hint certifies, or the transportation kernel decides,
/// every other round — all of them in this sweep), without hints every
/// round — hence the two cold rows. Within one
/// campaign no two models are bit-identical, so a cache per cell costs the
/// same solves and pivots as none. Across cells they can be: a tolerance
/// reaches the model only through the arcs it fixes, so cells of equal λ
/// build the same model until a tolerance first excludes a region, and a
/// sweep sharing one cache replays what a sibling cell published (lookups =
/// solves + hits; a parallel sweep turns a hit into a second solve when two
/// cells meet a model at the same instant). Running the sweep again against
/// the warmed shared handle replays every model still resident and solves
/// nothing.
/// Each row's schedules are asserted byte-identical to the cache-off row
/// with the same scheduler hints (warm == cold is not a cache property and
/// is not asserted here).
pub fn fig15_solcache(scale: ExperimentScale) -> Vec<Table> {
    let tolerances = [0.25, 0.50, 1.00];
    let lambdas = [0.3, 0.5, 0.7];
    let configs = |mode: &SolutionCacheMode, warm_start: bool| -> Vec<CampaignConfig> {
        tolerances
            .iter()
            .flat_map(|&tol| {
                lambdas.iter().map(move |&lambda| {
                    CampaignConfig::paper_default(scale.days, tol, scale.seed)
                        .with_weights(ObjectiveWeights::paper_default().with_carbon_weight(lambda))
                })
            })
            .map(|mut config| {
                config.waterwise.warm_start = warm_start;
                config.with_solution_cache(mode.clone())
            })
            .collect()
    };

    let mut table = Table::new(
        "Fig. 15 — solution cache on a 3×3 tolerance/weight matrix: \
         no mode changes a schedule; a re-run against the warmed shared cache replays",
        &[
            "mode",
            "sched hints",
            "cells",
            "solves",
            "pivots/solve",
            "lookups",
            "exact hits",
            "hit rate",
            "evictions",
        ],
    );
    // The two hinted `shared` rows use one handle: the second
    // sweep meets every model of the first, bit for bit. The cold scheduler
    // gets a handle of its own — a solution stored by a warm-started solve
    // is the warm schedule's, and this figure does not lean on warm == cold.
    let shared = SolutionCache::shared();
    let rows = [
        (SolutionCacheMode::Off, true, ""),
        (SolutionCacheMode::PerCampaign, true, ""),
        (SolutionCacheMode::Shared(shared.clone()), true, ""),
        (SolutionCacheMode::Shared(shared), true, ", re-run"),
        (SolutionCacheMode::Off, false, ""),
        (
            SolutionCacheMode::Shared(SolutionCache::shared()),
            false,
            "",
        ),
    ];
    // The cache-off schedules per `warm_start` (false, true).
    let mut reference: [Option<Vec<Vec<waterwise_cluster::JobOutcome>>>; 2] = [None, None];
    for (mode, warm_start, pass) in &rows {
        let label = format!("{}{pass}", mode.label());
        let matrix = Campaign::run_matrix(
            &configs(mode, *warm_start),
            &[SchedulerKind::WaterWise],
            Parallelism::Auto,
        )
        .expect("campaign must run");
        let mut total = waterwise_cluster::SolverActivity::default();
        let mut schedules = Vec::with_capacity(matrix.len());
        for row in &matrix {
            for outcome in row {
                total.accumulate(&outcome.summary.solver);
                schedules.push(outcome.report.outcomes.clone());
            }
        }
        // The determinism guarantee, checked end to end: every cache mode
        // must reproduce the cache-free schedules byte for byte.
        match &mut reference[usize::from(*warm_start)] {
            slot @ None => *slot = Some(schedules),
            Some(baseline) => assert_eq!(baseline, &schedules, "{label} mode changed a schedule"),
        }
        table.row(&[
            label,
            if *warm_start { "greedy" } else { "none" }.to_string(),
            matrix.len().to_string(),
            total.solves.to_string(),
            fmt2(total.pivots_per_solve()),
            total.cache_lookups().to_string(),
            total.cache_exact_hits.to_string(),
            pct(total.cache_hit_fraction() * 100.0),
            total.cache_evictions.to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Table 2 — service time and violations
// ---------------------------------------------------------------------------

/// Table 2: average service time (normalized to execution time) and the
/// fraction of jobs violating their delay tolerance.
pub fn table2_service_time(scale: ExperimentScale) -> Vec<Table> {
    let mut table = Table::new(
        "Table 2 — service time (normalized) and delay-tolerance violations",
        &[
            "delay tolerance",
            "scheduler",
            "service time (x exec)",
            "% jobs violating",
        ],
    );
    let tolerances = [0.25, 0.50, 0.75, 1.00];
    let configs: Vec<CampaignConfig> = tolerances
        .iter()
        .map(|&tol| CampaignConfig::paper_default(scale.days, tol, scale.seed))
        .collect();
    let matrix = Campaign::run_matrix(
        &configs,
        &[
            SchedulerKind::Baseline,
            SchedulerKind::CarbonGreedyOpt,
            SchedulerKind::WaterGreedyOpt,
            SchedulerKind::WaterWise,
        ],
        Parallelism::Auto,
    )
    .expect("campaign must run");
    for (&tol, row) in tolerances.iter().zip(&matrix) {
        for outcome in row {
            table.row(&[
                tolerance_label(tol),
                outcome.kind.label().to_string(),
                format!("{:.3}x", outcome.summary.mean_service_stretch),
                format!("{:.2}%", outcome.summary.violation_fraction * 100.0),
            ]);
        }
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Table 3 — communication overhead
// ---------------------------------------------------------------------------

/// Table 3: average carbon/water overhead of transferring a job from Oregon
/// to each remote region, as a percentage of the execution footprint.
pub fn table3_comm_overhead(scale: ExperimentScale) -> Vec<Table> {
    let telemetry = SyntheticTelemetry::with_seed(scale.seed);
    let estimator = FootprintEstimator::paper_default();
    let transfer = waterwise_cluster::TransferModel::paper_default();
    let mut table = Table::new(
        "Table 3 — communication overhead from Oregon (averaged over benchmarks)",
        &[
            "destination",
            "transfer time (s)",
            "carbon overhead (% exec)",
            "water overhead (% exec)",
        ],
    );
    for destination in [
        Region::Zurich,
        Region::Madrid,
        Region::Milan,
        Region::Mumbai,
    ] {
        let mut carbon_overheads = Vec::new();
        let mut water_overheads = Vec::new();
        let mut times = Vec::new();
        for benchmark in ALL_BENCHMARKS {
            let profile = benchmark.profile();
            let at = Seconds::from_hours(12.0);
            let conditions = telemetry.conditions(destination, at);
            let usage = waterwise_sustain::JobResourceUsage::new(
                profile.mean_energy(),
                profile.mean_execution_time,
            );
            let exec_footprint = estimator.estimate(usage, conditions);
            let transfer_energy =
                transfer.transfer_energy(Region::Oregon, destination, profile.package_bytes);
            let transfer_footprint = estimator.estimate_operational(
                waterwise_sustain::JobResourceUsage::new(transfer_energy, Seconds::zero()),
                conditions,
            );
            carbon_overheads.push(
                transfer_footprint.total_carbon().value() / exec_footprint.total_carbon().value()
                    * 100.0,
            );
            water_overheads.push(
                transfer_footprint.total_water().value() / exec_footprint.total_water().value()
                    * 100.0,
            );
            times.push(
                transfer
                    .transfer_time(Region::Oregon, destination, profile.package_bytes)
                    .value(),
            );
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        table.row(&[
            destination.name().to_string(),
            fmt2(mean(&times)),
            format!("{:.3}%", mean(&carbon_overheads)),
            format!("{:.3}%", mean(&water_overheads)),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Sensitivity studies (Sec. 6 text)
// ---------------------------------------------------------------------------

/// Sec. 6: ±10% error in the scheduler's carbon / water-intensity estimates
/// (50% delay tolerance).
pub fn sens_perturbation(scale: ExperimentScale) -> Vec<Table> {
    let mut table = Table::new(
        "Sensitivity — ±10% estimate error (50% delay tolerance)",
        &[
            "carbon estimate error",
            "water estimate error",
            "carbon saving",
            "water saving",
        ],
    );
    let errors = [(1.0, 1.0), (1.1, 1.0), (0.9, 1.0), (1.0, 1.1), (1.0, 0.9)];
    let configs: Vec<CampaignConfig> = errors
        .iter()
        .map(|&(carbon_err, water_err)| {
            let mut config = CampaignConfig::paper_default(scale.days, 0.5, scale.seed);
            config.estimate_carbon_error = carbon_err;
            config.estimate_water_error = water_err;
            config
        })
        .collect();
    let per_config = matrix_savings(configs, &[SchedulerKind::WaterWise]);
    for (&(carbon_err, water_err), rows) in errors.iter().zip(per_config) {
        let (_, carbon, water) = rows[0];
        table.row(&[
            format!("{:+.0}%", (carbon_err - 1.0) * 100.0),
            format!("{:+.0}%", (water_err - 1.0) * 100.0),
            pct(carbon),
            pct(water),
        ]);
    }
    vec![table]
}

/// Sec. 6: doubling the Borg request rate (50% delay tolerance).
pub fn sens_request_rate(scale: ExperimentScale) -> Vec<Table> {
    let mut table = Table::new(
        "Sensitivity — request-rate scaling (50% delay tolerance)",
        &["rate multiplier", "carbon saving", "water saving"],
    );
    let multipliers = [1.0, 2.0];
    let configs: Vec<CampaignConfig> = multipliers
        .iter()
        .map(|&multiplier| {
            let mut config = CampaignConfig::paper_default(scale.days, 0.5, scale.seed);
            config.trace = config.trace.clone().with_rate_multiplier(multiplier);
            config
        })
        .collect();
    let per_config = matrix_savings(configs, &[SchedulerKind::WaterWise]);
    for (&multiplier, rows) in multipliers.iter().zip(per_config) {
        let (_, carbon, water) = rows[0];
        table.row(&[format!("{multiplier:.1}x"), pct(carbon), pct(water)]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Fig. 19 — durable warm state: sweep → snapshot save → fresh load → re-sweep
// (this reproduction's own study; not a figure of the paper)
// ---------------------------------------------------------------------------

/// One sweep of the Fig. 19 persistence study: the schedule digest plus the
/// cache traffic and decision latency the sweep produced.
///
/// [`Fig19Run::encode`] / [`Fig19Run::parse`] carry a run across a process
/// boundary as a single machine-readable line — the `fig19_persist` binary
/// runs the resumed sweep in a freshly spawned process so the snapshot file
/// is the *only* state shared with the cold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig19Run {
    /// `cold` or `resumed`.
    pub label: String,
    /// Jobs scheduled by the sweep.
    pub jobs: usize,
    /// Order-sensitive digest of the sweep's schedule.
    pub digest: u64,
    /// Exact cache hits during the sweep.
    pub exact_hits: usize,
    /// Total cache lookups during the sweep.
    pub lookups: usize,
    /// Mean per-decision scheduler latency, milliseconds.
    pub mean_decision_ms: f64,
    /// Whole-sweep wall time, milliseconds.
    pub wall_ms: f64,
    /// Cache entries at the end of the sweep.
    pub cache_entries: usize,
}

impl Fig19Run {
    /// Fraction of lookups answered by an exact hit (0.0 when the sweep
    /// never consulted the cache).
    pub fn exact_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.exact_hits as f64 / self.lookups as f64
        }
    }

    /// The single-line wire form: `fig19-run key=value ...`.
    pub fn encode(&self) -> String {
        format!(
            "fig19-run label={} jobs={} digest={:016x} exact_hits={} lookups={} \
             mean_decision_ms={:?} wall_ms={:?} cache_entries={}",
            self.label,
            self.jobs,
            self.digest,
            self.exact_hits,
            self.lookups,
            self.mean_decision_ms,
            self.wall_ms,
            self.cache_entries,
        )
    }

    /// Parse one [`Fig19Run::encode`] line; `None` for any other line.
    pub fn parse(line: &str) -> Option<Self> {
        let rest = line.trim().strip_prefix("fig19-run ")?;
        let mut run = Fig19Run {
            label: String::new(),
            jobs: 0,
            digest: 0,
            exact_hits: 0,
            lookups: 0,
            mean_decision_ms: f64::NAN,
            wall_ms: f64::NAN,
            cache_entries: 0,
        };
        for pair in rest.split_whitespace() {
            let (key, value) = pair.split_once('=')?;
            match key {
                "label" => run.label = value.to_string(),
                "jobs" => run.jobs = value.parse().ok()?,
                "digest" => run.digest = u64::from_str_radix(value, 16).ok()?,
                "exact_hits" => run.exact_hits = value.parse().ok()?,
                "lookups" => run.lookups = value.parse().ok()?,
                "mean_decision_ms" => run.mean_decision_ms = value.parse().ok()?,
                "wall_ms" => run.wall_ms = value.parse().ok()?,
                "cache_entries" => run.cache_entries = value.parse().ok()?,
                _ => return None,
            }
        }
        if run.label.is_empty() {
            return None;
        }
        Some(run)
    }
}

/// Servers per region of the Fig. 19 sweeps, whatever the scenario says.
/// The sweeps run with `warm_start: false`, so that every round becomes a
/// model and reaches the solution cache: by default the certified hint or the
/// transportation kernel decides nearly every round without one, and there
/// would be next to nothing to persist. At 40 (the demo campaigns' size) some
/// rounds bind capacity, so the snapshot carries priced models too, without
/// the cluster overloading — further down more hard models are proved
/// infeasible, which is never published, and the resumed sweep would re-prove
/// a growing share of its lookups.
const FIG19_SERVERS_PER_REGION: usize = 40;

/// One Fig. 19 sweep against the snapshot at `cache_path`: build the
/// campaign with [`Campaign::try_new`] (warm-loading the snapshot if it
/// exists) on [`FIG19_SERVERS_PER_REGION`] servers without warm starts, run
/// WaterWise once, persist the cache back, and report the sweep's digest,
/// cache traffic, and latency.
fn fig19_sweep(scenario: &Scenario, cache_path: &Path, label: &str) -> Fig19Run {
    use std::time::Instant;
    let mut config = scenario
        .config
        .clone()
        .with_servers_per_region(FIG19_SERVERS_PER_REGION)
        .with_cache_path(cache_path);
    config.waterwise.warm_start = false;
    let campaign = Campaign::try_new(config).expect("fig19 campaign must build");
    let cache = campaign
        .solution_cache()
        .expect("a cache path implies a cache handle")
        .clone();
    let before = cache.stats();
    let started = Instant::now();
    let outcome = campaign
        .run(SchedulerKind::WaterWise)
        .expect("fig19 campaign must run");
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let after = cache.stats();
    campaign.save_cache().expect("fig19 snapshot must save");
    Fig19Run {
        label: label.to_string(),
        jobs: outcome.summary.total_jobs,
        digest: waterwise_cluster::schedule_digest(&outcome.report.outcomes),
        exact_hits: after.exact_hits - before.exact_hits,
        lookups: after.lookups() - before.lookups(),
        mean_decision_ms: outcome.summary.mean_decision_time.value() * 1000.0,
        wall_ms,
        cache_entries: cache.len(),
    }
}

/// The cold half of Fig. 19: sweep from an empty cache (the snapshot file
/// must not exist yet) and save the snapshot.
pub fn fig19_cold(scenario: &Scenario, cache_path: &Path) -> Fig19Run {
    assert!(
        !cache_path.exists(),
        "fig19 cold sweep requires a fresh snapshot path"
    );
    fig19_sweep(scenario, cache_path, "cold")
}

/// The resumed half of Fig. 19: warm-load the snapshot written by
/// [`fig19_cold`] and re-sweep. Panics if the snapshot did not actually
/// arrive warm.
pub fn fig19_resumed(scenario: &Scenario, cache_path: &Path) -> Fig19Run {
    assert!(
        cache_path.exists(),
        "fig19 resumed sweep requires the saved snapshot at {}",
        cache_path.display()
    );
    let run = fig19_sweep(scenario, cache_path, "resumed");
    assert!(
        run.cache_entries > 0,
        "the resumed sweep loaded an empty snapshot: no round of the cold sweep was \
         solved to a published optimum"
    );
    run
}

/// Render the Fig. 19 comparison and enforce its acceptance properties:
/// the resumed sweep's schedule is byte-identical to the cold sweep's
/// (same digest) and at least 90% of its lookups are exact hits.
pub fn fig19_tables(cold: &Fig19Run, resumed: &Fig19Run) -> Vec<Table> {
    assert_eq!(
        cold.digest, resumed.digest,
        "resumed-from-snapshot sweep diverged from the cold sweep"
    );
    assert_eq!(cold.jobs, resumed.jobs, "sweeps scheduled different jobs");
    assert!(
        resumed.exact_hit_rate() >= 0.9,
        "resumed sweep exact-hit rate {:.1}% is below the 90% floor ({} / {} lookups; \
         every round of the sweep is a lookup)",
        resumed.exact_hit_rate() * 100.0,
        resumed.exact_hits,
        resumed.lookups,
    );
    let mut table = Table::new(
        "Fig. 19 — durable warm state: cold sweep vs resumed-from-snapshot sweep",
        &[
            "mode",
            "jobs",
            "cache entries",
            "exact hits",
            "lookups",
            "exact-hit rate",
            "mean decision (ms)",
            "sweep wall (ms)",
            "digest",
        ],
    );
    for run in [cold, resumed] {
        table.row(&[
            run.label.clone(),
            run.jobs.to_string(),
            run.cache_entries.to_string(),
            run.exact_hits.to_string(),
            run.lookups.to_string(),
            format!("{:.0}%", run.exact_hit_rate() * 100.0),
            fmt2(run.mean_decision_ms),
            fmt2(run.wall_ms),
            format!("{:016x}", run.digest),
        ]);
    }
    vec![table]
}

/// Fig. 19 in one process: cold sweep, snapshot save, warm-load into a
/// brand-new campaign, re-sweep. The `fig19_persist` binary runs the
/// resumed half in a *spawned* process instead — same functions, with the
/// snapshot file as the only shared state.
pub fn fig19_persist(scenario: &Scenario) -> Vec<Table> {
    let dir = std::env::temp_dir().join(format!("ww-fig19-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fig19 scratch dir");
    let cache_path = dir.join("cache.snapshot");
    let _ = std::fs::remove_file(&cache_path);
    let cold = fig19_cold(scenario, &cache_path);
    let resumed = fig19_resumed(scenario, &cache_path);
    let tables = fig19_tables(&cold, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            days: 0.02,
            seed: 7,
        }
    }

    #[test]
    fn fig01_lists_all_nine_sources() {
        let tables = fig01_energy_sources();
        assert_eq!(tables[0].len(), 9);
    }

    #[test]
    fn fig02_orders_regions_by_carbon() {
        let tables = fig02_regional_factors(tiny());
        assert_eq!(tables[0].len(), 5);
        assert_eq!(tables[1].len(), 2);
    }

    #[test]
    fn fig10_produces_three_rows() {
        let tables = fig10_loadbalancers(tiny());
        assert_eq!(tables[0].len(), 3);
    }

    #[test]
    fn table3_has_four_destinations() {
        let tables = table3_comm_overhead(tiny());
        assert_eq!(tables[0].len(), 4);
        // Overhead must be well under 5% of the execution footprint.
        let rendered = tables[0].render();
        assert!(!rendered.contains("inf"));
    }

    #[test]
    fn fig15_first_sweep_costs_the_same_and_the_rerun_replays() {
        const FIRST_SWEEP_REPEATS: usize = 125;
        let tables = fig15_solcache(tiny());
        let table = &tables[0];
        assert_eq!(table.len(), 6, "four hinted rows plus two cold rows");
        assert_eq!(table.cell(0, 0), "off");
        assert_eq!(table.cell(0, 5), "0", "off mode must not touch a cache");
        // One campaign never meets a model twice: a cache of its own costs
        // the same solver work as none.
        assert_eq!(table.cell(1, 3), table.cell(0, 3), "per-campaign solves");
        assert_eq!(table.cell(1, 4), table.cell(0, 4), "per-campaign pivots");
        assert_eq!(table.cell(1, 6), "0", "per-campaign hits");
        // Cells of equal λ do (the tolerance is in the model only as fixed
        // arcs, so a tolerance that excludes nothing leaves no trace): a
        // shared first sweep replays instead of solving, lookup for lookup.
        let count = |row: usize, col: usize| table.cell(row, col).parse::<usize>().unwrap();
        for (shared, off) in [(2, 0), (5, 4)] {
            assert_eq!(
                count(shared, 3) + count(shared, 6),
                count(off, 3),
                "row {shared}: every lookup is a solve or a replay of a sibling cell's"
            );
        }
        // FIRST_SWEEP_REPEATS lookups meet a model a sibling cell built too;
        // a parallel sweep replays all of them unless two workers reach one
        // at the same instant (then both solve it). Pinned on the cold rows:
        // with hints only rounds with tied optima become a model, and at this
        // scale (280 servers a region, half an hour of trace) there is none —
        // the hinted rows used to solve and look up each round, now they have
        // nothing to replay.
        assert!(
            (1..=FIRST_SWEEP_REPEATS).contains(&count(5, 6)),
            "row 5: {} first-sweep hits",
            count(5, 6)
        );
        assert_eq!(count(0, 3), 0, "a hinted round reached the solver");
        assert_ne!(count(4, 3), 0, "without hints every round is a solve");
        // The re-run meets a cache holding every model of the sweep (the
        // tiny scale evicts nothing): all lookups replay, nothing is solved.
        // (With lookups to replay: `solution_cache_modes_are_byte_identical_
        // across_a_matrix_and_hit`, on 40-server regions that do bind.)
        assert_eq!(table.cell(3, 0), "shared, re-run");
        assert_eq!(table.cell(2, 8), "0", "the tiny sweep must fit the cache");
        assert_eq!(table.cell(3, 3), "0", "a replayed sweep solves nothing");
        assert_eq!(table.cell(3, 6), table.cell(3, 5), "every lookup is a hit");
        assert_eq!(
            table.cell(3, 5),
            table.cell(2, 5),
            "the re-run meets the sweep's models"
        );
    }

    #[test]
    fn scale_from_env_defaults() {
        let scale = ExperimentScale::default();
        assert!(scale.days > 0.0);
        assert!(scale.alibaba_days() > 0.0);
    }
}
