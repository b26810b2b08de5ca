//! One function per paper table/figure. Every function returns the tables it
//! prints so that integration tests can assert on the numbers.

use crate::table::{fmt2, pct, Table};
use std::path::{Path, PathBuf};
use waterwise_core::{
    Campaign, CampaignConfig, ObjectiveWeights, Parallelism, Scenario, ScenarioError, SchedulerKind,
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
    /// Read the scale from the environment. A variable that is set but does
    /// not parse exits the process with status 2, naming it and its value.
    pub fn from_env() -> Self {
        let defaults = Self::default();
        let (days, seed) = env_scale();
        Self {
            days: days.unwrap_or(defaults.days).max(0.01),
            seed: seed.unwrap_or(defaults.seed),
        }
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

/// The `WATERWISE_DAYS` / `WATERWISE_SEED` overrides, `None` where unset.
/// A variable that is set but does not parse is a startup error: the process
/// exits with status 2 naming the variable and its value, rather than
/// silently running the full-scale suite.
fn env_scale() -> (Option<f64>, Option<u64>) {
    fn env_opt<T: std::str::FromStr>(key: &str) -> Option<T> {
        let raw = std::env::var_os(key)?;
        match raw.to_str().and_then(|value| value.parse().ok()) {
            Some(value) => Some(value),
            None => {
                eprintln!("invalid {key}: cannot parse {raw:?}");
                std::process::exit(2);
            }
        }
    }
    (env_opt("WATERWISE_DAYS"), env_opt("WATERWISE_SEED"))
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
/// scenario; unset variables leave the spec untouched, and one that is set
/// but does not parse exits the process with status 2.
pub fn apply_env_scale(mut scenario: Scenario) -> Scenario {
    let (days, seed) = env_scale();
    if let Some(days) = days {
        scenario = scenario.with_days(days);
    }
    if let Some(seed) = seed {
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
/// `WATERWISE_SCENARIO` from the environment. A trailing `--scenario` with no
/// path exits 2.
fn scenario_cli_path() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scenario" {
            let Some(path) = args.next() else {
                eprintln!("--scenario needs a path");
                std::process::exit(2);
            };
            return Some(PathBuf::from(path));
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
/// the journal stop→resume scenario.
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
    fn scale_from_env_defaults() {
        let scale = ExperimentScale::default();
        assert!(scale.days > 0.0);
        assert!(scale.alibaba_days() > 0.0);
    }
}
