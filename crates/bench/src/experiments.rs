//! One function per paper table/figure. Every function takes the
//! [`Scenario`] it runs at and returns the tables it prints, so that the
//! claims of [`crate::figures::FIGURES`] are checked on the printed numbers.

use crate::table::{fmt2, pct, Table};
use std::path::PathBuf;
use waterwise_core::scenario::default_spec_path;
use waterwise_core::{
    Campaign, CampaignConfig, ObjectiveWeights, Parallelism, Scenario, SchedulerKind,
};
use waterwise_sustain::{EwifDataset, FootprintEstimator, Seconds};
use waterwise_telemetry::{
    ConditionsProvider, Region, SyntheticTelemetry, TelemetryConfig, ALL_REGIONS,
};
use waterwise_traces::ALL_BENCHMARKS;

/// The spec-key overrides the `figures` binary honors: `WATERWISE_DAYS` and
/// `WATERWISE_SEED` rescale every campaign (see
/// [`Scenario::apply_env`]).
pub const SCALE_OVERRIDES: [&str; 2] = ["WATERWISE_DAYS", "WATERWISE_SEED"];

/// Print a set of tables.
pub fn print_tables(tables: &[Table]) {
    for t in tables {
        t.print();
    }
}

/// Path of the named scenario's spec file: `<name>.spec` under
/// `WATERWISE_SCENARIO_DIR`, else under the workspace `scenarios/`
/// directory.
pub fn scenario_spec_path(name: &str) -> PathBuf {
    default_spec_path(name).unwrap_or_else(|err| err.exit())
}

/// Validate the named spec files, returning the first failure as a
/// ready-to-print `file:line: message` string.
pub fn validate_scenarios(names: &[&str]) -> Result<(), String> {
    for name in names {
        let path = scenario_spec_path(name);
        if let Err(err) = waterwise_core::load_spec(&path) {
            return Err(err.located(path.display()));
        }
    }
    Ok(())
}

/// The golden-snapshotted scenarios: the specs of the figures that have one,
/// in figure order, plus the multi-session host scenario pinned over live
/// TCP and the journal stop→resume scenario.
pub const SCENARIO_NAMES: [&str; 7] = [
    "fig05",
    "fig08",
    "fig14",
    "fig17",
    "history",
    "server_multi",
    "server_resume",
];

/// The delay tolerances of Figs. 5, 6, 9 and Table 2.
const TOLERANCES: [f64; 4] = [0.25, 0.50, 0.75, 1.00];

/// WaterWise and the two greedy oracles it is weighed against.
const ORACLES_AND_WATERWISE: [SchedulerKind; 3] = [
    SchedulerKind::CarbonGreedyOpt,
    SchedulerKind::WaterGreedyOpt,
    SchedulerKind::WaterWise,
];

fn tolerance_label(t: f64) -> String {
    format!("{:.0}%", t * 100.0)
}

/// `scenario`'s campaign at delay tolerance `tolerance`.
fn at_tolerance(scenario: &Scenario, tolerance: f64) -> CampaignConfig {
    scenario.config.clone().with_delay_tolerance(tolerance)
}

/// `scenario`'s campaign on the Alibaba-like trace at delay tolerance
/// `tolerance`. That trace carries ~8.5× the jobs, so it runs a quarter of
/// the scenario's days (at least 0.02) to finish in comparable time.
fn alibaba_at_tolerance(scenario: &Scenario, tolerance: f64) -> CampaignConfig {
    let days = (scenario.days / 4.0).max(0.02);
    scenario
        .clone()
        .with_days(days)
        .config
        .with_alibaba_trace(days, scenario.seed)
        .with_delay_tolerance(tolerance)
}

/// A savings table: each cell is a row label (the `keys` columns) and a
/// campaign. Every cell runs the baseline plus `kinds`, all cells
/// concurrently ([`Campaign::savings_matrix`]), and each scheduler gets a
/// row of its carbon and water savings over its cell's baseline — with a
/// `scheduler` column when `kinds` has more than one.
fn savings_table(
    title: &str,
    keys: &[&str],
    cells: Vec<(Vec<String>, CampaignConfig)>,
    kinds: &[SchedulerKind],
) -> Table {
    let named = kinds.len() > 1;
    let mut header = keys.to_vec();
    header.extend(named.then_some("scheduler"));
    header.extend(["carbon saving", "water saving"]);
    let mut table = Table::new(title, &header);
    let (labels, configs): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
    let matrix =
        Campaign::savings_matrix(&configs, kinds, Parallelism::Auto).expect("campaign must run");
    for (label, rows) in labels.iter().zip(matrix) {
        for (kind, carbon, water) in rows {
            let mut row = label.clone();
            row.extend(named.then(|| kind.label().to_string()));
            row.extend([pct(carbon), pct(water)]);
            table.row(&row);
        }
    }
    table
}

/// A [`savings_table`] with one cell per delay tolerance.
fn tolerance_sweep(
    title: &str,
    tolerances: &[f64],
    config: impl Fn(f64) -> CampaignConfig,
    kinds: &[SchedulerKind],
) -> Table {
    let cells = tolerances
        .iter()
        .map(|&tol| (vec![tolerance_label(tol)], config(tol)))
        .collect();
    savings_table(title, &["delay tolerance"], cells, kinds)
}

/// Fig. 1: carbon intensity and water requirement (EWIF) per energy source.
pub fn fig01_energy_sources(_scenario: &Scenario) -> Vec<Table> {
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

/// Fig. 2: regional averages of carbon intensity, EWIF, WUE, WSF (a–d) and
/// the temporal variation of carbon/water intensity in Oregon (e).
pub fn fig02_regional_factors(scenario: &Scenario) -> Vec<Table> {
    let telemetry = SyntheticTelemetry::generate(TelemetryConfig {
        seed: scenario.seed,
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

/// Fig. 3: (a) savings of the greedy-optimal single-objective schemes across
/// delay tolerances; (b) job distribution across regions at 10% tolerance.
pub fn fig03_greedy_opportunity(scenario: &Scenario) -> Vec<Table> {
    let oracles = &ORACLES_AND_WATERWISE[..2];
    let savings = tolerance_sweep(
        "Fig. 3(a) — Carbon/Water-Greedy-Opt savings vs delay tolerance",
        &[0.01, 0.10, 1.00, 10.0],
        |tol| at_tolerance(scenario, tol),
        oracles,
    );
    let mut distribution = Table::new(
        "Fig. 3(b) — job distribution across regions (10% delay tolerance)",
        &["scheduler", "Zurich", "Madrid", "Oregon", "Milan", "Mumbai"],
    );
    let outcomes = Campaign::new(at_tolerance(scenario, 0.10))
        .run_all(oracles)
        .expect("campaign must run");
    for outcome in outcomes {
        let dist = outcome.summary.region_distribution();
        let mut cells = vec![outcome.kind.label().to_string()];
        cells.extend(dist.iter().map(|f| pct(f * 100.0)));
        distribution.row(&cells);
    }
    vec![savings, distribution]
}

/// Fig. 5: carbon and water savings of WaterWise and the greedy oracles over
/// the baseline, for delay tolerances 25–100%, on the Borg-like trace.
///
/// The workload comes from `scenarios/fig05.spec`; the sweep re-runs the
/// scenario at each delay tolerance.
pub fn fig05_waterwise_google(scenario: &Scenario) -> Vec<Table> {
    vec![tolerance_sweep(
        "Fig. 5 — savings vs baseline (Borg-like trace, Electricity-Maps-style data)",
        &TOLERANCES,
        |tol| at_tolerance(scenario, tol),
        &ORACLES_AND_WATERWISE,
    )]
}

/// Fig. 6: the same comparison with the WRI-style per-source water dataset.
/// WaterWise still saves on both axes.
pub fn fig06_wri_dataset(scenario: &Scenario) -> Vec<Table> {
    vec![tolerance_sweep(
        "Fig. 6 — savings vs baseline (WRI-style water dataset)",
        &TOLERANCES,
        |tol| {
            let mut config = at_tolerance(scenario, tol);
            config.telemetry.dataset = EwifDataset::WorldResourcesInstitute;
            config
        },
        &ORACLES_AND_WATERWISE,
    )]
}

/// Fig. 7: WaterWise vs the Ecovisor-style carbon-only comparator under both
/// water datasets.
pub fn fig07_ecovisor(scenario: &Scenario) -> Vec<Table> {
    let cells = [
        ("electricity-maps", EwifDataset::Primary),
        ("wri", EwifDataset::WorldResourcesInstitute),
    ]
    .map(|(label, dataset)| {
        let mut config = at_tolerance(scenario, 0.5);
        config.telemetry.dataset = dataset;
        (vec![label.to_string()], config)
    });
    vec![savings_table(
        "Fig. 7 — Ecovisor vs WaterWise (savings vs baseline, 50% tolerance)",
        &["dataset"],
        cells.into(),
        &[SchedulerKind::Ecovisor, SchedulerKind::WaterWise],
    )]
}

/// Fig. 8: WaterWise savings when λ_CO2 is 0.3 / 0.5 / 0.7 (50% tolerance).
///
/// The workload comes from `scenarios/fig08.spec`; the sweep re-weights the
/// scenario's objective at each λ_CO2.
pub fn fig08_weight_sensitivity(scenario: &Scenario) -> Vec<Table> {
    let cells = [0.3, 0.5, 0.7].map(|lambda: f64| {
        let weights = ObjectiveWeights::paper_default().with_carbon_weight(lambda);
        (
            vec![format!("{lambda:.1}")],
            scenario.config.clone().with_weights(weights),
        )
    });
    vec![savings_table(
        "Fig. 8 — weight sensitivity (50% delay tolerance)",
        &["lambda_co2"],
        cells.into(),
        &[SchedulerKind::WaterWise],
    )]
}

/// Fig. 9: the Fig. 5 comparison repeated with the Alibaba-like trace, on a
/// quarter of the scenario's days. WaterWise still saves on both axes.
pub fn fig09_alibaba(scenario: &Scenario) -> Vec<Table> {
    vec![tolerance_sweep(
        "Fig. 9 — savings vs baseline (Alibaba-like trace)",
        &TOLERANCES,
        |tol| alibaba_at_tolerance(scenario, tol),
        &ORACLES_AND_WATERWISE,
    )]
}

/// Fig. 10: WaterWise vs Round-Robin and Least-Load (50% tolerance).
pub fn fig10_loadbalancers(scenario: &Scenario) -> Vec<Table> {
    vec![savings_table(
        "Fig. 10 — savings vs baseline of load balancers and WaterWise",
        &[],
        vec![(Vec::new(), at_tolerance(scenario, 0.5))],
        &[
            SchedulerKind::RoundRobin,
            SchedulerKind::LeastLoad,
            SchedulerKind::WaterWise,
        ],
    )]
}

/// Fig. 11: savings as the average utilization rises (obtained by cutting
/// the number of servers per region); WaterWise saves on both axes at every
/// level. Each row prints the mean utilization its campaign measured: at
/// 0.25 days, seed 42, 2.4 % / 7.3 % / 12.1 % at 840 / 280 / 168 servers, so
/// capacity binds only in the last level (ROADMAP item 9 retunes them).
pub fn fig11_utilization(scenario: &Scenario) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 11 — utilization sensitivity (50% delay tolerance)",
        &[
            "servers/region",
            "mean util",
            "scheduler",
            "carbon saving",
            "water saving",
        ],
    );
    let servers = [840usize, 280, 168];
    let configs: Vec<CampaignConfig> = servers
        .iter()
        .map(|&servers| at_tolerance(scenario, 0.5).with_servers_per_region(servers))
        .collect();
    let mut kinds = vec![SchedulerKind::Baseline];
    kinds.extend(ORACLES_AND_WATERWISE);
    let matrix =
        Campaign::run_matrix(&configs, &kinds, Parallelism::Auto).expect("campaign must run");
    for (&servers, row) in servers.iter().zip(&matrix) {
        let (baseline, others) = row.split_first().expect("the baseline runs first");
        for outcome in others {
            table.row(&[
                servers.to_string(),
                pct(outcome.summary.mean_utilization * 100.0),
                outcome.kind.label().to_string(),
                pct(outcome.carbon_saving_vs(baseline)),
                pct(outcome.water_saving_vs(baseline)),
            ]);
        }
    }
    vec![table]
}

/// Fig. 12: WaterWise savings when only a subset of regions is available.
pub fn fig12_region_availability(scenario: &Scenario) -> Vec<Table> {
    use Region::{Madrid, Milan, Mumbai, Oregon, Zurich};
    let subsets: [&[Region]; 3] = [
        &[Zurich, Madrid, Oregon, Milan],
        &[Zurich, Milan, Mumbai],
        &[Zurich, Oregon],
    ];
    let cells = subsets.map(|regions| {
        let names: Vec<&str> = regions.iter().map(|r| r.name()).collect();
        let config = at_tolerance(scenario, 0.5).with_regions(regions);
        (vec![names.join("-")], config)
    });
    vec![savings_table(
        "Fig. 12 — sensitivity to region availability (50% tolerance)",
        &["available regions"],
        cells.into(),
        &[SchedulerKind::WaterWise],
    )]
}

/// Which of `bins` equal windows of `width` from `start` holds `time`:
/// window `b` is `[start + b·width, start + (b+1)·width)`, except the last,
/// which also takes everything after its start — the campaign's final round
/// sits exactly at its end. Times before `start` fall in window 0.
fn overhead_window(time: f64, start: f64, width: f64, bins: usize) -> usize {
    (1..bins)
        .take_while(|&b| time >= start + b as f64 * width)
        .count()
}

/// Fig. 13: scheduler decision-making overhead over time, for the Borg-like
/// and Alibaba-like traces, expressed as a percentage of the mean job
/// execution time. A round takes microseconds, so the decision time is
/// given in µs and the percentage in scientific notation.
pub fn fig13_overhead(scenario: &Scenario) -> Vec<Table> {
    let mut table = Table::new(
        "Fig. 13 — WaterWise decision-making overhead over time",
        &[
            "trace",
            "window (min)",
            "mean decision time (µs)",
            "% of mean execution time",
        ],
    );
    for (label, config) in [
        ("google-borg", at_tolerance(scenario, 0.5)),
        ("alibaba-vm", alibaba_at_tolerance(scenario, 0.5)),
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
        // (total wall clock, rounds) per window.
        let mut windows = vec![(0.0, 0usize); bins];
        for sample in samples {
            let window = &mut windows[overhead_window(sample.sim_time.value(), start, width, bins)];
            window.0 += sample.wall_clock.value();
            window.1 += 1;
        }
        for (b, &(total, rounds)) in windows.iter().enumerate() {
            if rounds == 0 {
                continue;
            }
            let mean = total / rounds as f64;
            table.row(&[
                label.to_string(),
                format!("{:.0}", b as f64 * width / 60.0),
                fmt2(mean * 1e6),
                format!("{:.3e}%", mean / mean_exec * 100.0),
            ]);
        }
    }
    vec![table]
}

/// Table 2: average service time (normalized to execution time) and the
/// fraction of jobs violating their delay tolerance.
pub fn table2_service_time(scenario: &Scenario) -> Vec<Table> {
    let mut table = Table::new(
        "Table 2 — service time (normalized) and delay-tolerance violations",
        &[
            "delay tolerance",
            "scheduler",
            "service time (x exec)",
            "% jobs violating",
        ],
    );
    let configs = TOLERANCES.map(|tol| at_tolerance(scenario, tol));
    let mut kinds = vec![SchedulerKind::Baseline];
    kinds.extend(ORACLES_AND_WATERWISE);
    let matrix =
        Campaign::run_matrix(&configs, &kinds, Parallelism::Auto).expect("campaign must run");
    for (&tol, row) in TOLERANCES.iter().zip(&matrix) {
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

/// Table 3: average carbon/water overhead of transferring a job from Oregon
/// to each remote region, as a percentage of the execution footprint.
pub fn table3_comm_overhead(scenario: &Scenario) -> Vec<Table> {
    let telemetry = SyntheticTelemetry::with_seed(scenario.seed);
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

/// Sec. 6: ±10% error in the scheduler's carbon / water-intensity estimates
/// (50% delay tolerance).
///
/// The error is one factor on every region's estimate, and Eq. 7 divides
/// each round's carbon and water by the round's maxima, so the factor mostly
/// cancels: at 0.25 days, seed 42, every error row prints the accurate row's
/// savings (WaterWise's schedule is the same; it first moves at a (2, 0.5)
/// error). The table therefore shows invariance to a uniform error, not
/// robustness to a per-region one, which would be a new experiment
/// (ROADMAP items 9 and 14(a)).
pub fn sens_perturbation(scenario: &Scenario) -> Vec<Table> {
    let errors = [(1.0, 1.0), (1.1, 1.0), (0.9, 1.0), (1.0, 1.1), (1.0, 0.9)];
    let cells = errors.map(|(carbon_err, water_err): (f64, f64)| {
        let mut config = at_tolerance(scenario, 0.5);
        config.estimate_carbon_error = carbon_err;
        config.estimate_water_error = water_err;
        let label = |err: f64| format!("{:+.0}%", (err - 1.0) * 100.0);
        (vec![label(carbon_err), label(water_err)], config)
    });
    vec![savings_table(
        "Sensitivity — ±10% estimate error (50% delay tolerance)",
        &["carbon estimate error", "water estimate error"],
        cells.into(),
        &[SchedulerKind::WaterWise],
    )]
}

/// Sec. 6: doubling the Borg request rate (50% delay tolerance). WaterWise
/// still saves on both axes.
pub fn sens_request_rate(scenario: &Scenario) -> Vec<Table> {
    let cells = [1.0, 2.0].map(|multiplier: f64| {
        let mut config = at_tolerance(scenario, 0.5);
        config.trace = config.trace.clone().with_rate_multiplier(multiplier);
        (vec![format!("{multiplier:.1}x")], config)
    });
    vec![savings_table(
        "Sensitivity — request-rate scaling (50% delay tolerance)",
        &["rate multiplier"],
        cells.into(),
        &[SchedulerKind::WaterWise],
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_overhead_sample_lands_in_exactly_one_window() {
        // Rounds at uneven gaps from a first one to a last one, plus every
        // window boundary itself.
        let rounds: Vec<f64> = (0..400)
            .map(|i| 37.0 + f64::from(i).powf(1.3) * 61.7)
            .collect();
        let (start, end) = (rounds[0], rounds[rounds.len() - 1]);
        for bins in [1, 2, 6, 7] {
            let width = (end - start) / bins as f64;
            let lo = |b: usize| start + b as f64 * width;
            let boundaries = (0..bins).map(lo);
            let mut counts = vec![0; bins];
            for time in rounds.iter().copied().chain(boundaries) {
                let holding: Vec<usize> = (0..bins)
                    .filter(|&b| time >= lo(b) && (b + 1 == bins || time < lo(b + 1)))
                    .collect();
                assert_eq!(
                    holding,
                    [overhead_window(time, start, width, bins)],
                    "{time} s"
                );
                counts[holding[0]] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), rounds.len() + bins);
            assert_eq!(
                overhead_window(end, start, width, bins),
                bins - 1,
                "the last round"
            );
        }
    }
}
