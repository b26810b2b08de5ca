//! Every settable value of a scenario, declared once.
//!
//! [`KEYS`] is the whole configuration surface: one [`Key`] row per spec
//! key, in canonical order. A row names its `[section]` and key, the
//! `WATERWISE_*` variable that may override it, and the grammar and meaning
//! `docs/SCENARIOS.md` prints, and it carries two functions: `set` checks a
//! value against the key's grammar and range and applies it to a
//! [`Scenario`], and `render` writes the value back in canonical form. A
//! refused value is reported against the row's grammar, so the docs and
//! the errors say the same thing.
//!
//! The spec parser ([`super::parse_spec`]), the canonical renderer
//! ([`super::Scenario::to_spec`]), the environment overrides
//! ([`super::Scenario::apply_env`]) and the key tables of
//! `docs/SCENARIOS.md` all work from these rows, so adding a setting is
//! adding a row.
//!
//! A spec's values apply in table order onto
//! [`super::Scenario::paper_default`]. Each row writes only its own fields,
//! except `days` and `seed`, which re-derive the telemetry horizon and seed
//! that the later `[telemetry]` rows may override. (`regions` filters the
//! regions and `servers_per_region` sizes them; the two commute.)

use super::Scenario;
use crate::experiment::Parallelism;
use std::str::FromStr;
use waterwise_cluster::ClockMode;
use waterwise_sustain::{EwifDataset, Seconds};
use waterwise_telemetry::Region;
use waterwise_traces::{Benchmark, TraceKind};

/// One settable value of a scenario. See the [module docs](self).
pub struct Key {
    /// The `[section]` the key lives under.
    pub section: &'static str,
    /// The key's name within its section.
    pub name: &'static str,
    /// The `WATERWISE_*` variable that overrides the key, where a program
    /// honors it (see [`super::Scenario::apply_env`]).
    pub env: Option<&'static str>,
    /// Whether every spec must set the key.
    pub required: bool,
    /// The value grammar, as the docs print it.
    pub grammar: &'static str,
    /// What the key sets, as the docs print it.
    pub doc: &'static str,
    /// Check a value's grammar and range and apply it.
    pub(super) set: fn(&mut Scenario, &str) -> Result<(), Rejection>,
    /// The key's value in canonical spec form.
    pub(super) render: fn(&Scenario) -> String,
}

/// Why a row refuses a value; the caller adds where it came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The value does not have the key's form: not a number, an unknown
    /// label, ...
    Malformed,
    /// The value has the key's form but lies outside its range.
    OutOfRange,
    /// A list entry is wrong, as the message says.
    Entry(String),
}

impl Rejection {
    /// The reason, against the key's `grammar`, without a location.
    pub fn reason(self, grammar: &str) -> String {
        match self {
            Rejection::Malformed | Rejection::OutOfRange => format!("expected {grammar}"),
            Rejection::Entry(message) => message,
        }
    }
}

/// The settable values of a scenario, in canonical order. See the
/// [module docs](self).
pub const KEYS: &[Key] = &[
    Key {
        section: "scenario",
        name: "name",
        env: None,
        required: true,
        grammar: "ASCII letters/digits/`-`/`_`",
        doc: "Scenario identity; names the snapshot file.",
        set: |s, v| scenario_name(v).map(|name| s.name = name),
        render: |s| s.name.clone(),
    },
    Key {
        section: "scenario",
        name: "seed",
        env: Some("WATERWISE_SEED"),
        required: true,
        grammar: "u64",
        doc: "Campaign seed — trace *and* (unless `[telemetry] seed` overrides it) telemetry.",
        set: |s, v| parsed(v).map(|seed| s.set_seed(seed)),
        render: |s| s.seed.to_string(),
    },
    Key {
        section: "trace",
        name: "kind",
        env: None,
        required: false,
        grammar: "`borg` | `alibaba`",
        doc: "Arrival-process family (default `borg`).",
        set: |s, v| choice(v, KINDS).map(|kind| s.config.trace.kind = kind),
        render: |s| label(KINDS, s.config.trace.kind),
    },
    Key {
        section: "trace",
        name: "days",
        env: Some("WATERWISE_DAYS"),
        required: true,
        grammar: "float > 0",
        doc: "Trace length in days; re-derives the telemetry horizon.",
        set: |s, v| float(v, |d| d > 0.0).map(|days| s.set_days(days)),
        render: |s| format!("{:?}", s.days),
    },
    Key {
        section: "trace",
        name: "rate_multiplier",
        env: None,
        required: false,
        grammar: "float > 0",
        doc: "Scales the arrival rate.",
        set: |s, v| float(v, |r| r > 0.0).map(|r| s.config.trace.rate_multiplier = r),
        render: |s| format!("{:?}", s.config.trace.rate_multiplier),
    },
    Key {
        section: "trace",
        name: "benchmarks",
        env: None,
        required: false,
        grammar: "comma list of Table-1 names",
        doc: "Restrict the workload mix, e.g. `dedup, canneal, web-serving` (duplicates \
              rejected).",
        set: |s, v| {
            list(v, Benchmark::from_name, "benchmark").map(|b| s.config.trace.benchmarks = b)
        },
        render: |s| join(s.config.trace.benchmarks.iter().map(|b| b.name())),
    },
    Key {
        section: "trace",
        name: "regions",
        env: None,
        required: false,
        grammar: "comma list of region names",
        doc: "Restrict the cluster, e.g. `Zurich, Oregon, Mumbai` (duplicates rejected).",
        set: |s, v| {
            let regions = list(v, Region::from_name, "region")?;
            s.config = s.config.clone().with_regions(&regions);
            Ok(())
        },
        render: |s| join(s.config.simulation.regions.iter().map(|(r, _)| r.name())),
    },
    Key {
        section: "simulation",
        name: "servers_per_region",
        env: Some("WATERWISE_SERVERS"),
        required: false,
        grammar: "integer ≥ 1",
        doc: "Uniform region capacity.",
        set: |s, v| {
            s.config = s.config.clone().with_servers_per_region(count(v)?);
            Ok(())
        },
        render: |s| {
            s.config
                .simulation
                .regions
                .first()
                .map_or(0, |(_, n)| *n)
                .to_string()
        },
    },
    Key {
        section: "simulation",
        name: "delay_tolerance",
        env: Some("WATERWISE_TOLERANCE"),
        required: false,
        grammar: "float ≥ 0",
        doc: "Deadline slack as a fraction of execution time.",
        set: |s, v| float(v, |t| t >= 0.0).map(|t| s.config.simulation.delay_tolerance = t),
        render: |s| format!("{:?}", s.config.simulation.delay_tolerance),
    },
    // Positivity is left to `SimulationConfig::validate`, so a non-positive
    // interval surfaces as the typed cluster `ConfigError` (as does a
    // non-positive `embodied_perturbation`).
    Key {
        section: "simulation",
        name: "scheduling_interval_s",
        env: None,
        required: false,
        grammar: "float > 0",
        doc: "Slot length in simulated seconds.",
        set: |s, v| {
            let interval = Seconds::new(float(v, |_| true)?);
            s.config.simulation.scheduling_interval = interval;
            Ok(())
        },
        render: |s| format!("{:?}", s.config.simulation.scheduling_interval.value()),
    },
    Key {
        section: "simulation",
        name: "clock",
        env: Some("WATERWISE_CLOCK"),
        required: false,
        grammar: "`discrete` | `real-time:S` (S > 0)",
        doc: "Clock of the online service (`ClockMode`; alias `realtime:S`); offline campaigns \
              are always discrete.",
        set: |s, v| clock(v).map(|clock| s.clock = clock),
        render: |s| match s.clock {
            ClockMode::Discrete => "discrete".to_string(),
            ClockMode::RealTime { scale } => format!("real-time:{scale:?}"),
        },
    },
    Key {
        section: "simulation",
        name: "embodied_perturbation",
        env: None,
        required: false,
        grammar: "float > 0",
        doc: "Embodied-footprint sensitivity factor.",
        set: |s, v| float(v, |_| true).map(|f| s.config.simulation.embodied_perturbation = f),
        render: |s| format!("{:?}", s.config.simulation.embodied_perturbation),
    },
    Key {
        section: "telemetry",
        name: "dataset",
        env: None,
        required: false,
        grammar: "`primary` | `wri`",
        doc: "EWIF dataset (aliases: `electricity-maps`, `world-resources-institute`).",
        set: |s, v| choice(v, DATASETS).map(|d| s.config.telemetry.dataset = d),
        render: |s| label(DATASETS, s.config.telemetry.dataset),
    },
    Key {
        section: "telemetry",
        name: "horizon_days",
        env: None,
        required: false,
        grammar: "integer ≥ 1",
        doc: "Synthetic-telemetry horizon (tracks `days` otherwise).",
        set: |s, v| count(v).map(|days| s.config.telemetry.horizon_days = days),
        render: |s| s.config.telemetry.horizon_days.to_string(),
    },
    Key {
        section: "telemetry",
        name: "seed",
        env: None,
        required: false,
        grammar: "u64",
        doc: "Telemetry-only seed, decoupled from the campaign seed.",
        set: |s, v| parsed(v).map(|seed| s.config.telemetry.seed = seed),
        render: |s| s.config.telemetry.seed.to_string(),
    },
    Key {
        section: "objective",
        name: "lambda_co2",
        env: None,
        required: false,
        grammar: "float in [0, 1]",
        doc: "Carbon weight λ; the water weight is `1 − λ`.",
        set: |s, v| {
            let weights = &mut s.config.waterwise.weights;
            *weights = weights.with_carbon_weight(float(v, |l| (0.0..=1.0).contains(&l))?);
            Ok(())
        },
        render: |s| format!("{:?}", s.config.waterwise.weights.lambda_co2),
    },
    Key {
        section: "objective",
        name: "lambda_ref",
        env: None,
        required: false,
        grammar: "float ≥ 0",
        doc: "Deferral-regularization weight.",
        set: |s, v| float(v, |l| l >= 0.0).map(|l| s.config.waterwise.weights.lambda_ref = l),
        render: |s| format!("{:?}", s.config.waterwise.weights.lambda_ref),
    },
    Key {
        section: "waterwise",
        name: "warm_start",
        env: None,
        required: false,
        grammar: "`true` | `false`",
        doc: "`true` (default): each round starts from the greedy placement, which certified \
              rounds commit and the transportation kernel otherwise decides; `false`: every round \
              solves the MILP cold (the all-MILP reference, the same schedule).",
        set: |s, v| parsed(v).map(|warm| s.config.waterwise.warm_start = warm),
        render: |s| s.config.waterwise.warm_start.to_string(),
    },
    Key {
        section: "waterwise",
        name: "horizon",
        env: None,
        required: false,
        grammar: "`capacity` | integer ≥ 1",
        doc: "Sliding-window cap on jobs per solve.",
        set: |s, v| horizon(v).map(|h| s.config.waterwise.horizon = h),
        render: |s| {
            s.config
                .waterwise
                .horizon
                .map_or("capacity".to_string(), |h| h.to_string())
        },
    },
    Key {
        section: "waterwise",
        name: "history_window_hours",
        env: None,
        required: false,
        grammar: "integer ≥ 1",
        doc: "Telemetry history fed to the estimator.",
        set: |s, v| count(v).map(|h| s.config.waterwise.history_window_hours = h),
        render: |s| s.config.waterwise.history_window_hours.to_string(),
    },
    Key {
        section: "waterwise",
        name: "soft_penalty",
        env: None,
        required: false,
        grammar: "float > 0",
        doc: "Relaxation penalty σ for the soft fallback.",
        set: |s, v| float(v, |x| x > 0.0).map(|x| s.config.waterwise.soft_penalty = x),
        render: |s| format!("{:?}", s.config.waterwise.soft_penalty),
    },
    Key {
        section: "campaign",
        name: "parallelism",
        env: None,
        required: false,
        grammar: "`serial` | `auto` | `threads:N` (N ≥ 1)",
        doc: "`run_all`/`run_matrix` campaign parallelism.",
        set: |s, v| {
            use Parallelism::{Auto, Serial, Threads};
            s.config.parallelism = match v.strip_prefix("threads:") {
                Some(n) => Threads(count(n)?),
                None => choice(v, &[("serial", Serial), ("auto", Auto)])?,
            };
            Ok(())
        },
        render: |s| match s.config.parallelism {
            Parallelism::Serial => "serial".to_string(),
            Parallelism::Auto => "auto".to_string(),
            Parallelism::Threads(n) => format!("threads:{n}"),
        },
    },
    Key {
        section: "campaign",
        name: "estimate_carbon_error",
        env: None,
        required: false,
        grammar: "float > 0",
        doc: "Factor on the scheduler's view of carbon intensity (1 = accurate; the ±10 % study \
              uses 0.9 and 1.1).",
        set: |s, v| float(v, |f| f > 0.0).map(|f| s.config.estimate_carbon_error = f),
        render: |s| format!("{:?}", s.config.estimate_carbon_error),
    },
    Key {
        section: "campaign",
        name: "estimate_water_error",
        env: None,
        required: false,
        grammar: "float > 0",
        doc: "Factor on the scheduler's view of water intensity (EWIF and WUE), as \
              `estimate_carbon_error`.",
        set: |s, v| float(v, |f| f > 0.0).map(|f| s.config.estimate_water_error = f),
        render: |s| format!("{:?}", s.config.estimate_water_error),
    },
];

/// The trace kinds by label.
const KINDS: &[(&str, TraceKind)] = &[
    ("borg", TraceKind::BorgLike),
    ("alibaba", TraceKind::AlibabaLike),
];

/// The EWIF datasets by label, each canonical label before its alias.
const DATASETS: &[(&str, EwifDataset)] = &[
    ("primary", EwifDataset::Primary),
    ("electricity-maps", EwifDataset::Primary),
    ("wri", EwifDataset::WorldResourcesInstitute),
    (
        "world-resources-institute",
        EwifDataset::WorldResourcesInstitute,
    ),
];

/// A finite float that satisfies `ok`.
fn float(value: &str, ok: fn(f64) -> bool) -> Result<f64, Rejection> {
    let number: f64 = value.parse().map_err(|_| Rejection::Malformed)?;
    if number.is_finite() && ok(number) {
        Ok(number)
    } else {
        Err(Rejection::OutOfRange)
    }
}

/// A value of `T`'s own `FromStr` form: an unsigned integer, `true`/`false`,
/// a path.
pub fn parsed<T: FromStr>(value: &str) -> Result<T, Rejection> {
    value.parse().map_err(|_| Rejection::Malformed)
}

/// An unsigned integer other than 0.
pub fn count(value: &str) -> Result<usize, Rejection> {
    match parsed(value)? {
        0 => Err(Rejection::OutOfRange),
        n => Ok(n),
    }
}

/// `capacity` (no window), or a window of at least one job.
fn horizon(value: &str) -> Result<Option<usize>, Rejection> {
    if value == "capacity" {
        return Ok(None);
    }
    count(value).map(Some)
}

/// The value the label `value` names among `choices`.
pub fn choice<T: Copy>(value: &str, choices: &[(&str, T)]) -> Result<T, Rejection> {
    let found = choices.iter().find(|(name, _)| *name == value);
    found.map(|&(_, choice)| choice).ok_or(Rejection::Malformed)
}

/// The first label of `value` among `labels`: its canonical one.
fn label<T: PartialEq>(labels: &[(&str, T)], value: T) -> String {
    let found = labels.iter().find(|(_, v)| *v == value);
    found.map_or_else(String::new, |(name, _)| name.to_string())
}

fn join<'a>(names: impl Iterator<Item = &'a str>) -> String {
    names.collect::<Vec<_>>().join(", ")
}

fn scenario_name(value: &str) -> Result<String, Rejection> {
    let valid = value
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if valid && !value.is_empty() {
        Ok(value.to_string())
    } else {
        Err(Rejection::Malformed)
    }
}

/// `discrete`, or `real-time:<scale>` (alias `realtime:`) with a finite,
/// positive scale.
fn clock(value: &str) -> Result<ClockMode, Rejection> {
    let scale = value
        .strip_prefix("real-time:")
        .or_else(|| value.strip_prefix("realtime:"));
    match scale {
        Some(scale) => Ok(ClockMode::RealTime {
            scale: float(scale, |s| s > 0.0)?,
        }),
        None => choice(value, &[("discrete", ClockMode::Discrete)]),
    }
}

/// A comma list of distinct names, each resolved by `from_name`.
fn list<T: PartialEq>(
    value: &str,
    from_name: fn(&str) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, Rejection> {
    let mut items = Vec::new();
    for name in value.split(',').map(str::trim) {
        if name.is_empty() {
            let message = "empty list entry (trailing or doubled comma?)";
            return Err(Rejection::Entry(message.to_string()));
        }
        let item =
            from_name(name).ok_or_else(|| Rejection::Entry(format!("unknown {what} `{name}`")))?;
        if items.contains(&item) {
            return Err(Rejection::Entry(format!("duplicate {what} `{name}`")));
        }
        items.push(item);
    }
    Ok(items)
}
