//! The declarative scenario spec format and its strict parser.
//!
//! A *scenario* is everything a campaign run needs, written down as data: the
//! workload trace shape, the simulated cluster, synthetic telemetry,
//! objective weights, the WaterWise solver knobs, and the service clock
//! mode. Specs live in `scenarios/*.spec` at the repository root
//! and are loaded by the bench binaries (`--scenario` / `WATERWISE_SCENARIO`)
//! and by `placement_server`; see `docs/SCENARIOS.md` for the grammar and a
//! worked example.
//!
//! The format is line-based `key = value` pairs under `[section]` headers,
//! with `#` comments. Compat `serde` is a no-op, so the parser is hand-rolled
//! in the style of `waterwise_service::wire`: strict (unknown sections/keys,
//! duplicates, malformed or out-of-range values are typed errors, never
//! panics), and every error carries the offending line number so callers can
//! report `path:line: message`.

use crate::experiment::{CampaignConfig, Parallelism};
use crate::objective::ObjectiveWeights;
use std::fmt;
use std::path::Path;
use waterwise_cluster::{ClockMode, ConfigError};
use waterwise_sustain::Seconds;
use waterwise_telemetry::Region;
use waterwise_traces::{Benchmark, TraceConfig, TraceKind};

/// One parsed scenario: a named, seeded, ready-to-run [`CampaignConfig`]
/// plus the service clock mode (which only the online paths consume).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name; also names the golden snapshot file
    /// (`tests/snapshots/<name>.snap`).
    pub name: String,
    /// The campaign seed (trace and, unless overridden, telemetry).
    pub seed: u64,
    /// Trace duration in days, kept verbatim so serialization roundtrips
    /// bit-exactly (the duration in [`CampaignConfig::trace`] is derived
    /// from it).
    pub days: f64,
    /// Clock mode for the online service (`placement_server`); offline
    /// campaigns ignore it.
    pub clock: ClockMode,
    /// The assembled campaign configuration.
    pub config: CampaignConfig,
}

impl Scenario {
    /// Rescale the trace duration (the `WATERWISE_DAYS` override), keeping
    /// the derived telemetry horizon in sync exactly as
    /// [`CampaignConfig::paper_default`] would: `max(ceil(days) + 2, 3)`
    /// days. An explicit `horizon_days` from the spec is recomputed too —
    /// the override rescales the whole scenario.
    pub fn with_days(mut self, days: f64) -> Self {
        let days = days.max(0.01);
        self.days = days;
        self.config.trace.duration = Seconds::from_hours(days * 24.0);
        self.config.telemetry.horizon_days = (days.ceil() as usize + 2).max(3);
        self
    }

    /// Reseed the scenario (the `WATERWISE_SEED` override): trace and
    /// telemetry seeds both follow.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.config.trace.seed = seed;
        self.config.telemetry.seed = seed;
        self
    }

    /// Render the scenario back to canonical spec text: every key explicit,
    /// sections in fixed order, floats in shortest-roundtrip form. Parsing
    /// the result yields an identical scenario (the property the roundtrip
    /// tests pin).
    pub fn to_spec(&self) -> String {
        let c = &self.config;
        let mut out = String::with_capacity(1024);
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!(
            "# WaterWise scenario `{}` (canonical form)",
            self.name
        ));
        line("[scenario]".into());
        line(format!("name = {}", self.name));
        line(format!("seed = {}", self.seed));
        line(String::new());
        line("[trace]".into());
        line(format!(
            "kind = {}",
            match c.trace.kind {
                TraceKind::BorgLike => "borg",
                TraceKind::AlibabaLike => "alibaba",
            }
        ));
        line(format!("days = {:?}", self.days));
        line(format!("rate_multiplier = {:?}", c.trace.rate_multiplier));
        line(format!(
            "benchmarks = {}",
            c.trace
                .benchmarks
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        line(format!(
            "regions = {}",
            c.simulation
                .regions
                .iter()
                .map(|(r, _)| r.name())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        line(String::new());
        line("[simulation]".into());
        line(format!(
            "servers_per_region = {}",
            c.simulation.regions.first().map_or(0, |(_, n)| *n)
        ));
        line(format!(
            "delay_tolerance = {:?}",
            c.simulation.delay_tolerance
        ));
        line(format!(
            "scheduling_interval_s = {:?}",
            c.simulation.scheduling_interval.value()
        ));
        line(format!(
            "clock = {}",
            match self.clock {
                ClockMode::Discrete => "discrete".to_string(),
                ClockMode::RealTime { scale } => format!("real-time:{scale:?}"),
            }
        ));
        line(format!(
            "embodied_perturbation = {:?}",
            c.simulation.embodied_perturbation
        ));
        line(String::new());
        line("[telemetry]".into());
        line(format!(
            "dataset = {}",
            match c.telemetry.dataset {
                waterwise_sustain::EwifDataset::Primary => "primary",
                waterwise_sustain::EwifDataset::WorldResourcesInstitute => "wri",
            }
        ));
        line(format!("horizon_days = {}", c.telemetry.horizon_days));
        line(format!("seed = {}", c.telemetry.seed));
        line(String::new());
        line("[objective]".into());
        line(format!("lambda_co2 = {:?}", c.waterwise.weights.lambda_co2));
        line(format!("lambda_ref = {:?}", c.waterwise.weights.lambda_ref));
        line(String::new());
        line("[waterwise]".into());
        line(format!("warm_start = {}", c.waterwise.warm_start));
        line(format!(
            "horizon = {}",
            c.waterwise
                .horizon
                .map_or("capacity".to_string(), |h| h.to_string())
        ));
        line(format!(
            "history_window_hours = {}",
            c.waterwise.history_window_hours
        ));
        line(format!("soft_penalty = {:?}", c.waterwise.soft_penalty));
        line(String::new());
        line("[campaign]".into());
        line(format!(
            "parallelism = {}",
            parallelism_label(c.parallelism)
        ));
        line(format!(
            "estimate_carbon_error = {:?}",
            c.estimate_carbon_error
        ));
        line(format!(
            "estimate_water_error = {:?}",
            c.estimate_water_error
        ));
        out
    }
}

fn parallelism_label(p: Parallelism) -> String {
    match p {
        Parallelism::Serial => "serial".to_string(),
        Parallelism::Auto => "auto".to_string(),
        Parallelism::Threads(n) => format!("threads:{n}"),
    }
}

/// Any failure while reading, parsing, or validating a scenario spec.
///
/// Every parse-time variant carries the 1-based line number of the offending
/// line (see [`ScenarioError::line`]); [`ScenarioError::Config`] wraps the
/// typed [`ConfigError`] of `waterwise-cluster` for cross-field validation
/// failures detected after assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec file could not be read.
    Io {
        /// Path that failed to read.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A line is not a comment, a `[section]` header, or a `key = value`
    /// pair — or a key appeared before any section header.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A section header names no known section.
    UnknownSection {
        /// 1-based line number.
        line: usize,
        /// The unrecognized section name.
        section: String,
    },
    /// A key is not defined in its section.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// Section the key appeared in.
        section: &'static str,
        /// The unrecognized key.
        key: String,
    },
    /// The same key was assigned twice in one section.
    DuplicateKey {
        /// 1-based line number of the second assignment.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A value has the wrong form for its key (not a number, an unknown
    /// label, a malformed list, ...).
    InvalidValue {
        /// 1-based line number.
        line: usize,
        /// Key whose value is invalid.
        key: &'static str,
        /// What was wrong.
        message: String,
    },
    /// A value parsed but lies outside the key's permitted range.
    OutOfRange {
        /// 1-based line number.
        line: usize,
        /// Key whose value is out of range.
        key: &'static str,
        /// The violated bound.
        message: String,
    },
    /// A required key is absent.
    MissingKey {
        /// Section the key belongs to.
        section: &'static str,
        /// The missing key.
        key: &'static str,
    },
    /// The assembled configuration failed `waterwise-cluster` validation.
    Config(ConfigError),
}

impl ScenarioError {
    /// The 1-based source line of the error, when it has one.
    pub fn line(&self) -> Option<usize> {
        match self {
            ScenarioError::Syntax { line, .. }
            | ScenarioError::UnknownSection { line, .. }
            | ScenarioError::UnknownKey { line, .. }
            | ScenarioError::DuplicateKey { line, .. }
            | ScenarioError::InvalidValue { line, .. }
            | ScenarioError::OutOfRange { line, .. } => Some(*line),
            ScenarioError::Io { .. }
            | ScenarioError::MissingKey { .. }
            | ScenarioError::Config(_) => None,
        }
    }

    /// The error message without any location prefix.
    fn message(&self) -> String {
        match self {
            ScenarioError::Io { path, message } => {
                format!("cannot read scenario spec `{path}`: {message}")
            }
            ScenarioError::Syntax { message, .. } => message.clone(),
            ScenarioError::UnknownSection { section, .. } => {
                format!("unknown section `[{section}]`")
            }
            ScenarioError::UnknownKey { section, key, .. } => {
                format!("unknown key `{key}` in `[{section}]`")
            }
            ScenarioError::DuplicateKey { key, .. } => format!("duplicate key `{key}`"),
            ScenarioError::InvalidValue { key, message, .. } => {
                format!("invalid value for `{key}`: {message}")
            }
            ScenarioError::OutOfRange { key, message, .. } => {
                format!("value for `{key}` out of range: {message}")
            }
            ScenarioError::MissingKey { section, key } => {
                format!("missing required key `{key}` in `[{section}]`")
            }
            ScenarioError::Config(e) => format!("invalid scenario configuration: {e}"),
        }
    }

    /// Render as `path:line: message` (or `path: message` for errors without
    /// a line), the fail-fast format `run_all` prints before exiting.
    pub fn located(&self, path: impl fmt::Display) -> String {
        match self.line() {
            Some(line) => format!("{path}:{line}: {}", self.message()),
            None => format!("{path}: {}", self.message()),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line() {
            Some(line) => write!(f, "line {line}: {}", self.message()),
            None => f.write_str(&self.message()),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

/// Read and parse a scenario spec file.
pub fn load_spec(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    parse_spec(&text)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Scenario,
    Trace,
    Simulation,
    Telemetry,
    Objective,
    WaterWise,
    Campaign,
}

impl Section {
    fn name(self) -> &'static str {
        match self {
            Section::Scenario => "scenario",
            Section::Trace => "trace",
            Section::Simulation => "simulation",
            Section::Telemetry => "telemetry",
            Section::Objective => "objective",
            Section::WaterWise => "waterwise",
            Section::Campaign => "campaign",
        }
    }

    fn from_name(name: &str) -> Option<Section> {
        match name {
            "scenario" => Some(Section::Scenario),
            "trace" => Some(Section::Trace),
            "simulation" => Some(Section::Simulation),
            "telemetry" => Some(Section::Telemetry),
            "objective" => Some(Section::Objective),
            "waterwise" => Some(Section::WaterWise),
            "campaign" => Some(Section::Campaign),
            _ => None,
        }
    }
}

/// Every optional field of a spec, collected before assembly. Required keys
/// are checked in [`RawSpec::build`].
#[derive(Default)]
struct RawSpec {
    name: Option<String>,
    seed: Option<u64>,
    kind: Option<TraceKind>,
    days: Option<f64>,
    rate_multiplier: Option<f64>,
    benchmarks: Option<Vec<Benchmark>>,
    regions: Option<Vec<Region>>,
    servers_per_region: Option<usize>,
    delay_tolerance: Option<f64>,
    scheduling_interval_s: Option<f64>,
    clock: Option<ClockMode>,
    embodied_perturbation: Option<f64>,
    dataset: Option<waterwise_sustain::EwifDataset>,
    horizon_days: Option<usize>,
    telemetry_seed: Option<u64>,
    lambda_co2: Option<f64>,
    lambda_ref: Option<f64>,
    warm_start: Option<bool>,
    horizon: Option<Option<usize>>,
    history_window_hours: Option<usize>,
    soft_penalty: Option<f64>,
    campaign_parallelism: Option<Parallelism>,
    estimate_carbon_error: Option<f64>,
    estimate_water_error: Option<f64>,
}

/// Parse spec text into a [`Scenario`]. Strict: every line must be blank, a
/// comment, a known `[section]` header, or a known `key = value` pair with a
/// well-formed, in-range value; anything else is a typed [`ScenarioError`].
pub fn parse_spec(text: &str) -> Result<Scenario, ScenarioError> {
    let mut raw = RawSpec::default();
    let mut section: Option<Section> = None;
    for (idx, full_line) in text.lines().enumerate() {
        let line = idx + 1;
        // `#` starts a comment anywhere on the line; no spec value contains
        // a literal `#`.
        let content = full_line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if let Some(rest) = content.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ScenarioError::Syntax {
                    line,
                    message: format!("unterminated section header `{content}`"),
                });
            };
            let name = name.trim();
            if name.is_empty() {
                return Err(ScenarioError::Syntax {
                    line,
                    message: "empty section header `[]`".to_string(),
                });
            }
            section =
                Some(
                    Section::from_name(name).ok_or_else(|| ScenarioError::UnknownSection {
                        line,
                        section: name.to_string(),
                    })?,
                );
            continue;
        }
        let Some((key, value)) = content.split_once('=') else {
            return Err(ScenarioError::Syntax {
                line,
                message: format!("expected `key = value` or `[section]`, got `{content}`"),
            });
        };
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() {
            return Err(ScenarioError::Syntax {
                line,
                message: "empty key before `=`".to_string(),
            });
        }
        let Some(section) = section else {
            return Err(ScenarioError::Syntax {
                line,
                message: format!("key `{key}` before any `[section]` header"),
            });
        };
        set_key(&mut raw, section, key, value, line)?;
    }
    raw.build()
}

/// `Some(already_set)` → duplicate-key error; otherwise store.
fn store<T>(slot: &mut Option<T>, value: T, key: &str, line: usize) -> Result<(), ScenarioError> {
    if slot.is_some() {
        return Err(ScenarioError::DuplicateKey {
            line,
            key: key.to_string(),
        });
    }
    *slot = Some(value);
    Ok(())
}

fn set_key(
    raw: &mut RawSpec,
    section: Section,
    key: &str,
    value: &str,
    line: usize,
) -> Result<(), ScenarioError> {
    match (section, key) {
        (Section::Scenario, "name") => store(&mut raw.name, parse_name(value, line)?, key, line),
        (Section::Scenario, "seed") => {
            store(&mut raw.seed, parse_u64(value, "seed", line)?, key, line)
        }
        (Section::Trace, "kind") => store(
            &mut raw.kind,
            match value {
                "borg" => TraceKind::BorgLike,
                "alibaba" => TraceKind::AlibabaLike,
                other => {
                    return Err(ScenarioError::InvalidValue {
                        line,
                        key: "kind",
                        message: format!("unknown trace kind `{other}` (borg | alibaba)"),
                    })
                }
            },
            key,
            line,
        ),
        (Section::Trace, "days") => {
            let days = parse_f64(value, "days", line)?;
            if days <= 0.0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "days",
                    message: format!("trace duration must be positive, got {days}"),
                });
            }
            store(&mut raw.days, days, key, line)
        }
        (Section::Trace, "rate_multiplier") => {
            let rate = parse_f64(value, "rate_multiplier", line)?;
            if rate <= 0.0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "rate_multiplier",
                    message: format!("arrival-rate multiplier must be positive, got {rate}"),
                });
            }
            store(&mut raw.rate_multiplier, rate, key, line)
        }
        (Section::Trace, "benchmarks") => store(
            &mut raw.benchmarks,
            parse_benchmarks(value, line)?,
            key,
            line,
        ),
        (Section::Trace, "regions") => {
            store(&mut raw.regions, parse_regions(value, line)?, key, line)
        }
        (Section::Simulation, "servers_per_region") => {
            let servers = parse_usize(value, "servers_per_region", line)?;
            if servers == 0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "servers_per_region",
                    message: "every region needs at least one server".to_string(),
                });
            }
            store(&mut raw.servers_per_region, servers, key, line)
        }
        (Section::Simulation, "delay_tolerance") => {
            let tol = parse_f64(value, "delay_tolerance", line)?;
            if tol < 0.0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "delay_tolerance",
                    message: format!("delay tolerance cannot be negative, got {tol}"),
                });
            }
            store(&mut raw.delay_tolerance, tol, key, line)
        }
        (Section::Simulation, "scheduling_interval_s") => store(
            &mut raw.scheduling_interval_s,
            // Positivity is deliberately left to `SimulationConfig::validate`
            // so non-positive intervals surface as the typed cluster
            // `ConfigError::NonPositiveSchedulingInterval`.
            parse_f64(value, "scheduling_interval_s", line)?,
            key,
            line,
        ),
        (Section::Simulation, "clock") => {
            store(&mut raw.clock, parse_clock(value, line)?, key, line)
        }
        (Section::Simulation, "embodied_perturbation") => store(
            &mut raw.embodied_perturbation,
            // Positivity via `validate` → `ConfigError::NonPositiveEmbodiedPerturbation`.
            parse_f64(value, "embodied_perturbation", line)?,
            key,
            line,
        ),
        (Section::Telemetry, "dataset") => store(
            &mut raw.dataset,
            match value {
                "primary" | "electricity-maps" => waterwise_sustain::EwifDataset::Primary,
                "wri" | "world-resources-institute" => {
                    waterwise_sustain::EwifDataset::WorldResourcesInstitute
                }
                other => {
                    return Err(ScenarioError::InvalidValue {
                        line,
                        key: "dataset",
                        message: format!("unknown EWIF dataset `{other}` (primary | wri)"),
                    })
                }
            },
            key,
            line,
        ),
        (Section::Telemetry, "horizon_days") => {
            let days = parse_usize(value, "horizon_days", line)?;
            if days == 0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "horizon_days",
                    message: "telemetry horizon must cover at least one day".to_string(),
                });
            }
            store(&mut raw.horizon_days, days, key, line)
        }
        (Section::Telemetry, "seed") => store(
            &mut raw.telemetry_seed,
            parse_u64(value, "seed", line)?,
            key,
            line,
        ),
        (Section::Objective, "lambda_co2") => {
            let lambda = parse_f64(value, "lambda_co2", line)?;
            if !(0.0..=1.0).contains(&lambda) {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "lambda_co2",
                    message: format!(
                        "carbon weight must lie in [0, 1] (λ_H2O = 1 − λ_CO2), got {lambda}"
                    ),
                });
            }
            store(&mut raw.lambda_co2, lambda, key, line)
        }
        (Section::Objective, "lambda_ref") => {
            let lambda = parse_f64(value, "lambda_ref", line)?;
            if lambda < 0.0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "lambda_ref",
                    message: format!("reference weight cannot be negative, got {lambda}"),
                });
            }
            store(&mut raw.lambda_ref, lambda, key, line)
        }
        (Section::WaterWise, "warm_start") => store(
            &mut raw.warm_start,
            parse_bool(value, "warm_start", line)?,
            key,
            line,
        ),
        (Section::WaterWise, "horizon") => store(
            &mut raw.horizon,
            if value == "capacity" {
                None
            } else {
                let h = parse_usize(value, "horizon", line)?;
                if h == 0 {
                    return Err(ScenarioError::OutOfRange {
                        line,
                        key: "horizon",
                        message: "a sliding-window horizon must admit at least one job \
                                  (use `capacity` for the unbounded window)"
                            .to_string(),
                    });
                }
                Some(h)
            },
            key,
            line,
        ),
        (Section::WaterWise, "history_window_hours") => {
            let hours = parse_usize(value, "history_window_hours", line)?;
            if hours == 0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "history_window_hours",
                    message: "the reference-footprint history window cannot be empty".to_string(),
                });
            }
            store(&mut raw.history_window_hours, hours, key, line)
        }
        (Section::WaterWise, "soft_penalty") => {
            let sigma = parse_f64(value, "soft_penalty", line)?;
            if sigma <= 0.0 {
                return Err(ScenarioError::OutOfRange {
                    line,
                    key: "soft_penalty",
                    message: format!("the relaxation penalty σ must be positive, got {sigma}"),
                });
            }
            store(&mut raw.soft_penalty, sigma, key, line)
        }
        (Section::Campaign, "parallelism") => store(
            &mut raw.campaign_parallelism,
            parse_parallelism(value, line)?,
            key,
            line,
        ),
        (Section::Campaign, "estimate_carbon_error") => store(
            &mut raw.estimate_carbon_error,
            parse_estimate_error(value, "estimate_carbon_error", line)?,
            key,
            line,
        ),
        (Section::Campaign, "estimate_water_error") => store(
            &mut raw.estimate_water_error,
            parse_estimate_error(value, "estimate_water_error", line)?,
            key,
            line,
        ),
        (section, key) => Err(ScenarioError::UnknownKey {
            line,
            section: section.name(),
            key: key.to_string(),
        }),
    }
}

impl RawSpec {
    fn build(self) -> Result<Scenario, ScenarioError> {
        let name = self.name.ok_or(ScenarioError::MissingKey {
            section: "scenario",
            key: "name",
        })?;
        let seed = self.seed.ok_or(ScenarioError::MissingKey {
            section: "scenario",
            key: "seed",
        })?;
        let days = self.days.ok_or(ScenarioError::MissingKey {
            section: "trace",
            key: "days",
        })?;

        let mut config =
            CampaignConfig::paper_default(days, self.delay_tolerance.unwrap_or(0.5), seed);
        if self.kind == Some(TraceKind::AlibabaLike) {
            config.trace = TraceConfig::alibaba(days, seed);
        }
        if let Some(rate) = self.rate_multiplier {
            config.trace.rate_multiplier = rate;
        }
        if let Some(benchmarks) = self.benchmarks {
            config.trace.benchmarks = benchmarks;
        }
        if let Some(servers) = self.servers_per_region {
            config = config.with_servers_per_region(servers);
        }
        if let Some(interval) = self.scheduling_interval_s {
            config.simulation.scheduling_interval = Seconds::new(interval);
        }
        if let Some(perturbation) = self.embodied_perturbation {
            config.simulation.embodied_perturbation = perturbation;
        }
        if let Some(dataset) = self.dataset {
            config.telemetry.dataset = dataset;
        }
        if let Some(horizon_days) = self.horizon_days {
            config.telemetry.horizon_days = horizon_days;
        }
        if let Some(telemetry_seed) = self.telemetry_seed {
            config.telemetry.seed = telemetry_seed;
        }
        let mut weights =
            ObjectiveWeights::paper_default().with_carbon_weight(self.lambda_co2.unwrap_or(0.5));
        if let Some(lambda_ref) = self.lambda_ref {
            weights.lambda_ref = lambda_ref;
        }
        config.waterwise.weights = weights;
        if let Some(warm) = self.warm_start {
            config.waterwise.warm_start = warm;
        }
        if let Some(horizon) = self.horizon {
            config.waterwise.horizon = horizon;
        }
        if let Some(hours) = self.history_window_hours {
            config.waterwise.history_window_hours = hours;
        }
        if let Some(sigma) = self.soft_penalty {
            config.waterwise.soft_penalty = sigma;
        }
        config.parallelism = self.campaign_parallelism.unwrap_or(Parallelism::Auto);
        if let Some(error) = self.estimate_carbon_error {
            config.estimate_carbon_error = error;
        }
        if let Some(error) = self.estimate_water_error {
            config.estimate_water_error = error;
        }
        if let Some(regions) = self.regions {
            config = config.with_regions(&regions);
        }
        // Cross-field validation through the cluster layer, so its typed
        // `ConfigError`s (no regions, non-positive interval, ...) surface
        // unchanged.
        config.simulation.validate()?;
        Ok(Scenario {
            name,
            seed,
            days,
            clock: self.clock.unwrap_or(ClockMode::Discrete),
            config,
        })
    }
}

// ---------------------------------------------------------------------------
// Value parsers
// ---------------------------------------------------------------------------

fn parse_name(value: &str, line: usize) -> Result<String, ScenarioError> {
    let valid = !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if !valid {
        return Err(ScenarioError::InvalidValue {
            line,
            key: "name",
            message: format!(
                "`{value}` is not a valid scenario name \
                 (ASCII letters, digits, `-`, `_`; it names the snapshot file)"
            ),
        });
    }
    Ok(value.to_string())
}

fn parse_f64(value: &str, key: &'static str, line: usize) -> Result<f64, ScenarioError> {
    let number: f64 = value.parse().map_err(|_| ScenarioError::InvalidValue {
        line,
        key,
        message: format!("`{value}` is not a number"),
    })?;
    if !number.is_finite() {
        return Err(ScenarioError::OutOfRange {
            line,
            key,
            message: format!("`{value}` is not finite"),
        });
    }
    Ok(number)
}

fn parse_u64(value: &str, key: &'static str, line: usize) -> Result<u64, ScenarioError> {
    value.parse().map_err(|_| ScenarioError::InvalidValue {
        line,
        key,
        message: format!("`{value}` is not an unsigned integer"),
    })
}

fn parse_usize(value: &str, key: &'static str, line: usize) -> Result<usize, ScenarioError> {
    value.parse().map_err(|_| ScenarioError::InvalidValue {
        line,
        key,
        message: format!("`{value}` is not an unsigned integer"),
    })
}

fn parse_bool(value: &str, key: &'static str, line: usize) -> Result<bool, ScenarioError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(ScenarioError::InvalidValue {
            line,
            key,
            message: format!("`{other}` is not a boolean (true | false)"),
        }),
    }
}

fn parse_estimate_error(value: &str, key: &'static str, line: usize) -> Result<f64, ScenarioError> {
    let factor = parse_f64(value, key, line)?;
    if factor <= 0.0 {
        return Err(ScenarioError::OutOfRange {
            line,
            key,
            message: format!("a multiplicative estimate error must be positive, got {factor}"),
        });
    }
    Ok(factor)
}

/// Parse a clock mode in the grammar of the `[simulation] clock` key:
/// `discrete`, or `real-time:<scale>` (alias `realtime:`) with a finite,
/// positive scale. `placement_server` reads `WATERWISE_CLOCK` through it, so
/// the variable and the key accept the same values. A rejection is the
/// reason, without a location.
///
/// ```
/// use waterwise_cluster::ClockMode;
/// use waterwise_core::parse_clock_mode;
///
/// assert_eq!(parse_clock_mode("realtime:60"), Ok(ClockMode::RealTime { scale: 60.0 }));
/// assert!(parse_clock_mode("real-time:0").is_err());
/// ```
pub fn parse_clock_mode(value: &str) -> Result<ClockMode, String> {
    parse_clock(value, 0).map_err(|err| err.message())
}

fn parse_clock(value: &str, line: usize) -> Result<ClockMode, ScenarioError> {
    if value == "discrete" {
        return Ok(ClockMode::Discrete);
    }
    if let Some(rest) = value
        .strip_prefix("real-time:")
        .or_else(|| value.strip_prefix("realtime:"))
    {
        let scale = parse_f64(rest, "clock", line)?;
        if scale <= 0.0 {
            return Err(ScenarioError::OutOfRange {
                line,
                key: "clock",
                message: format!("real-time scale must be positive, got {scale}"),
            });
        }
        return Ok(ClockMode::RealTime { scale });
    }
    Err(ScenarioError::InvalidValue {
        line,
        key: "clock",
        message: format!("unknown clock mode `{value}` (discrete | real-time:<scale>)"),
    })
}

fn parse_parallelism(value: &str, line: usize) -> Result<Parallelism, ScenarioError> {
    match value {
        "serial" => return Ok(Parallelism::Serial),
        "auto" => return Ok(Parallelism::Auto),
        _ => {}
    }
    if let Some(rest) = value.strip_prefix("threads:") {
        let threads = parse_usize(rest, "parallelism", line)?;
        if threads == 0 {
            return Err(ScenarioError::OutOfRange {
                line,
                key: "parallelism",
                message: "a thread pool needs at least one worker (or use `serial`)".to_string(),
            });
        }
        return Ok(Parallelism::Threads(threads));
    }
    Err(ScenarioError::InvalidValue {
        line,
        key: "parallelism",
        message: format!("unknown parallelism `{value}` (serial | auto | threads:<n>)"),
    })
}

fn parse_list<'a>(
    value: &'a str,
    key: &'static str,
    line: usize,
) -> Result<Vec<&'a str>, ScenarioError> {
    let items: Vec<&str> = value.split(',').map(str::trim).collect();
    if items.iter().any(|item| item.is_empty()) {
        return Err(ScenarioError::InvalidValue {
            line,
            key,
            message: "empty list entry (trailing or doubled comma?)".to_string(),
        });
    }
    Ok(items)
}

fn parse_benchmarks(value: &str, line: usize) -> Result<Vec<Benchmark>, ScenarioError> {
    let mut benchmarks = Vec::new();
    for item in parse_list(value, "benchmarks", line)? {
        let benchmark = Benchmark::from_name(item).ok_or_else(|| ScenarioError::InvalidValue {
            line,
            key: "benchmarks",
            message: format!("unknown benchmark `{item}`"),
        })?;
        if benchmarks.contains(&benchmark) {
            return Err(ScenarioError::InvalidValue {
                line,
                key: "benchmarks",
                message: format!("duplicate benchmark `{item}` (it would skew the workload mix)"),
            });
        }
        benchmarks.push(benchmark);
    }
    Ok(benchmarks)
}

fn parse_regions(value: &str, line: usize) -> Result<Vec<Region>, ScenarioError> {
    let mut regions = Vec::new();
    for item in parse_list(value, "regions", line)? {
        let region = Region::from_name(item).ok_or_else(|| ScenarioError::InvalidValue {
            line,
            key: "regions",
            message: format!("unknown region `{item}` (Zurich | Madrid | Oregon | Milan | Mumbai)"),
        })?;
        if regions.contains(&region) {
            return Err(ScenarioError::InvalidValue {
                line,
                key: "regions",
                message: format!("duplicate region `{item}`"),
            });
        }
        regions.push(region);
    }
    Ok(regions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "[scenario]\nname = t\nseed = 7\n[trace]\ndays = 0.02\n";

    #[test]
    fn minimal_spec_gets_paper_defaults() {
        let scenario = parse_spec(MINIMAL).expect("minimal spec parses");
        assert_eq!(scenario.name, "t");
        assert_eq!(scenario.seed, 7);
        let reference = CampaignConfig::paper_default(0.02, 0.5, 7);
        assert_eq!(
            format!("{:?}", scenario.config),
            format!("{reference:?}"),
            "minimal spec must equal paper_default"
        );
        assert_eq!(scenario.clock, ClockMode::Discrete);
    }

    #[test]
    fn comments_whitespace_and_ordering_are_immaterial() {
        let spec = "  # leading comment\n[trace]\ndays = 0.02   # trailing\n\n\
                    [scenario]\n  seed=7\nname =   t\n";
        let a = parse_spec(MINIMAL).unwrap();
        let b = parse_spec(spec).unwrap();
        assert_eq!(format!("{:?}", a.config), format!("{:?}", b.config));
    }

    #[test]
    fn canonical_form_roundtrips() {
        let spec = "[scenario]\nname = rt\nseed = 11\n[trace]\nkind = alibaba\ndays = 0.03\n\
                    rate_multiplier = 2.0\nbenchmarks = dedup, canneal\n\
                    regions = Zurich, Oregon, Mumbai\n[simulation]\nservers_per_region = 64\n\
                    delay_tolerance = 0.75\nclock = real-time:120.5\n\
                    [objective]\nlambda_co2 = 0.3\n[waterwise]\nwarm_start = false\n\
                    horizon = 32\n[campaign]\nparallelism = serial\n";
        let a = parse_spec(spec).unwrap();
        let b = parse_spec(&a.to_spec()).expect("canonical form parses");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.to_spec(), b.to_spec());
    }

    #[test]
    fn day_and_seed_overrides_rescale_consistently() {
        let scenario = parse_spec(MINIMAL).unwrap().with_days(2.5).with_seed(99);
        let reference = CampaignConfig::paper_default(2.5, 0.5, 99);
        assert_eq!(
            format!("{:?}", scenario.config.trace),
            format!("{:?}", reference.trace)
        );
        assert_eq!(
            scenario.config.telemetry.horizon_days,
            reference.telemetry.horizon_days
        );
        assert_eq!(scenario.config.telemetry.seed, 99);
    }

    #[test]
    fn located_errors_carry_path_and_line() {
        let err = parse_spec("[scenario]\nbogus = 1\n").unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert_eq!(
            err.located("scenarios/x.spec"),
            "scenarios/x.spec:2: unknown key `bogus` in `[scenario]`"
        );
        let missing = parse_spec("[scenario]\nseed = 1\n[trace]\ndays = 0.1\n").unwrap_err();
        assert_eq!(missing.line(), None);
        assert!(missing.located("x.spec").starts_with("x.spec: missing"));
    }
}
