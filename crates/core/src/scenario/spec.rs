//! The declarative scenario spec format and its strict parser.
//!
//! A *scenario* is everything a campaign run needs, written down as data: the
//! workload trace shape, the simulated cluster, synthetic telemetry,
//! objective weights, the WaterWise solver knobs, and the service clock
//! mode. Specs live in `scenarios/*.spec` at the repository root
//! and are loaded by the `figures` binary (`--scenario` / `WATERWISE_SCENARIO`)
//! and by `placement_server`; see `docs/SCENARIOS.md` for the grammar and a
//! worked example.
//!
//! The format is line-based `key = value` pairs under `[section]` headers,
//! with `#` comments. Compat `serde` is a no-op, so the parser is hand-rolled
//! in the style of `waterwise_service::wire`: strict (unknown sections/keys,
//! duplicates, malformed or out-of-range values are typed errors, never
//! panics), and every error carries the offending line number so callers can
//! report `path:line: message`.

use super::keys::{Key, Rejection, KEYS};
use crate::experiment::CampaignConfig;
use std::fmt;
use std::path::Path;
use waterwise_cluster::{ClockMode, ConfigError};
use waterwise_sustain::Seconds;

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
    /// The paper's default scenario ([`CampaignConfig::paper_default`] at a
    /// 0.5 delay tolerance, discrete clock): what a spec that sets only the
    /// required keys parses to.
    pub fn paper_default(name: &str, days: f64, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            days,
            clock: ClockMode::Discrete,
            config: CampaignConfig::paper_default(days, 0.5, seed),
        }
    }

    /// Rescale the trace duration (the `days` key and `WATERWISE_DAYS`),
    /// keeping the derived telemetry horizon in sync exactly as
    /// [`CampaignConfig::paper_default`] would: `max(ceil(days) + 2, 3)`
    /// days. An explicit `horizon_days` from the spec is recomputed too —
    /// the override rescales the whole scenario.
    pub fn with_days(mut self, days: f64) -> Self {
        self.set_days(days);
        self
    }

    /// Reseed the scenario (the `seed` key and `WATERWISE_SEED`): trace and
    /// telemetry seeds both follow.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.set_seed(seed);
        self
    }

    pub(super) fn set_days(&mut self, days: f64) {
        self.days = days;
        self.config.trace.duration = Seconds::from_hours(days * 24.0);
        self.config.telemetry.horizon_days = (days.ceil() as usize + 2).max(3);
    }

    pub(super) fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
        self.config.trace.seed = seed;
        self.config.telemetry.seed = seed;
    }

    /// Render the scenario back to canonical spec text: every key of
    /// [`KEYS`] explicit, in table order, floats in shortest-roundtrip form.
    /// Parsing the result yields an identical scenario (the property the
    /// roundtrip tests pin).
    pub fn to_spec(&self) -> String {
        let mut out = format!("# WaterWise scenario `{}` (canonical form)\n", self.name);
        let mut section = "";
        for key in KEYS {
            if key.section != section {
                if !section.is_empty() {
                    out.push('\n');
                }
                section = key.section;
                out += &format!("[{section}]\n");
            }
            out += &format!("{} = {}\n", key.name, (key.render)(self));
        }
        out
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
    /// a line), the fail-fast format `figures` prints before exiting.
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

/// Parse spec text into a [`Scenario`]. Strict: every line must be blank, a
/// comment, a known `[section]` header, or a known `key = value` pair with a
/// well-formed, in-range value; anything else is a typed [`ScenarioError`].
/// The values apply in [`KEYS`] order onto [`Scenario::paper_default`].
pub fn parse_spec(text: &str) -> Result<Scenario, ScenarioError> {
    // Each value is checked as it is read, on a scratch scenario, so the
    // first bad line is the one reported; the accepted values then apply in
    // table order.
    let mut scratch = Scenario::paper_default("", 1.0, 0);
    let mut values: Vec<Option<(&str, usize)>> = vec![None; KEYS.len()];
    let mut section: Option<&'static str> = None;
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
            let Some(known) = KEYS.iter().find(|key| key.section == name) else {
                return Err(ScenarioError::UnknownSection {
                    line,
                    section: name.to_string(),
                });
            };
            section = Some(known.section);
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
        let Some(index) = KEYS
            .iter()
            .position(|k| k.section == section && k.name == key)
        else {
            return Err(ScenarioError::UnknownKey {
                line,
                section,
                key: key.to_string(),
            });
        };
        set(&KEYS[index], &mut scratch, value, line)?;
        if values[index].replace((value, line)).is_some() {
            return Err(ScenarioError::DuplicateKey {
                line,
                key: key.to_string(),
            });
        }
    }
    let mut scenario = Scenario::paper_default("", 1.0, 0);
    for (key, value) in KEYS.iter().zip(values) {
        match value {
            Some((value, line)) => set(key, &mut scenario, value, line)?,
            None if key.required => {
                return Err(ScenarioError::MissingKey {
                    section: key.section,
                    key: key.name,
                })
            }
            None => {}
        }
    }
    // Cross-field validation through the cluster layer, so its typed
    // `ConfigError`s (no regions, non-positive interval, ...) surface
    // unchanged.
    scenario.config.simulation.validate()?;
    Ok(scenario)
}

/// Apply `value` to `key` on `scenario`; a refusal is located at `line`
/// and reported against the key's grammar.
fn set(key: &Key, scenario: &mut Scenario, value: &str, line: usize) -> Result<(), ScenarioError> {
    (key.set)(scenario, value).map_err(|rejection| {
        let expected = format!("expected {}, got `{value}`", key.grammar);
        let key = key.name;
        match rejection {
            Rejection::Malformed => ScenarioError::InvalidValue {
                line,
                key,
                message: expected,
            },
            Rejection::OutOfRange => ScenarioError::OutOfRange {
                line,
                key,
                message: expected,
            },
            Rejection::Entry(message) => ScenarioError::InvalidValue { line, key, message },
        }
    })
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
    fn tiny_day_overrides_are_kept_not_raised() {
        let scenario = parse_spec(MINIMAL).unwrap().with_days(0.005);
        assert_eq!(scenario.days.to_bits(), 0.005f64.to_bits());
        assert_eq!(
            scenario.config.trace.duration.value().to_bits(),
            Seconds::from_hours(0.005 * 24.0).value().to_bits()
        );
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
