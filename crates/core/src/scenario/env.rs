//! The process environment, read in one place: `parse_var`. Unset keeps
//! the default; a value that is not UTF-8 or that the variable's row
//! refuses is a [`StartupError`] naming the variable and quoting the value,
//! and the program exits through [`StartupError::exit`] (status 2). Spec
//! keys are overridden through their [`super::KEYS`] alias
//! ([`Scenario::apply_env`]), a program's own variables are rows of an
//! [`EnvVar`] table ([`read_vars`]), and [`load_scenario`] resolves the
//! spec every binary loads.

use super::keys::{Rejection, KEYS};
use super::spec::{load_spec, Scenario, ScenarioError};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a program cannot start: a misconfiguration found before any work.
#[derive(Debug, Clone, PartialEq)]
pub enum StartupError {
    /// An environment variable is set to a value it does not accept.
    Var {
        /// The variable.
        var: &'static str,
        /// Its value (lossily decoded when it is not UTF-8).
        value: String,
        /// Why the value is refused.
        reason: String,
    },
    /// `--scenario` ends the command line.
    ScenarioFlagWithoutPath,
    /// The scenario spec does not load.
    Spec {
        /// The spec file.
        path: PathBuf,
        /// What is wrong with it.
        error: ScenarioError,
    },
}

impl fmt::Display for StartupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartupError::Var { var, value, reason } => {
                write!(f, "invalid {var} {value:?}: {reason}")
            }
            StartupError::ScenarioFlagWithoutPath => f.write_str("--scenario needs a path"),
            StartupError::Spec { path, error } => {
                write!(
                    f,
                    "invalid scenario spec: {}",
                    error.located(path.display())
                )
            }
        }
    }
}

impl std::error::Error for StartupError {}

impl StartupError {
    /// Print the error and exit with the operator-error status 2.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2);
    }
}

/// Read `var`: `None` when it is unset, the parsed value when `parse`
/// accepts it, and a [`StartupError::Var`] naming the variable and quoting
/// the value when it is not UTF-8 or `parse` refuses it.
fn parse_var<T>(
    var: &'static str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, StartupError> {
    let Some(raw) = std::env::var_os(var) else {
        return Ok(None);
    };
    let refuse = |value: String, reason: String| StartupError::Var { var, value, reason };
    let value = raw
        .into_string()
        .map_err(|raw| refuse(raw.to_string_lossy().into_owned(), "not UTF-8".to_string()))?;
    match parse(&value) {
        Ok(parsed) => Ok(Some(parsed)),
        Err(reason) => Err(refuse(value, reason)),
    }
}

/// One environment variable a program reads for itself, beside the spec
/// keys' aliases: its name, the grammar and meaning its docs print, and how
/// a value sets it on the program's `T`.
pub struct EnvVar<T> {
    /// The variable.
    pub name: &'static str,
    /// The value grammar, as the docs print it and a refusal quotes it.
    pub grammar: &'static str,
    /// What the variable sets, as the docs print it.
    pub doc: &'static str,
    /// Check the value and set it on `T`.
    pub set: fn(&mut T, &str) -> Result<(), Rejection>,
}

/// Set every variable of `vars` that is set onto `target`, in table order.
/// A refused value is a [`StartupError::Var`] that expects the row's grammar.
pub fn read_vars<T>(vars: &[EnvVar<T>], target: &mut T) -> Result<(), StartupError> {
    for var in vars {
        parse_var(var.name, |value| {
            (var.set)(target, value).map_err(|r| r.reason(var.grammar))
        })?;
    }
    Ok(())
}

impl Scenario {
    /// Apply the `WATERWISE_*` overrides among `vars` that are set, each
    /// through its [`KEYS`] row: the row's grammar and range rule, and the
    /// same effect as the key in a spec (`WATERWISE_DAYS` re-derives the
    /// telemetry horizon, `WATERWISE_SEED` reseeds trace and telemetry).
    /// Each program names the aliases it honors; a name that is no key's
    /// alias is never read.
    pub fn apply_env(&mut self, vars: &[&str]) -> Result<(), StartupError> {
        for key in KEYS {
            let Some(var) = key.env.filter(|var| vars.contains(var)) else {
                continue;
            };
            parse_var(var, |value| {
                (key.set)(self, value).map_err(|r| r.reason(key.grammar))
            })?;
        }
        Ok(())
    }
}

/// `<name>.spec` under `WATERWISE_SCENARIO_DIR`, or under the workspace
/// `scenarios/` directory when that is unset.
pub fn default_spec_path(name: &str) -> Result<PathBuf, StartupError> {
    let dir = parse_var("WATERWISE_SCENARIO_DIR", |dir| Ok(PathBuf::from(dir)))?;
    let dir = dir.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"));
    Ok(dir.join(format!("{name}.spec")))
}

/// The spec a program loads; see [`load_scenario`].
fn scenario_path(default: &str) -> Result<PathBuf, StartupError> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scenario" {
            return args
                .next()
                .map(PathBuf::from)
                .ok_or(StartupError::ScenarioFlagWithoutPath);
        }
        if let Some(path) = arg.strip_prefix("--scenario=") {
            return Ok(PathBuf::from(path));
        }
    }
    match parse_var("WATERWISE_SCENARIO", |path| Ok(PathBuf::from(path)))? {
        Some(path) => Ok(path),
        None => default_spec_path(default),
    }
}

/// Load the spec a program names, in the same order for every binary:
/// `--scenario <path>` or `--scenario=<path>` on the command line, else
/// `WATERWISE_SCENARIO`, else [`default_spec_path`]`(default)`. Then apply
/// the overrides among `vars` ([`Scenario::apply_env`]).
pub fn load_scenario(default: &str, vars: &[&str]) -> Result<Scenario, StartupError> {
    let path = scenario_path(default)?;
    let mut scenario = load_spec(&path).map_err(|error| StartupError::Spec { path, error })?;
    scenario.apply_env(vars)?;
    Ok(scenario)
}
