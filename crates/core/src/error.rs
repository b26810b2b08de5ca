//! The campaign-level error type.
//!
//! [`WaterWiseError`] is the single error surface of `waterwise-core`: it
//! wraps the typed configuration and simulation errors of
//! `waterwise-cluster` and the solver errors of `waterwise-milp`, so callers
//! of [`crate::Campaign`] can match failures structurally instead of parsing
//! strings.

use std::fmt;
use waterwise_cluster::{ConfigError, SimulationError};
use waterwise_milp::MilpError;

/// Any failure while preparing or running a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum WaterWiseError {
    /// The simulation configuration failed validation.
    Config(ConfigError),
    /// The discrete-event engine rejected the run (for example a non-finite
    /// event timestamp produced by the trace or transfer model).
    Simulation(SimulationError),
    /// The MILP solver failed outside the scheduler's soft-constraint
    /// fallback path (the in-round scheduler degrades to a heuristic on
    /// solver failure; this variant surfaces solver errors from direct model
    /// construction, e.g. through `waterwise-milp` re-exports).
    Solver(MilpError),
    /// A declarative scenario spec failed to parse or validate.
    Scenario(crate::scenario::ScenarioError),
}

impl fmt::Display for WaterWiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaterWiseError::Config(e) => write!(f, "campaign configuration error: {e}"),
            WaterWiseError::Simulation(e) => write!(f, "simulation error: {e}"),
            WaterWiseError::Solver(e) => write!(f, "solver error: {e}"),
            WaterWiseError::Scenario(e) => write!(f, "scenario spec error: {e}"),
        }
    }
}

impl std::error::Error for WaterWiseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WaterWiseError::Config(e) => Some(e),
            WaterWiseError::Simulation(e) => Some(e),
            WaterWiseError::Solver(e) => Some(e),
            WaterWiseError::Scenario(e) => Some(e),
        }
    }
}

impl From<ConfigError> for WaterWiseError {
    fn from(e: ConfigError) -> Self {
        WaterWiseError::Config(e)
    }
}

impl From<SimulationError> for WaterWiseError {
    fn from(e: SimulationError) -> Self {
        // Flatten nested config errors so callers can always match
        // `WaterWiseError::Config` for validation failures, regardless of
        // which layer detected them.
        match e {
            SimulationError::Config(c) => WaterWiseError::Config(c),
            other => WaterWiseError::Simulation(other),
        }
    }
}

impl From<MilpError> for WaterWiseError {
    fn from(e: MilpError) -> Self {
        WaterWiseError::Solver(e)
    }
}

impl From<crate::scenario::ScenarioError> for WaterWiseError {
    fn from(e: crate::scenario::ScenarioError) -> Self {
        // A spec that parsed but failed cross-field validation carries a
        // `ConfigError`; flatten it for the same reason as `SimulationError`.
        match e {
            crate::scenario::ScenarioError::Config(c) => WaterWiseError::Config(c),
            other => WaterWiseError::Scenario(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn config_errors_are_flattened_across_the_crate_boundary() {
        let nested = SimulationError::Config(ConfigError::NoRegions);
        assert_eq!(
            WaterWiseError::from(nested),
            WaterWiseError::Config(ConfigError::NoRegions)
        );
        let engine = SimulationError::NonFiniteEventTime {
            time: f64::INFINITY,
            event: "scheduling round".into(),
        };
        assert!(matches!(
            WaterWiseError::from(engine),
            WaterWiseError::Simulation(_)
        ));
    }

    #[test]
    fn solver_errors_convert() {
        let e = WaterWiseError::from(MilpError::Infeasible);
        assert_eq!(e, WaterWiseError::Solver(MilpError::Infeasible));
        assert!(e.to_string().contains("infeasible"));
        assert!(e.source().is_some());
    }

    #[test]
    fn display_prefixes_identify_the_layer() {
        assert!(WaterWiseError::Config(ConfigError::NoRegions)
            .to_string()
            .starts_with("campaign configuration error"));
        assert!(WaterWiseError::Solver(MilpError::Unbounded)
            .to_string()
            .starts_with("solver error"));
    }
}
