//! Simulation configuration.

use crate::error::ConfigError;
use crate::network::TransferModel;
use serde::{Deserialize, Serialize};
use waterwise_sustain::{DataCenterParams, Seconds};
use waterwise_telemetry::{Region, ALL_REGIONS};

/// A retired engine-mode selector, kept only because the frozen perf
/// ledger (`benchmark/`) still names it.
///
/// The engine has one solve path: every round solves inline on the event
/// loop, whatever mode is passed. [`SimulationConfig::with_engine_mode`]
/// accepts a mode and ignores it. ROADMAP item 1 deletes the name.
#[derive(Debug, Clone, Copy)]
pub enum EngineMode {
    /// The one inline path.
    Sync,
    /// Runs the same inline path as [`EngineMode::Sync`].
    Pipelined {
        /// Ignored.
        workers: usize,
    },
}

/// Configuration of one simulated campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Regions participating in the campaign and the number of servers each
    /// hosts. Regions absent from this list are unavailable (used by the
    /// Fig. 12 region-availability study).
    pub regions: Vec<(Region, usize)>,
    /// Interval between scheduling rounds.
    pub scheduling_interval: Seconds,
    /// Delay tolerance as a fraction of the execution time (0.25 = 25%).
    pub delay_tolerance: f64,
    /// Data-center parameters (PUE, server embodied footprints).
    pub datacenter: DataCenterParams,
    /// Inter-region transfer model.
    pub transfer: TransferModel,
    /// Multiplicative perturbation of the embodied footprints (the ±10%
    /// sensitivity analysis); 1.0 = unperturbed.
    pub embodied_perturbation: f64,
}

impl SimulationConfig {
    /// The paper's default setting: all five regions with equal server
    /// counts, 60-second scheduling rounds, PUE 1.2.
    ///
    /// `servers_per_region` controls the utilization level: with the
    /// Borg-like arrival rate and the Table-1 workload mix, ~280 servers per
    /// region yields the ≈15% average utilization the paper reports.
    pub fn paper_default(servers_per_region: usize, delay_tolerance: f64) -> Self {
        Self {
            regions: ALL_REGIONS
                .iter()
                .map(|&r| (r, servers_per_region))
                .collect(),
            scheduling_interval: Seconds::new(60.0),
            delay_tolerance,
            datacenter: DataCenterParams::paper_default(),
            transfer: TransferModel::paper_default(),
            embodied_perturbation: 1.0,
        }
    }

    /// This configuration unchanged: every [`EngineMode`] runs the one
    /// inline path. Kept only because the frozen perf ledger calls it;
    /// ROADMAP item 1 deletes the name.
    pub fn with_engine_mode(self, _engine: EngineMode) -> Self {
        self
    }

    /// Restrict the campaign to a subset of regions, keeping server counts.
    pub fn with_regions(mut self, regions: &[Region]) -> Self {
        self.regions.retain(|(r, _)| regions.contains(r));
        self
    }

    /// Override the per-region server count (same count for every region).
    pub fn with_servers_per_region(mut self, servers: usize) -> Self {
        for (_, s) in &mut self.regions {
            *s = servers;
        }
        self
    }

    /// Total number of servers across all participating regions.
    pub fn total_servers(&self) -> usize {
        self.regions.iter().map(|(_, s)| s).sum()
    }

    /// The participating regions.
    pub fn region_list(&self) -> Vec<Region> {
        self.regions.iter().map(|(r, _)| *r).collect()
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.regions.is_empty() {
            return Err(ConfigError::NoRegions);
        }
        if let Some((region, _)) = self.regions.iter().find(|(_, s)| *s == 0) {
            return Err(ConfigError::EmptyRegion { region: *region });
        }
        // The engine indexes its pools by region (`region_slot`): of two
        // entries for one region only the last would be reachable.
        let mut listed = [false; ALL_REGIONS.len()];
        for (region, _) in &self.regions {
            if std::mem::replace(&mut listed[region.index()], true) {
                return Err(ConfigError::DuplicateRegion { region: *region });
            }
        }
        // The `is_finite` clauses reject NaN and infinities, which would
        // otherwise produce non-finite event times inside the engine.
        let interval = self.scheduling_interval.value();
        if interval <= 0.0 || !interval.is_finite() {
            return Err(ConfigError::NonPositiveSchedulingInterval { seconds: interval });
        }
        if self.delay_tolerance < 0.0 || !self.delay_tolerance.is_finite() {
            return Err(ConfigError::NegativeDelayTolerance {
                tolerance: self.delay_tolerance,
            });
        }
        if self.embodied_perturbation <= 0.0 || !self.embodied_perturbation.is_finite() {
            return Err(ConfigError::NonPositiveEmbodiedPerturbation {
                factor: self.embodied_perturbation,
            });
        }
        Ok(())
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self::paper_default(280, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = SimulationConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.regions.len(), 5);
        assert_eq!(c.total_servers(), 5 * 280);
    }

    #[test]
    fn region_restriction() {
        let c = SimulationConfig::default().with_regions(&[Region::Zurich, Region::Oregon]);
        assert_eq!(c.regions.len(), 2);
        assert!(c.region_list().contains(&Region::Zurich));
        assert!(!c.region_list().contains(&Region::Mumbai));
    }

    #[test]
    fn server_count_override() {
        let c = SimulationConfig::default().with_servers_per_region(40);
        assert_eq!(c.total_servers(), 200);
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let mut c = SimulationConfig::default();
        c.regions.clear();
        assert_eq!(c.validate(), Err(ConfigError::NoRegions));

        let mut c = SimulationConfig::default();
        c.scheduling_interval = Seconds::zero();
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveSchedulingInterval { .. })
        ));

        let mut c = SimulationConfig::default();
        c.delay_tolerance = -0.1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NegativeDelayTolerance { tolerance }) if tolerance == -0.1
        ));

        let mut c = SimulationConfig::default();
        c.regions[0].1 = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::EmptyRegion { region }) if region == c.regions[0].0
        ));

        let mut c = SimulationConfig::default();
        c.regions.push((Region::Madrid, 7));
        assert_eq!(
            c.validate(),
            Err(ConfigError::DuplicateRegion {
                region: Region::Madrid
            })
        );
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "region Madrid is listed more than once"
        );

        let mut c = SimulationConfig::default();
        c.embodied_perturbation = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveEmbodiedPerturbation { .. })
        ));
    }

    #[test]
    fn non_finite_numeric_fields_are_rejected() {
        let mut c = SimulationConfig::default();
        c.scheduling_interval = Seconds::new(f64::NAN);
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::default();
        c.scheduling_interval = Seconds::new(f64::INFINITY);
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::default();
        c.delay_tolerance = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::default();
        c.embodied_perturbation = f64::INFINITY;
        assert!(c.validate().is_err());
    }
}
