//! Carbon footprint models: operational (energy × carbon intensity) and
//! embodied (amortized manufacturing emissions), following Eq. 1 of the paper.

use crate::intensity::CarbonIntensity;
use crate::units::{Co2Grams, KilowattHours, Seconds};
use serde::{Deserialize, Serialize};

/// Operational carbon model: emissions from the electricity consumed while a
/// job executes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OperationalCarbonModel;

impl OperationalCarbonModel {
    /// `CO2_operational = E_j * CI` (Eq. 1, first term).
    #[inline]
    pub fn emissions(energy: KilowattHours, intensity: CarbonIntensity) -> Co2Grams {
        Co2Grams::new(energy.value() * intensity.value())
    }
}

/// Embodied carbon model: one-time manufacturing emissions amortized over the
/// server's useful lifetime and attributed to jobs proportionally to their
/// execution time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmbodiedCarbonModel {
    /// Total embodied carbon of one server (gCO2).
    pub server_embodied: Co2Grams,
    /// Useful lifetime of the server.
    pub server_lifetime: Seconds,
}

impl EmbodiedCarbonModel {
    /// Build a model from the per-server embodied carbon and lifetime.
    pub fn new(server_embodied: Co2Grams, server_lifetime: Seconds) -> Self {
        Self {
            server_embodied,
            server_lifetime,
        }
    }

    /// `CO2_embodied(job) = t_j / T_lifetime * CO2_embodied(server)`
    /// (Eq. 1, second term).
    #[inline]
    pub fn attributed(&self, execution_time: Seconds) -> Co2Grams {
        if self.server_lifetime.value() <= 0.0 {
            return Co2Grams::zero();
        }
        let fraction = (execution_time.value() / self.server_lifetime.value()).max(0.0);
        Co2Grams::new(self.server_embodied.value() * fraction)
    }

    /// Scale the embodied estimate by a factor, e.g. ±10% for the paper's
    /// embodied-carbon sensitivity analysis.
    pub fn perturbed(&self, factor: f64) -> Self {
        Self {
            server_embodied: Co2Grams::new(self.server_embodied.value() * factor),
            server_lifetime: self.server_lifetime,
        }
    }
}

impl Default for EmbodiedCarbonModel {
    fn default() -> Self {
        // ~1.5 tCO2e embodied for a dual-socket server (Teads/Davy-style
        // estimate for m5.metal class hardware), 4-year lifetime.
        Self {
            server_embodied: Co2Grams::new(1_500_000.0),
            server_lifetime: Seconds::from_hours(4.0 * 365.0 * 24.0),
        }
    }
}

/// Per-job carbon footprint split into operational and embodied parts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CarbonFootprint {
    /// Emissions from the electricity consumed during execution.
    pub operational: Co2Grams,
    /// Amortized manufacturing emissions attributed to the job.
    pub embodied: Co2Grams,
}

impl CarbonFootprint {
    /// Evaluate Eq. 1 for a job.
    pub fn of_job(
        energy: KilowattHours,
        intensity: CarbonIntensity,
        execution_time: Seconds,
        embodied_model: &EmbodiedCarbonModel,
    ) -> Self {
        Self {
            operational: OperationalCarbonModel::emissions(energy, intensity),
            embodied: embodied_model.attributed(execution_time),
        }
    }

    /// Total footprint.
    #[inline]
    pub fn total(&self) -> Co2Grams {
        self.operational + self.embodied
    }

    /// Sum another footprint into this one.
    pub fn accumulate(&mut self, other: &CarbonFootprint) {
        self.operational += other.operational;
        self.embodied += other.embodied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operational_is_energy_times_intensity() {
        let e =
            OperationalCarbonModel::emissions(KilowattHours::new(2.0), CarbonIntensity::new(300.0));
        assert!((e.value() - 600.0).abs() < 1e-12);
    }

    #[test]
    fn embodied_is_proportional_to_time() {
        let model = EmbodiedCarbonModel::new(Co2Grams::new(1000.0), Seconds::from_hours(100.0));
        let half = model.attributed(Seconds::from_hours(50.0));
        assert!((half.value() - 500.0).abs() < 1e-9);
        let tiny = model.attributed(Seconds::from_hours(1.0));
        assert!((tiny.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn embodied_zero_lifetime_is_safe() {
        let model = EmbodiedCarbonModel::new(Co2Grams::new(1000.0), Seconds::zero());
        assert_eq!(model.attributed(Seconds::from_hours(1.0)).value(), 0.0);
    }

    #[test]
    fn perturbation_scales_embodied_only() {
        let model = EmbodiedCarbonModel::new(Co2Grams::new(1000.0), Seconds::from_hours(100.0));
        let up = model.perturbed(1.1);
        assert!((up.server_embodied.value() - 1100.0).abs() < 1e-9);
        assert_eq!(up.server_lifetime, model.server_lifetime);
    }

    #[test]
    fn job_footprint_combines_both_terms() {
        let embodied = EmbodiedCarbonModel::new(Co2Grams::new(1000.0), Seconds::from_hours(100.0));
        let fp = CarbonFootprint::of_job(
            KilowattHours::new(1.0),
            CarbonIntensity::new(100.0),
            Seconds::from_hours(10.0),
            &embodied,
        );
        assert!((fp.operational.value() - 100.0).abs() < 1e-9);
        assert!((fp.embodied.value() - 100.0).abs() < 1e-9);
        assert!((fp.total().value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn accumulate_sums_components() {
        let mut a = CarbonFootprint {
            operational: Co2Grams::new(10.0),
            embodied: Co2Grams::new(5.0),
        };
        let b = a;
        a.accumulate(&b);
        assert!((a.total().value() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn default_embodied_model_is_reasonable() {
        let model = EmbodiedCarbonModel::default();
        // A one-hour job on a 4-year-lifetime server should be attributed a
        // tiny fraction of the total embodied carbon.
        let one_hour = model.attributed(Seconds::from_hours(1.0));
        assert!(one_hour.value() > 0.0);
        assert!(one_hour.value() < model.server_embodied.value() / 1000.0);
    }
}
