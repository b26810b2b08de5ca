//! Data-center and server parameters used by the footprint estimator.

use crate::carbon::EmbodiedCarbonModel;
use crate::units::{Co2Grams, KilowattHours, Liters, LitersPerKwh, Seconds};
use crate::water::{WaterFootprint, WaterScarcityFactor};
use serde::{Deserialize, Serialize};

/// Per-server parameters: embodied footprints and lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerParams {
    /// Total embodied carbon of one server (gCO2).
    pub embodied_carbon: Co2Grams,
    /// Total embodied water of one server (effective liters, already scaled
    /// by the manufacturing region's WSF per Eq. 4).
    pub embodied_water: Liters,
    /// Useful lifetime over which the embodied footprints are amortized.
    pub lifetime: Seconds,
    /// Idle power draw in watts.
    pub idle_power_watts: f64,
    /// Peak power draw in watts.
    pub peak_power_watts: f64,
}

impl ServerParams {
    /// Parameters approximating an AWS `m5.metal` bare-metal node (4 × 24-core
    /// Xeon 8175, 384 GiB), the hardware used by the paper's testbed.
    pub fn m5_metal() -> Self {
        let embodied_carbon = Co2Grams::new(1_500_000.0); // ~1.5 tCO2e
        let lifetime = Seconds::from_hours(4.0 * 365.0 * 24.0); // 4 years

        // Embodied water derived per Eq. 4 from the manufacturing energy
        // implied by the embodied carbon at a typical fab-region carbon
        // intensity (~500 gCO2/kWh) and EWIF (~1.8 L/kWh), with WSF 0.4.
        let manufacturing_energy = KilowattHours::new(embodied_carbon.value() / 500.0);
        let embodied_water = WaterFootprint::embodied_server(
            manufacturing_energy,
            LitersPerKwh::new(1.8),
            WaterScarcityFactor::new(0.4),
        );
        Self {
            embodied_carbon,
            embodied_water,
            lifetime,
            idle_power_watts: 150.0,
            peak_power_watts: 720.0,
        }
    }

    /// The embodied-carbon model induced by these parameters.
    #[inline]
    pub fn embodied_carbon_model(&self) -> EmbodiedCarbonModel {
        EmbodiedCarbonModel::new(self.embodied_carbon, self.lifetime)
    }

    /// Embodied water attributed to a job of the given execution time.
    #[inline]
    pub fn embodied_water_attributed(&self, execution_time: Seconds) -> Liters {
        if self.lifetime.value() <= 0.0 {
            return Liters::zero();
        }
        let fraction = (execution_time.value() / self.lifetime.value()).max(0.0);
        Liters::new(self.embodied_water.value() * fraction)
    }

    /// Scale both embodied footprints by a factor (sensitivity analysis).
    pub fn perturbed_embodied(&self, factor: f64) -> Self {
        Self {
            embodied_carbon: Co2Grams::new(self.embodied_carbon.value() * factor),
            embodied_water: Liters::new(self.embodied_water.value() * factor),
            ..*self
        }
    }
}

impl Default for ServerParams {
    fn default() -> Self {
        Self::m5_metal()
    }
}

/// Per-data-center parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataCenterParams {
    /// Power Usage Effectiveness (total facility energy / IT energy), ≥ 1.
    pub pue: f64,
    /// Server parameters for this facility.
    pub server: ServerParams,
}

impl DataCenterParams {
    /// The paper's default setting: PUE = 1.2 with m5.metal-class servers.
    pub fn paper_default() -> Self {
        Self {
            pue: 1.2,
            server: ServerParams::m5_metal(),
        }
    }

    /// Replace the PUE (clamped to ≥ 1.0).
    pub fn with_pue(mut self, pue: f64) -> Self {
        self.pue = pue.max(1.0);
        self
    }
}

impl Default for DataCenterParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m5_metal_has_sensible_magnitudes() {
        let p = ServerParams::m5_metal();
        assert!(p.embodied_carbon.value() > 1.0e5);
        assert!(p.embodied_water.value() > 1.0e3);
        assert!(p.lifetime.value() > 1.0e7);
        assert!(p.peak_power_watts > p.idle_power_watts);
    }

    #[test]
    fn embodied_water_attribution_is_proportional() {
        let p = ServerParams::m5_metal();
        let one = p.embodied_water_attributed(Seconds::from_hours(1.0));
        let two = p.embodied_water_attributed(Seconds::from_hours(2.0));
        assert!((two.value() - 2.0 * one.value()).abs() < 1e-9);
    }

    #[test]
    fn pue_is_clamped() {
        let dc = DataCenterParams::paper_default().with_pue(0.5);
        assert_eq!(dc.pue, 1.0);
    }

    #[test]
    fn paper_default_pue_is_1_2() {
        assert!((DataCenterParams::paper_default().pue - 1.2).abs() < 1e-12);
    }

    #[test]
    fn perturbation_scales_embodied_footprints() {
        let p = ServerParams::m5_metal();
        let up = p.perturbed_embodied(1.1);
        assert!((up.embodied_carbon.value() / p.embodied_carbon.value() - 1.1).abs() < 1e-9);
        assert!((up.embodied_water.value() / p.embodied_water.value() - 1.1).abs() < 1e-9);
    }
}
