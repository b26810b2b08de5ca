//! Water footprint components: onsite (cooling), offsite (electricity
//! generation), and embodied (manufacturing); the Water Usage Effectiveness
//! model driven by wet-bulb temperature; and the Water Scarcity Factor.

use crate::units::{KilowattHours, Liters, LitersPerKwh};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Water Usage Effectiveness (L/kWh of IT energy) — how much water the data
/// center evaporates onsite per unit of IT energy, driven by the wet-bulb
/// temperature of the region (lower is better).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct WaterUsageEffectiveness(f64);

impl WaterUsageEffectiveness {
    /// Construct from L/kWh. Negative inputs are clamped to zero.
    pub fn new(liters_per_kwh: f64) -> Self {
        Self(liters_per_kwh.max(0.0))
    }

    /// Value in L/kWh.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for WaterUsageEffectiveness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} L/kWh (WUE)", self.0)
    }
}

/// Water Scarcity Factor of a region: 0 (abundant) to ~1 (extremely
/// stressed). The paper scales every liter of water consumed in a region by
/// `(1 + WSF)` so that consumption in stressed regions counts for more.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct WaterScarcityFactor(f64);

impl WaterScarcityFactor {
    /// Construct, clamping into `[0, 1]`.
    pub fn new(factor: f64) -> Self {
        Self(factor.clamp(0.0, 1.0))
    }

    /// The raw factor in `[0, 1]`.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The multiplier `(1 + WSF)` applied to physical liters.
    #[inline]
    pub fn multiplier(self) -> f64 {
        1.0 + self.0
    }
}

impl fmt::Display for WaterScarcityFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WSF {:.2}", self.0)
    }
}

/// Cooling-tower model mapping wet-bulb temperature (°C) to WUE (L/kWh).
///
/// Data centers with evaporative (cooling-tower) cooling evaporate more water
/// as the wet-bulb temperature rises, because the approach temperature
/// shrinks and more cycles of evaporation are needed per unit of rejected
/// heat. We use a smooth piecewise model:
///
/// * below `free_cooling_cutoff` the facility runs on free air cooling and
///   evaporates essentially no water;
/// * above it, WUE grows superlinearly with wet-bulb temperature and
///   saturates around `max_wue` (blow-down limits).
///
/// With the default parameters the model produces the 0–8 L/kWh range of
/// Fig. 2(c): cool European sites land around 1–3 L/kWh while hot and humid
/// Mumbai reaches 6–8 L/kWh.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingModel {
    /// Wet-bulb temperature (°C) below which free cooling is used.
    pub free_cooling_cutoff: f64,
    /// Liters evaporated per kWh per °C of wet-bulb above the cutoff (linear term).
    pub slope: f64,
    /// Quadratic growth term capturing degraded cooling-tower efficiency.
    pub quadratic: f64,
    /// Upper bound on achievable WUE (L/kWh).
    pub max_wue: f64,
    /// Baseline evaporation (L/kWh) present whenever the towers run at all.
    pub base_wue: f64,
}

impl Default for CoolingModel {
    fn default() -> Self {
        Self {
            free_cooling_cutoff: 4.0,
            slope: 0.22,
            quadratic: 0.006,
            max_wue: 9.0,
            base_wue: 0.35,
        }
    }
}

impl CoolingModel {
    /// Evaluate the model at a wet-bulb temperature in °C.
    pub fn wue(&self, wet_bulb_celsius: f64) -> WaterUsageEffectiveness {
        if !wet_bulb_celsius.is_finite() {
            return WaterUsageEffectiveness::new(self.base_wue);
        }
        let delta = wet_bulb_celsius - self.free_cooling_cutoff;
        if delta <= 0.0 {
            // Free cooling: negligible evaporative losses.
            return WaterUsageEffectiveness::new(0.05);
        }
        let raw = self.base_wue + self.slope * delta + self.quadratic * delta * delta;
        WaterUsageEffectiveness::new(raw.min(self.max_wue))
    }
}

/// Convenience wrapper around [`CoolingModel::wue`] with default parameters.
pub fn wue_from_wet_bulb(wet_bulb_celsius: f64) -> WaterUsageEffectiveness {
    CoolingModel::default().wue(wet_bulb_celsius)
}

/// The three water-footprint components of a job (Eq. 2–5), already scaled by
/// the relevant water scarcity factors, i.e. in "effective liters".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WaterFootprint {
    /// Offsite water: electricity-generation water use (Eq. 2).
    pub offsite: Liters,
    /// Onsite water: cooling evaporation and blow-down (Eq. 3).
    pub onsite: Liters,
    /// Embodied water: amortized manufacturing water use (Eq. 4).
    pub embodied: Liters,
}

impl WaterFootprint {
    /// Offsite water footprint (Eq. 2): `PUE * E * EWIF * (1 + WSF)`.
    #[inline]
    pub fn offsite(
        pue: f64,
        energy: KilowattHours,
        ewif: LitersPerKwh,
        wsf: WaterScarcityFactor,
    ) -> Liters {
        Liters::new(pue * energy.value() * ewif.value() * wsf.multiplier())
    }

    /// Onsite water footprint (Eq. 3): `E * WUE * (1 + WSF)`.
    #[inline]
    pub fn onsite(
        energy: KilowattHours,
        wue: WaterUsageEffectiveness,
        wsf: WaterScarcityFactor,
    ) -> Liters {
        Liters::new(energy.value() * wue.value() * wsf.multiplier())
    }

    /// Embodied water footprint of a whole server (Eq. 4):
    /// `E_manufacturing * EWIF_mfg * (1 + WSF_mfg)`.
    pub fn embodied_server(
        manufacturing_energy: KilowattHours,
        ewif: LitersPerKwh,
        wsf: WaterScarcityFactor,
    ) -> Liters {
        Liters::new(manufacturing_energy.value() * ewif.value() * wsf.multiplier())
    }

    /// Total of all components.
    #[inline]
    pub fn total(&self) -> Liters {
        self.offsite + self.onsite + self.embodied
    }

    /// Operational (offsite + onsite) water footprint.
    pub fn operational(&self) -> Liters {
        self.offsite + self.onsite
    }

    /// Sum two footprints component-wise.
    pub fn accumulate(&mut self, other: &WaterFootprint) {
        self.offsite += other.offsite;
        self.onsite += other.onsite;
        self.embodied += other.embodied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wsf_clamps_to_unit_interval() {
        assert_eq!(WaterScarcityFactor::new(-0.5).value(), 0.0);
        assert_eq!(WaterScarcityFactor::new(1.5).value(), 1.0);
        assert_eq!(WaterScarcityFactor::new(0.4).multiplier(), 1.4);
    }

    #[test]
    fn wue_is_monotone_in_wet_bulb() {
        let model = CoolingModel::default();
        let mut prev = model.wue(-5.0).value();
        for t in -4..35 {
            let cur = model.wue(t as f64).value();
            assert!(cur >= prev, "WUE must not decrease with wet-bulb temp");
            prev = cur;
        }
    }

    #[test]
    fn wue_free_cooling_is_tiny() {
        assert!(wue_from_wet_bulb(0.0).value() < 0.1);
    }

    #[test]
    fn wue_hot_humid_is_large_but_bounded() {
        let hot = wue_from_wet_bulb(28.0).value();
        assert!(
            hot > 4.0,
            "hot humid climate should need lots of water: {hot}"
        );
        assert!(hot <= CoolingModel::default().max_wue);
        assert!(wue_from_wet_bulb(60.0).value() <= CoolingModel::default().max_wue);
    }

    #[test]
    fn wue_handles_non_finite_input() {
        assert!(wue_from_wet_bulb(f64::NAN).value() >= 0.0);
    }

    #[test]
    fn offsite_matches_eq2() {
        let v = WaterFootprint::offsite(
            1.2,
            KilowattHours::new(10.0),
            LitersPerKwh::new(2.0),
            WaterScarcityFactor::new(0.5),
        );
        assert!((v.value() - 1.2 * 10.0 * 2.0 * 1.5).abs() < 1e-12);
    }

    #[test]
    fn onsite_matches_eq3() {
        let v = WaterFootprint::onsite(
            KilowattHours::new(10.0),
            WaterUsageEffectiveness::new(3.0),
            WaterScarcityFactor::new(0.2),
        );
        assert!((v.value() - 10.0 * 3.0 * 1.2).abs() < 1e-12);
    }

    #[test]
    fn embodied_matches_eq4() {
        let v = WaterFootprint::embodied_server(
            KilowattHours::new(1000.0),
            LitersPerKwh::new(1.8),
            WaterScarcityFactor::new(0.3),
        );
        assert!((v.value() - 1000.0 * 1.8 * 1.3).abs() < 1e-12);
    }

    #[test]
    fn totals_and_accumulate() {
        let mut a = WaterFootprint {
            offsite: Liters::new(1.0),
            onsite: Liters::new(2.0),
            embodied: Liters::new(3.0),
        };
        assert!((a.total().value() - 6.0).abs() < 1e-12);
        assert!((a.operational().value() - 3.0).abs() < 1e-12);
        let b = a;
        a.accumulate(&b);
        assert!((a.total().value() - 12.0).abs() < 1e-12);
    }
}
