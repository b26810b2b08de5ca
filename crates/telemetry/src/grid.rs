//! Synthetic hourly energy-mix model and the derived carbon intensity and
//! regional EWIF series.
//!
//! The paper consumes the live energy-mix breakdown from Electricity Maps.
//! This module replaces it with a seeded generative model per region:
//!
//! * the solar share follows the daylight curve (zero at night, peaking at
//!   noon), with the shortfall covered by dispatchable gas;
//! * the wind share follows a slow, auto-correlated random walk;
//! * the hydro share has a seasonal cycle (spring melt / monsoon);
//! * a small amount of hour-to-hour noise is added to every share.
//!
//! The resulting hourly [`EnergyMix`] is mapped to carbon intensity and
//! regional EWIF with the per-source factors of Fig. 1, yielding series with
//! the temporal structure of Fig. 2(e).

use crate::region::RegionProfile;
use crate::series::HourlySeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;
use waterwise_sustain::{EnergyMix, EnergySource, EwifDataset};

/// Synthetic grid model for one region.
#[derive(Debug, Clone)]
pub struct GridModel {
    profile: RegionProfile,
    seed: u64,
}

/// The hourly output of the grid model for one region.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSeries {
    /// Hourly carbon intensity (gCO2/kWh).
    pub carbon_intensity: HourlySeries,
    /// Hourly regional EWIF (L/kWh) under the primary dataset.
    pub ewif_primary: HourlySeries,
    /// Hourly regional EWIF (L/kWh) under the WRI-style dataset.
    pub ewif_wri: HourlySeries,
}

impl GridModel {
    /// Build a grid model for a region profile and seed.
    pub fn new(profile: RegionProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// The energy mix at a given hour (deterministic function of the seed).
    pub fn mix_at_hour(&self, hour: usize, noise: &GridNoise) -> EnergyMix {
        let p = &self.profile;
        let hour_of_day = (hour % 24) as f64;
        let day = (hour / 24) as f64;

        // Daylight factor: 0 at night, ~1 at solar noon.
        let daylight = ((TAU * (hour_of_day - 12.0) / 24.0).cos().max(0.0)).powf(0.8);
        let solar_factor = (1.0 - p.solar_variability) + p.solar_variability * daylight * 2.0;

        // Seasonal hydro availability (peaks in late spring).
        let hydro_factor = 1.0 + p.hydro_seasonality * (TAU * (day - 140.0) / 365.0).cos();

        // Slow wind swings plus per-hour noise.
        let wind_factor = (1.0 + p.wind_variability * noise.wind[hour % noise.wind.len()]).max(0.1);
        let jitter =
            |idx: usize| 1.0 + p.mix_noise * noise.jitter[(hour + idx * 97) % noise.jitter.len()];

        let mut pairs: Vec<(EnergySource, f64)> = Vec::new();
        for (source, share) in p.base_mix.shares() {
            let factor = match source {
                EnergySource::Solar => solar_factor,
                EnergySource::Wind => wind_factor,
                EnergySource::Hydro => hydro_factor,
                _ => 1.0,
            } * jitter(source as usize);
            pairs.push((source, share * factor.max(0.0)));
        }
        // Dispatchable gas covers whatever renewables do not supply: boost the
        // gas share by the renewable shortfall before normalization.
        let renewable_now: f64 = pairs
            .iter()
            .filter(|(s, _)| s.is_renewable())
            .map(|(_, v)| *v)
            .sum();
        let renewable_base: f64 = p
            .base_mix
            .shares()
            .filter(|(s, _)| s.is_renewable())
            .map(|(_, v)| v)
            .sum();
        let shortfall = (renewable_base - renewable_now).max(0.0);
        if shortfall > 0.0 {
            if let Some(entry) = pairs.iter_mut().find(|(s, _)| *s == EnergySource::Gas) {
                entry.1 += shortfall;
            } else {
                pairs.push((EnergySource::Gas, shortfall));
            }
        }
        EnergyMix::new(pairs)
    }

    /// Generate all derived series for a horizon of `hours`.
    pub fn generate(&self, hours: usize) -> GridSeries {
        let noise =
            GridNoise::generate(self.seed ^ (self.profile.region.index() as u64 + 1), hours);
        let mut ci = Vec::with_capacity(hours);
        let mut ewif_p = Vec::with_capacity(hours);
        let mut ewif_w = Vec::with_capacity(hours);
        for hour in 0..hours.max(1) {
            let mix = self.mix_at_hour(hour, &noise);
            // Grid-level volatility multiplier (imports/exports, demand, and
            // dispatch decisions not captured by the base mix).
            let volatility =
                (self.profile.carbon_volatility * noise.grid[hour % noise.grid.len()]).exp();
            ci.push(mix.carbon_intensity().value() * volatility);
            ewif_p.push(mix.ewif(EwifDataset::Primary).value());
            ewif_w.push(mix.ewif(EwifDataset::WorldResourcesInstitute).value());
        }
        GridSeries {
            carbon_intensity: HourlySeries::new(ci),
            ewif_primary: HourlySeries::new(ewif_p),
            ewif_wri: HourlySeries::new(ewif_w),
        }
    }
}

/// Pre-generated noise tracks shared across the hourly mix evaluations so
/// that the series are deterministic and auto-correlated.
#[derive(Debug, Clone)]
pub struct GridNoise {
    wind: Vec<f64>,
    jitter: Vec<f64>,
    grid: Vec<f64>,
}

impl GridNoise {
    fn generate(seed: u64, hours: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9eed_22bb_88ff_0002);
        let n = hours.max(24);
        let mut wind = Vec::with_capacity(n);
        let mut level: f64 = 0.0;
        for _ in 0..n {
            // AR(1) with a 12-hour-ish correlation time.
            let shock: f64 = rng.gen_range(-1.0f64..1.0);
            level = 0.92 * level + 0.39 * shock;
            wind.push(level.clamp(-1.0, 1.0));
        }
        let jitter: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        // Slow grid-level swings (several-day correlation time) used for the
        // carbon-intensity volatility multiplier.
        let mut grid = Vec::with_capacity(n);
        let mut glevel: f64 = 0.0;
        for _ in 0..n {
            let shock: f64 = rng.gen_range(-1.0f64..1.0);
            glevel = 0.985 * glevel + 0.17 * shock;
            grid.push(glevel.clamp(-1.5, 1.5));
        }
        Self { wind, jitter, grid }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Region, ALL_REGIONS};

    fn series_for(region: Region, seed: u64, hours: usize) -> GridSeries {
        GridModel::new(region.profile(), seed).generate(hours)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = series_for(Region::Oregon, 11, 24 * 14);
        let b = series_for(Region::Oregon, 11, 24 * 14);
        let c = series_for(Region::Oregon, 12, 24 * 14);
        assert_eq!(a, b);
        assert_ne!(a.carbon_intensity, c.carbon_intensity);
    }

    #[test]
    fn regional_carbon_ordering_matches_fig2a() {
        let means: Vec<f64> = ALL_REGIONS
            .iter()
            .map(|r| series_for(*r, 5, 24 * 60).carbon_intensity.mean())
            .collect();
        // The slow grid-volatility multiplier can bring adjacent regions
        // (Oregon/Milan) within a few percent of each other for a given
        // seed, so require the ordering only up to a 10% band.
        for w in means.windows(2) {
            assert!(w[0] < w[1] * 1.10, "mean CI ordering violated: {means:?}");
        }
        // The extremes must still be far apart.
        assert!(
            means[0] * 3.0 < means[4],
            "Zurich vs Mumbai gap too small: {means:?}"
        );
    }

    #[test]
    fn zurich_has_highest_mean_ewif() {
        let ewifs: Vec<f64> = ALL_REGIONS
            .iter()
            .map(|r| series_for(*r, 5, 24 * 60).ewif_primary.mean())
            .collect();
        let zurich = ewifs[Region::Zurich.index()];
        for (i, v) in ewifs.iter().enumerate() {
            if i != Region::Zurich.index() {
                assert!(zurich > *v, "Zurich EWIF should dominate: {ewifs:?}");
            }
        }
        // Mumbai (coal-heavy) sits well below Zurich.
        let mumbai = ewifs[Region::Mumbai.index()];
        assert!(zurich > 2.0 * mumbai, "Zurich {zurich} vs Mumbai {mumbai}");
    }

    #[test]
    fn carbon_intensity_varies_over_time() {
        let s = series_for(Region::Oregon, 5, 24 * 90);
        assert!(
            s.carbon_intensity.std_dev() > 5.0,
            "CI should have temporal variation"
        );
        assert!(s.carbon_intensity.max() > s.carbon_intensity.min() * 1.2);
    }

    #[test]
    fn values_are_physical() {
        for r in ALL_REGIONS {
            let s = series_for(r, 3, 24 * 30);
            assert!(s.carbon_intensity.min() > 0.0);
            assert!(s.carbon_intensity.max() < 1600.0);
            assert!(s.ewif_primary.min() >= 0.0);
            assert!(s.ewif_primary.max() < 25.0);
        }
    }

    #[test]
    fn wri_dataset_produces_different_ewif() {
        let s = series_for(Region::Zurich, 3, 24 * 30);
        assert!((s.ewif_primary.mean() - s.ewif_wri.mean()).abs() > 0.1);
    }
}
