//! Energy sources, their carbon intensity and Energy Water Intensity Factor
//! (EWIF), and energy mixes.
//!
//! This module encodes the characterization data of Fig. 1 of the paper:
//! carbon-friendly (renewable) sources tend to have *low carbon intensity but
//! potentially high EWIF* (e.g. hydropower), while fossil sources have high
//! carbon intensity but comparatively modest water needs — the central
//! tension WaterWise exploits.

use crate::intensity::CarbonIntensity;
use crate::units::LitersPerKwh;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An electricity generation technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EnergySource {
    /// Nuclear fission plants.
    Nuclear,
    /// On-shore and off-shore wind turbines.
    Wind,
    /// Hydroelectric dams (high evaporation losses → very high EWIF).
    Hydro,
    /// Geothermal plants.
    Geothermal,
    /// Photovoltaic solar farms.
    Solar,
    /// Biomass combustion (irrigation of feedstock → high EWIF).
    Biomass,
    /// Natural-gas turbines.
    Gas,
    /// Oil-fired plants.
    Oil,
    /// Coal-fired plants.
    Coal,
}

/// All energy sources, in the order used by Fig. 1 of the paper
/// (renewables first, then fossil fuels).
pub const ALL_SOURCES: [EnergySource; 9] = [
    EnergySource::Nuclear,
    EnergySource::Wind,
    EnergySource::Hydro,
    EnergySource::Geothermal,
    EnergySource::Solar,
    EnergySource::Biomass,
    EnergySource::Gas,
    EnergySource::Oil,
    EnergySource::Coal,
];

impl EnergySource {
    /// Whether this source counts as renewable / carbon-friendly in the paper.
    pub fn is_renewable(self) -> bool {
        !matches!(
            self,
            EnergySource::Gas | EnergySource::Oil | EnergySource::Coal
        )
    }

    /// Life-cycle carbon intensity of electricity from this source
    /// (gCO2/kWh), following the IPCC-style values used in Fig. 1.
    pub fn carbon_intensity(self) -> CarbonIntensity {
        let g_per_kwh = match self {
            EnergySource::Nuclear => 12.0,
            EnergySource::Wind => 11.0,
            EnergySource::Hydro => 17.0,
            EnergySource::Geothermal => 38.0,
            EnergySource::Solar => 45.0,
            EnergySource::Biomass => 230.0,
            EnergySource::Gas => 490.0,
            EnergySource::Oil => 740.0,
            EnergySource::Coal => 1050.0,
        };
        CarbonIntensity::new(g_per_kwh)
    }

    /// Energy Water Intensity Factor (L/kWh) under the primary
    /// (Macknick et al. / Electricity-Maps-style) dataset used in Fig. 1.
    pub fn ewif(self) -> LitersPerKwh {
        self.ewif_from(EwifDataset::Primary)
    }

    /// EWIF under a specific dataset (used by the Fig. 6 sensitivity study).
    pub fn ewif_from(self, dataset: EwifDataset) -> LitersPerKwh {
        let l_per_kwh = match dataset {
            EwifDataset::Primary => match self {
                EnergySource::Nuclear => 2.3,
                EnergySource::Wind => 0.01,
                EnergySource::Hydro => 17.0,
                EnergySource::Geothermal => 6.1,
                EnergySource::Solar => 0.9,
                EnergySource::Biomass => 5.5,
                EnergySource::Gas => 1.2,
                EnergySource::Oil => 1.7,
                EnergySource::Coal => 1.5,
            },
            // The World-Resources-Institute-style guidance reports somewhat
            // lower consumption factors for hydropower and higher ones for
            // thermal plants with recirculating cooling.
            EwifDataset::WorldResourcesInstitute => match self {
                EnergySource::Nuclear => 2.7,
                EnergySource::Wind => 0.02,
                EnergySource::Hydro => 9.0,
                EnergySource::Geothermal => 5.2,
                EnergySource::Solar => 1.1,
                EnergySource::Biomass => 4.8,
                EnergySource::Gas => 1.6,
                EnergySource::Oil => 2.0,
                EnergySource::Coal => 2.1,
            },
        };
        LitersPerKwh::new(l_per_kwh)
    }

    /// A short, stable identifier (useful for table headers and logs).
    pub fn label(self) -> &'static str {
        match self {
            EnergySource::Nuclear => "nuclear",
            EnergySource::Wind => "wind",
            EnergySource::Hydro => "hydro",
            EnergySource::Geothermal => "geothermal",
            EnergySource::Solar => "solar",
            EnergySource::Biomass => "biomass",
            EnergySource::Gas => "gas",
            EnergySource::Oil => "oil",
            EnergySource::Coal => "coal",
        }
    }
}

impl fmt::Display for EnergySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which per-source water-consumption dataset to use for EWIF.
///
/// The paper evaluates WaterWise both with Electricity-Maps/Macknick-style
/// factors (Fig. 5) and with World Resources Institute guidance (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EwifDataset {
    /// Macknick et al. / Electricity-Maps-style operational consumption factors.
    #[default]
    Primary,
    /// World Resources Institute purchased-electricity guidance.
    WorldResourcesInstitute,
}

/// A mix of energy sources powering a regional grid at some point in time.
///
/// Shares are kept normalized (they sum to 1 unless the mix is empty).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct EnergyMix {
    shares: Vec<(EnergySource, f64)>,
}

impl EnergyMix {
    /// Build a mix from `(source, share)` pairs. Shares are normalized to sum
    /// to one; non-positive shares are dropped.
    pub fn new(pairs: impl IntoIterator<Item = (EnergySource, f64)>) -> Self {
        let mut shares: Vec<(EnergySource, f64)> = pairs
            .into_iter()
            .filter(|(_, s)| s.is_finite() && *s > 0.0)
            .collect();
        let total: f64 = shares.iter().map(|(_, s)| *s).sum();
        if total > 0.0 {
            for (_, s) in &mut shares {
                *s /= total;
            }
        }
        shares.sort_by_key(|(src, _)| *src);
        Self { shares }
    }

    /// A mix consisting of a single source.
    pub fn single(source: EnergySource) -> Self {
        Self::new([(source, 1.0)])
    }

    /// Iterate over `(source, share)` pairs (shares sum to 1).
    pub fn shares(&self) -> impl Iterator<Item = (EnergySource, f64)> + '_ {
        self.shares.iter().copied()
    }

    /// The share of a particular source (0 if absent).
    pub fn share_of(&self, source: EnergySource) -> f64 {
        self.shares
            .iter()
            .find(|(s, _)| *s == source)
            .map(|(_, share)| *share)
            .unwrap_or(0.0)
    }

    /// `true` if the mix has no sources.
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// Share-weighted average carbon intensity of the mix (gCO2/kWh).
    pub fn carbon_intensity(&self) -> CarbonIntensity {
        CarbonIntensity::new(
            self.shares
                .iter()
                .map(|(s, share)| s.carbon_intensity().value() * share)
                .sum(),
        )
    }

    /// Share-weighted average EWIF of the mix (L/kWh) under `dataset`.
    pub fn ewif(&self, dataset: EwifDataset) -> LitersPerKwh {
        LitersPerKwh::new(
            self.shares
                .iter()
                .map(|(s, share)| s.ewif_from(dataset).value() * share)
                .sum(),
        )
    }

    /// Blend two mixes: `self * (1 - w) + other * w`.
    pub fn blend(&self, other: &EnergyMix, w: f64) -> EnergyMix {
        let w = w.clamp(0.0, 1.0);
        let mut pairs: Vec<(EnergySource, f64)> = Vec::new();
        for source in ALL_SOURCES {
            let share = self.share_of(source) * (1.0 - w) + other.share_of(source) * w;
            if share > 0.0 {
                pairs.push((source, share));
            }
        }
        EnergyMix::new(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coal_is_much_dirtier_than_hydro() {
        let coal = EnergySource::Coal.carbon_intensity().value();
        let hydro = EnergySource::Hydro.carbon_intensity().value();
        // The paper quotes roughly a 62x gap.
        assert!(coal / hydro > 50.0);
    }

    #[test]
    fn hydro_is_much_thirstier_than_coal() {
        let hydro = EnergySource::Hydro.ewif().value();
        let coal = EnergySource::Coal.ewif().value();
        // The paper quotes roughly an 11x gap.
        assert!(hydro / coal > 8.0);
    }

    #[test]
    fn renewable_classification() {
        assert!(EnergySource::Hydro.is_renewable());
        assert!(EnergySource::Solar.is_renewable());
        assert!(!EnergySource::Coal.is_renewable());
        assert!(!EnergySource::Gas.is_renewable());
    }

    #[test]
    fn mix_shares_normalize() {
        let mix = EnergyMix::new([(EnergySource::Coal, 2.0), (EnergySource::Wind, 2.0)]);
        assert!((mix.share_of(EnergySource::Coal) - 0.5).abs() < 1e-12);
        assert!((mix.share_of(EnergySource::Wind) - 0.5).abs() < 1e-12);
        let total: f64 = mix.shares().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mix_drops_invalid_shares() {
        let mix = EnergyMix::new([
            (EnergySource::Coal, -1.0),
            (EnergySource::Wind, f64::NAN),
            (EnergySource::Solar, 3.0),
        ]);
        assert_eq!(mix.share_of(EnergySource::Solar), 1.0);
        assert_eq!(mix.share_of(EnergySource::Coal), 0.0);
    }

    #[test]
    fn mix_carbon_intensity_is_weighted_average() {
        let mix = EnergyMix::new([(EnergySource::Coal, 0.5), (EnergySource::Wind, 0.5)]);
        let expected = (1050.0 + 11.0) / 2.0;
        assert!((mix.carbon_intensity().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn single_source_mix() {
        let mix = EnergyMix::single(EnergySource::Solar);
        assert_eq!(
            mix.carbon_intensity().value(),
            EnergySource::Solar.carbon_intensity().value()
        );
    }

    #[test]
    fn wri_dataset_differs_from_primary() {
        let p = EnergySource::Hydro.ewif_from(EwifDataset::Primary).value();
        let w = EnergySource::Hydro
            .ewif_from(EwifDataset::WorldResourcesInstitute)
            .value();
        assert_ne!(p, w);
    }

    #[test]
    fn blend_interpolates() {
        let a = EnergyMix::single(EnergySource::Coal);
        let b = EnergyMix::single(EnergySource::Wind);
        let half = a.blend(&b, 0.5);
        assert!((half.share_of(EnergySource::Coal) - 0.5).abs() < 1e-12);
        let all_b = a.blend(&b, 1.0);
        assert!((all_b.share_of(EnergySource::Wind) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mix_is_empty() {
        let mix = EnergyMix::new([]);
        assert!(mix.is_empty());
        assert_eq!(mix.carbon_intensity().value(), 0.0);
    }
}
