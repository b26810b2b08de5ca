//! # waterwise-sustain
//!
//! Carbon- and water-footprint models for data-center sustainability, as
//! formalized in Section 2 of the WaterWise paper.
//!
//! The crate provides:
//!
//! * [`energy`] — energy sources (nuclear, wind, hydro, …, coal), their carbon
//!   intensity and Energy Water Intensity Factor (EWIF), and energy mixes
//!   (Fig. 1 of the paper).
//! * [`water`] — onsite/offsite/embodied water footprint components, the
//!   Water Usage Effectiveness (WUE) cooling-tower model driven by wet-bulb
//!   temperature, and the Water Scarcity Factor (WSF).
//! * [`carbon`] — operational and embodied carbon footprint (Eq. 1).
//! * [`intensity`] — carbon intensity and the paper's *water intensity*
//!   metric (Eq. 6).
//! * [`footprint`] — the combined per-job footprint estimator (Eq. 1 and 5).
//! * [`params`] — data-center parameters (PUE, server lifetime, embodied
//!   footprints).
//! * [`units`] — thin numeric newtypes used across the workspace.
//!
//! All quantities are plain `f64`-backed newtypes; the models are pure
//! functions so they can be evaluated millions of times per simulated
//! campaign without allocation.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod carbon;
pub mod energy;
pub mod footprint;
pub mod intensity;
pub mod params;
pub mod units;
pub mod water;

pub use carbon::{CarbonFootprint, EmbodiedCarbonModel, OperationalCarbonModel};
pub use energy::{EnergyMix, EnergySource, EwifDataset, ALL_SOURCES};
pub use footprint::{
    DecisionProjection, FootprintBreakdown, FootprintEstimator, FootprintTotals, JobResourceUsage,
    RegionConditions,
};
pub use intensity::{CarbonIntensity, WaterIntensity};
pub use params::{DataCenterParams, ServerParams};
pub use units::{Co2Grams, Hours, KilowattHours, Liters, LitersPerKwh, Seconds, Watts};
pub use water::{
    wue_from_wet_bulb, CoolingModel, WaterFootprint, WaterScarcityFactor, WaterUsageEffectiveness,
};
