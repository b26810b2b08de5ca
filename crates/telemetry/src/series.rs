//! A simple hourly time-series container used for all synthetic telemetry.

use serde::{Deserialize, Serialize};
use waterwise_sustain::Seconds;

/// A fixed-resolution (hourly) time series starting at simulation time zero.
///
/// Lookups outside the generated horizon wrap around, so a 1-year series can
/// back a multi-year simulation without special-casing, and short test
/// horizons never panic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourlySeries {
    values: Vec<f64>,
}

impl HourlySeries {
    /// Build a series from hourly samples. Panics if `values` is empty.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            !values.is_empty(),
            "an HourlySeries needs at least one sample"
        );
        Self { values }
    }

    /// Generate `hours` samples from a function of the hour index.
    pub fn generate(hours: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        Self::new((0..hours.max(1)).map(&mut f).collect())
    }

    /// Number of hourly samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: a series holds at least one sample (see
    /// [`HourlySeries::new`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample at an hour index (wrapping).
    pub fn at_hour(&self, hour: usize) -> f64 {
        self.values[hour % self.values.len()]
    }

    /// The index of the hour that contains `time` (negative times clamp to
    /// hour 0): what [`HourlySeries::at`] reads at, so that several series
    /// of one clock can be read at one instant by computing it once.
    pub fn hour_of(time: Seconds) -> usize {
        (time.value().max(0.0) / 3600.0).floor() as usize
    }

    /// Sample at a simulation time, using the hour that contains it
    /// (wrapping beyond the horizon).
    pub fn at(&self, time: Seconds) -> f64 {
        self.at_hour(Self::hour_of(time))
    }

    /// Linearly interpolated sample at a simulation time (wrapping).
    pub fn interpolate(&self, time: Seconds) -> f64 {
        let hours = time.value().max(0.0) / 3600.0;
        let lo = hours.floor() as usize;
        let frac = hours - hours.floor();
        let a = self.at_hour(lo);
        let b = self.at_hour(lo + 1);
        a + (b - a) * frac
    }

    /// Arithmetic mean of all samples.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Population standard deviation of the samples.
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        var.sqrt()
    }

    /// Apply a multiplicative factor to every sample.
    pub fn scaled(&self, factor: f64) -> Self {
        Self::new(self.values.iter().map(|v| v * factor).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_wrap_around() {
        let s = HourlySeries::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.at_hour(0), 1.0);
        assert_eq!(s.at_hour(3), 1.0);
        assert_eq!(s.at_hour(4), 2.0);
        assert_eq!(s.at(Seconds::from_hours(2.5)), 3.0);
        assert_eq!(s.at(Seconds::from_hours(3.5)), 1.0);
    }

    #[test]
    fn interpolation_is_linear_within_an_hour() {
        let s = HourlySeries::new(vec![0.0, 10.0]);
        assert!((s.interpolate(Seconds::from_hours(0.5)) - 5.0).abs() < 1e-12);
        assert!((s.interpolate(Seconds::from_hours(0.25)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn negative_times_clamp_to_start() {
        let s = HourlySeries::new(vec![7.0, 8.0]);
        assert_eq!(s.at(Seconds::new(-100.0)), 7.0);
    }

    #[test]
    fn statistics() {
        let s = HourlySeries::new(vec![2.0, 4.0, 6.0, 8.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 8.0);
        assert!(s.std_dev() > 0.0);
    }

    #[test]
    fn generate_and_scale() {
        let s = HourlySeries::generate(24, |h| h as f64);
        assert_eq!(s.len(), 24);
        let scaled = s.scaled(2.0);
        assert_eq!(scaled.at_hour(3), 6.0);
    }

    #[test]
    #[should_panic]
    fn empty_series_panics() {
        HourlySeries::new(vec![]);
    }
}
