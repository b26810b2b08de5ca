//! The [`ConditionsProvider`] abstraction consumed by schedulers and the
//! simulator, plus its synthetic, constant, and perturbed implementations.

use crate::grid::{GridModel, GridSeries};
use crate::region::{Region, ALL_REGIONS};
use crate::series::HourlySeries;
use crate::weather::WeatherModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use waterwise_sustain::{
    CarbonIntensity, CoolingModel, EwifDataset, LitersPerKwh, RegionConditions, Seconds,
    WaterIntensity, WaterScarcityFactor, WaterUsageEffectiveness,
};

/// The instants a trailing window samples, newest first: `at − 3600·k` for
/// `k` in `0..window`, clamped at zero. One expression for the trait's
/// defaults and every override that must agree with them to the bit.
fn trailing_instants(at: Seconds, window: usize) -> impl Iterator<Item = Seconds> {
    (0..window).map(move |k| Seconds::new((at.value() - k as f64 * 3600.0).max(0.0)))
}

/// Provides the environmental conditions of every region at any simulation
/// time. Implementations must be cheap to query (the simulator asks for
/// conditions on every scheduling round and job completion).
pub trait ConditionsProvider: Send + Sync {
    /// Conditions (CI, EWIF, WUE, WSF) of `region` at simulation time `at`.
    fn conditions(&self, region: Region, at: Seconds) -> RegionConditions;

    /// The conditions of each of `regions` at `at`, in order, written over
    /// `out`: to the bit what [`ConditionsProvider::conditions`] returns for
    /// each. The default asks `conditions` once per region, so a wrapper
    /// that overrides `conditions` alone still sees every lookup; an
    /// override may share the work the regions have in common.
    fn conditions_of(&self, regions: &[Region], at: Seconds, out: &mut Vec<RegionConditions>) {
        out.clear();
        out.extend(regions.iter().map(|&region| self.conditions(region, at)));
    }

    /// The water scarcity factor of a region (time-invariant in the paper).
    fn wsf(&self, region: Region) -> WaterScarcityFactor {
        self.conditions(region, Seconds::zero()).wsf
    }

    /// Trailing mean carbon intensity over `window_hours`, used by the
    /// scheduler's history learner (`CO2_ref` in Eq. 8).
    fn trailing_carbon(&self, region: Region, at: Seconds, window_hours: usize) -> CarbonIntensity {
        let mut sum = 0.0;
        let window = window_hours.max(1);
        for t in trailing_instants(at, window) {
            sum += self.conditions(region, t).carbon_intensity.value();
        }
        CarbonIntensity::new(sum / window as f64)
    }

    /// Trailing mean water intensity components (EWIF + WUE weighted) over
    /// `window_hours`, expressed through Eq. 6 with the given PUE — the
    /// `H2O_ref` term of Eq. 8.
    fn trailing_water_intensity(
        &self,
        region: Region,
        at: Seconds,
        window_hours: usize,
        pue: f64,
    ) -> f64 {
        let window = window_hours.max(1);
        let mut sum = 0.0;
        for t in trailing_instants(at, window) {
            let c = self.conditions(region, t);
            sum += c.water_intensity(pue).value();
        }
        sum / window as f64
    }
}

/// Configuration of the synthetic telemetry generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// RNG seed; every series is a deterministic function of it.
    pub seed: u64,
    /// Horizon to pre-generate, in days (lookups beyond it wrap around).
    pub horizon_days: usize,
    /// Which per-source EWIF dataset to use.
    pub dataset: EwifDataset,
    /// Cooling model mapping wet-bulb temperature to WUE.
    pub cooling: CoolingModel,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            seed: 0x057A_7E12_F00D,
            horizon_days: 30,
            dataset: EwifDataset::Primary,
            cooling: CoolingModel::default(),
        }
    }
}

/// Pre-generated synthetic telemetry for all five regions.
///
/// ```
/// use waterwise_telemetry::{ConditionsProvider, Region, SyntheticTelemetry};
/// use waterwise_sustain::Seconds;
///
/// let telemetry = SyntheticTelemetry::with_seed(42);
/// let conditions = telemetry.conditions(Region::Oregon, Seconds::from_hours(12.0));
/// assert!(conditions.carbon_intensity.value() > 0.0);
/// // Seeded generation is deterministic: the same seed replays the same
/// // conditions.
/// let again = SyntheticTelemetry::with_seed(42);
/// assert_eq!(
///     conditions,
///     again.conditions(Region::Oregon, Seconds::from_hours(12.0)),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTelemetry {
    config: TelemetryConfig,
    /// The length of every series (the horizon in hours), which lookups
    /// beyond it wrap around.
    hours: usize,
    regions: Vec<RegionSeries>,
}

#[derive(Debug, Clone)]
struct RegionSeries {
    wsf: WaterScarcityFactor,
    grid: GridSeries,
    wue: HourlySeries,
}

impl SyntheticTelemetry {
    /// Generate telemetry for all regions under the given configuration.
    pub fn generate(config: TelemetryConfig) -> Self {
        let hours = (config.horizon_days.max(1)) * 24;
        let regions = ALL_REGIONS
            .iter()
            .map(|&region| {
                let profile = region.profile();
                let grid = GridModel::new(profile.clone(), config.seed).generate(hours);
                let weather = WeatherModel::new(profile.climate, config.seed).generate(hours);
                let wue = HourlySeries::generate(hours, |h| {
                    config.cooling.wue(weather.at_hour(h)).value()
                });
                RegionSeries {
                    wsf: profile.wsf,
                    grid,
                    wue,
                }
            })
            .collect::<Vec<_>>();
        // `conditions` wraps an instant's hour once for every series it reads.
        for r in &regions {
            let grid = &r.grid;
            for series in [
                &grid.carbon_intensity,
                &grid.ewif_primary,
                &grid.ewif_wri,
                &r.wue,
            ] {
                assert_eq!(series.len(), hours, "telemetry series of unequal length");
            }
        }
        Self {
            config,
            hours,
            regions,
        }
    }

    /// Generate with default configuration and a seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::generate(TelemetryConfig {
            seed,
            ..TelemetryConfig::default()
        })
    }

    /// The configuration used to generate this telemetry.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The generated hourly carbon-intensity series of a region.
    pub fn carbon_series(&self, region: Region) -> &HourlySeries {
        &self.regions[region.index()].grid.carbon_intensity
    }

    /// The generated hourly WUE series of a region.
    pub fn wue_series(&self, region: Region) -> &HourlySeries {
        &self.regions[region.index()].wue
    }

    /// The generated hourly regional-EWIF series of a region under the
    /// configured dataset.
    pub fn ewif_series(&self, region: Region) -> &HourlySeries {
        let r = &self.regions[region.index()];
        match self.config.dataset {
            EwifDataset::Primary => &r.grid.ewif_primary,
            EwifDataset::WorldResourcesInstitute => &r.grid.ewif_wri,
        }
    }

    /// Wrap this telemetry in an [`Arc`] for sharing across schedulers and
    /// the simulator.
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }
}

impl SyntheticTelemetry {
    /// The index of the hour that contains `at`, wrapped once for all three
    /// series: they share one length (`generate` asserts it), so it is the
    /// sample each series' `at` would read
    /// (`conditions_read_each_series_at_the_instant`).
    fn wrapped_hour(&self, at: Seconds) -> usize {
        HourlySeries::hour_of(at) % self.hours
    }

    /// `region`'s conditions at a wrapped hour index.
    fn conditions_at_hour(&self, region: Region, hour: usize) -> RegionConditions {
        let r = &self.regions[region.index()];
        let ewif = match self.config.dataset {
            EwifDataset::Primary => &r.grid.ewif_primary,
            EwifDataset::WorldResourcesInstitute => &r.grid.ewif_wri,
        };
        RegionConditions {
            carbon_intensity: CarbonIntensity::new(r.grid.carbon_intensity.values()[hour]),
            ewif: LitersPerKwh::new(ewif.values()[hour]),
            wue: WaterUsageEffectiveness::new(r.wue.values()[hour]),
            wsf: r.wsf,
        }
    }
}

impl ConditionsProvider for SyntheticTelemetry {
    fn conditions(&self, region: Region, at: Seconds) -> RegionConditions {
        self.conditions_at_hour(region, self.wrapped_hour(at))
    }

    // One hour index for every region (`conditions_of_is_conditions_per_region`).
    fn conditions_of(&self, regions: &[Region], at: Seconds, out: &mut Vec<RegionConditions>) {
        let hour = self.wrapped_hour(at);
        out.clear();
        out.extend(
            regions
                .iter()
                .map(|&region| self.conditions_at_hour(region, hour)),
        );
    }

    // The two trailing means read their own series only — one read per
    // sampled hour, not a whole `conditions` — at the defaults' instants, in
    // their order and through their constructors, so the sums are the same
    // bits (`series_trailing_means_equal_the_sampled_defaults`). A wrapper
    // that rescales samples (`PerturbedProvider`) must keep the defaults:
    // scaling a mean is not averaging scaled samples, to the last ulp.
    fn trailing_carbon(&self, region: Region, at: Seconds, window_hours: usize) -> CarbonIntensity {
        let window = window_hours.max(1);
        let carbon = self.carbon_series(region);
        let mut sum = 0.0;
        for t in trailing_instants(at, window) {
            sum += carbon.at(t);
        }
        CarbonIntensity::new(sum / window as f64)
    }

    fn trailing_water_intensity(
        &self,
        region: Region,
        at: Seconds,
        window_hours: usize,
        pue: f64,
    ) -> f64 {
        let window = window_hours.max(1);
        let (ewif, wue) = (self.ewif_series(region), self.wue_series(region));
        let wsf = self.regions[region.index()].wsf;
        let mut sum = 0.0;
        for t in trailing_instants(at, window) {
            let (wue, ewif) = (
                WaterUsageEffectiveness::new(wue.at(t)),
                LitersPerKwh::new(ewif.at(t)),
            );
            sum += WaterIntensity::from_components(wue, pue, ewif, wsf).value();
        }
        sum / window as f64
    }
}

impl<P: ConditionsProvider + ?Sized> ConditionsProvider for Arc<P> {
    fn conditions(&self, region: Region, at: Seconds) -> RegionConditions {
        (**self).conditions(region, at)
    }

    // Forwarded, not defaulted: behind an `Arc` — how every scheduler and the
    // simulator hold a provider — the defaults would shadow `P`'s overrides.
    fn conditions_of(&self, regions: &[Region], at: Seconds, out: &mut Vec<RegionConditions>) {
        (**self).conditions_of(regions, at, out)
    }

    fn wsf(&self, region: Region) -> WaterScarcityFactor {
        (**self).wsf(region)
    }

    fn trailing_carbon(&self, region: Region, at: Seconds, window_hours: usize) -> CarbonIntensity {
        (**self).trailing_carbon(region, at, window_hours)
    }

    fn trailing_water_intensity(
        &self,
        region: Region,
        at: Seconds,
        window_hours: usize,
        pue: f64,
    ) -> f64 {
        (**self).trailing_water_intensity(region, at, window_hours, pue)
    }
}

/// A provider with fixed, time-invariant conditions per region — useful for
/// unit tests and for isolating spatial from temporal effects in ablations.
#[derive(Debug, Clone)]
pub struct ConstantConditions {
    per_region: Vec<RegionConditions>,
}

impl ConstantConditions {
    /// Build from explicit per-region conditions (indexed by [`Region::index`]).
    pub fn new(per_region: Vec<RegionConditions>) -> Self {
        assert_eq!(per_region.len(), ALL_REGIONS.len());
        Self { per_region }
    }

    /// Build from each region's annual-average profile values.
    pub fn from_profiles(dataset: EwifDataset, cooling: &CoolingModel) -> Self {
        let per_region = ALL_REGIONS
            .iter()
            .map(|r| {
                let p = r.profile();
                RegionConditions {
                    carbon_intensity: p.base_mix.carbon_intensity(),
                    ewif: p.base_mix.ewif(dataset),
                    wue: cooling.wue(p.climate.mean_wet_bulb),
                    wsf: p.wsf,
                }
            })
            .collect();
        Self { per_region }
    }
}

impl ConditionsProvider for ConstantConditions {
    fn conditions(&self, region: Region, _at: Seconds) -> RegionConditions {
        self.per_region[region.index()]
    }
}

/// Wraps another provider and applies multiplicative perturbations to the
/// carbon- and water-related signals — used for the paper's ±10% sensitivity
/// analysis of embodied carbon and water intensity estimates.
#[derive(Debug, Clone)]
pub struct PerturbedProvider<P> {
    inner: P,
    /// Factor applied to carbon intensity.
    pub carbon_factor: f64,
    /// Factor applied to EWIF and WUE (the water-intensity components).
    pub water_factor: f64,
}

impl<P: ConditionsProvider> PerturbedProvider<P> {
    /// Wrap a provider with carbon/water perturbation factors.
    pub fn new(inner: P, carbon_factor: f64, water_factor: f64) -> Self {
        Self {
            inner,
            carbon_factor,
            water_factor,
        }
    }
}

impl<P: ConditionsProvider> ConditionsProvider for PerturbedProvider<P> {
    fn conditions(&self, region: Region, at: Seconds) -> RegionConditions {
        let c = self.inner.conditions(region, at);
        RegionConditions {
            carbon_intensity: c.carbon_intensity.scaled(self.carbon_factor),
            ewif: LitersPerKwh::new(c.ewif.value() * self.water_factor),
            wue: WaterUsageEffectiveness::new(c.wue.value() * self.water_factor),
            wsf: c.wsf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_generation_and_lookup() {
        let telemetry = SyntheticTelemetry::with_seed(7);
        let c = telemetry.conditions(Region::Zurich, Seconds::from_hours(5.5));
        assert!(c.carbon_intensity.value() > 0.0);
        assert!(c.ewif.value() > 0.0);
        assert!(c.wue.value() >= 0.0);
        assert_eq!(c.wsf.value(), Region::Zurich.profile().wsf.value());
    }

    #[test]
    fn lookup_wraps_beyond_horizon() {
        let telemetry = SyntheticTelemetry::generate(TelemetryConfig {
            seed: 3,
            horizon_days: 2,
            ..TelemetryConfig::default()
        });
        let inside = telemetry.conditions(Region::Milan, Seconds::from_hours(10.0));
        let wrapped = telemetry.conditions(Region::Milan, Seconds::from_hours(10.0 + 48.0));
        assert_eq!(inside.carbon_intensity, wrapped.carbon_intensity);
    }

    #[test]
    fn spatial_carbon_water_tension_is_present() {
        let telemetry = SyntheticTelemetry::with_seed(11);
        let t = Seconds::from_hours(12.0);
        let zurich = telemetry.conditions(Region::Zurich, t);
        let mumbai = telemetry.conditions(Region::Mumbai, t);
        assert!(zurich.carbon_intensity.value() < mumbai.carbon_intensity.value());
        assert!(zurich.ewif.value() > mumbai.ewif.value());
        assert!(mumbai.wue.value() > zurich.wue.value());
    }

    #[test]
    fn trailing_means_are_smoother_than_instantaneous() {
        let telemetry = SyntheticTelemetry::with_seed(5);
        let at = Seconds::from_hours(200.0);
        let inst = telemetry
            .conditions(Region::Oregon, at)
            .carbon_intensity
            .value();
        let trail = telemetry.trailing_carbon(Region::Oregon, at, 10).value();
        assert!(trail > 0.0);
        // Not a strict smoothness guarantee, but both must be in a sane range.
        assert!(inst > 0.0 && inst < 1600.0 && trail < 1600.0);
    }

    #[test]
    fn constant_provider_is_time_invariant() {
        let p = ConstantConditions::from_profiles(EwifDataset::Primary, &CoolingModel::default());
        let a = p.conditions(Region::Madrid, Seconds::zero());
        let b = p.conditions(Region::Madrid, Seconds::from_hours(1000.0));
        assert_eq!(a, b);
    }

    #[test]
    fn perturbation_scales_carbon_and_water() {
        let base =
            ConstantConditions::from_profiles(EwifDataset::Primary, &CoolingModel::default());
        let reference = base.conditions(Region::Oregon, Seconds::zero());
        let perturbed = PerturbedProvider::new(base, 1.1, 0.9);
        let c = perturbed.conditions(Region::Oregon, Seconds::zero());
        assert!(
            (c.carbon_intensity.value() / reference.carbon_intensity.value() - 1.1).abs() < 1e-9
        );
        assert!((c.ewif.value() / reference.ewif.value() - 0.9).abs() < 1e-9);
        assert!((c.wue.value() / reference.wue.value() - 0.9).abs() < 1e-9);
        assert_eq!(c.wsf, reference.wsf);
    }

    #[test]
    fn wri_dataset_changes_conditions() {
        let primary = SyntheticTelemetry::generate(TelemetryConfig {
            seed: 9,
            horizon_days: 5,
            dataset: EwifDataset::Primary,
            ..TelemetryConfig::default()
        });
        let wri = SyntheticTelemetry::generate(TelemetryConfig {
            seed: 9,
            horizon_days: 5,
            dataset: EwifDataset::WorldResourcesInstitute,
            ..TelemetryConfig::default()
        });
        let t = Seconds::from_hours(30.0);
        let a = primary.conditions(Region::Zurich, t);
        let b = wri.conditions(Region::Zurich, t);
        assert_ne!(a.ewif, b.ewif);
        assert_eq!(a.carbon_intensity, b.carbon_intensity);
    }

    /// `P` behind its `conditions` alone: every other method is the trait's
    /// default, which is what an override has to reproduce.
    struct Sampled<P>(P);

    impl<P: ConditionsProvider> ConditionsProvider for Sampled<P> {
        fn conditions(&self, region: Region, at: Seconds) -> RegionConditions {
            self.0.conditions(region, at)
        }
    }

    /// The start of the telemetry hour that contains `at`, `3600·⌊at/3600⌋`:
    /// where the scheduler's history learner takes its trailing means.
    fn hour_start(at: Seconds) -> Seconds {
        Seconds::new((at.value() / 3600.0).floor() * 3600.0)
    }

    /// Whether `a` and `b` return the same bits for both trailing means of
    /// `region` over `window` hours, `a` at `at` and `b` at `b_at`.
    fn same_trailing_means(
        a: &dyn ConditionsProvider,
        b: &dyn ConditionsProvider,
        region: Region,
        (at, b_at): (Seconds, Seconds),
        window: usize,
    ) -> bool {
        let carbon = |p: &dyn ConditionsProvider, at| {
            p.trailing_carbon(region, at, window).value().to_bits()
        };
        let water = |p: &dyn ConditionsProvider, at| {
            p.trailing_water_intensity(region, at, window, 1.2)
                .to_bits()
        };
        carbon(a, at) == carbon(b, b_at) && water(a, at) == water(b, b_at)
    }

    /// Instants at which two days of telemetry are hardest to read right:
    /// time zero, inside the first hours, an ulp either side of hour
    /// boundaries, and beyond the horizon (hour 60 wraps). Every trailing
    /// window of up to 48 hours reaches back past time zero (the clamp) from
    /// the early ones.
    fn edge_instants() -> [Seconds; 12] {
        let hour = 3600.0_f64;
        [
            0.0,
            0.4 * hour,
            2.5 * hour,
            (3.0 * hour).next_down(),
            3.0 * hour,
            (3.0 * hour).next_up(),
            (17.0 * hour).next_down(),
            (17.0 * hour).next_up(),
            47.99 * hour,
            60.0 * hour,
            (96.0 * hour).next_down(),
            1234.5 * hour,
        ]
        .map(Seconds::new)
    }

    #[test]
    fn conditions_read_each_series_at_the_instant() {
        // Beyond the 48-hour horizon, where `conditions` wraps the hour once
        // for the three series: at the wrap and around it, several wraps
        // later, and far out.
        let hour = 3600.0_f64;
        let wrapping = [
            48.0 * hour,
            (48.0 * hour).next_down(),
            (48.0 * hour).next_up(),
            95.5 * hour,
            97.0 * hour,
            (480.0 * hour).next_down(),
            10_000.25 * hour,
            1e12,
        ]
        .map(Seconds::new);
        assert!(wrapping[1..]
            .iter()
            .all(|&at| HourlySeries::hour_of(at) >= 47));
        for dataset in [EwifDataset::Primary, EwifDataset::WorldResourcesInstitute] {
            let telemetry = SyntheticTelemetry::generate(TelemetryConfig {
                seed: 13,
                horizon_days: 2,
                dataset,
                ..TelemetryConfig::default()
            });
            for region in ALL_REGIONS {
                for at in edge_instants().into_iter().chain(wrapping) {
                    let read = telemetry.conditions(region, at);
                    let per_series = RegionConditions {
                        carbon_intensity: CarbonIntensity::new(
                            telemetry.carbon_series(region).at(at),
                        ),
                        ewif: LitersPerKwh::new(telemetry.ewif_series(region).at(at)),
                        wue: WaterUsageEffectiveness::new(telemetry.wue_series(region).at(at)),
                        wsf: region.profile().wsf,
                    };
                    assert_eq!(
                        bits(&read),
                        bits(&per_series),
                        "{dataset:?} {region} at {} s",
                        at.value()
                    );
                }
            }
        }
    }

    /// The four components of `conditions`, as bits.
    fn bits(c: &RegionConditions) -> [u64; 4] {
        [
            c.carbon_intensity.value(),
            c.ewif.value(),
            c.wue.value(),
            c.wsf.value(),
        ]
        .map(f64::to_bits)
    }

    /// Whether `provider.conditions_of(regions, at)` is, to the bit, its
    /// `conditions` per region, written over whatever `out` held before.
    fn conditions_of_is_per_region(
        provider: &dyn ConditionsProvider,
        regions: &[Region],
        at: Seconds,
    ) -> bool {
        let stale = provider.conditions(Region::Mumbai, Seconds::from_hours(7.0));
        let mut out = vec![stale; 3];
        provider.conditions_of(regions, at, &mut out);
        let per_region = regions
            .iter()
            .map(|&region| provider.conditions(region, at));
        out.len() == regions.len() && out.iter().zip(per_region).all(|(a, b)| bits(a) == bits(&b))
    }

    /// A wrapper that counts its `conditions` calls and overrides nothing
    /// else, as a counting wrapper would.
    struct Counting<P> {
        inner: P,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl<P: ConditionsProvider> ConditionsProvider for Counting<P> {
        fn conditions(&self, region: Region, at: Seconds) -> RegionConditions {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.conditions(region, at)
        }
    }

    #[test]
    fn conditions_of_is_conditions_per_region() {
        let hour = 3600.0_f64;
        // On, just below and past hour boundaries, beyond the two-day
        // horizon (the wrap), and before time zero.
        let mut instants = edge_instants().to_vec();
        instants.extend(
            [
                hour,
                hour.next_down(),
                48.0 * hour,
                (48.0 * hour).next_down(),
                (48.0 * hour).next_up(),
                97.5 * hour,
                1e12,
                -0.0,
                -1.0,
                -hour,
                -1e12,
            ]
            .map(Seconds::new),
        );
        let region_lists: [&[Region]; 4] = [
            &ALL_REGIONS,
            &[Region::Milan],
            &[Region::Zurich, Region::Oregon, Region::Zurich],
            &[],
        ];
        for dataset in [EwifDataset::Primary, EwifDataset::WorldResourcesInstitute] {
            let telemetry = SyntheticTelemetry::generate(TelemetryConfig {
                seed: 19,
                horizon_days: 2,
                dataset,
                ..TelemetryConfig::default()
            });
            let constant = ConstantConditions::from_profiles(dataset, &CoolingModel::default());
            let perturbed = PerturbedProvider::new(telemetry.clone(), 1.1, 0.9);
            let shared = telemetry.clone().shared();
            let dynamic: Arc<dyn ConditionsProvider> = shared.clone();
            let providers: [&dyn ConditionsProvider; 5] =
                [&telemetry, &constant, &perturbed, &shared, &dynamic];
            for (provider, regions, &at) in providers
                .iter()
                .flat_map(|&p| region_lists.iter().map(move |&r| (p, r)))
                .flat_map(|(p, r)| instants.iter().map(move |at| (p, r, at)))
            {
                assert!(
                    conditions_of_is_per_region(provider, regions, at),
                    "{dataset:?} {regions:?} at {} s",
                    at.value()
                );
            }
        }
        // A wrapper of `conditions` alone sees one call per region, also
        // behind an `Arc`.
        let counting = Arc::new(Counting {
            inner: SyntheticTelemetry::with_seed(19),
            calls: Default::default(),
        });
        let dynamic: Arc<dyn ConditionsProvider> = counting.clone();
        let mut out = Vec::new();
        for (n, regions) in region_lists.into_iter().enumerate() {
            let before = counting.calls.load(std::sync::atomic::Ordering::Relaxed);
            let provider: &dyn ConditionsProvider = if n % 2 == 0 { &counting } else { &dynamic };
            provider.conditions_of(regions, Seconds::from_hours(5.5), &mut out);
            let calls = counting.calls.load(std::sync::atomic::Ordering::Relaxed) - before;
            assert_eq!(calls, regions.len(), "{regions:?}");
        }
    }

    #[test]
    fn series_trailing_means_equal_the_sampled_defaults() {
        for dataset in [EwifDataset::Primary, EwifDataset::WorldResourcesInstitute] {
            let series = SyntheticTelemetry::generate(TelemetryConfig {
                seed: 13,
                horizon_days: 2,
                dataset,
                ..TelemetryConfig::default()
            });
            let sampled = Sampled(series.clone());
            let perturbed = PerturbedProvider::new(series.clone(), 1.1, 0.9);
            let perturbed_sampled = Sampled(perturbed.clone());
            for region in ALL_REGIONS {
                for at in edge_instants() {
                    for window in [0, 1, 10, 48] {
                        let same = |a: &dyn ConditionsProvider, b: &dyn ConditionsProvider| {
                            same_trailing_means(a, b, region, (at, at), window)
                        };
                        assert!(
                            same(&series, &sampled),
                            "{dataset:?} {region} at {} s, window {window}",
                            at.value()
                        );
                        // Scaling is per sample: it keeps the defaults.
                        assert!(same(&perturbed, &perturbed_sampled));
                        // Hourly telemetry: the hour's start samples the
                        // same hours as any instant inside it.
                        let anchored = (at, hour_start(at));
                        for provider in [&series as &dyn ConditionsProvider, &perturbed] {
                            assert!(
                                same_trailing_means(provider, provider, region, anchored, window),
                                "{dataset:?} {region} at {} s, window {window}: not the \
                                 hour's start",
                                at.value()
                            );
                        }
                    }
                }
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The scheduler's history anchor is exact for hourly telemetry:
        /// trailing means at any `at` are, to the bit, those at the start of
        /// its hour. `at` spans every magnitude up to 2^53 s — inside the
        /// two-day horizon, past it (wrapping), and within an ulp of hour
        /// boundaries where the mantissa runs out.
        #[test]
        fn trailing_means_are_those_of_the_hours_start(
            draws in prop::collection::vec((0.0f64..1.0, 0u32..54, 0usize..5, 0usize..4, 0u64..3), 1..16),
        ) {
            let telemetry = |dataset| {
                SyntheticTelemetry::generate(TelemetryConfig {
                    seed: 17,
                    horizon_days: 2,
                    dataset,
                    ..TelemetryConfig::default()
                })
            };
            let primary = telemetry(EwifDataset::Primary);
            let wri = telemetry(EwifDataset::WorldResourcesInstitute);
            let perturbed = PerturbedProvider::new(primary.clone(), 0.9, 1.1);
            for (fraction, exponent, region, window, nudge) in draws {
                let at = fraction * 2f64.powi(exponent as i32);
                // One draw in three just below the next hour boundary.
                let at = match nudge {
                    0 => (hour_start(Seconds::new(at)).value() + 3600.0).next_down(),
                    _ => at,
                };
                let at = Seconds::new(at);
                let (region, window) = (ALL_REGIONS[region], [0, 1, 10, 48][window]);
                for provider in [&primary as &dyn ConditionsProvider, &wri, &perturbed] {
                    prop_assert!(
                        same_trailing_means(provider, provider, region, (at, hour_start(at)), window),
                        "{region} at {} s, window {window}",
                        at.value()
                    );
                }
            }
        }
    }

    #[test]
    fn an_arc_forwards_every_override() {
        // Answers no default can give: each shows its own method was reached.
        struct Overrides;
        impl ConditionsProvider for Overrides {
            fn conditions(&self, _: Region, _: Seconds) -> RegionConditions {
                RegionConditions {
                    carbon_intensity: CarbonIntensity::new(1.0),
                    ewif: LitersPerKwh::new(1.0),
                    wue: WaterUsageEffectiveness::new(1.0),
                    wsf: WaterScarcityFactor::new(0.25),
                }
            }
            fn conditions_of(&self, _: &[Region], _: Seconds, out: &mut Vec<RegionConditions>) {
                out.clear();
            }
            fn wsf(&self, _: Region) -> WaterScarcityFactor {
                WaterScarcityFactor::new(0.75)
            }
            fn trailing_carbon(&self, _: Region, _: Seconds, _: usize) -> CarbonIntensity {
                CarbonIntensity::new(-2.0)
            }
            fn trailing_water_intensity(&self, _: Region, _: Seconds, _: usize, _: f64) -> f64 {
                -3.0
            }
        }
        let shared: Arc<dyn ConditionsProvider> = Arc::new(Overrides);
        let at = Seconds::from_hours(5.0);
        assert_eq!(shared.conditions(Region::Milan, at).wsf.value(), 0.25);
        let mut out = Vec::new();
        shared.conditions_of(&[Region::Milan], at, &mut out);
        assert!(out.is_empty(), "the default of conditions_of was reached");
        assert_eq!(shared.wsf(Region::Milan).value(), 0.75);
        assert_eq!(shared.trailing_carbon(Region::Milan, at, 10).value(), -2.0);
        assert_eq!(
            shared.trailing_water_intensity(Region::Milan, at, 10, 1.2),
            -3.0
        );
    }

    #[test]
    fn arc_provider_passthrough() {
        let telemetry = SyntheticTelemetry::with_seed(2).shared();
        let direct = telemetry.conditions(Region::Mumbai, Seconds::from_hours(3.0));
        let via_trait: &dyn ConditionsProvider = &telemetry;
        assert_eq!(
            via_trait.conditions(Region::Mumbai, Seconds::from_hours(3.0)),
            direct
        );
    }
}
