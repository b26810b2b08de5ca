//! The combined per-job footprint estimator (Eq. 1 and Eq. 5 of the paper).
//!
//! Given a job's resource usage (energy, execution time) and the
//! environmental conditions of the region executing it (carbon intensity,
//! EWIF, WUE, WSF, PUE), this module computes the full carbon and water
//! footprint breakdown that both the scheduler's objective function and the
//! evaluation metrics are built on.

use crate::carbon::{CarbonFootprint, OperationalCarbonModel};
use crate::intensity::{CarbonIntensity, WaterIntensity};
use crate::params::DataCenterParams;
use crate::units::{Co2Grams, KilowattHours, Liters, LitersPerKwh, Seconds};
use crate::water::{WaterFootprint, WaterScarcityFactor, WaterUsageEffectiveness};
use serde::{Deserialize, Serialize};

/// The resources a job consumes, as known (or estimated) by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobResourceUsage {
    /// IT energy consumed by the job (kWh).
    pub energy: KilowattHours,
    /// Wall-clock execution time of the job.
    pub execution_time: Seconds,
}

impl JobResourceUsage {
    /// Construct a usage record.
    pub fn new(energy: KilowattHours, execution_time: Seconds) -> Self {
        Self {
            energy,
            execution_time,
        }
    }
}

/// Environmental conditions of a candidate region at scheduling time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionConditions {
    /// Grid carbon intensity (gCO2/kWh).
    pub carbon_intensity: CarbonIntensity,
    /// Regional average EWIF of the grid's current energy mix (L/kWh).
    pub ewif: LitersPerKwh,
    /// Water usage effectiveness implied by current weather (L/kWh).
    pub wue: WaterUsageEffectiveness,
    /// Water scarcity factor of the region.
    pub wsf: WaterScarcityFactor,
}

impl RegionConditions {
    /// The paper's water-intensity metric (Eq. 6) under these conditions.
    pub fn water_intensity(&self, pue: f64) -> WaterIntensity {
        WaterIntensity::from_components(self.wue, pue, self.ewif, self.wsf)
    }
}

/// Complete carbon + water footprint of one job execution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FootprintBreakdown {
    /// Carbon footprint split (operational + embodied).
    pub carbon: CarbonFootprint,
    /// Water footprint split (offsite + onsite + embodied), in effective liters.
    pub water: WaterFootprint,
}

impl FootprintBreakdown {
    /// Total carbon (gCO2).
    #[inline]
    pub fn total_carbon(&self) -> Co2Grams {
        self.carbon.total()
    }

    /// Total effective water (L).
    #[inline]
    pub fn total_water(&self) -> Liters {
        self.water.total()
    }

    /// Component-wise accumulation.
    pub fn accumulate(&mut self, other: &FootprintBreakdown) {
        self.carbon.accumulate(&other.carbon);
        self.water.accumulate(&other.water);
    }
}

/// The totals of a [`FootprintBreakdown`] without its components: total
/// carbon (Eq. 1) and total effective water (Eq. 5), 16 bytes against the
/// breakdown's 40. It is what a record that is only ever summed keeps (the
/// simulator's per-job outcome); the components stay one
/// [`FootprintEstimator::estimate`] call away.
///
/// ```
/// use waterwise_sustain::{
///     CarbonIntensity, FootprintEstimator, FootprintTotals, JobResourceUsage, KilowattHours,
///     LitersPerKwh, RegionConditions, Seconds, WaterScarcityFactor, WaterUsageEffectiveness,
/// };
///
/// let estimator = FootprintEstimator::paper_default();
/// let usage = JobResourceUsage::new(KilowattHours::new(0.5), Seconds::new(600.0));
/// let conditions = RegionConditions {
///     carbon_intensity: CarbonIntensity::new(220.0),
///     ewif: LitersPerKwh::new(1.8),
///     wue: WaterUsageEffectiveness::new(0.4),
///     wsf: WaterScarcityFactor::new(0.6),
/// };
/// let breakdown = estimator.estimate(usage, conditions);
/// let totals = FootprintTotals::from(&breakdown);
/// assert_eq!(totals.total_carbon(), breakdown.total_carbon());
/// assert_eq!(totals.total_water(), breakdown.total_water());
/// assert_eq!(std::mem::size_of::<FootprintTotals>(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FootprintTotals {
    /// Total carbon (gCO2): operational plus embodied.
    pub carbon: Co2Grams,
    /// Total effective water (L): offsite plus onsite plus embodied.
    pub water: Liters,
}

impl FootprintTotals {
    /// Total carbon (gCO2).
    #[inline]
    pub fn total_carbon(&self) -> Co2Grams {
        self.carbon
    }

    /// Total effective water (L).
    #[inline]
    pub fn total_water(&self) -> Liters {
        self.water
    }
}

impl From<&FootprintBreakdown> for FootprintTotals {
    #[inline]
    fn from(breakdown: &FootprintBreakdown) -> Self {
        Self {
            carbon: breakdown.total_carbon(),
            water: breakdown.total_water(),
        }
    }
}

/// Footprint estimator bound to a data center's parameters (PUE, server
/// embodied footprints). Evaluating a job in a region is a pure function of
/// the job's usage and the region's current conditions.
///
/// ```
/// use waterwise_sustain::{
///     CarbonIntensity, FootprintEstimator, JobResourceUsage, KilowattHours, LitersPerKwh,
///     RegionConditions, Seconds, WaterScarcityFactor, WaterUsageEffectiveness,
/// };
///
/// let estimator = FootprintEstimator::paper_default();
/// let usage = JobResourceUsage::new(KilowattHours::new(0.5), Seconds::new(600.0));
/// let conditions = RegionConditions {
///     carbon_intensity: CarbonIntensity::new(220.0),
///     ewif: LitersPerKwh::new(1.8),
///     wue: WaterUsageEffectiveness::new(0.4),
///     wsf: WaterScarcityFactor::new(0.6),
/// };
/// let footprint = estimator.estimate(usage, conditions);
/// assert!(footprint.total_carbon().value() > 0.0);
/// // Embodied terms make the total exceed the operational share alone.
/// let operational = estimator.estimate_operational(usage, conditions);
/// assert!(footprint.total_carbon().value() > operational.total_carbon().value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FootprintEstimator {
    /// The data-center parameters (PUE, server characteristics).
    pub params: DataCenterParams,
}

impl FootprintEstimator {
    /// Create an estimator with the given parameters.
    pub fn new(params: DataCenterParams) -> Self {
        Self { params }
    }

    /// Estimator with the paper's default setting (PUE 1.2, m5.metal servers).
    pub fn paper_default() -> Self {
        Self::new(DataCenterParams::paper_default())
    }

    /// Evaluate Eq. 1 + Eq. 5 for one job under the given conditions: the
    /// operational terms of [`FootprintEstimator::estimate_operational`]
    /// plus the embodied ones, attributed by execution time.
    pub fn estimate(
        &self,
        usage: JobResourceUsage,
        conditions: RegionConditions,
    ) -> FootprintBreakdown {
        let embodied = self.embodied(usage.execution_time);
        self.with_embodied(usage.energy, embodied, conditions)
    }

    /// The embodied carbon and water (Eq. 1 and Eq. 4) attributed to a job
    /// that runs for `execution_time`: what [`FootprintEstimator::estimate`]
    /// adds to the operational terms. It depends on the job alone, so a
    /// caller pricing one job in several regions computes it once.
    #[inline]
    pub fn embodied(&self, execution_time: Seconds) -> (Co2Grams, Liters) {
        let server = &self.params.server;
        let carbon = server.embodied_carbon_model().attributed(execution_time);
        (carbon, server.embodied_water_attributed(execution_time))
    }

    /// Total carbon (gCO2) and total effective water (L) of a job using
    /// `energy`, with the [`FootprintEstimator::embodied`] terms `embodied`,
    /// under `conditions`: to the bit what `estimate(..).total_carbon()` and
    /// `estimate(..).total_water()` return for that job.
    ///
    /// ```
    /// use waterwise_sustain::{
    ///     CarbonIntensity, FootprintEstimator, JobResourceUsage, KilowattHours, LitersPerKwh,
    ///     RegionConditions, Seconds, WaterScarcityFactor, WaterUsageEffectiveness,
    /// };
    ///
    /// let estimator = FootprintEstimator::paper_default();
    /// let usage = JobResourceUsage::new(KilowattHours::new(0.5), Seconds::new(600.0));
    /// let conditions = RegionConditions {
    ///     carbon_intensity: CarbonIntensity::new(220.0),
    ///     ewif: LitersPerKwh::new(1.8),
    ///     wue: WaterUsageEffectiveness::new(0.4),
    ///     wsf: WaterScarcityFactor::new(0.6),
    /// };
    /// let embodied = estimator.embodied(usage.execution_time);
    /// let (carbon, water) = estimator.totals(usage.energy, embodied, conditions);
    /// let footprint = estimator.estimate(usage, conditions);
    /// assert_eq!(carbon.to_bits(), footprint.total_carbon().value().to_bits());
    /// assert_eq!(water.to_bits(), footprint.total_water().value().to_bits());
    /// ```
    #[inline]
    pub fn totals(
        &self,
        energy: KilowattHours,
        embodied: (Co2Grams, Liters),
        conditions: RegionConditions,
    ) -> (f64, f64) {
        let breakdown = self.with_embodied(energy, embodied, conditions);
        (
            breakdown.total_carbon().value(),
            breakdown.total_water().value(),
        )
    }

    /// The operational terms of `energy` under `conditions`, with `embodied`
    /// as the embodied ones: the one composition `estimate` and `totals`
    /// share.
    #[inline]
    fn with_embodied(
        &self,
        energy: KilowattHours,
        embodied: (Co2Grams, Liters),
        conditions: RegionConditions,
    ) -> FootprintBreakdown {
        let usage = JobResourceUsage::new(energy, Seconds::zero());
        let mut breakdown = self.estimate_operational(usage, conditions);
        (breakdown.carbon.embodied, breakdown.water.embodied) = embodied;
        breakdown
    }

    /// Operational-only estimate: the embodied terms are zero and never
    /// computed. Used for a migration's transfer footprint and by the
    /// Ecovisor comparator, neither of which accounts embodied footprints.
    #[inline]
    pub fn estimate_operational(
        &self,
        usage: JobResourceUsage,
        conditions: RegionConditions,
    ) -> FootprintBreakdown {
        let carbon = CarbonFootprint {
            operational: OperationalCarbonModel::emissions(
                usage.energy,
                conditions.carbon_intensity,
            ),
            embodied: Co2Grams::zero(),
        };
        let water = WaterFootprint {
            offsite: WaterFootprint::offsite(
                self.params.pue,
                usage.energy,
                conditions.ewif,
                conditions.wsf,
            ),
            onsite: WaterFootprint::onsite(usage.energy, conditions.wue, conditions.wsf),
            embodied: Liters::zero(),
        };
        FootprintBreakdown { carbon, water }
    }

    /// The paper's water intensity (Eq. 6) for a region under this PUE.
    pub fn water_intensity(&self, conditions: RegionConditions) -> WaterIntensity {
        conditions.water_intensity(self.params.pue)
    }

    /// Project the footprint of one *placement decision* before the job
    /// runs: the execution footprint of the (estimated) usage under the
    /// target region's conditions, plus the operational-only footprint of
    /// shipping `transfer_energy` there — the same split the simulator's
    /// after-the-fact accounting charges, evaluated on estimates instead of
    /// actuals. The online placement service attaches this projection to
    /// every response.
    ///
    /// ```
    /// use waterwise_sustain::{
    ///     CarbonIntensity, FootprintEstimator, JobResourceUsage, KilowattHours, LitersPerKwh,
    ///     RegionConditions, Seconds, WaterScarcityFactor, WaterUsageEffectiveness,
    /// };
    ///
    /// let estimator = FootprintEstimator::paper_default();
    /// let usage = JobResourceUsage::new(KilowattHours::new(0.5), Seconds::new(600.0));
    /// let conditions = RegionConditions {
    ///     carbon_intensity: CarbonIntensity::new(220.0),
    ///     ewif: LitersPerKwh::new(1.8),
    ///     wue: WaterUsageEffectiveness::new(0.4),
    ///     wsf: WaterScarcityFactor::new(0.6),
    /// };
    /// let projection = estimator.project_decision(usage, KilowattHours::new(0.01), conditions);
    /// // The migration adds operational footprint on top of the execution.
    /// assert!(projection.total_carbon() > projection.execution.total_carbon());
    /// // A home-region decision carries no transfer share at all.
    /// let home = estimator.project_decision(usage, KilowattHours::zero(), conditions);
    /// assert_eq!(home.transfer.total_carbon().value(), 0.0);
    /// ```
    pub fn project_decision(
        &self,
        usage: JobResourceUsage,
        transfer_energy: KilowattHours,
        conditions: RegionConditions,
    ) -> DecisionProjection {
        let execution = self.estimate(usage, conditions);
        let transfer = if transfer_energy.value() > 0.0 {
            self.estimate_operational(
                JobResourceUsage::new(transfer_energy, Seconds::zero()),
                conditions,
            )
        } else {
            FootprintBreakdown::default()
        };
        DecisionProjection {
            execution,
            transfer,
        }
    }
}

/// The projected footprint of one placement decision (execution plus
/// migration transfer), produced by [`FootprintEstimator::project_decision`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DecisionProjection {
    /// Projected execution footprint under the target region's conditions.
    pub execution: FootprintBreakdown,
    /// Projected transfer footprint (operational only, zero for home-region
    /// placements), mirroring the simulator's accounting convention.
    pub transfer: FootprintBreakdown,
}

impl DecisionProjection {
    /// Total projected carbon (execution + transfer), in gCO2.
    #[inline]
    pub fn total_carbon(&self) -> Co2Grams {
        Co2Grams::new(self.execution.total_carbon().value() + self.transfer.total_carbon().value())
    }

    /// Total projected effective water (execution + transfer), in liters.
    #[inline]
    pub fn total_water(&self) -> Liters {
        Liters::new(self.execution.total_water().value() + self.transfer.total_water().value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conditions(ci: f64, ewif: f64, wue: f64, wsf: f64) -> RegionConditions {
        RegionConditions {
            carbon_intensity: CarbonIntensity::new(ci),
            ewif: LitersPerKwh::new(ewif),
            wue: WaterUsageEffectiveness::new(wue),
            wsf: WaterScarcityFactor::new(wsf),
        }
    }

    fn usage(kwh: f64, hours: f64) -> JobResourceUsage {
        JobResourceUsage::new(KilowattHours::new(kwh), Seconds::from_hours(hours))
    }

    #[test]
    fn estimate_matches_hand_computation() {
        let est = FootprintEstimator::paper_default();
        let cond = conditions(200.0, 2.0, 3.0, 0.5);
        let u = usage(1.0, 1.0);
        let fp = est.estimate(u, cond);
        // Operational carbon: 1 kWh * 200 g/kWh.
        assert!((fp.carbon.operational.value() - 200.0).abs() < 1e-9);
        // Offsite water: 1.2 * 1 * 2 * 1.5 = 3.6 L.
        assert!((fp.water.offsite.value() - 3.6).abs() < 1e-9);
        // Onsite water: 1 * 3 * 1.5 = 4.5 L.
        assert!((fp.water.onsite.value() - 4.5).abs() < 1e-9);
        assert!(fp.carbon.embodied.value() > 0.0);
        assert!(fp.water.embodied.value() > 0.0);
    }

    #[test]
    fn operational_estimate_zeroes_embodied() {
        let est = FootprintEstimator::paper_default();
        let fp = est.estimate_operational(usage(1.0, 1.0), conditions(200.0, 2.0, 3.0, 0.5));
        assert_eq!(fp.carbon.embodied.value(), 0.0);
        assert_eq!(fp.water.embodied.value(), 0.0);
        assert!(fp.carbon.operational.value() > 0.0);
        // The operational terms are the full estimate's, to the bit.
        let full = est.estimate(usage(1.0, 1.0), conditions(200.0, 2.0, 3.0, 0.5));
        let operational = |fp: FootprintBreakdown| {
            let (carbon, water) = (fp.carbon.operational, fp.water);
            [carbon.value(), water.offsite.value(), water.onsite.value()].map(f64::to_bits)
        };
        assert_eq!(operational(fp), operational(full));
    }

    #[test]
    fn footprint_scales_linearly_with_energy() {
        let est = FootprintEstimator::paper_default();
        let cond = conditions(300.0, 1.5, 4.0, 0.3);
        let one = est.estimate(usage(1.0, 1.0), cond);
        let two = est.estimate(usage(2.0, 1.0), cond);
        assert!(
            (two.carbon.operational.value() - 2.0 * one.carbon.operational.value()).abs() < 1e-9
        );
        assert!((two.water.offsite.value() - 2.0 * one.water.offsite.value()).abs() < 1e-9);
        assert!((two.water.onsite.value() - 2.0 * one.water.onsite.value()).abs() < 1e-9);
    }

    #[test]
    fn greener_region_has_lower_carbon_but_maybe_higher_water() {
        let est = FootprintEstimator::paper_default();
        let u = usage(5.0, 2.0);
        // Zurich-like: very clean grid, but hydro-heavy (high EWIF).
        let zurich = conditions(50.0, 5.5, 1.5, 0.15);
        // Mumbai-like: coal-heavy grid (low EWIF), hot and humid, stressed.
        let mumbai = conditions(750.0, 1.6, 7.0, 0.7);
        let fz = est.estimate(u, zurich);
        let fm = est.estimate(u, mumbai);
        assert!(fz.total_carbon().value() < fm.total_carbon().value());
        // Offsite water alone is *worse* in Zurich — the carbon/water tension.
        assert!(fz.water.offsite.value() > fm.water.offsite.value() / 1.7 * 1.15 / 1.2 * 1.2);
    }

    #[test]
    fn water_intensity_consistent_with_conditions() {
        let est = FootprintEstimator::paper_default();
        let cond = conditions(100.0, 2.0, 3.0, 0.5);
        let wi = est.water_intensity(cond);
        assert!((wi.value() - (3.0 + 1.2 * 2.0) * 1.5).abs() < 1e-9);
    }

    /// `x`, or the edge value `kind` stands for: zero of either sign, a
    /// subnormal, `−x`, or a huge value.
    fn edge(kind: usize, x: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => x * f64::MIN_POSITIVE * 1e-9,
            3 => -x,
            4 => x * 1e300,
            _ => x,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `embodied` and `totals` split `estimate` by scope without moving a
        /// bit, and `totals` with zero embodied terms is what
        /// `estimate_operational` sums to: zero, subnormal and negative
        /// energies and execution times, and zero or negative lifetimes
        /// included. `FootprintTotals::from` keeps the bits of both.
        #[test]
        fn embodied_and_totals_are_the_estimates_bits(
            energy in (0usize..10, 0.0f64..50.0),
            time in (0usize..10, 0.0f64..1e6),
            lifetime in (0usize..10, 1.0f64..1e9),
            grid in (0.0f64..900.0, 0.0f64..10.0, 0.0f64..10.0, 0.0f64..1.0),
            pue in 1.0f64..2.0,
        ) {
            let mut params = DataCenterParams::paper_default().with_pue(pue);
            params.server.lifetime = Seconds::new(edge(lifetime.0, lifetime.1));
            let est = FootprintEstimator::new(params);
            let usage = JobResourceUsage::new(
                KilowattHours::new(edge(energy.0, energy.1)),
                Seconds::new(edge(time.0, time.1)),
            );
            let cond = conditions(grid.0, grid.1, grid.2, grid.3);
            let full = est.estimate(usage, cond);
            let embodied = est.embodied(usage.execution_time);
            prop_assert_eq!(
                (embodied.0.value().to_bits(), embodied.1.value().to_bits()),
                (full.carbon.embodied.value().to_bits(), full.water.embodied.value().to_bits())
            );
            let (carbon, water) = est.totals(usage.energy, embodied, cond);
            prop_assert_eq!(carbon.to_bits(), full.total_carbon().value().to_bits());
            prop_assert_eq!(water.to_bits(), full.total_water().value().to_bits());
            let bits = |totals: FootprintTotals| {
                (totals.total_carbon().value().to_bits(), totals.total_water().value().to_bits())
            };
            prop_assert_eq!(
                bits(FootprintTotals::from(&full)),
                (carbon.to_bits(), water.to_bits())
            );
            let operational = FootprintTotals::from(&est.estimate_operational(usage, cond));
            let zero = (Co2Grams::zero(), Liters::zero());
            let (op_carbon, op_water) = est.totals(usage.energy, zero, cond);
            prop_assert_eq!(bits(operational), (op_carbon.to_bits(), op_water.to_bits()));
        }
    }

    #[test]
    fn accumulate_breakdowns() {
        let est = FootprintEstimator::paper_default();
        let cond = conditions(100.0, 2.0, 3.0, 0.5);
        let fp = est.estimate(usage(1.0, 1.0), cond);
        let mut sum = FootprintBreakdown::default();
        sum.accumulate(&fp);
        sum.accumulate(&fp);
        assert!((sum.total_carbon().value() - 2.0 * fp.total_carbon().value()).abs() < 1e-9);
        assert!((sum.total_water().value() - 2.0 * fp.total_water().value()).abs() < 1e-9);
    }
}
