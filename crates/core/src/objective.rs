//! Shared candidate-evaluation machinery for all schedulers.
//!
//! Every carbon/water-aware policy needs the same primitive: "if job *m*
//! ran in region *n* starting around time *t*, what carbon and water
//! footprint would it incur?" — evaluated with the job's *estimated*
//! execution time and energy (the scheduler never sees the actual values)
//! and the region's conditions at *t*. This module provides that primitive
//! and the objective weights of Eq. 7 / Eq. 8.

use serde::{Deserialize, Serialize};
use waterwise_cluster::PendingJob;
use waterwise_sustain::{FootprintEstimator, JobResourceUsage, Seconds};
use waterwise_telemetry::{ConditionsProvider, Region};

/// The configurable objective weights of Eq. 7 / Eq. 8.
///
/// ```
/// use waterwise_core::ObjectiveWeights;
///
/// let weights = ObjectiveWeights::paper_default().with_carbon_weight(0.8);
/// assert_eq!(weights.lambda_co2, 0.8);
/// assert!((weights.lambda_h2o - 0.2).abs() < 1e-12); // always 1 − λ_CO2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveWeights {
    /// Weight on the (normalized) carbon footprint, `λ_CO2`.
    pub lambda_co2: f64,
    /// Weight on the (normalized) water footprint, `λ_H2O`.
    pub lambda_h2o: f64,
    /// Weight on the history-learner reference term, `λ_ref`.
    pub lambda_ref: f64,
}

impl ObjectiveWeights {
    /// The paper's default: equal carbon/water weights (0.5 each) and a 0.1
    /// history weight.
    pub fn paper_default() -> Self {
        Self {
            lambda_co2: 0.5,
            lambda_h2o: 0.5,
            lambda_ref: 0.1,
        }
    }

    /// Set `λ_CO2 = w` and `λ_H2O = 1 − w` (the Fig. 8 sweep).
    pub fn with_carbon_weight(mut self, w: f64) -> Self {
        let w = w.clamp(0.0, 1.0);
        self.lambda_co2 = w;
        self.lambda_h2o = 1.0 - w;
        self
    }

    /// Validate that the carbon and water weights sum to one.
    pub fn is_normalized(&self) -> bool {
        (self.lambda_co2 + self.lambda_h2o - 1.0).abs() < 1e-9
            && self.lambda_co2 >= 0.0
            && self.lambda_h2o >= 0.0
            && self.lambda_ref >= 0.0
    }
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The estimated carbon and water footprint of one `(job, region)` candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateFootprint {
    /// Candidate region.
    pub region: Region,
    /// Estimated total carbon (gCO2) of executing the job there now.
    pub carbon: f64,
    /// Estimated total effective water (L) of executing the job there now.
    pub water: f64,
}

/// Evaluate the candidate footprints of a pending job across all candidate
/// regions at time `at`, using the scheduler-visible estimates.
pub fn candidate_footprints<P: ConditionsProvider + ?Sized>(
    job: &PendingJob,
    regions: &[Region],
    provider: &P,
    estimator: &FootprintEstimator,
    at: Seconds,
) -> Vec<CandidateFootprint> {
    let usage = JobResourceUsage::new(job.spec.estimated_energy, job.spec.estimated_execution_time);
    let candidate = |&region: &Region| {
        let breakdown = estimator.estimate(usage, provider.conditions(region, at));
        CandidateFootprint {
            region,
            carbon: breakdown.total_carbon().value(),
            water: breakdown.total_water().value(),
        }
    };
    regions.iter().map(candidate).collect()
}

/// Per-job normalization denominators of Eq. 7: the footprint in the *worst*
/// region, "to ensure that one objective does not skew the optimization".
/// The WaterWise scheduler folds these maxima inside its round pass; this is
/// the per-job form its tests hold that pass to.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Normalizer {
    /// Maximum carbon over all candidate regions (gCO2).
    pub max_carbon: f64,
    /// Maximum water over all candidate regions (L).
    pub max_water: f64,
}

#[cfg(test)]
impl Normalizer {
    /// Compute the normalizer from a candidate set.
    pub fn from_candidates(candidates: &[CandidateFootprint]) -> Self {
        let max_carbon = candidates
            .iter()
            .map(|c| c.carbon)
            .fold(f64::MIN_POSITIVE, f64::max);
        let max_water = candidates
            .iter()
            .map(|c| c.water)
            .fold(f64::MIN_POSITIVE, f64::max);
        Self {
            max_carbon,
            max_water,
        }
    }

    /// The normalized, weighted objective contribution of one candidate
    /// (the bracketed term of Eq. 8 without the history part).
    pub fn objective_term(
        &self,
        candidate: &CandidateFootprint,
        weights: &ObjectiveWeights,
    ) -> f64 {
        weights.lambda_co2 * candidate.carbon / self.max_carbon
            + weights.lambda_h2o * candidate.water / self.max_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_cluster::PendingJob;
    use waterwise_sustain::KilowattHours;
    use waterwise_telemetry::{SyntheticTelemetry, ALL_REGIONS};
    use waterwise_traces::{Benchmark, JobId, JobSpec};

    fn pending_job() -> PendingJob {
        PendingJob {
            spec: JobSpec {
                id: JobId(1),
                benchmark: Benchmark::Canneal,
                submit_time: Seconds::new(0.0),
                home_region: Region::Oregon,
                actual_execution_time: Seconds::new(600.0),
                actual_energy: KilowattHours::new(0.05),
                estimated_execution_time: Seconds::new(620.0),
                estimated_energy: KilowattHours::new(0.052),
                package_bytes: 200 << 20,
            },
            received_at: Seconds::new(0.0),
            deferrals: 0,
        }
    }

    #[test]
    fn paper_default_weights_are_normalized() {
        let w = ObjectiveWeights::paper_default();
        assert!(w.is_normalized());
        assert_eq!(w.lambda_co2, 0.5);
        assert_eq!(w.lambda_ref, 0.1);
    }

    #[test]
    fn carbon_weight_sweep_keeps_sum_one() {
        for v in [0.3, 0.5, 0.7] {
            let w = ObjectiveWeights::paper_default().with_carbon_weight(v);
            assert!(w.is_normalized());
            assert!((w.lambda_co2 - v).abs() < 1e-12);
        }
        // Out-of-range values are clamped.
        assert!(ObjectiveWeights::paper_default()
            .with_carbon_weight(1.7)
            .is_normalized());
    }

    #[test]
    fn candidates_cover_all_regions_and_are_positive() {
        let provider = SyntheticTelemetry::with_seed(3);
        let estimator = FootprintEstimator::paper_default();
        let candidates = candidate_footprints(
            &pending_job(),
            &ALL_REGIONS,
            &provider,
            &estimator,
            Seconds::from_hours(4.0),
        );
        assert_eq!(candidates.len(), 5);
        for c in &candidates {
            assert!(c.carbon > 0.0);
            assert!(c.water > 0.0);
        }
    }

    #[test]
    fn mumbai_is_carbon_worst_zurich_water_heavy() {
        let provider = SyntheticTelemetry::with_seed(3);
        let estimator = FootprintEstimator::paper_default();
        let candidates = candidate_footprints(
            &pending_job(),
            &ALL_REGIONS,
            &provider,
            &estimator,
            Seconds::from_hours(12.0),
        );
        let by_region = |r: Region| candidates.iter().find(|c| c.region == r).unwrap();
        assert!(by_region(Region::Mumbai).carbon > by_region(Region::Zurich).carbon);
        // Zurich's offsite water (hydro EWIF) keeps its water footprint from
        // being the uniformly-best choice: it must exceed at least one other
        // region's water footprint. (The exact ordering varies with weather.)
        let zurich_water = by_region(Region::Zurich).water;
        assert!(candidates.iter().any(|c| c.water < zurich_water));
    }

    #[test]
    fn normalizer_bounds_objective_in_unit_range() {
        let provider = SyntheticTelemetry::with_seed(3);
        let estimator = FootprintEstimator::paper_default();
        let candidates = candidate_footprints(
            &pending_job(),
            &ALL_REGIONS,
            &provider,
            &estimator,
            Seconds::from_hours(12.0),
        );
        let norm = Normalizer::from_candidates(&candidates);
        let weights = ObjectiveWeights::paper_default();
        for c in &candidates {
            let term = norm.objective_term(c, &weights);
            assert!(term > 0.0 && term <= 1.0 + 1e-9, "term {term}");
        }
    }

    #[test]
    fn normalizer_handles_empty_candidates() {
        let norm = Normalizer::from_candidates(&[]);
        assert!(norm.max_carbon > 0.0);
        assert!(norm.max_water > 0.0);
    }
}
