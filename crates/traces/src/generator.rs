//! End-to-end trace generation: arrivals × benchmark mix × home regions ×
//! per-instance jitter.
//!
//! A trace draws from two seeded streams that never read each other: the
//! arrival times (the [`ArrivalModel`]'s stream) and each job's attributes
//! (benchmark, home region and the jitters, fifteen draws a job from the
//! generator's own stream). All they share is the job count, so
//! [`TraceGenerator::generate`] draws them on two threads. The arrival
//! thread owns its model and a buffer moved in by value, and publishes
//! nothing but the final count; the calling thread draws attributes until
//! that count appears, then joins and writes the submit times. Each stream
//! is drawn in the order a single thread would draw it, so the trace is the
//! same to the bit.

use crate::arrival::{room_for, ArrivalModel, TraceKind};
use crate::job::{JobId, JobSpec};
use crate::workload::{Benchmark, ALL_BENCHMARKS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use waterwise_sustain::{KilowattHours, Seconds, Watts};
use waterwise_telemetry::{Region, ALL_REGIONS};

/// Configuration for trace generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Which production trace to mimic.
    pub kind: TraceKind,
    /// Simulated duration of the trace.
    pub duration: Seconds,
    /// Multiplier on the base arrival rate (2.0 reproduces the "request
    /// rates double" robustness study).
    pub rate_multiplier: f64,
    /// RNG seed.
    pub seed: u64,
    /// Relative weight of each home region (indexed by [`Region::index`]);
    /// defaults to uniform. Regions not being simulated can be given weight 0.
    pub region_weights: [f64; 5],
    /// Restrict generation to these benchmarks (defaults to all ten).
    pub benchmarks: Vec<Benchmark>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            kind: TraceKind::BorgLike,
            duration: Seconds::from_hours(24.0),
            rate_multiplier: 1.0,
            seed: 0xB0_46_7A_CE,
            region_weights: [1.0; 5],
            benchmarks: ALL_BENCHMARKS.to_vec(),
        }
    }
}

impl TraceConfig {
    /// A Borg-like trace of the given number of days.
    pub fn borg(days: f64, seed: u64) -> Self {
        Self {
            kind: TraceKind::BorgLike,
            duration: Seconds::from_hours(days * 24.0),
            seed,
            ..Self::default()
        }
    }

    /// An Alibaba-like trace of the given number of days.
    pub fn alibaba(days: f64, seed: u64) -> Self {
        Self {
            kind: TraceKind::AlibabaLike,
            duration: Seconds::from_hours(days * 24.0),
            seed,
            ..Self::default()
        }
    }

    /// Restrict the home regions to a subset (other weights become 0).
    pub fn with_regions(mut self, regions: &[Region]) -> Self {
        self.region_weights = [0.0; 5];
        for r in regions {
            self.region_weights[r.index()] = 1.0;
        }
        self
    }

    /// Override the arrival-rate multiplier.
    pub fn with_rate_multiplier(mut self, multiplier: f64) -> Self {
        self.rate_multiplier = multiplier;
        self
    }

    /// Whether [`TraceGenerator::generate`] can draw this trace: the first
    /// field it would refuse, if any.
    pub fn validate(&self) -> Result<(), TraceConfigError> {
        let non_finite = [
            ("duration", self.duration.value()),
            ("rate_multiplier", self.rate_multiplier),
        ];
        if let Some(&(field, value)) = non_finite.iter().find(|(_, value)| !value.is_finite()) {
            return Err(TraceConfigError::NonFinite { field, value });
        }
        let total: f64 = self.region_weights.iter().sum();
        if total.is_nan() || total <= 0.0 {
            return Err(TraceConfigError::NoRegionWeight { total });
        }
        Ok(())
    }
}

/// A [`TraceConfig`] field that [`TraceGenerator::generate`] refuses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceConfigError {
    /// `duration` (in seconds) or `rate_multiplier` is not finite: the
    /// arrival loop would never end.
    NonFinite {
        /// The field's name in [`TraceConfig`].
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// No entry of `region_weights` is positive, so no home region can be
    /// drawn.
    NoRegionWeight {
        /// The weights' sum.
        total: f64,
    },
}

impl fmt::Display for TraceConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceConfigError::NonFinite { field, value } => write!(
                f,
                "trace duration and rate multiplier must be finite, got {field} = {value}"
            ),
            TraceConfigError::NoRegionWeight { total } => write!(
                f,
                "at least one region weight must be positive, got region_weights summing to {total}"
            ),
        }
    }
}

impl std::error::Error for TraceConfigError {}

/// Generates [`JobSpec`] traces from a [`TraceConfig`].
///
/// ```
/// use waterwise_traces::{TraceConfig, TraceGenerator};
///
/// // One hour of Borg-like arrivals; seeded, so the trace is reproducible.
/// let jobs = TraceGenerator::new(TraceConfig::borg(1.0 / 24.0, 42)).generate();
/// assert!(!jobs.is_empty());
/// assert!(jobs.windows(2).all(|w| w[0].submit_time <= w[1].submit_time));
/// let again = TraceGenerator::new(TraceConfig::borg(1.0 / 24.0, 42)).generate();
/// assert_eq!(jobs, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Create a generator.
    pub fn new(config: TraceConfig) -> Self {
        Self { config }
    }

    /// The configuration this generator uses.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Generate the full trace, sorted by submission time.
    ///
    /// The arrivals are drawn on a spawned thread and the job attributes on
    /// the calling one (see the [module docs](self)); the result is the
    /// trace one thread drawing arrivals, then attributes, would produce.
    /// Its capacity equals its length.
    ///
    /// # Panics
    ///
    /// If [`TraceConfig::validate`] refuses the configuration: the duration
    /// or the rate multiplier is not finite (an arrival loop would never
    /// end), or no region weight is positive. It is checked before any
    /// thread starts. A panic on the arrival thread resurfaces here with its
    /// own payload.
    pub fn generate(&self) -> Vec<JobSpec> {
        let cfg = &self.config;
        if let Err(refused) = cfg.validate() {
            panic!("{refused}");
        }
        let total_weight: f64 = cfg.region_weights.iter().sum();
        let mut attributes = Attributes {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x7AC3_0001_4E4E),
            benchmarks: if cfg.benchmarks.is_empty() {
                &ALL_BENCHMARKS
            } else {
                &cfg.benchmarks
            },
            region_weights: &cfg.region_weights,
            total_weight,
        };
        let mut arrivals = ArrivalModel::new(cfg.kind, cfg.rate_multiplier, cfg.seed);
        let duration = cfg.duration;
        let mean = arrivals.mean_count_within(duration);
        let times = Vec::with_capacity(room_for(mean));
        // The job buffer starts below the count of all but short traces and
        // grows to it once, exactly, after the join. The trace is then never
        // shrunk from a larger buffer, so the allocator serves a repeated
        // generation from the memory the last trace freed: a request larger
        // than that would go to a fresh mapping and fault in every page.
        let capacity = (mean * 0.75) as usize;
        let mut jobs = Vec::with_capacity(capacity);

        // The count, stored once when the arrival thread is done. Nothing
        // else crosses between the threads until the join; the count orders
        // no memory (the join does), so both sides are relaxed.
        let count = AtomicUsize::new(usize::MAX);
        let times = thread::scope(|scope| {
            let count = &count;
            let arrival_thread = scope.spawn(move || {
                let times = arrivals.extend_within(duration, times);
                count.store(times.len(), Ordering::Relaxed);
                times
            });
            while jobs.len() < capacity && count.load(Ordering::Relaxed) == usize::MAX {
                jobs.push(attributes.draw(jobs.len(), Seconds::new(0.0)));
            }
            arrival_thread
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        });

        // Jobs drawn past the count come after every draw a single thread
        // makes, so what is kept is that thread's prefix, bit for bit.
        jobs.truncate(times.len());
        for (job, &submit_time) in jobs.iter_mut().zip(&times) {
            job.submit_time = submit_time;
        }
        jobs.reserve_exact(times.len() - jobs.len());
        for (i, &submit_time) in times.iter().enumerate().skip(jobs.len()) {
            jobs.push(attributes.draw(i, submit_time));
        }
        // A no-op unless the buffer started above the count.
        jobs.shrink_to_fit();
        jobs
    }

    fn sample_region(rng: &mut StdRng, weights: &[f64; 5], total: f64) -> Region {
        let mut pick = rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                return ALL_REGIONS[i];
            }
            pick -= w;
        }
        *ALL_REGIONS.last().unwrap()
    }
}

/// The job-attribute stream of a trace and what it draws from.
struct Attributes<'a> {
    rng: StdRng,
    benchmarks: &'a [Benchmark],
    region_weights: &'a [f64; 5],
    total_weight: f64,
}

impl Attributes<'_> {
    /// Job `i`: its fifteen draws, in the order the trace has always drawn
    /// them. Inlined into both loops that call it: as an out-of-line call,
    /// a Borg trace drawn on one CPU took about a third longer.
    #[inline(always)]
    fn draw(&mut self, i: usize, submit_time: Seconds) -> JobSpec {
        let rng = &mut self.rng;
        let benchmark = self.benchmarks[rng.gen_range(0..self.benchmarks.len())];
        let profile = benchmark.profile();
        let home_region =
            TraceGenerator::sample_region(rng, self.region_weights, self.total_weight);
        // Actual execution time: log-normal-ish jitter around the mean.
        let exec_jitter = sample_lognormal(rng, profile.execution_time_cv);
        let actual_execution_time = Seconds::new(profile.mean_execution_time.value() * exec_jitter);
        let power_jitter = 1.0 + rng.gen_range(-0.05f64..0.05);
        let actual_energy = Watts::new(profile.mean_power.value() * power_jitter)
            .energy_over(actual_execution_time);
        // The scheduler's estimates: the profiled mean, perturbed.
        let estimate_jitter = sample_lognormal(rng, profile.estimate_error_cv);
        let estimated_execution_time =
            Seconds::new(profile.mean_execution_time.value() * estimate_jitter);
        let estimated_energy = KilowattHours::new(
            profile.mean_energy().value() * sample_lognormal(rng, profile.estimate_error_cv),
        );
        JobSpec {
            id: JobId(i as u64),
            benchmark,
            submit_time,
            home_region,
            actual_execution_time,
            actual_energy,
            estimated_execution_time,
            estimated_energy,
            package_bytes: profile.package_bytes,
        }
    }
}

/// A cheap log-normal-ish multiplicative jitter with the given coefficient of
/// variation, implemented as `exp(N(0, cv))` approximated by the sum of
/// uniform draws (avoids pulling in a distributions crate).
fn sample_lognormal(rng: &mut StdRng, cv: f64) -> f64 {
    // Sum of 4 uniforms in [-1, 1] has std ~= 1.155; scale to unit std.
    let z: f64 = (0..4).map(|_| rng.gen_range(-1.0f64..1.0)).sum::<f64>() / 1.1547;
    (z * cv).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-threaded generator, kept verbatim as the reference the
    /// two-thread one must reproduce.
    fn serial_reference(generator: &TraceGenerator) -> Vec<JobSpec> {
        let cfg = &generator.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7AC3_0001_4E4E);
        let mut arrivals = ArrivalModel::new(cfg.kind, cfg.rate_multiplier, cfg.seed);
        let times = arrivals.arrivals_within(cfg.duration);

        let benchmarks = if cfg.benchmarks.is_empty() {
            ALL_BENCHMARKS.to_vec()
        } else {
            cfg.benchmarks.clone()
        };
        let total_weight: f64 = cfg.region_weights.iter().sum();
        assert!(
            total_weight > 0.0,
            "at least one region weight must be positive"
        );

        times
            .into_iter()
            .enumerate()
            .map(|(i, submit_time)| {
                let benchmark = benchmarks[rng.gen_range(0..benchmarks.len())];
                let profile = benchmark.profile();
                let home_region =
                    TraceGenerator::sample_region(&mut rng, &cfg.region_weights, total_weight);
                // Actual execution time: log-normal-ish jitter around the mean.
                let exec_jitter = sample_lognormal(&mut rng, profile.execution_time_cv);
                let actual_execution_time =
                    Seconds::new(profile.mean_execution_time.value() * exec_jitter);
                let power_jitter = 1.0 + rng.gen_range(-0.05f64..0.05);
                let actual_energy = Watts::new(profile.mean_power.value() * power_jitter)
                    .energy_over(actual_execution_time);
                // The scheduler's estimates: the profiled mean, perturbed.
                let estimate_jitter = sample_lognormal(&mut rng, profile.estimate_error_cv);
                let estimated_execution_time =
                    Seconds::new(profile.mean_execution_time.value() * estimate_jitter);
                let estimated_energy = KilowattHours::new(
                    profile.mean_energy().value()
                        * sample_lognormal(&mut rng, profile.estimate_error_cv),
                );
                JobSpec {
                    id: JobId(i as u64),
                    benchmark,
                    submit_time,
                    home_region,
                    actual_execution_time,
                    actual_energy,
                    estimated_execution_time,
                    estimated_energy,
                    package_bytes: profile.package_bytes,
                }
            })
            .collect()
    }

    /// FNV-1a over every field of every job, floats by their bits.
    fn digest(jobs: &[JobSpec]) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for job in jobs {
            for word in [
                job.id.0,
                job.benchmark.index() as u64,
                job.submit_time.value().to_bits(),
                job.home_region.index() as u64,
                job.actual_execution_time.value().to_bits(),
                job.actual_energy.value().to_bits(),
                job.estimated_execution_time.value().to_bits(),
                job.estimated_energy.value().to_bits(),
                job.package_bytes,
            ] {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        hash
    }

    /// Both generators on one configuration: equal field for field (floats
    /// by their bits), and the result exactly as long as its capacity.
    fn assert_generates_the_reference(cfg: TraceConfig) -> usize {
        let generator = TraceGenerator::new(cfg);
        let jobs = generator.generate();
        let reference = serial_reference(&generator);
        assert_eq!(jobs.len(), reference.len(), "{:?}", generator.config);
        assert_eq!(digest(&jobs), digest(&reference), "{:?}", generator.config);
        assert_eq!(jobs, reference, "{:?}", generator.config);
        assert_eq!(jobs.capacity(), jobs.len(), "{:?}", generator.config);
        jobs.len()
    }

    /// The seed-42 traces of the ledger's two campaign workloads (Borg over
    /// 16 days, Alibaba over half a day), pinned as the single-threaded
    /// generator drew them, so neither generator nor reference can drift.
    #[test]
    fn the_ledger_traces_keep_their_pinned_digests() {
        for (cfg, len, pinned) in [
            (TraceConfig::borg(16.0, 42), 300_776, 0x6608_74BB_5833_59F6),
            (TraceConfig::alibaba(0.5, 42), 87_259, 0xD0A3_A82E_8360_9270),
        ] {
            let generator = TraceGenerator::new(cfg);
            let jobs = generator.generate();
            assert_eq!(jobs.len(), len, "{:?}", generator.config);
            assert_eq!(digest(&jobs), pinned, "{:?}", generator.config);
            assert_eq!(digest(&serial_reference(&generator)), pinned);
            assert_eq!(jobs.capacity(), jobs.len());
        }
    }

    #[test]
    fn two_threads_generate_the_single_threaded_trace() {
        let mut lengths = Vec::new();
        for kind in [TraceKind::BorgLike, TraceKind::AlibabaLike] {
            for seed in [0, 1, 42, 0xDEAD_BEEF, u64::MAX] {
                // Durations holding no job, exactly one (between the first
                // two arrivals) and many.
                let mut model = ArrivalModel::new(kind, 1.0, seed);
                let first = model.next_arrival().value();
                let second = model.next_arrival().value();
                let durations = [-5.0, 0.0, first / 2.0, (first + second) / 2.0, 1_800.0];
                for duration in durations {
                    let base = TraceConfig {
                        kind,
                        duration: Seconds::new(duration),
                        seed,
                        ..TraceConfig::default()
                    };
                    lengths.push(assert_generates_the_reference(base.clone()));
                    for multiplier in [1e-9, 0.5, 2.0, 8.5] {
                        assert_generates_the_reference(
                            base.clone().with_rate_multiplier(multiplier),
                        );
                    }
                    assert_generates_the_reference(
                        base.clone().with_regions(&[Region::Zurich, Region::Mumbai]),
                    );
                    let mut weighted = base.clone();
                    weighted.region_weights = [0.0, 3.0, 0.0, 0.5, 0.0];
                    assert_generates_the_reference(weighted);
                    let mut subset = base.clone();
                    subset.benchmarks = vec![Benchmark::Canneal];
                    assert_generates_the_reference(subset.clone());
                    subset.benchmarks =
                        vec![ALL_BENCHMARKS[9], ALL_BENCHMARKS[0], ALL_BENCHMARKS[4]];
                    assert_generates_the_reference(subset);
                }
            }
            // A day, the diurnal peak included.
            lengths.push(assert_generates_the_reference(TraceConfig {
                kind,
                duration: Seconds::from_hours(24.0),
                ..TraceConfig::default()
            }));
        }
        // The grid reached every size class it was built for.
        assert!(lengths.contains(&0));
        assert!(lengths.contains(&1));
        assert!(lengths.iter().any(|&n| n > 10_000));
    }

    #[test]
    #[should_panic(expected = "trace duration and rate multiplier must be finite")]
    fn a_nan_duration_is_refused() {
        TraceGenerator::new(TraceConfig::borg(f64::NAN, 1)).generate();
    }

    #[test]
    #[should_panic(expected = "trace duration and rate multiplier must be finite")]
    fn an_infinite_duration_is_refused() {
        TraceGenerator::new(TraceConfig::alibaba(f64::INFINITY, 1)).generate();
    }

    #[test]
    #[should_panic(expected = "trace duration and rate multiplier must be finite")]
    fn an_infinite_rate_multiplier_is_refused() {
        TraceGenerator::new(TraceConfig::borg(0.1, 1).with_rate_multiplier(f64::INFINITY))
            .generate();
    }

    #[test]
    #[should_panic(expected = "trace duration and rate multiplier must be finite")]
    fn a_nan_rate_multiplier_is_refused() {
        TraceGenerator::new(TraceConfig::borg(0.1, 1).with_rate_multiplier(f64::NAN)).generate();
    }

    #[test]
    #[should_panic(expected = "at least one region weight must be positive")]
    fn all_zero_region_weights_are_refused() {
        TraceGenerator::new(TraceConfig::borg(0.1, 1).with_regions(&[])).generate();
    }

    #[test]
    fn trace_is_sorted_and_ids_are_unique() {
        let jobs = TraceGenerator::new(TraceConfig::borg(0.5, 1)).generate();
        assert!(!jobs.is_empty());
        for w in jobs.windows(2) {
            assert!(w[0].submit_time.value() <= w[1].submit_time.value());
            assert!(w[0].id != w[1].id);
        }
    }

    #[test]
    fn borg_daily_volume_matches_the_paper_scale() {
        // ~230k jobs over 10 days ⇒ ~23k per day (±40% for burstiness).
        let jobs = TraceGenerator::new(TraceConfig::borg(1.0, 5)).generate();
        let n = jobs.len() as f64;
        assert!(n > 14_000.0 && n < 34_000.0, "jobs per day {n}");
    }

    #[test]
    fn alibaba_is_much_denser_than_borg() {
        let borg = TraceGenerator::new(TraceConfig::borg(0.25, 3))
            .generate()
            .len();
        let ali = TraceGenerator::new(TraceConfig::alibaba(0.25, 3))
            .generate()
            .len();
        assert!(
            ali as f64 > 5.0 * borg as f64,
            "alibaba {ali} vs borg {borg}"
        );
    }

    #[test]
    fn region_restriction_is_respected() {
        let cfg = TraceConfig::borg(0.2, 9).with_regions(&[Region::Zurich, Region::Mumbai]);
        let jobs = TraceGenerator::new(cfg).generate();
        assert!(jobs
            .iter()
            .all(|j| j.home_region == Region::Zurich || j.home_region == Region::Mumbai));
        assert!(jobs.iter().any(|j| j.home_region == Region::Zurich));
        assert!(jobs.iter().any(|j| j.home_region == Region::Mumbai));
    }

    #[test]
    fn all_regions_appear_with_uniform_weights() {
        let jobs = TraceGenerator::new(TraceConfig::borg(0.5, 11)).generate();
        for r in ALL_REGIONS {
            assert!(jobs.iter().any(|j| j.home_region == r), "missing {r}");
        }
    }

    #[test]
    fn estimates_are_close_but_not_exact() {
        let jobs = TraceGenerator::new(TraceConfig::borg(0.2, 13)).generate();
        let mean_err: f64 =
            jobs.iter().map(|j| j.estimate_error()).sum::<f64>() / jobs.len() as f64;
        assert!(mean_err > 0.01, "estimates should be noisy, err {mean_err}");
        assert!(
            mean_err < 0.6,
            "estimates should be in the right ballpark, err {mean_err}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = TraceGenerator::new(TraceConfig::borg(0.1, 21)).generate();
        let b = TraceGenerator::new(TraceConfig::borg(0.1, 21)).generate();
        let c = TraceGenerator::new(TraceConfig::borg(0.1, 22)).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rate_multiplier_doubles_volume() {
        let base = TraceGenerator::new(TraceConfig::borg(0.25, 31))
            .generate()
            .len() as f64;
        let doubled = TraceGenerator::new(TraceConfig::borg(0.25, 31).with_rate_multiplier(2.0))
            .generate()
            .len() as f64;
        let ratio = doubled / base;
        assert!(ratio > 1.6 && ratio < 2.4, "ratio {ratio}");
    }

    #[test]
    fn energies_scale_with_execution_time() {
        let jobs = TraceGenerator::new(TraceConfig::borg(0.1, 17)).generate();
        for j in jobs {
            let implied_power =
                j.actual_energy.value() * 3600.0 * 1000.0 / j.actual_execution_time.value();
            assert!(
                implied_power > 100.0 && implied_power < 900.0,
                "power {implied_power}"
            );
        }
    }
}
