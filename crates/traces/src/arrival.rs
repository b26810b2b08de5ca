//! Arrival processes: Borg-like and Alibaba-like job submission patterns.
//!
//! The Google Borg trace used in the paper exhibits a strong diurnal cycle
//! and bursty submissions (users submit batches of related jobs together).
//! The Alibaba VM trace has an ≈8.5× higher invocation rate with a flatter
//! profile. Both are modeled as doubly-stochastic processes: a deterministic
//! diurnal base rate modulated by an auto-correlated burst factor, sampled
//! with exponential inter-arrival gaps.
//!
//! An [`ArrivalModel`] draws from its own seeded stream and reads nothing
//! else, so [`TraceGenerator::generate`](crate::TraceGenerator::generate)
//! runs it on a thread of its own, beside the job attributes, and sizes
//! both threads' buffers from the model's mean count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;
use waterwise_sustain::Seconds;

/// Which production trace the generator mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TraceKind {
    /// Google Borg cluster trace: ~230 000 jobs over 10 days (~0.27 jobs/s),
    /// strong diurnal cycle, bursty.
    #[default]
    BorgLike,
    /// Alibaba VM trace: ≈8.5× the Borg invocation rate, flatter diurnal
    /// profile, smaller bursts.
    AlibabaLike,
}

impl TraceKind {
    /// Mean arrival rate in jobs per second (before any rate multiplier).
    pub fn base_rate(self) -> f64 {
        match self {
            // 230k jobs / 10 days ≈ 0.266 jobs/s.
            TraceKind::BorgLike => 230_000.0 / (10.0 * 86_400.0),
            // The paper reports an 8.5× higher invocation rate.
            TraceKind::AlibabaLike => 8.5 * 230_000.0 / (10.0 * 86_400.0),
        }
    }

    /// Relative amplitude of the diurnal cycle (0 = flat).
    pub fn diurnal_amplitude(self) -> f64 {
        match self {
            TraceKind::BorgLike => 0.45,
            TraceKind::AlibabaLike => 0.25,
        }
    }

    /// Burstiness: relative amplitude of the slow random modulation.
    pub fn burstiness(self) -> f64 {
        match self {
            TraceKind::BorgLike => 0.6,
            TraceKind::AlibabaLike => 0.35,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::BorgLike => "google-borg",
            TraceKind::AlibabaLike => "alibaba-vm",
        }
    }
}

/// A seeded arrival-time generator.
#[derive(Debug, Clone)]
pub struct ArrivalModel {
    kind: TraceKind,
    rate_multiplier: f64,
    rng: StdRng,
    burst_level: f64,
    current_time: f64,
}

impl ArrivalModel {
    /// Create an arrival model. `rate_multiplier` scales the base rate (the
    /// paper's "request rates double" study uses 2.0).
    pub fn new(kind: TraceKind, rate_multiplier: f64, seed: u64) -> Self {
        Self {
            kind,
            rate_multiplier: rate_multiplier.max(1e-6),
            rng: StdRng::seed_from_u64(seed ^ 0xA221_7AC0_0001),
            burst_level: 0.0,
            current_time: 0.0,
        }
    }

    /// Instantaneous arrival rate (jobs/s) at a given simulation time.
    pub fn rate_at(&self, time: Seconds) -> f64 {
        let hour_of_day = (time.value() / 3600.0) % 24.0;
        let diurnal =
            1.0 + self.kind.diurnal_amplitude() * (TAU * (hour_of_day - 14.0) / 24.0).cos();
        let burst = (1.0 + self.kind.burstiness() * self.burst_level).max(0.05);
        self.kind.base_rate() * self.rate_multiplier * diurnal * burst
    }

    /// Draw the next arrival time (strictly increasing).
    pub fn next_arrival(&mut self) -> Seconds {
        // Refresh the burst level roughly every draw with slow mixing so that
        // bursts persist across several arrivals.
        let shock: f64 = self.rng.gen_range(-1.0f64..1.0);
        self.burst_level = 0.95 * self.burst_level + 0.31 * shock;
        let rate = self.rate_at(Seconds::new(self.current_time)).max(1e-9);
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = -u.ln() / rate;
        self.current_time += gap;
        Seconds::new(self.current_time)
    }

    /// Generate all arrivals within `duration`.
    ///
    /// # Panics
    ///
    /// If `duration` or the rate multiplier is not finite: no arrival ever
    /// passes a NaN or infinite duration, and an infinite rate makes every
    /// gap zero, so the loop would never end.
    pub fn arrivals_within(&mut self, duration: Seconds) -> Vec<Seconds> {
        let out = Vec::with_capacity(room_for(self.mean_count_within(duration)));
        self.extend_within(duration, out)
    }

    /// The arrivals within `duration` from now at the mean rate, the base
    /// rate times the multiplier. Long traces hold fewer (a seed-42 Borg
    /// trace of 16 days holds 82 % of it, an Alibaba one of half a day 89 %),
    /// short ones more or fewer with the hour they end in. Panics as
    /// [`arrivals_within`](Self::arrivals_within) does, before any draw.
    pub(crate) fn mean_count_within(&self, duration: Seconds) -> f64 {
        assert!(
            duration.value().is_finite() && self.rate_multiplier.is_finite(),
            "arrivals need a finite duration and rate multiplier, got {} s at ×{}",
            duration.value(),
            self.rate_multiplier
        );
        self.kind.base_rate()
            * self.rate_multiplier
            * (duration.value() - self.current_time).max(0.0)
    }

    /// Append the arrivals within `duration` to `out` and hand it back. The
    /// trace generator sizes `out` on the calling thread and moves it here.
    pub(crate) fn extend_within(
        &mut self,
        duration: Seconds,
        mut out: Vec<Seconds>,
    ) -> Vec<Seconds> {
        loop {
            let t = self.next_arrival();
            if t.value() > duration.value() {
                break;
            }
            out.push(t);
        }
        out
    }
}

/// Buffer room for the arrivals of a trace whose mean count is `mean`: a
/// quarter more and a few, for the diurnal peak and the bursts.
pub(crate) fn room_for(mean: f64) -> usize {
    // Saturating: `as` maps an overflow to `usize::MAX`.
    ((mean * 1.25) as usize).saturating_add(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_times_are_strictly_increasing() {
        let mut m = ArrivalModel::new(TraceKind::BorgLike, 1.0, 3);
        let mut prev = 0.0;
        for _ in 0..500 {
            let t = m.next_arrival().value();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn borg_rate_is_roughly_a_quarter_job_per_second() {
        let rate = TraceKind::BorgLike.base_rate();
        assert!(rate > 0.2 && rate < 0.35, "rate {rate}");
    }

    #[test]
    fn alibaba_is_about_8_5x_denser() {
        let ratio = TraceKind::AlibabaLike.base_rate() / TraceKind::BorgLike.base_rate();
        assert!((ratio - 8.5).abs() < 1e-9);
        let mut borg = ArrivalModel::new(TraceKind::BorgLike, 1.0, 7);
        let mut ali = ArrivalModel::new(TraceKind::AlibabaLike, 1.0, 7);
        let day = Seconds::from_hours(24.0);
        let nb = borg.arrivals_within(day).len();
        let na = ali.arrivals_within(day).len();
        assert!(na > 5 * nb, "alibaba {na} vs borg {nb}");
    }

    #[test]
    fn rate_multiplier_scales_the_count() {
        let day = Seconds::from_hours(24.0);
        let n1 = ArrivalModel::new(TraceKind::BorgLike, 1.0, 9)
            .arrivals_within(day)
            .len();
        let n2 = ArrivalModel::new(TraceKind::BorgLike, 2.0, 9)
            .arrivals_within(day)
            .len();
        let ratio = n2 as f64 / n1 as f64;
        assert!(ratio > 1.6 && ratio < 2.4, "ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ArrivalModel::new(TraceKind::BorgLike, 1.0, 42)
            .arrivals_within(Seconds::from_hours(6.0));
        let b = ArrivalModel::new(TraceKind::BorgLike, 1.0, 42)
            .arrivals_within(Seconds::from_hours(6.0));
        let c = ArrivalModel::new(TraceKind::BorgLike, 1.0, 43)
            .arrivals_within(Seconds::from_hours(6.0));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "arrivals need a finite duration and rate multiplier")]
    fn a_nan_duration_is_refused_before_the_first_draw() {
        ArrivalModel::new(TraceKind::BorgLike, 1.0, 1).arrivals_within(Seconds::new(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "arrivals need a finite duration and rate multiplier")]
    fn an_infinite_rate_is_refused_before_the_first_draw() {
        ArrivalModel::new(TraceKind::AlibabaLike, f64::INFINITY, 1)
            .arrivals_within(Seconds::from_hours(1.0));
    }

    #[test]
    fn diurnal_cycle_changes_the_rate() {
        let m = ArrivalModel::new(TraceKind::BorgLike, 1.0, 1);
        let afternoon = m.rate_at(Seconds::from_hours(14.0));
        let night = m.rate_at(Seconds::from_hours(2.0));
        assert!(afternoon > night);
    }
}
