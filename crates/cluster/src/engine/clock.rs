//! The clock abstraction of the online engine driver.
//!
//! An offline replay needs no clock: event timestamps come from the trace
//! and the engine dispatches them as fast as it can. The online driver
//! ([`crate::Simulator::run_online_sequenced`]) serves a *live* arrival
//! source, so it must decide two things the trace used to decide for it:
//! what submit time an incoming job is stamped with, and when a queued
//! event is safe to dispatch (no earlier arrival can still show up).
//! [`ClockMode`] picks the time authority for both.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The time authority of an online run.
///
/// ```
/// use waterwise_cluster::ClockMode;
///
/// // Replay pacing: injected submit times are authoritative.
/// assert_eq!(ClockMode::default(), ClockMode::Discrete);
/// // Free-running: one wall-clock second advances 60 simulated seconds. A
/// // degenerate scale normalizes to 1.0 instead of freezing the clock.
/// assert_eq!(
///     ClockMode::RealTime { scale: 0.0 }.normalized(),
///     ClockMode::RealTime { scale: 1.0 },
/// );
/// assert_eq!(ClockMode::RealTime { scale: 60.0 }.label(), "real-time(60x)");
/// assert_eq!(ClockMode::Discrete.label(), "discrete");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ClockMode {
    /// The arrival source is the time authority: each injected job keeps
    /// the `submit_time` its request carried, and a queued event dispatches
    /// only once a *later* injection (or the closed source) proves that no
    /// earlier arrival can come. Deterministic — the same request stream
    /// always produces the same schedule — which makes it the mode for
    /// trace replay, tests, and the online==offline identity proofs. The
    /// cost: placements for pending work flush only when the stream moves
    /// past them, so a quiet source defers decisions (see
    /// `docs/ONLINE_SERVICE.md`).
    #[default]
    Discrete,
    /// The wall clock is the time authority, scaled by `scale` simulated
    /// seconds per wall-clock second (1.0 = real time). Injected jobs are
    /// stamped with the current simulated time and queued events dispatch
    /// as the clock passes them, so placements happen promptly — the mode
    /// for live serving. The *recorded* trace still replays offline to the
    /// byte-identical schedule, but the stamps themselves depend on request
    /// timing, so two live runs of the same client are not identical.
    RealTime {
        /// Simulated seconds per wall-clock second (must be finite and
        /// positive; anything else normalizes to 1.0).
        scale: f64,
    },
}

impl ClockMode {
    /// Resolve degenerate configurations: a non-finite or non-positive
    /// `RealTime` scale would freeze or reverse the clock, so it clamps to
    /// 1.0. The online driver normalizes before running; the spec's `clock`
    /// key and `placement_server`'s `WATERWISE_CLOCK` reject such a scale
    /// before it gets here.
    pub fn normalized(self) -> Self {
        match self {
            ClockMode::RealTime { scale } if !scale.is_finite() || scale <= 0.0 => {
                ClockMode::RealTime { scale: 1.0 }
            }
            other => other,
        }
    }

    /// Whether this mode (after normalization) runs against the wall clock.
    pub fn is_real_time(self) -> bool {
        matches!(self, ClockMode::RealTime { .. })
    }

    /// Stable label used in experiment output.
    pub fn label(self) -> String {
        match self.normalized() {
            ClockMode::Discrete => "discrete".to_string(),
            ClockMode::RealTime { scale } => format!("real-time({scale}x)"),
        }
    }
}

/// A started free-running clock: maps wall-clock elapsed time to simulated
/// seconds. Only the online driver reads it; simulated state never does,
/// which is what keeps the recorded trace replayable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimClock {
    origin: Instant,
    scale: f64,
}

impl SimClock {
    /// Start the clock now, at simulated time zero.
    #[expect(
        clippy::disallowed_methods,
        reason = "DET002: the RealTime clock origin is the wall clock; Discrete mode, the deterministic path, never constructs a SimClock"
    )]
    pub(crate) fn start(scale: f64) -> Self {
        Self {
            origin: Instant::now(),
            scale,
        }
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * self.scale
    }

    /// Wall-clock duration until the clock reaches simulated time `sim`
    /// (zero if already passed).
    pub(crate) fn wall_until(&self, sim: f64) -> Duration {
        let remaining = (sim - self.now()) / self.scale;
        if remaining <= 0.0 || !remaining.is_finite() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(remaining.min(3600.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_clamps_degenerate_scales() {
        assert_eq!(ClockMode::Discrete.normalized(), ClockMode::Discrete);
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                ClockMode::RealTime { scale: bad }.normalized(),
                ClockMode::RealTime { scale: 1.0 },
            );
        }
        assert_eq!(
            ClockMode::RealTime { scale: 30.0 }.normalized(),
            ClockMode::RealTime { scale: 30.0 },
        );
        assert!(ClockMode::RealTime { scale: 1.0 }.is_real_time());
        assert!(!ClockMode::Discrete.is_real_time());
    }

    #[test]
    fn sim_clock_advances_and_scales() {
        let clock = SimClock::start(1000.0);
        std::thread::sleep(Duration::from_millis(5));
        let now = clock.now();
        // 5 ms of wall time at 1000x is at least 5 simulated seconds.
        assert!(now >= 5.0, "clock must scale wall time, got {now}");
        assert_eq!(clock.wall_until(now - 1.0), Duration::ZERO);
        assert!(clock.wall_until(now + 1000.0) > Duration::ZERO);
    }
}
