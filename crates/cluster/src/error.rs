//! Typed errors for configuration validation and simulation.
//!
//! Every fallible public API in this crate reports one of these enums
//! (instead of the stringly-typed `Result<_, String>` the crate started
//! with), so callers can match on the failure, and `waterwise-core` can wrap
//! them into its campaign-level `WaterWiseError` without parsing messages.

use std::fmt;
use waterwise_telemetry::Region;
use waterwise_traces::{JobId, TraceConfigError};

/// A [`crate::SimulationConfig`], or the trace configuration a campaign
/// draws its workload from, failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The region list is empty.
    NoRegions,
    /// A participating region has zero servers.
    EmptyRegion {
        /// The region with no servers.
        region: Region,
    },
    /// A region is listed more than once: the engine keeps one pool per
    /// region, so a second entry would orphan the first one's servers.
    DuplicateRegion {
        /// The region listed twice.
        region: Region,
    },
    /// The scheduling interval is zero or negative.
    NonPositiveSchedulingInterval {
        /// The offending interval in seconds.
        seconds: f64,
    },
    /// The delay tolerance is negative.
    NegativeDelayTolerance {
        /// The offending tolerance.
        tolerance: f64,
    },
    /// The embodied-footprint perturbation factor is zero or negative.
    NonPositiveEmbodiedPerturbation {
        /// The offending factor.
        factor: f64,
    },
    /// The trace cannot be generated: [`waterwise_traces::TraceConfig::validate`]
    /// names the field and its value.
    Trace(TraceConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoRegions => write!(f, "at least one region is required"),
            ConfigError::EmptyRegion { region } => {
                write!(f, "region {region} needs at least one server")
            }
            ConfigError::DuplicateRegion { region } => {
                write!(f, "region {region} is listed more than once")
            }
            ConfigError::NonPositiveSchedulingInterval { seconds } => {
                write!(f, "scheduling interval must be positive, got {seconds} s")
            }
            ConfigError::NegativeDelayTolerance { tolerance } => {
                write!(f, "delay tolerance must be non-negative, got {tolerance}")
            }
            ConfigError::NonPositiveEmbodiedPerturbation { factor } => {
                write!(f, "embodied perturbation must be positive, got {factor}")
            }
            ConfigError::Trace(refused) => write!(f, "{refused}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The discrete-event engine could not be constructed or could not replay
/// the trace.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// The simulation configuration is invalid.
    Config(ConfigError),
    /// An event with a NaN or infinite timestamp was about to enter the
    /// event queue. Admitting it would silently break the min-heap ordering
    /// invariant, so the engine rejects the whole run instead.
    NonFiniteEventTime {
        /// The offending timestamp.
        time: f64,
        /// Which event carried it (for example `arrival of job 17`).
        event: String,
    },
    /// The trace contains two jobs with the same id. Assignments are keyed
    /// by job id, so a duplicate would leave one of the twins unschedulable
    /// forever (the campaign would never terminate); the engine rejects the
    /// trace up front instead.
    DuplicateJobId {
        /// The id that appears more than once.
        id: JobId,
    },
    /// An online injection under [`crate::ClockMode::Discrete`] carried a
    /// submit time at or before state the engine has already committed
    /// (an earlier stamp, or a dispatched round/ready/complete event at or
    /// after it). Admitting it would make the recorded trace unreplayable —
    /// the offline replay would order the arrival ahead of effects the
    /// online run produced without it — so the run is rejected instead.
    /// `RealTime` runs never produce this error (stamps are taken from the
    /// monotone clock).
    OutOfOrderArrival {
        /// The rejected job.
        job: JobId,
        /// The submit time the injection carried.
        time: f64,
        /// The smallest admissible submit time at the point of injection.
        watermark: f64,
    },
    /// A caller-sequenced online injection carried an arrival sequence at
    /// or above [`crate::ONLINE_ARRIVAL_SEQ_LIMIT`], outside the band the
    /// admission journal records exactly, so the run is rejected.
    ArrivalSeqOutOfBand {
        /// The rejected job.
        job: JobId,
        /// The out-of-band sequence it carried.
        seq: u64,
    },
    /// A caller-sequenced online injection reused an arrival sequence an
    /// earlier injection already carried. The sequence is the
    /// exact-timestamp tie-breaker, so a reuse would leave the order
    /// between the twins ambiguous; the run is rejected instead.
    ArrivalSeqReused {
        /// The rejected job.
        job: JobId,
        /// The sequence that was already taken.
        seq: u64,
    },
    /// A job carries a finite negative execution time: its completion would
    /// be dispatched before its start, running the clock backwards. (A NaN
    /// or infinite one is [`SimulationError::NonFiniteEventTime`] once the
    /// job starts.) The job is rejected as it is admitted.
    NegativeExecutionTime {
        /// The rejected job.
        job: JobId,
        /// The execution time it carried, in seconds.
        time: f64,
    },
    /// A job carries a non-finite estimated execution time or estimated
    /// energy. Schedulers price a job from its estimates, so a round holding
    /// it would build non-finite costs and WaterWise would defer the whole
    /// batch, every round, and the run would never end. The job is rejected
    /// as it is admitted.
    NonFiniteEstimate {
        /// The rejected job.
        job: JobId,
        /// The field that is not finite: `estimated_execution_time` or
        /// `estimated_energy`.
        field: &'static str,
        /// The value it carried.
        value: f64,
    },
    /// The scheduling interval is positive but too small to move the clock:
    /// the round after the one at `time` was re-armed at `time` itself, and
    /// the campaign would never advance. The run fails as that round fires.
    SchedulingIntervalBelowClockResolution {
        /// The instant the round was re-armed at.
        time: f64,
        /// The scheduling interval in seconds.
        interval: f64,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::Config(e) => write!(f, "invalid simulation config: {e}"),
            SimulationError::NonFiniteEventTime { time, event } => {
                write!(f, "non-finite event time {time} for {event}")
            }
            SimulationError::DuplicateJobId { id } => {
                write!(f, "trace contains duplicate id {id}")
            }
            SimulationError::OutOfOrderArrival {
                job,
                time,
                watermark,
            } => {
                write!(
                    f,
                    "out-of-order online arrival: {job} submitted at {time} s, \
                     but the discrete watermark already passed {watermark} s"
                )
            }
            SimulationError::ArrivalSeqOutOfBand { job, seq } => {
                write!(
                    f,
                    "sequenced online arrival for {job} carries sequence {seq}, \
                     at or above the arrival band limit"
                )
            }
            SimulationError::ArrivalSeqReused { job, seq } => {
                write!(
                    f,
                    "sequenced online arrival for {job} reuses arrival sequence {seq}"
                )
            }
            SimulationError::NegativeExecutionTime { job, time } => {
                write!(f, "{job} has a negative execution time of {time} s")
            }
            SimulationError::NonFiniteEstimate { job, field, value } => {
                write!(f, "{job} has a non-finite {field} of {value}")
            }
            SimulationError::SchedulingIntervalBelowClockResolution { time, interval } => {
                write!(
                    f,
                    "scheduling interval {interval:e} s does not advance the clock \
                     past the round at {time} s"
                )
            }
        }
    }
}

impl std::error::Error for SimulationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimulationError::Config(e) => Some(e),
            SimulationError::NonFiniteEventTime { .. }
            | SimulationError::DuplicateJobId { .. }
            | SimulationError::OutOfOrderArrival { .. }
            | SimulationError::ArrivalSeqOutOfBand { .. }
            | SimulationError::ArrivalSeqReused { .. }
            | SimulationError::NegativeExecutionTime { .. }
            | SimulationError::NonFiniteEstimate { .. }
            | SimulationError::SchedulingIntervalBelowClockResolution { .. } => None,
        }
    }
}

impl From<ConfigError> for SimulationError {
    fn from(e: ConfigError) -> Self {
        SimulationError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(ConfigError::NoRegions.to_string().contains("region"));
        assert!(ConfigError::EmptyRegion {
            region: Region::Milan
        }
        .to_string()
        .contains("Milan"));
        assert!(ConfigError::NonPositiveSchedulingInterval { seconds: -1.0 }
            .to_string()
            .contains("-1"));
        assert!(ConfigError::NegativeDelayTolerance { tolerance: -0.5 }
            .to_string()
            .contains("-0.5"));
        assert!(ConfigError::NonPositiveEmbodiedPerturbation { factor: 0.0 }
            .to_string()
            .contains('0'));
    }

    #[test]
    fn simulation_error_wraps_config_error_as_source() {
        use std::error::Error;
        let e = SimulationError::from(ConfigError::NoRegions);
        assert!(matches!(e, SimulationError::Config(_)));
        assert!(e.source().is_some());
        let nan = SimulationError::NonFiniteEventTime {
            time: f64::NAN,
            event: "arrival of job 3".into(),
        };
        assert!(nan.source().is_none());
        assert!(nan.to_string().contains("job 3"));
    }

    #[test]
    fn event_dispatch_errors_name_the_job() {
        use std::error::Error;
        let duplicate = SimulationError::DuplicateJobId { id: JobId(4) };
        assert!(duplicate.to_string().contains("job-4"));
        assert!(duplicate.to_string().contains("duplicate"));
        assert!(duplicate.source().is_none());
    }
}
