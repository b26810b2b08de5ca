//! # waterwise-cluster
//!
//! A discrete-event simulator of geographically distributed data centers,
//! replacing the 175-node, five-region AWS testbed of the WaterWise paper.
//!
//! The simulator models:
//!
//! * per-region server pools with FIFO queues ([`state`]);
//! * inter-region transfer of job packages with latency, bandwidth, and an
//!   energy cost ([`network`]);
//! * job arrival from a workload trace, periodic scheduling rounds that
//!   consult a pluggable [`Scheduler`], job start/completion, and footprint
//!   accounting with the environmental conditions at execution time
//!   ([`engine`]);
//! * per-job outcomes and campaign-level summaries: carbon and water
//!   footprint, service-time stretch, delay-tolerance violations, region
//!   distribution, utilization, and scheduler decision overhead
//!   ([`metrics`]).
//!
//! Schedulers (WaterWise itself and all baselines) live in `waterwise-core`;
//! this crate only defines the [`Scheduler`] trait and the view of cluster
//! state a scheduler is allowed to see.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// DET003 (docs/LINTING.md): failures here are typed errors, never panics.
// In test code the workspace clippy.toml allows `unwrap`, `expect` and `panic!`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod config;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod network;
pub mod scheduler;
pub mod state;

pub use config::{EngineMode, SimulationConfig};
pub use engine::clock::ClockMode;
pub use engine::online::{
    Arrival, ArrivalSource, OnlineReport, PlacementNotice, SequencedJob, ONLINE_ARRIVAL_SEQ_LIMIT,
};
pub use engine::{SimulationReport, Simulator};
pub use error::{ConfigError, SimulationError};
pub use metrics::{saving_percent, schedule_digest, CampaignSummary, JobOutcome, OverheadSample};
pub use network::TransferModel;
pub use scheduler::{
    Assignment, PendingJob, Scheduler, SchedulingContext, SchedulingDecision, SolverActivity,
};
pub use state::RegionView;
