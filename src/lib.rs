//! WaterWise: carbon- and water-footprint co-optimizing job scheduling for
//! geographically distributed data centers.
//!
//! This is the umbrella crate of the WaterWise workspace. It re-exports every
//! sub-crate so downstream users (and the examples and integration tests in
//! this repository) can depend on a single crate:
//!
//! * [`milp`] — mixed-integer linear programming solver (simplex + branch & bound).
//! * [`sustain`] — carbon and water footprint models (Eq. 1–6 of the paper).
//! * [`telemetry`] — region profiles and synthetic carbon/water intensity series.
//! * [`traces`] — Borg-like and Alibaba-like workload trace generators.
//! * [`cluster`] — discrete-event geo-distributed data-center simulator.
//! * [`core`] — the WaterWise scheduler, baselines, and experiment runner.
//! * [`service`] — online placement front-end: live request ingestion into
//!   the engine from in-process sessions or line-delimited-JSON TCP.
//!
//! # Quickstart
//!
//! ```
//! use waterwise::core::experiment::{Campaign, CampaignConfig, SchedulerKind};
//!
//! let config = CampaignConfig::small_demo(42);
//! let outcome = Campaign::new(config).run(SchedulerKind::WaterWise).unwrap();
//! assert!(outcome.summary.total_jobs > 0);
//! ```

pub use waterwise_cluster as cluster;
pub use waterwise_core as core;
pub use waterwise_milp as milp;
pub use waterwise_service as service;
pub use waterwise_sustain as sustain;
pub use waterwise_telemetry as telemetry;
pub use waterwise_traces as traces;

/// Semantic version of the WaterWise workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
