//! # waterwise-core
//!
//! The WaterWise carbon- and water-aware scheduler, the baseline schedulers
//! it is evaluated against, and the experiment runner that ties together
//! telemetry, traces, the cluster simulator, and a scheduler into one
//! campaign.
//!
//! * [`sched`] — scheduler implementations:
//!   * [`sched::WaterWiseScheduler`] — the paper's contribution: a MILP
//!     formulation (Eq. 8–11) with soft-constraint relaxation (Eq. 12–13)
//!     and urgency-based slack management (Eq. 14, Algorithm 1).
//!   * [`sched::BaselineScheduler`] — carbon/water-unaware home-region
//!     execution.
//!   * [`sched::GreedyOptScheduler`] — the Carbon-Greedy-Opt and
//!     Water-Greedy-Opt oracles with future knowledge of intensities.
//!   * [`sched::RoundRobinScheduler`] and [`sched::LeastLoadScheduler`] —
//!     classic load balancers.
//!   * [`sched::EcovisorScheduler`] — a carbon-only comparator modeled after
//!     Ecovisor's carbon scaler (home region, no water awareness).
//! * [`objective`] — the shared candidate-evaluation machinery: estimated
//!   carbon/water footprint of running job *m* in region *n* right now, and
//!   the weights of the objective function (Eq. 7–8).
//! * [`experiment`] — campaign configuration and the runner used by the
//!   examples, integration tests, and the benchmark harness.
//! * [`scenario`] — declarative scenario specs (`scenarios/*.spec` files
//!   that parse into a ready [`CampaignConfig`]) and the golden-snapshot
//!   harness that pins their results byte-for-byte.

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

pub mod error;
pub mod experiment;
pub mod objective;
pub mod scenario;
pub mod sched;

pub use error::WaterWiseError;
pub use experiment::{
    build_scheduler, Campaign, CampaignConfig, CampaignOutcome, Parallelism, SchedulerKind,
};
pub use objective::{CandidateFootprint, ObjectiveWeights};
pub use scenario::{
    load_spec, parse_spec, Scenario, ScenarioError, Snapshot, SnapshotError, StartupError,
};
pub use sched::{
    BaselineScheduler, EcovisorScheduler, GreedyObjective, GreedyOptScheduler, LeastLoadScheduler,
    RoundRobinScheduler, SolutionCache, SolutionCacheHandle, WaterWiseConfig, WaterWiseScheduler,
};
