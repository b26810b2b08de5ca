//! # waterwise-service
//!
//! The online placement front-end of the WaterWise reproduction: live
//! request ingestion into the simulation engine.
//!
//! The batch crates replay a whole trace and report a campaign summary;
//! this crate turns the same engine into a *servable system*. There is one
//! serving shape: a [`ClusterHost`] keeps one engine run alive (one
//! scheduler, one solver workspace) and multiplexes sessions onto it
//! through a shared admission queue with per-tenant in-flight quotas
//! ([`ServiceError::AdmissionRejected`] in-band when exceeded) and
//! deficit-round-robin fairness. Sessions are opened in-process
//! ([`ClusterHost::open_session`]) or one per line-delimited-JSON TCP
//! connection ([`TcpClusterServer`]; requests may carry a `tenant` wire
//! field), and receive a [`PlacementResponse`] per job as the scheduler
//! commits it: the chosen region, the scheduling slot, the projected
//! carbon/water footprint of the decision, and whether the placement still
//! meets its delay-tolerance deadline. A single client is a one-session
//! host ([`AdmissionMode::Streaming`] with `close_after_sessions:
//! Some(1)`). Every admitted request is journaled ([`Journal`]) with its
//! arrival sequence.
//!
//! Every channel in the path is bounded; admission itself never blocks — a
//! tenant over its quota is shed in-band and may resubmit once placements
//! drain its in-flight window.
//!
//! ## Determinism
//!
//! The service preserves the workspace's byte-identity discipline. A
//! one-session run records its admitted jobs as a trace
//! ([`HostReport::trace`]), and replaying that trace offline through
//! [`waterwise_cluster::Simulator::run`] reproduces the exact same
//! schedule — under either [`waterwise_cluster::ClockMode`] (`tests/online_equivalence.rs`, and
//! over TCP `tests/tcp_multi_session.rs` plus the `fig17` golden-snapshot
//! test in `waterwise-bench`). Multi-session runs extend the discipline:
//! tie order is pinned by per-session sequence bands, and replaying the
//! admission journal offline ([`Journal::replay`]) reproduces the live
//! schedule byte-identically regardless of how the session threads
//! interleaved (`tests/multi_session_equivalence.rs`). See
//! `docs/ONLINE_SERVICE.md` for the operator-facing picture (wire format,
//! tenancy, clock modes, shutdown).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod error;
pub mod host;
pub mod journal;
pub mod request;
pub mod service;
mod sync;
pub mod tcp;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionMode, TenantId, TenantReport};
pub use error::ServiceError;
pub use host::{ClusterHost, HostConfig, HostPersistence, HostReport, HostSession};
pub use journal::{Journal, JournalEntry, JournalWriter, ReplayOutcome};
pub use request::{PlacementRequest, PlacementResponse};
pub use service::{PlacementService, ServiceConfig};
pub use tcp::TcpClusterServer;
