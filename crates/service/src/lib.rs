//! # waterwise-service
//!
//! The online placement front-end of the WaterWise reproduction: live
//! request ingestion into the simulation engine.
//!
//! The batch crates replay a whole trace and report a campaign summary;
//! this crate turns the same engine into a *servable system*. There is one
//! serving shape: a [`ClusterHost`] keeps one engine run alive (one
//! scheduler) and multiplexes sessions onto it
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
//! The host owns one thread, the engine's: it takes admitted requests
//! straight from the admission queue and delivers each placement to its
//! session's bounded outbox as the round commits it.
//! Admission itself never blocks — a tenant over its quota is shed in-band
//! and may resubmit once placements drain its in-flight window.
//!
//! ## Determinism
//!
//! The service preserves the workspace's byte-identity discipline. A
//! one-session run records its admitted jobs as a trace
//! ([`HostReport::trace`]), and replaying that trace offline through
//! [`waterwise_cluster::Simulator::run`] reproduces the exact same
//! schedule — under either [`waterwise_cluster::ClockMode`] (the
//! `online_equals_offline` and `real_time_replays_its_recorded_trace` rows
//! of the workspace's root `tests/invariants.rs`, and over TCP
//! `tests/tcp_multi_session.rs` plus the `fig17` golden-snapshot test in
//! `waterwise-bench`). Multi-session runs extend the discipline: tie order
//! is pinned by per-session sequence bands, and replaying the admission
//! journal offline ([`Journal::replay`]) reproduces the live schedule
//! byte-identically regardless of how the session threads interleaved (the
//! `journal_equals_replay` row). See
//! `docs/ONLINE_SERVICE.md` for the operator-facing picture (wire format,
//! tenancy, clock modes, shutdown).

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

pub mod admission;
pub mod deployment;
pub mod error;
pub mod host;
pub mod journal;
pub mod request;
pub mod service;
mod sync;
pub mod tcp;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionMode, TenantId, TenantReport};
pub use deployment::Deployment;
pub use error::ServiceError;
pub use host::{ClusterHost, HostPersistence, HostReport, HostSession};
pub use journal::{Journal, JournalEntry, JournalWriter, ReplayOutcome};
pub use request::{PlacementRequest, PlacementResponse};
pub use service::{PlacementService, ServiceConfig};
pub use tcp::TcpClusterServer;
