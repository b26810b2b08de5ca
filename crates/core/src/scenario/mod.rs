//! Declarative scenario specs and golden-snapshot verification.
//!
//! The WaterWise experiments used to hand-code every scenario — trace shape,
//! regions, telemetry horizon, objective weights, clock config —
//! in a bespoke Rust binary, and hand-roll every byte-identity assert. This
//! module turns both into data:
//!
//! * [`spec`] defines a strict, line-based `key = value` spec format (see
//!   `docs/SCENARIOS.md` for the grammar). [`load_spec`] parses a
//!   `scenarios/*.spec` file into a [`Scenario`] — a named, seeded, ready
//!   [`crate::experiment::CampaignConfig`]. Parsing is hand-rolled in the
//!   style of the service wire codec (the vendored `serde` is a no-op) and
//!   every rejection is a typed [`ScenarioError`] with a 1-based line number.
//! * [`snapshot`] renders campaign results to a stable canonical text form
//!   ([`Snapshot`]) and compares them against goldens stored as
//!   `tests/snapshots/<scenario>.snap`, with line-level drift diffs and an
//!   `UPDATE_SNAPSHOTS=1` bless path ([`assert_snapshot`]).
//!
//! Together they enforce the repo's standing determinism invariant:
//! the schedule a spec produces is byte-identical across warm/cold solver
//! starts and between its offline and online runs — "snapshot == replay".

pub mod snapshot;
pub mod spec;

pub use snapshot::{
    assert_snapshot, check_snapshot, diff_lines, orphaned_snapshots, snapshot_path, update_mode,
    Snapshot, SnapshotCheck, SnapshotError,
};
pub use spec::{load_spec, parse_clock_mode, parse_spec, Scenario, ScenarioError};
