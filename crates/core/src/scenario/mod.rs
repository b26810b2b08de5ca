//! Declarative scenario specs and golden-snapshot verification.
//!
//! The WaterWise experiments used to hand-code every scenario — trace shape,
//! regions, telemetry horizon, objective weights, clock config —
//! in a bespoke Rust binary, and hand-roll every byte-identity assert. This
//! module turns both into data:
//!
//! * [`keys`] declares every settable value once: [`KEYS`] drives the spec
//!   parser, the canonical renderer, the `WATERWISE_*` overrides and the
//!   key tables of `docs/SCENARIOS.md`.
//! * [`env`](mod@env) is the one reader of the process environment, and resolves
//!   the spec a program loads (`--scenario`, `WATERWISE_SCENARIO`).
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
//! the schedule a spec produces is byte-identical with `warm_start` on and
//! off and between its offline and online runs — "snapshot == replay".

pub mod env;
pub mod keys;
pub mod snapshot;
pub mod spec;

pub use env::{default_spec_path, load_scenario, read_vars, EnvVar, StartupError};
pub use keys::{Key, KEYS};
pub use snapshot::{
    assert_snapshot, check_snapshot, diff_lines, orphaned_snapshots, snapshot_path, update_mode,
    Snapshot, SnapshotCheck, SnapshotError,
};
pub use spec::{load_spec, parse_spec, Scenario, ScenarioError};
