//! Fixtures for the determinism rules (docs/LINTING.md). Each positive
//! fixture wraps its violation in `#[expect(clippy::<lint>, reason =
//! "fixture: DETnnn fires here")]`: if the rule stops firing, the
//! expectation is unfulfilled and clippy fails. A negative fixture that
//! starts firing fails clippy too. DET005 is not a clippy lint; its
//! fixtures are read by the workspace's `tests/float_literal_compare.rs`.

#![allow(
    dead_code,
    reason = "fixtures are compiled for their lints, never called"
)]
// DET003, as at the crate roots of core, cluster, milp and service.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod det001_btree_clean;
mod det001_hash_iteration;
mod det002_waived;
mod det002_wall_clock;
mod det003_panics;
mod det003_typed_errors;
mod det004_cached;
mod det004_parallelism;
mod det005_float_eq;
mod det005_total_cmp;
mod test_code_masked;
mod waiver_missing_reason;
mod waiver_unknown_lint;
