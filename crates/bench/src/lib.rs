//! # waterwise-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! WaterWise paper's evaluation (Figs. 1–13, Tables 2–3 and the Sec. 6
//! sensitivity studies), and the golden-snapshot tests that pin the
//! committed scenario specs. Performance is measured by the perf ledger
//! (`bash benchmark/run.sh`), not here.
//!
//! [`figures::FIGURES`] lists them once: one row per paper artifact, naming
//! the [`experiments`] function that regenerates it and the claims its
//! printed numbers must show. The one `figures` binary runs rows of it
//! (`figures fig09`, `figures all`) and prints fixed-width tables whose rows
//! correspond to the series plotted in the paper. Absolute numbers are not
//! expected to match the paper (the substrate here is a simulator seeded
//! with synthetic telemetry, not the authors' AWS deployment); the *shape* —
//! who wins, by roughly what factor, and how trends move with delay
//! tolerance, weights, utilization, and region availability — is the
//! reproduction target, and each row's claims state it.
//!
//! ## Scaling experiments
//!
//! A figure with a committed spec (`fig05`, `fig08`) runs it; every other
//! figure runs the paper's default scenario at [`figures::DAYS`] days of
//! Borg-like arrivals and seed [`figures::SEED`], so that the full suite
//! completes in about a second in release. Two environment variables rescale
//! every experiment:
//!
//! * `WATERWISE_DAYS` — trace length in days (default 0.25; finite and > 0).
//! * `WATERWISE_SEED` — RNG seed (default 42).
//!
//! Both are read through the spec keys they override (`[trace] days`,
//! `[scenario] seed`; see [`experiments::SCALE_OVERRIDES`]). A value the
//! key refuses is a startup error: the binary exits with status 2, naming
//! the variable and its value on stderr.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod table;

pub use figures::{Claim, Figure, FIGURES};
pub use table::Table;
