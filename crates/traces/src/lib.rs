//! # waterwise-traces
//!
//! Workload traces for the WaterWise evaluation.
//!
//! The paper drives its testbed with job inter-arrivals from the Google Borg
//! cluster trace (10 days, ~230 000 jobs) and, for a robustness study, the
//! Alibaba VM trace (≈ 8.5× higher invocation rate), executing PARSEC and
//! CloudSuite benchmarks whose execution time and energy were profiled on
//! AWS `m5.metal` machines.
//!
//! Neither trace nor the profiling data ships with this repository, so this
//! crate generates *synthetic but statistically similar* traces:
//!
//! * [`workload`] — the ten PARSEC/CloudSuite benchmarks and their profiled
//!   mean execution time, power draw, and package size (Table 1).
//! * [`job`] — the per-job record consumed by the simulator and schedulers,
//!   including the *estimated* execution time / energy the scheduler sees
//!   (mean estimates from prior runs, deliberately noisy) and the *actual*
//!   values the simulator charges.
//! * [`arrival`] — Borg-like (bursty, diurnal) and Alibaba-like (denser)
//!   arrival processes.
//! * [`generator`] — end-to-end trace generation with configurable duration,
//!   rate multiplier, and home-region distribution.
//! * [`stats`] — summary statistics used in tests and experiment logs.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arrival;
pub mod generator;
pub mod job;
pub mod stats;
pub mod workload;

pub use arrival::{ArrivalModel, TraceKind};
pub use generator::{TraceConfig, TraceConfigError, TraceGenerator};
pub use job::{JobId, JobSpec};
pub use stats::TraceStatistics;
pub use workload::{Benchmark, WorkloadProfile, ALL_BENCHMARKS};
