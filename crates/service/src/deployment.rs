//! What `placement_server` reads from its environment beside the scenario:
//! one [`EnvVar`] row per deployment variable in [`DEPLOYMENT`], and the
//! spec-key overrides it honors in [`SPEC_OVERRIDES`]. Both are read by the
//! workspace's one environment reader (`waterwise_core::scenario::env`), so
//! a refused value exits the server naming the variable and quoting it.

use crate::{AdmissionConfig, AdmissionMode};
use std::path::PathBuf;
use waterwise_core::scenario::keys::{choice, count, parsed};
use waterwise_core::scenario::{read_vars, EnvVar, StartupError};

/// The spec-key overrides the server honors, each read through its
/// `waterwise_core::scenario::KEYS` row.
pub const SPEC_OVERRIDES: [&str; 4] = [
    "WATERWISE_SEED",
    "WATERWISE_SERVERS",
    "WATERWISE_TOLERANCE",
    "WATERWISE_CLOCK",
];

/// The deployment settings, one field per [`DEPLOYMENT`] row; `None` or
/// `false` where the variable is unset.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    /// `WATERWISE_ADDR`.
    pub addr: Option<String>,
    /// `WATERWISE_SESSIONS`.
    pub sessions: Option<usize>,
    /// `WATERWISE_MULTI_SESSION`.
    pub multi_session: Option<usize>,
    /// `WATERWISE_ADMISSION=gated`.
    pub gated: bool,
    /// `WATERWISE_TENANT_QUOTA` and `WATERWISE_DRR_QUANTUM`, over the
    /// defaults; the mode follows `gated` and each run's session count.
    pub admission: AdmissionConfig,
    /// `WATERWISE_JOURNAL`.
    pub journal: Option<PathBuf>,
    /// `WATERWISE_JOURNAL_PATH`.
    pub journal_path: Option<PathBuf>,
    /// `WATERWISE_RESUME`.
    pub resume: bool,
}

/// The deployment variables, in the order [`Deployment::from_env`] reads
/// them. A refused value is reported against the row's grammar.
pub const DEPLOYMENT: &[EnvVar<Deployment>] = &[
    EnvVar {
        name: "WATERWISE_ADDR",
        grammar: "`host:port`",
        doc: "Listen address, default `127.0.0.1:7878`; port `0` binds an ephemeral port.",
        set: |d, v| parsed(v).map(|addr| d.addr = Some(addr)),
    },
    EnvVar {
        name: "WATERWISE_SESSIONS",
        grammar: "integer ≥ 0",
        doc: "Serve this many sessions in total, then exit. Default: one run's worth when \
              `WATERWISE_MULTI_SESSION` is set, unlimited otherwise.",
        set: |d, v| parsed(v).map(|n| d.sessions = Some(n)),
    },
    EnvVar {
        name: "WATERWISE_MULTI_SESSION",
        grammar: "integer ≥ 1",
        doc: "Concurrent sessions per engine run, default 1: each run accepts this many \
              connections, serves them on one engine, and reports when the last one ends.",
        set: |d, v| count(v).map(|n| d.multi_session = Some(n)),
    },
    EnvVar {
        name: "WATERWISE_ADMISSION",
        grammar: "`streaming` | `gated`",
        doc: "Drain mode, default `streaming`.",
        set: |d, v| choice(v, &[("streaming", false), ("gated", true)]).map(|g| d.gated = g),
    },
    EnvVar {
        name: "WATERWISE_TENANT_QUOTA",
        grammar: "integer ≥ 1",
        doc: "Per-tenant in-flight admission quota, default 64.",
        set: |d, v| count(v).map(|n| d.admission.tenant_inflight_quota = n),
    },
    EnvVar {
        name: "WATERWISE_DRR_QUANTUM",
        grammar: "integer ≥ 1",
        doc: "Deficit-round-robin drain quantum, default 8.",
        set: |d, v| count(v).map(|n| d.admission.drr_quantum = n),
    },
    EnvVar {
        name: "WATERWISE_JOURNAL",
        grammar: "path",
        doc: "Write each finished run's admission journal to this file.",
        set: |d, v| parsed(v).map(|path| d.journal = Some(path)),
    },
    EnvVar {
        name: "WATERWISE_JOURNAL_PATH",
        grammar: "path",
        doc: "*Stream* the current run's admission journal to this file as entries are \
              admitted (crash durability); each run restarts the file.",
        set: |d, v| parsed(v).map(|path| d.journal_path = Some(path)),
    },
    EnvVar {
        name: "WATERWISE_RESUME",
        grammar: "`1` | `true` | `0` | `false`",
        doc: "`1`/`true`: the first run replays the journal recovered at \
              `WATERWISE_JOURNAL_PATH` before new sessions; default `0`/`false`.",
        set: |d, v| {
            let choices = [("1", true), ("true", true), ("0", false), ("false", false)];
            choice(v, &choices).map(|resume| d.resume = resume)
        },
    },
];

impl Deployment {
    /// Read every [`DEPLOYMENT`] variable that is set.
    pub fn from_env() -> Result<Self, StartupError> {
        let mut deployment = Self::default();
        read_vars(DEPLOYMENT, &mut deployment)?;
        Ok(deployment)
    }

    /// The admission policy of one run of `concurrent` sessions.
    pub fn admission(&self, concurrent: usize) -> AdmissionConfig {
        let mode = if self.gated {
            AdmissionMode::Gated {
                sessions: concurrent,
            }
        } else {
            AdmissionMode::Streaming {
                close_after_sessions: Some(concurrent),
            }
        };
        AdmissionConfig {
            mode,
            ..self.admission.clone()
        }
    }
}
