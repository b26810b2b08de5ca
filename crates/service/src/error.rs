//! Typed errors of the online placement service.

use std::fmt;
use std::path::PathBuf;
use waterwise_cluster::{ConfigError, SimulationError};
use waterwise_traces::JobId;

/// Everything that can go wrong while serving placement requests.
///
/// The service distinguishes *per-request* failures (a malformed line, a
/// duplicate id, a quota rejection), which are reported back to the client
/// and do not stop the service, from *run-level* failures (the engine
/// rejecting the stream, transport I/O), which end the host run
/// ([`crate::ClusterHost::shutdown`]) or the TCP serve call with one of
/// these variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The simulation configuration backing the service is invalid.
    Config(ConfigError),
    /// The engine failed while replaying the live stream (duplicate ids
    /// that slipped past validation, out-of-order discrete arrivals, a
    /// dropped placement sink, …).
    Simulation(SimulationError),
    /// A transport-level I/O failure (TCP accept/read/write). The inner
    /// string is the I/O error's message (`std::io::Error` is not `Clone`,
    /// so the service stores its rendering).
    Io(String),
    /// A request line could not be parsed into a [`crate::PlacementRequest`].
    /// The TCP front-end reports this back to the client on the connection
    /// and keeps serving.
    MalformedRequest {
        /// 1-based line number on the connection (0 for in-process
        /// submissions).
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A request reused the id of an earlier request on the same host run.
    /// The request is dropped (and reported back to the client where the
    /// transport allows) before it can poison the engine.
    DuplicateRequest {
        /// The reused id.
        id: JobId,
    },
    /// The host already stopped accepting requests (admission closed, the
    /// session ended its stream, or the engine ended or failed).
    ServiceStopped,
    /// A tenant hit its bounded in-flight quota on the multi-session host:
    /// the request was shed *before* the admission queue instead of letting
    /// one tenant monopolize the engine. Reported in-band (TCP clients see
    /// an `{"type":"error","code":"admission_rejected",...}` line); the
    /// session keeps going and the tenant can resubmit once placements
    /// drain its in-flight window.
    AdmissionRejected {
        /// The tenant that hit its quota.
        tenant: String,
        /// Requests the tenant had queued or awaiting placement.
        in_flight: usize,
        /// The configured per-tenant quota.
        quota: usize,
    },
    /// The multi-session host ran out of session capacity: either the
    /// configured session count was reached (gated/auto-closing hosts) or
    /// the per-session sequence band space (2^16 sessions per host run)
    /// was exhausted.
    SessionLimit {
        /// Sessions the host had already opened.
        sessions: usize,
    },
    /// An admission journal line could not be parsed back into an entry.
    JournalMalformed {
        /// 1-based line number in the journal text.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The on-disk admission journal could not be read or written.
    JournalIo {
        /// The journal file.
        path: PathBuf,
        /// Stringified OS error.
        message: String,
    },
    /// The host was asked to resume from a recovered journal under a
    /// configuration that cannot reproduce the original schedule.
    ResumeUnsupported {
        /// Which configuration requirement was violated.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "invalid service config: {e}"),
            ServiceError::Simulation(e) => write!(f, "engine failure: {e}"),
            ServiceError::Io(message) => write!(f, "transport i/o failure: {message}"),
            ServiceError::MalformedRequest { line, message } => {
                write!(f, "malformed request on line {line}: {message}")
            }
            ServiceError::DuplicateRequest { id } => {
                write!(f, "duplicate request id {id} in this session")
            }
            ServiceError::ServiceStopped => {
                write!(f, "the placement service is no longer accepting requests")
            }
            ServiceError::AdmissionRejected {
                tenant,
                in_flight,
                quota,
            } => {
                write!(
                    f,
                    "tenant {tenant:?} is at its in-flight quota ({in_flight}/{quota}); \
                     retry after placements drain"
                )
            }
            ServiceError::SessionLimit { sessions } => {
                write!(
                    f,
                    "the host is not accepting new sessions ({sessions} already opened)"
                )
            }
            ServiceError::JournalMalformed { line, message } => {
                write!(f, "malformed journal entry on line {line}: {message}")
            }
            ServiceError::JournalIo { path, message } => {
                write!(f, "journal i/o failure at {}: {message}", path.display())
            }
            ServiceError::ResumeUnsupported { reason } => {
                write!(f, "cannot resume from a recovered journal: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Config(e) => Some(e),
            ServiceError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

impl From<SimulationError> for ServiceError {
    fn from(e: SimulationError) -> Self {
        ServiceError::Simulation(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(ServiceError::DuplicateRequest { id: JobId(9) }
            .to_string()
            .contains("job-9"));
        assert!(ServiceError::MalformedRequest {
            line: 3,
            message: "missing id".into(),
        }
        .to_string()
        .contains("line 3"));
        let io: ServiceError = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone").into();
        assert!(io.to_string().contains("gone"));
    }

    #[test]
    fn sources_are_preserved_for_wrapped_errors() {
        use std::error::Error;
        let e = ServiceError::from(ConfigError::NoRegions);
        assert!(e.source().is_some());
        let e = ServiceError::from(SimulationError::DuplicateJobId { id: JobId(1) });
        assert!(e.source().is_some());
        assert!(ServiceError::ServiceStopped.source().is_none());
    }
}
