//! The multi-tenant persistent placement host — the one serving path.
//!
//! A [`ClusterHost`] keeps **one** engine run alive across its sessions —
//! a single client is simply a one-session host: it owns the persistent
//! [`crate::PlacementService`] (simulated cluster, telemetry, and — via
//! the engine — the scheduler) and multiplexes sessions onto it through a
//! shared [`crate::AdmissionConfig`]-governed admission queue. Sessions
//! submit concurrently from their own threads; the host owns exactly one
//! thread, the **engine**, which runs the simulator's online driver for
//! the whole host lifetime:
//!
//! - it takes admitted requests straight from the admission queue (its
//!   arrival source): a resumed host's recovered head and a gated host's
//!   released batch first, then deficit round-robin across tenants, each
//!   request stamped, sequenced and journaled as it is taken — so one
//!   scheduling round batches whatever all tenants submitted since the
//!   last round;
//! - it answers each placement inline as the round commits it: route the
//!   notice to the session that asked, enrich it into a
//!   [`crate::PlacementResponse`], put it in that session's bounded
//!   outbox, and free the tenant's quota slot.
//!
//! Determinism: the engine breaks exact-time ties by arrival sequence,
//! and every sequence is allocated from its session's private band
//! (`session << 32 | request index`), so the committed schedule does not
//! depend on how the racing session threads interleaved — and the
//! admission journal ([`HostReport::journal`]) replays offline to the
//! byte-identical schedule ([`crate::Journal::replay`]).
//!
//! Backpressure: each session's outbox is bounded. A session that stops
//! draining it stalls the engine once the outbox is full — on TCP the
//! per-connection writer thread always drains (a dead socket fails the
//! write, which drops the outbox). In-process callers should drain
//! [`HostSession::take_responses`] concurrently with submitting.

use crate::admission::{AdmissionConfig, AdmissionMode, AdmissionQueue, TenantId, TenantReport};
use crate::error::ServiceError;
use crate::journal::{Journal, JournalWriter};
use crate::request::PlacementResponse;
use crate::service::PlacementService;
use crate::sync::{join_owned_or_resume, lock_clean};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use waterwise_cluster::{ClockMode, OnlineReport, PlacementNotice, Scheduler, SimulationReport};
use waterwise_traces::JobSpec;

/// Durability knobs of a [`ClusterHost`]: where the admission journal
/// streams to, and the recovered journal to resume from. See
/// [`ClusterHost::start_persistent`].
#[derive(Debug, Default)]
pub struct HostPersistence {
    /// Stream the admission journal to this file as entries are admitted
    /// (truncated at startup; a resumed host first rewrites the recovered
    /// prefix, so the file is always the full combined journal).
    pub journal_path: Option<PathBuf>,
    /// Resume from this recovered journal: its entries are re-fed to the
    /// fresh engine as the head of the live stream, so the combined run is
    /// byte-identical to one that was never interrupted.
    pub resume: Option<Journal>,
}

impl HostPersistence {
    /// Stream the journal to `path`.
    pub fn with_journal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Resume from a recovered journal.
    pub fn with_resume(mut self, journal: Journal) -> Self {
        self.resume = Some(journal);
        self
    }
}

/// What a completed host run reports: one campaign spanning every
/// session, plus the admission journal and per-tenant accounting.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// The campaign-level simulation report across all sessions,
    /// identical in structure to an offline run's.
    pub report: SimulationReport,
    /// Every admitted job in engine receipt order with its stamped
    /// submit time. For a one-session host, replaying this trace offline
    /// through [`waterwise_cluster::Simulator::run`] reproduces `report`'s
    /// schedule byte-identically (concurrent sessions need the journal's
    /// sequences — see [`HostReport::journal`]).
    pub trace: Vec<JobSpec>,
    /// The admission journal: replaying it offline
    /// ([`crate::Journal::replay`]) reproduces `report`'s schedule
    /// byte-identically.
    pub journal: Journal,
    /// Requests admitted into the engine: the sum over
    /// [`HostReport::tenants`].
    pub accepted: usize,
    /// Requests shed before the engine (duplicates, quota): the sum over
    /// [`HostReport::tenants`].
    pub rejected: usize,
    /// Placement responses delivered to sessions: the sum over
    /// [`HostReport::tenants`].
    pub served: usize,
    /// Sessions opened over the host's lifetime.
    pub sessions: usize,
    /// Per-tenant admission statistics.
    pub tenants: BTreeMap<TenantId, TenantReport>,
}

impl HostReport {
    /// FNV-1a digest of the committed schedule — the value the journal
    /// replay and the golden snapshots compare against.
    pub fn schedule_digest(&self) -> u64 {
        waterwise_cluster::schedule_digest(&self.report.outcomes)
    }
}

/// A long-lived multi-session placement server over one persistent
/// engine run. See the module docs for its one thread.
///
/// ```
/// use waterwise_core::{build_scheduler, SchedulerKind, WaterWiseConfig};
/// use waterwise_service::{
///     AdmissionConfig, AdmissionMode, ClusterHost, PlacementService, ServiceConfig,
/// };
/// use waterwise_sustain::FootprintEstimator;
/// use waterwise_sustain::{KilowattHours, Seconds};
/// use waterwise_telemetry::Region;
/// use waterwise_traces::{Benchmark, JobId, JobSpec};
///
/// let service = PlacementService::new(ServiceConfig::small_demo(42)).unwrap();
/// let scheduler = build_scheduler(
///     SchedulerKind::WaterWise,
///     service.telemetry(),
///     FootprintEstimator::new(service.config().simulation.datacenter),
///     &WaterWiseConfig::default(),
/// );
/// let admission = AdmissionConfig {
///     // Auto-close once both expected sessions end their streams, so
///     // the engine drains and `shutdown` can report.
///     mode: AdmissionMode::Streaming { close_after_sessions: Some(2) },
///     ..AdmissionConfig::default()
/// };
/// let host = ClusterHost::start_with_service(service, admission, scheduler).unwrap();
///
/// let spec = |id: u64, t: f64| JobSpec {
///     id: JobId(id),
///     benchmark: Benchmark::Blackscholes,
///     submit_time: Seconds::new(t),
///     home_region: Region::Milan,
///     actual_execution_time: Seconds::new(300.0),
///     actual_energy: KilowattHours::new(0.02),
///     estimated_execution_time: Seconds::new(300.0),
///     estimated_energy: KilowattHours::new(0.02),
///     package_bytes: 1 << 20,
/// };
/// let a = host.open_session("acme").unwrap();
/// let b = host.open_session("umbrella").unwrap();
/// a.submit(spec(1, 0.0)).unwrap();
/// b.submit(spec(2, 0.0)).unwrap();
/// // End both streams first: the auto-close (and with it the final
/// // drain) fires when the last expected session ends.
/// a.finish();
/// b.finish();
/// let (a, b) = (a.drain(), b.drain());
/// assert_eq!((a.len(), b.len()), (1, 1));
/// let report = host.shutdown().unwrap();
/// assert_eq!(report.served, 2);
/// assert_eq!(report.journal.entries.len(), 2);
/// ```
pub struct ClusterHost {
    service: Arc<PlacementService>,
    admission: Arc<AdmissionQueue>,
    engine: JoinHandle<Result<OnlineReport, ServiceError>>,
}

impl ClusterHost {
    /// Start the host's engine run over a built service (the caller needs
    /// the service's telemetry to build the scheduler), without a journal
    /// file or a resume.
    pub fn start_with_service(
        service: PlacementService,
        admission: AdmissionConfig,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<Self, ServiceError> {
        Self::start_persistent(service, admission, scheduler, HostPersistence::default())
    }

    /// Start the host with durability: stream the admission journal to
    /// disk and/or resume from a recovered one.
    ///
    /// Resume re-feeds the recovered entries — same specs, same
    /// sequences, same order — as the **head** of the fresh engine run:
    /// the admission queue hands them out before anything new drains. The engine orders work purely by
    /// `(time, sequence)` event keys, so the resumed run's combined
    /// schedule is byte-identical to a never-interrupted run over the same
    /// submissions (the `resume_equals_uninterrupted` row of the root
    /// `tests/invariants.rs` pins this). New sessions allocate sequence
    /// bands above every recovered band, the recovered stamps seed the
    /// watermark, and recovered job ids stay duplicate-rejected across the
    /// restart.
    ///
    /// Resuming requires a configuration that can reproduce the original
    /// event keys: streaming admission (a gated host's one-shot canonical
    /// batch cannot be re-opened) and the discrete clock (a real-time
    /// clock would re-stamp the recovered head with fresh wall-clock
    /// times). Anything else fails fast with
    /// [`ServiceError::ResumeUnsupported`].
    ///
    /// Recovered jobs were admitted by a previous process, so their
    /// placements have no live session to route to and are discarded at
    /// delivery; the report's admission counters likewise cover this
    /// process's sessions only, while [`HostReport::journal`] and
    /// [`HostReport::trace`] span the combined run.
    pub fn start_persistent(
        service: PlacementService,
        admission: AdmissionConfig,
        mut scheduler: Box<dyn Scheduler>,
        persistence: HostPersistence,
    ) -> Result<Self, ServiceError> {
        let resume = persistence.resume.unwrap_or_default();
        if !resume.entries.is_empty() {
            if matches!(admission.mode, AdmissionMode::Gated { .. }) {
                return Err(ServiceError::ResumeUnsupported {
                    reason: "gated admission releases one canonical batch and closes; \
                             resuming requires streaming mode"
                        .into(),
                });
            }
            if service.config().clock != ClockMode::Discrete {
                return Err(ServiceError::ResumeUnsupported {
                    reason: "the real-time clock would re-stamp the recovered entries with \
                             fresh wall-clock arrivals; resuming requires the discrete clock"
                        .into(),
                });
            }
        }
        let sink = persistence
            .journal_path
            .as_deref()
            .map(JournalWriter::create)
            .transpose()?;
        let admission = Arc::new(AdmissionQueue::new(admission, &resume.entries, sink)?);
        let service = Arc::new(service);
        let clock = service.config().clock;
        let engine = std::thread::spawn({
            let service = service.clone();
            let admission = admission.clone();
            move || -> Result<OnlineReport, ServiceError> {
                let mut deliver = |notice: PlacementNotice| {
                    if let Some(route) = admission.route(notice.job) {
                        let response = service.enrich(notice, &route.spec);
                        // A dead session's responses are discarded; the
                        // host stays healthy.
                        let sent = route.sink.is_some_and(|sink| sink.send(response).is_ok());
                        admission.delivered(&route.tenant, route.session, sent);
                    }
                };
                let mut source: &AdmissionQueue = &admission;
                let report = service.simulator().run_online_sequenced(
                    scheduler.as_mut(),
                    &mut source,
                    &mut deliver,
                    clock,
                );
                // No further responses can ever flow: unblock every
                // session still draining its outbox, and refuse new work
                // after an engine failure.
                admission.hang_up_sessions();
                report.map_err(ServiceError::from)
            }
        });
        Ok(Self {
            service,
            admission,
            engine,
        })
    }

    /// The persistent service backing the host (telemetry, estimator,
    /// configuration).
    pub fn service(&self) -> &PlacementService {
        &self.service
    }

    /// Open a session under `tenant` (the default tenant of its
    /// submissions). Sessions are cheap; open one per connection or per
    /// logical request stream.
    pub fn open_session(&self, tenant: impl Into<TenantId>) -> Result<HostSession, ServiceError> {
        let (id, responses) = self.admission.open_session()?;
        Ok(HostSession {
            admission: self.admission.clone(),
            id,
            tenant: tenant.into(),
            responses: Mutex::new(Some(responses)),
            finished: AtomicBool::new(false),
        })
    }

    /// Stop admitting, drain the engine, and report the whole campaign.
    /// Blocks until every admitted job has completed. Safe to call while
    /// sessions are still open: their queued requests drain, their
    /// outboxes close after their last response.
    pub fn shutdown(self) -> Result<HostReport, ServiceError> {
        self.admission.close();
        let report = join_owned_or_resume(self.engine)?;
        let (mut journal, tenants) = self.admission.take_report_parts();
        let total: TenantReport = tenants.values().sum();
        // Under the real-time clock the engine stamps arrivals itself at
        // ingestion; backfill the journal from the trace (both are in
        // engine receipt order) so a replay re-derives the same event
        // keys. Under the discrete clock this is a no-op: the admission
        // watermark mirrors the engine's stamp floor exactly.
        for (entry, stamped) in journal.entries.iter_mut().zip(&report.trace) {
            if entry.spec.id == stamped.id {
                entry.spec.submit_time = stamped.submit_time;
            }
        }
        Ok(HostReport {
            report: report.report,
            trace: report.trace,
            journal,
            accepted: total.accepted,
            rejected: total.rejected,
            served: total.served,
            sessions: self.admission.sessions_opened(),
            tenants,
        })
    }
}

/// One request stream multiplexed onto a [`ClusterHost`]. Submissions
/// are admitted under the session's default tenant (or any explicit
/// tenant via [`HostSession::submit_as`]); responses arrive on the
/// session's own bounded outbox in placement-commit order.
///
/// Dropping the session ends its stream (as does [`HostSession::finish`]
/// or [`HostSession::drain`]); on an auto-closing or gated host the last
/// stream end is what lets the engine drain and the host report.
pub struct HostSession {
    admission: Arc<AdmissionQueue>,
    id: usize,
    tenant: TenantId,
    /// The outbox receiver, handed out once (`Receiver` is not `Sync`, so
    /// a shared session cannot expose it by reference).
    responses: Mutex<Option<Receiver<PlacementResponse>>>,
    finished: AtomicBool,
}

impl HostSession {
    /// The session's default tenant.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Submit a request under the session's default tenant. Fails fast
    /// with [`ServiceError::AdmissionRejected`] /
    /// [`ServiceError::DuplicateRequest`] without consuming the request's
    /// quota slot.
    pub fn submit(&self, spec: JobSpec) -> Result<(), ServiceError> {
        self.admission.submit(self.id, &self.tenant, spec)
    }

    /// Submit a request under an explicit tenant (the TCP front-end's
    /// per-request `tenant` field).
    pub fn submit_as(&self, tenant: &TenantId, spec: JobSpec) -> Result<(), ServiceError> {
        self.admission.submit(self.id, tenant, spec)
    }

    /// Take the session's response outbox (available exactly once —
    /// `None` thereafter). Responses keep arriving after
    /// [`HostSession::finish`] until every admitted request is answered,
    /// then the channel closes. Dropping the receiver discards undelivered
    /// responses without disturbing the host.
    pub fn take_responses(&self) -> Option<Receiver<PlacementResponse>> {
        lock_clean(&self.responses).take()
    }

    /// End the session's request stream (idempotent). Outstanding
    /// requests still complete and arrive on the outbox.
    pub fn finish(&self) {
        if !self.finished.swap(true, Ordering::AcqRel) {
            self.admission.end_session(self.id);
        }
    }

    /// End the stream and collect every remaining response. Blocks until
    /// the session's last admitted job completes — which, under the
    /// discrete clock, requires other sessions (or an auto-close) to
    /// advance simulated time past the session's jobs.
    pub fn drain(self) -> Vec<PlacementResponse> {
        self.finish();
        match self.take_responses() {
            Some(responses) => responses.iter().collect(),
            None => Vec::new(),
        }
    }

    /// The session died without finishing cleanly (TCP writer failure):
    /// drop its outbox so pending deliveries are discarded instead of
    /// blocking.
    pub(crate) fn abandon(&self) {
        self.admission.mark_session_dead(self.id);
        self.finish();
    }
}

impl Drop for HostSession {
    fn drop(&mut self) {
        self.finish();
    }
}
