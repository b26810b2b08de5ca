//! Multi-tenant admission control for the persistent cluster host.
//!
//! Every session thread of a [`crate::ClusterHost`] funnels its requests
//! through one shared admission queue, and the host's engine thread pulls
//! them straight out of it: the queue is the engine's
//! [`ArrivalSource`]. Admission is where the multi-tenant policy lives:
//!
//! - **Per-tenant in-flight quotas.** A tenant may hold at most
//!   [`AdmissionConfig::tenant_inflight_quota`] requests that are queued or
//!   awaiting placement; excess submissions are shed *at submit* with a
//!   typed [`ServiceError::AdmissionRejected`] (reported in-band on TCP),
//!   so no tenant can monopolize the engine or starve the queue.
//! - **Deficit-round-robin drain.** Each take pops the next request
//!   tenant-by-tenant, [`AdmissionConfig::drr_quantum`] requests per
//!   visit, so a flooding tenant interleaves fairly with light ones. A
//!   resumed host's recovered head and a gated host's released batch sit
//!   in one ready queue that every take empties before any DRR pop.
//! - **Deterministic sequencing.** Each drained request carries an arrival
//!   sequence from its session's band (`session << 32 | request index`),
//!   so exact-timestamp tie order in the engine is a pure function of
//!   `(session, request index)` — independent of which session's thread
//!   happened to reach the queue first. Submit-time stamps are
//!   monotonized against the host watermark in drain order, mirroring the
//!   engine's own discrete-clock floor.
//! - **Journaling.** Every drained request is appended to the admission
//!   journal ([`crate::Journal`]) with its sequence and tenant; replaying
//!   the journal offline reproduces the byte-identical schedule. A request
//!   the journal could not record exactly (an id at or above 2^53, an
//!   empty tenant, a `package_bytes` the JSON number would round) is
//!   refused at submit.
//!
//! [`AdmissionMode::Gated`] trades liveness for full run-level
//! determinism: nothing drains until every expected session has ended its
//! stream, then the whole batch is released in a canonical order
//! (`(submit_time, tenant, id)`) with sequences `0, 1, 2, …` — the shape
//! the `server_multi` golden snapshot pins over live TCP, where even
//! session start order is a race.

use crate::error::ServiceError;
use crate::journal::{Journal, JournalEntry, JournalWriter};
use crate::request::PlacementResponse;
use crate::sync::{lock_clean, wait_clean, wait_timeout_clean};
use crate::wire;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::Duration;
use waterwise_cluster::{Arrival, ArrivalSource, SequencedJob};
use waterwise_sustain::Seconds;
use waterwise_traces::{JobId, JobSpec};

/// The name a multi-session host admits and quota-accounts a request
/// under. Tenants are created on first use; requests without a wire
/// `tenant` field fall to their session's default tenant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// Wrap a tenant name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        Self(name.to_string())
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        Self(name)
    }
}

/// When admitted requests drain into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Drain continuously (deficit round-robin) while sessions stream.
    /// Exact-tie order is deterministic (session bands); everything else
    /// about the live schedule is pinned by the admission journal, which
    /// replays offline to the byte-identical schedule.
    Streaming {
        /// Automatically stop admitting — and let the engine drain and the
        /// host report — once this many sessions have opened *and* every
        /// one of them has ended its stream. `None` keeps the host alive
        /// until [`crate::ClusterHost::shutdown`].
        close_after_sessions: Option<usize>,
    },
    /// Hold every request until all `sessions` expected sessions have
    /// ended their streams, then release the whole batch in canonical
    /// `(submit_time, tenant, id)` order with sequences `0, 1, 2, …` and
    /// close. The live schedule is then a pure function of the submitted
    /// *set* — no race, not even session start order, can perturb it —
    /// which is what lets a golden snapshot pin a concurrent TCP run.
    /// This is also the maximal-batching shape: one MILP round sees every
    /// tenant's jobs at once.
    Gated {
        /// Sessions the gate waits for.
        sessions: usize,
    },
}

impl Default for AdmissionMode {
    fn default() -> Self {
        AdmissionMode::Streaming {
            close_after_sessions: None,
        }
    }
}

/// Fairness and batching knobs of the multi-tenant host.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Max requests one tenant may have queued or awaiting placement;
    /// submissions beyond it are shed with
    /// [`ServiceError::AdmissionRejected`].
    pub tenant_inflight_quota: usize,
    /// Requests drained per tenant per deficit-round-robin visit.
    pub drr_quantum: usize,
    /// When admitted requests drain into the engine.
    pub mode: AdmissionMode,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            tenant_inflight_quota: 64,
            drr_quantum: 8,
            mode: AdmissionMode::default(),
        }
    }
}

/// Sessions are dense indices into the admission state's session table —
/// also the high half of the per-session arrival-sequence band.
pub(crate) type SessionId = usize;

/// Hard cap on sessions per host run: an arrival's sequence is
/// `session << 32 | request`, and `2^16 * 2^32` is the whole arrival band
/// ([`ONLINE_ARRIVAL_SEQ_LIMIT`] = 2^48).
const MAX_SESSIONS: usize = 1 << 16;
/// Requests per session before its band half overflows.
const MAX_SESSION_REQUESTS: u64 = 1 << 32;
/// Responses a session's outbox holds before delivery blocks the engine.
const OUTBOX_DEPTH: usize = 256;

/// Per-tenant accounting.
#[derive(Debug, Default)]
struct TenantState {
    /// Submitted, not yet taken, each with its band sequence.
    queue: VecDeque<SequencedJob>,
    /// Drained into the engine, placement not yet delivered.
    in_flight: usize,
    /// Remaining deficit of the current DRR visit.
    deficit: usize,
    /// Whether the tenant is in the DRR active list.
    in_active: bool,
    report: TenantReport,
}

/// Per-session bookkeeping.
#[derive(Debug)]
struct SessionState {
    /// The session's bounded response outbox; dropped (closing the
    /// session's writer) once the stream has ended and every outstanding
    /// request is answered — or immediately when the session dies.
    sink: Option<SyncSender<PlacementResponse>>,
    /// Admitted requests not yet answered or dropped.
    outstanding: usize,
    /// Requests submitted so far (the band half of the next sequence).
    submitted: u64,
    /// The stream ended (EOF / `finish`); no further submissions.
    ended: bool,
}

/// Where a placement notice routes back to.
pub(crate) struct DeliveryRoute {
    pub(crate) tenant: TenantId,
    pub(crate) session: SessionId,
    pub(crate) spec: JobSpec,
    pub(crate) sink: Option<SyncSender<PlacementResponse>>,
}

/// Final per-tenant admission statistics, reported by
/// [`crate::HostReport::tenants`]. The host's totals are their sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// Requests admitted into the engine.
    pub accepted: usize,
    /// Requests shed (duplicates, quota).
    pub rejected: usize,
    /// Placement responses delivered.
    pub served: usize,
}

impl<'a> std::iter::Sum<&'a TenantReport> for TenantReport {
    fn sum<I: Iterator<Item = &'a TenantReport>>(reports: I) -> Self {
        reports.fold(Self::default(), |total, report| Self {
            accepted: total.accepted + report.accepted,
            rejected: total.rejected + report.rejected,
            served: total.served + report.served,
        })
    }
}

#[derive(Default)]
struct AdmissionState {
    tenants: BTreeMap<TenantId, TenantState>,
    /// DRR rotation of tenants with non-empty queues.
    active: VecDeque<TenantId>,
    sessions: Vec<SessionState>,
    /// First session id of *this* host run. A resumed host starts its
    /// bands above every band the recovered journal used, so re-fed
    /// recovered jobs and new submissions can never collide on a
    /// sequence. Public session ids are `session_base + index` into
    /// `sessions`; zero for a fresh host.
    session_base: usize,
    /// Sessions whose stream has not ended yet.
    sessions_open: usize,
    /// Pending placements by job id (also carries the spec for response
    /// enrichment).
    routes: BTreeMap<JobId, (TenantId, SessionId, JobSpec)>,
    /// Every id ever admitted — host-wide duplicate detection (the
    /// engine's own id table spans the whole persistent run).
    seen_ids: BTreeSet<JobId>,
    /// Largest submit-time stamp drained so far (the discrete watermark).
    watermark: f64,
    /// Already stamped and journaled, taken before any DRR pop: a resumed
    /// host's recovered head, or a gated host's released batch.
    ready: VecDeque<SequencedJob>,
    /// No further sessions or submissions (shutdown, auto-close, a gate
    /// release, or an engine failure).
    closed: bool,
    journal: Vec<JournalEntry>,
    /// Streams every journal entry to disk as it is recorded (under this
    /// lock, so the file order is exactly the drain order). Dropped on a
    /// write failure: durability degrades, the host does not die mid-run.
    sink: Option<JournalWriter>,
}

impl AdmissionState {
    /// Translate a public session id into its `sessions` index; `None`
    /// for ids below the resume base or never opened.
    fn slot(&self, session: SessionId) -> Option<usize> {
        session.checked_sub(self.session_base)
    }
}

/// The shared admission queue of one [`crate::ClusterHost`]. All methods
/// are `&self` and thread-safe; session threads submit, and the host's
/// engine thread takes (through [`ArrivalSource`]) and delivers.
pub(crate) struct AdmissionQueue {
    config: AdmissionConfig,
    state: Mutex<AdmissionState>,
    /// Wakes the engine waiting in a take: work queued, gate released,
    /// admission closed.
    signal: Condvar,
}

impl AdmissionQueue {
    /// Build a queue, resuming from a recovered journal when it has
    /// entries: they become the journal prefix and the head of the ready
    /// queue (same specs, same sequences, same order as the interrupted
    /// run), their job ids are pre-seen (host-wide duplicate detection
    /// spans the restart), the watermark continues from the last recovered
    /// stamp, and new sessions allocate sequence bands strictly above
    /// every recovered band. When a disk sink is given, the recovered
    /// prefix is rewritten through it first — repairing any torn tail the
    /// crash left — then new entries stream as they drain.
    pub(crate) fn new(
        config: AdmissionConfig,
        recovered: &[JournalEntry],
        mut sink: Option<JournalWriter>,
    ) -> Result<Self, ServiceError> {
        let mut session_base = 0usize;
        let mut watermark = f64::NEG_INFINITY;
        let mut seen_ids = BTreeSet::new();
        for entry in recovered {
            session_base = session_base.max((entry.seq >> 32) as usize + 1);
            watermark = watermark.max(entry.spec.submit_time.value());
            seen_ids.insert(entry.spec.id);
        }
        if let Some(writer) = sink.as_mut() {
            for entry in recovered {
                writer.append(entry)?;
            }
            writer.sync()?;
        }
        let ready = recovered
            .iter()
            .map(|entry| SequencedJob {
                spec: entry.spec.clone(),
                seq: entry.seq,
            })
            .collect();
        Ok(Self {
            config,
            state: Mutex::new(AdmissionState {
                watermark,
                session_base,
                seen_ids,
                ready,
                journal: recovered.to_vec(),
                sink,
                ..AdmissionState::default()
            }),
            signal: Condvar::new(),
        })
    }

    /// Open a session with its bounded response outbox, returning the
    /// session id and the outbox's receiving end. Fails once the host is
    /// closed, the expected session count was reached, or the session band
    /// space is exhausted.
    pub(crate) fn open_session(
        &self,
    ) -> Result<(SessionId, Receiver<PlacementResponse>), ServiceError> {
        let mut state = lock_clean(&self.state);
        if state.closed {
            return Err(ServiceError::ServiceStopped);
        }
        let opened = state.sessions.len();
        let expected = match self.config.mode {
            AdmissionMode::Gated { sessions } => Some(sessions),
            AdmissionMode::Streaming {
                close_after_sessions,
            } => close_after_sessions,
        };
        // The band space bounds *public* ids (base + index): a resumed
        // host inherits however much of the band its ancestors used.
        if state.session_base + opened >= MAX_SESSIONS || expected.is_some_and(|n| opened >= n) {
            return Err(ServiceError::SessionLimit { sessions: opened });
        }
        let (sink, responses) = std::sync::mpsc::sync_channel(OUTBOX_DEPTH);
        state.sessions.push(SessionState {
            sink: Some(sink),
            outstanding: 0,
            submitted: 0,
            ended: false,
        });
        state.sessions_open += 1;
        Ok((state.session_base + opened, responses))
    }

    /// Submit one request under `tenant`. Fail-fast (never blocks): quota
    /// and duplicate rejections come back as typed errors the session
    /// reports in-band, and the request is gone.
    pub(crate) fn submit(
        &self,
        session: SessionId,
        tenant: &TenantId,
        spec: JobSpec,
    ) -> Result<(), ServiceError> {
        recordable(tenant, &spec)?;
        let mut state = lock_clean(&self.state);
        if state.closed {
            return Err(ServiceError::ServiceStopped);
        }
        let slot = state.slot(session);
        match slot.and_then(|slot| state.sessions.get(slot)) {
            None => return Err(ServiceError::ServiceStopped),
            Some(s) if s.ended => return Err(ServiceError::ServiceStopped),
            Some(s) if s.submitted >= MAX_SESSION_REQUESTS => {
                return Err(ServiceError::SessionLimit { sessions: session })
            }
            Some(_) => {}
        }
        // Checked non-None just above; the unwrap-free fallback cannot
        // fire (DET003).
        let slot = slot.unwrap_or(0);
        let duplicate = state.seen_ids.contains(&spec.id);
        let quota = self.config.tenant_inflight_quota.max(1);
        let tenant_state = state.tenants.entry(tenant.clone()).or_default();
        if duplicate {
            tenant_state.report.rejected += 1;
            return Err(ServiceError::DuplicateRequest { id: spec.id });
        }
        let in_flight = tenant_state.queue.len() + tenant_state.in_flight;
        if in_flight >= quota {
            tenant_state.report.rejected += 1;
            return Err(ServiceError::AdmissionRejected {
                tenant: tenant.as_str().to_string(),
                in_flight,
                quota,
            });
        }
        tenant_state.report.accepted += 1;
        if !tenant_state.in_active {
            tenant_state.in_active = true;
            state.active.push_back(tenant.clone());
        }
        state.seen_ids.insert(spec.id);
        state
            .routes
            .insert(spec.id, (tenant.clone(), session, spec.clone()));
        let k = state.sessions[slot].submitted;
        state.sessions[slot].submitted = k + 1;
        state.sessions[slot].outstanding += 1;
        // The band's high half is the *public* id, so bands stay unique
        // across a resume chain.
        let seq = ((session as u64) << 32) | k;
        if let Some(tenant_state) = state.tenants.get_mut(tenant) {
            tenant_state.queue.push_back(SequencedJob { spec, seq });
        }
        self.signal.notify_all();
        Ok(())
    }

    /// The session's request stream ended (EOF, `finish`, disconnect).
    /// Idempotent. May release the gate or auto-close the host.
    pub(crate) fn end_session(&self, session: SessionId) {
        let mut state = lock_clean(&self.state);
        let Some(s) = state
            .slot(session)
            .and_then(|slot| state.sessions.get_mut(slot))
        else {
            return;
        };
        if s.ended {
            return;
        }
        s.ended = true;
        if s.outstanding == 0 {
            s.sink = None;
        }
        state.sessions_open -= 1;
        let opened = state.sessions.len();
        let all_ended = state.sessions_open == 0;
        match self.config.mode {
            AdmissionMode::Gated { sessions } => {
                if all_ended && opened >= sessions && !state.closed {
                    release_gate(&mut state);
                }
            }
            AdmissionMode::Streaming {
                close_after_sessions: Some(sessions),
            } => {
                if all_ended && opened >= sessions {
                    state.closed = true;
                }
            }
            AdmissionMode::Streaming {
                close_after_sessions: None,
            } => {}
        }
        self.signal.notify_all();
    }

    /// A session died without being answered (its writer failed): drop its
    /// outbox so nothing blocks on it again. Its already-admitted jobs
    /// still run (the engine cannot un-admit them); their responses are
    /// discarded at delivery.
    pub(crate) fn mark_session_dead(&self, session: SessionId) {
        let mut state = lock_clean(&self.state);
        if let Some(s) = state
            .slot(session)
            .and_then(|slot| state.sessions.get_mut(slot))
        {
            s.sink = None;
        }
    }

    /// Close admission: no new sessions or submissions. Queued requests
    /// still drain (a gated host releases whatever is queued), so the
    /// engine can finish and report.
    pub(crate) fn close(&self) {
        let mut state = lock_clean(&self.state);
        if matches!(self.config.mode, AdmissionMode::Gated { .. }) && !state.closed {
            release_gate(&mut state);
        }
        state.closed = true;
        self.signal.notify_all();
    }

    /// Drop every session outbox (the engine ended — with a report or an
    /// error — so no further responses can come).
    pub(crate) fn hang_up_sessions(&self) {
        let mut state = lock_clean(&self.state);
        state.closed = true;
        for session in &mut state.sessions {
            session.sink = None;
        }
        self.signal.notify_all();
    }

    /// Look up where `job`'s placement routes back to. `None` for unknown
    /// jobs (already delivered, or never admitted). The route is consumed.
    pub(crate) fn route(&self, job: JobId) -> Option<DeliveryRoute> {
        let mut state = lock_clean(&self.state);
        let (tenant, session, spec) = state.routes.remove(&job)?;
        let sink = state
            .slot(session)
            .and_then(|slot| state.sessions.get(slot))
            .and_then(|s| s.sink.as_ref().cloned());
        Some(DeliveryRoute {
            tenant,
            session,
            spec,
            sink,
        })
    }

    /// Account a delivery attempt: frees the tenant's quota slot and the
    /// session's outstanding slot; `sent` is whether the response reached
    /// the session (a dead session's responses are discarded, which must
    /// not poison the host). Closes the session's outbox once its stream
    /// has ended and nothing is outstanding.
    pub(crate) fn delivered(&self, tenant: &TenantId, session: SessionId, sent: bool) {
        let mut state = lock_clean(&self.state);
        if let Some(t) = state.tenants.get_mut(tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
            if sent {
                t.report.served += 1;
            }
        }
        if let Some(s) = state
            .slot(session)
            .and_then(|slot| state.sessions.get_mut(slot))
        {
            s.outstanding = s.outstanding.saturating_sub(1);
            if !sent {
                // The session cannot receive responses anymore.
                s.sink = None;
            }
            if s.ended && s.outstanding == 0 {
                s.sink = None;
            }
        }
    }

    /// Sessions opened over the host's lifetime.
    pub(crate) fn sessions_opened(&self) -> usize {
        lock_clean(&self.state).sessions.len()
    }

    /// Consume the admission bookkeeping into the host report's
    /// ingredients: the journal (entries in drain order) and the
    /// per-tenant counters. Called once at shutdown, after the engine has
    /// returned.
    pub(crate) fn take_report_parts(&self) -> (Journal, BTreeMap<TenantId, TenantReport>) {
        let mut state = lock_clean(&self.state);
        if let Some(writer) = state.sink.as_mut() {
            // Final flush of the on-disk journal; best-effort, as the
            // in-memory journal below is the authoritative report.
            let _ = writer.sync();
        }
        let journal = Journal {
            entries: std::mem::take(&mut state.journal),
        };
        let tenants = (state.tenants.iter())
            .map(|(tenant, t)| (tenant.clone(), t.report.clone()))
            .collect();
        (journal, tenants)
    }
}

/// The engine's arrival source: each take pops the ready queue (stamped
/// and journaled already), then the DRR rotation (never before a gated
/// host's release), stamping and journaling what that pops — so the
/// journal records exactly the `(spec, seq)` stream the engine sees, in
/// the order it sees it. A take on a closed, drained queue is
/// [`Arrival::Closed`].
impl ArrivalSource for &AdmissionQueue {
    fn next_arrival(&mut self, mut wait: Option<Duration>) -> Arrival {
        let quantum = self.config.drr_quantum.max(1);
        let gated = matches!(self.config.mode, AdmissionMode::Gated { .. });
        let mut state = lock_clean(&self.state);
        loop {
            let popped = match state.ready.pop_front() {
                None if gated => None,
                None => drr_pop(&mut state, quantum),
                job => job,
            };
            if let Some(job) = popped {
                return Arrival::Job(job);
            }
            if state.closed {
                return Arrival::Closed;
            }
            match wait {
                None => state = wait_clean(&self.signal, state),
                Some(limit) if limit.is_zero() => return Arrival::Idle,
                Some(limit) => {
                    // One timed wait, then one more look: whatever woke it,
                    // the engine re-checks its watermark and asks again.
                    state = wait_timeout_clean(&self.signal, state, limit);
                    wait = Some(Duration::ZERO);
                }
            }
        }
    }
}

/// In-process submissions bypass the wire grammar, so re-check here what
/// the journal's grammar accepts ([`wire::check_recordable`]): a
/// non-finite or negative numeric would kill the whole persistent engine
/// run instead of failing one request, and a request the journal cannot
/// record exactly would break its replay and any resume.
fn recordable(tenant: &TenantId, spec: &JobSpec) -> Result<(), ServiceError> {
    wire::check_recordable(tenant.as_str(), spec)
        .map_err(|message| ServiceError::MalformedRequest { line: 0, message })
}

/// Pop the next request under deficit round-robin, stamping and
/// journaling it. Runs under the state lock.
fn drr_pop(state: &mut AdmissionState, quantum: usize) -> Option<SequencedJob> {
    loop {
        let tenant = state.active.front()?.clone();
        let Some(t) = state.tenants.get_mut(&tenant) else {
            state.active.pop_front();
            continue;
        };
        if t.queue.is_empty() {
            t.in_active = false;
            t.deficit = 0;
            state.active.pop_front();
            continue;
        }
        if t.deficit == 0 {
            t.deficit = quantum;
        }
        let Some(request) = t.queue.pop_front() else {
            continue;
        };
        t.deficit -= 1;
        t.in_flight += 1;
        if t.deficit == 0 || t.queue.is_empty() {
            // End of visit: rotate to the back while work remains.
            let more = !t.queue.is_empty();
            t.deficit = 0;
            t.in_active = more;
            state.active.pop_front();
            if more {
                state.active.push_back(tenant.clone());
            }
        }
        return Some(stamp_and_journal(state, tenant, request));
    }
}

/// Monotonize the request's submit time against the host watermark (the
/// exact mirror of the engine's discrete stamp floor, so a drained
/// request can never be rejected as out-of-order) and record the journal
/// entry. Under [`waterwise_cluster::ClockMode::RealTime`] the engine
/// re-stamps on ingestion; the journaled stamp is backfilled from the
/// engine trace at shutdown.
fn stamp_and_journal(
    state: &mut AdmissionState,
    tenant: TenantId,
    SequencedJob { mut spec, seq }: SequencedJob,
) -> SequencedJob {
    let stamp = spec.submit_time.value().max(state.watermark);
    state.watermark = stamp;
    spec.submit_time = Seconds::new(stamp);
    let entry = JournalEntry {
        seq,
        tenant,
        spec: spec.clone(),
    };
    if let Some(writer) = state.sink.as_mut() {
        if writer.append(&entry).is_err() {
            // Journal durability degrades to in-memory only; failing the
            // whole live run over a disk hiccup would be worse. The
            // in-memory journal (and the shutdown report) stay complete.
            state.sink = None;
        }
    }
    state.journal.push(entry);
    SequencedJob { spec, seq }
}

/// Gated release: order the whole batch canonically by
/// `(submit_time, tenant, id)` — every key independent of submission
/// races — assign contiguous sequences in that order, and queue it ready.
/// Runs under the state lock; also closes admission (the gate is
/// one-shot).
fn release_gate(state: &mut AdmissionState) {
    let mut batch: Vec<(TenantId, SequencedJob)> = Vec::new();
    let tenants: Vec<TenantId> = state.tenants.keys().cloned().collect();
    for tenant in tenants {
        if let Some(t) = state.tenants.get_mut(&tenant) {
            t.in_active = false;
            t.deficit = 0;
            while let Some(request) = t.queue.pop_front() {
                t.in_flight += 1;
                batch.push((tenant.clone(), request));
            }
        }
    }
    state.active.clear();
    batch.sort_by(|(ta, a), (tb, b)| {
        a.spec
            .submit_time
            .value()
            .total_cmp(&b.spec.submit_time.value())
            .then_with(|| ta.cmp(tb))
            .then_with(|| a.spec.id.cmp(&b.spec.id))
    });
    for (seq, (tenant, request)) in batch.into_iter().enumerate() {
        let job = SequencedJob {
            spec: request.spec,
            seq: seq as u64,
        };
        let job = stamp_and_journal(state, tenant, job);
        state.ready.push_back(job);
    }
    state.closed = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_cluster::ONLINE_ARRIVAL_SEQ_LIMIT;
    use waterwise_sustain::KilowattHours;
    use waterwise_telemetry::Region;
    use waterwise_traces::Benchmark;

    fn spec(id: u64, submit: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            benchmark: Benchmark::Dedup,
            submit_time: Seconds::new(submit),
            home_region: Region::Oregon,
            actual_execution_time: Seconds::new(60.0),
            actual_energy: KilowattHours::new(0.01),
            estimated_execution_time: Seconds::new(60.0),
            estimated_energy: KilowattHours::new(0.01),
            package_bytes: 1,
        }
    }

    fn new_queue(config: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue::new(config, &[], None).unwrap()
    }

    /// Open a session, dropping its outbox: admission never sends on it.
    fn open(queue: &AdmissionQueue) -> SessionId {
        queue.open_session().unwrap().0
    }

    /// A blocking take: the next job, or `None` once the queue is closed
    /// and drained.
    fn take(mut queue: &AdmissionQueue) -> Option<SequencedJob> {
        match queue.next_arrival(None) {
            Arrival::Job(job) => Some(job),
            Arrival::Closed => None,
            Arrival::Idle => panic!("a blocking take returned idle"),
        }
    }

    #[test]
    fn drr_interleaves_a_flooding_tenant_with_a_light_one() {
        let queue = new_queue(AdmissionConfig {
            tenant_inflight_quota: 1000,
            drr_quantum: 2,
            mode: AdmissionMode::default(),
        });
        let s = open(&queue);
        let flood = TenantId::from("flood");
        let light = TenantId::from("light");
        for id in 0..6 {
            queue.submit(s, &flood, spec(id, 0.0)).unwrap();
        }
        for id in 100..102 {
            queue.submit(s, &light, spec(id, 0.0)).unwrap();
        }
        queue.close();
        let mut order = Vec::new();
        while let Some(job) = take(&queue) {
            order.push(job.spec.id.0);
        }
        // Quantum 2: two flood, then light gets its visit, not starved
        // behind all six flood requests.
        assert_eq!(order, vec![0, 1, 100, 101, 2, 3, 4, 5]);
    }

    #[test]
    fn quota_sheds_with_a_typed_error_and_frees_on_delivery() {
        let queue = new_queue(AdmissionConfig {
            tenant_inflight_quota: 2,
            drr_quantum: 8,
            mode: AdmissionMode::default(),
        });
        let s = open(&queue);
        let tenant = TenantId::from("t");
        queue.submit(s, &tenant, spec(1, 0.0)).unwrap();
        queue.submit(s, &tenant, spec(2, 0.0)).unwrap();
        match queue.submit(s, &tenant, spec(3, 0.0)) {
            Err(ServiceError::AdmissionRejected {
                tenant: name,
                in_flight: 2,
                quota: 2,
            }) => assert_eq!(name, "t"),
            other => panic!("expected AdmissionRejected, got {other:?}"),
        }
        // Drain one into the engine and deliver it: the quota slot frees.
        let job = take(&queue).unwrap();
        assert!(queue.route(job.spec.id).is_some());
        queue.delivered(&tenant, s, true);
        queue.submit(s, &tenant, spec(3, 0.0)).unwrap();
        let (journal, tenants) = queue.take_report_parts();
        assert_eq!(journal.entries.len(), 1);
        let t = &tenants[&tenant];
        assert_eq!((t.accepted, t.rejected, t.served), (3, 1, 1));
    }

    #[test]
    fn duplicates_are_rejected_host_wide_even_after_delivery() {
        let queue = new_queue(AdmissionConfig::default());
        let s = open(&queue);
        let tenant = TenantId::from("t");
        queue.submit(s, &tenant, spec(7, 0.0)).unwrap();
        let job = take(&queue).unwrap();
        assert!(queue.route(job.spec.id).is_some());
        queue.delivered(&tenant, s, true);
        assert!(matches!(
            queue.submit(s, &tenant, spec(7, 1.0)),
            Err(ServiceError::DuplicateRequest { id: JobId(7) })
        ));
    }

    #[test]
    fn a_duplicate_is_counted_under_the_tenant_that_sent_it() {
        // Tenant `b`'s first request reuses tenant `a`'s id: `b` gets a
        // report, and the host's totals are the per-tenant sums.
        let queue = new_queue(AdmissionConfig::default());
        let s = open(&queue);
        let (a, b) = (TenantId::from("a"), TenantId::from("b"));
        queue.submit(s, &a, spec(7, 0.0)).unwrap();
        assert!(matches!(
            queue.submit(s, &b, spec(7, 0.0)),
            Err(ServiceError::DuplicateRequest { id: JobId(7) })
        ));
        let job = take(&queue).unwrap();
        let route = queue.route(job.spec.id).unwrap();
        queue.delivered(&route.tenant, route.session, true);
        let (_, tenants) = queue.take_report_parts();
        assert_eq!(tenants[&b].rejected, 1);
        assert_eq!(tenants[&b].accepted, 0);
        let total: TenantReport = tenants.values().sum();
        let expected = TenantReport {
            accepted: 1,
            rejected: 1,
            served: 1,
        };
        assert_eq!(total, expected);
    }

    #[test]
    fn band_sequences_encode_session_and_request_index() {
        let queue = new_queue(AdmissionConfig::default());
        let s0 = open(&queue);
        let s1 = open(&queue);
        let tenant = TenantId::from("t");
        queue.submit(s0, &tenant, spec(1, 0.0)).unwrap();
        queue.submit(s1, &tenant, spec(2, 0.0)).unwrap();
        queue.submit(s1, &tenant, spec(3, 0.0)).unwrap();
        queue.close();
        let mut seqs = BTreeMap::new();
        while let Some(job) = take(&queue) {
            seqs.insert(job.spec.id.0, job.seq);
        }
        assert_eq!(seqs[&1], 0);
        assert_eq!(seqs[&2], 1 << 32);
        assert_eq!(seqs[&3], (1 << 32) | 1);
        assert!(seqs.values().all(|&s| s < ONLINE_ARRIVAL_SEQ_LIMIT));
    }

    #[test]
    fn gated_release_orders_canonically_and_stamps_monotonically() {
        let queue = new_queue(AdmissionConfig {
            tenant_inflight_quota: 64,
            drr_quantum: 8,
            mode: AdmissionMode::Gated { sessions: 2 },
        });
        let s0 = open(&queue);
        let s1 = open(&queue);
        let a = TenantId::from("a");
        let b = TenantId::from("b");
        // Interleaved submission order deliberately disagrees with the
        // canonical (time, tenant, id) order.
        queue.submit(s1, &b, spec(10, 30.0)).unwrap();
        queue.submit(s0, &a, spec(11, 30.0)).unwrap();
        queue.submit(s1, &a, spec(12, 0.0)).unwrap();
        queue.submit(s0, &b, spec(13, 60.0)).unwrap();
        // Nothing drains before the gate.
        queue.end_session(s0);
        queue.end_session(s1);
        let mut order = Vec::new();
        let mut stamps = Vec::new();
        while let Some(job) = take(&queue) {
            order.push(job.spec.id.0);
            stamps.push(job.spec.submit_time.value());
            assert_eq!(job.seq, (order.len() - 1) as u64);
        }
        assert_eq!(order, vec![12, 11, 10, 13]);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        // The gate is one-shot: admission closed behind it.
        assert!(matches!(
            queue.submit(s0, &a, spec(99, 99.0)),
            Err(ServiceError::ServiceStopped)
        ));
    }

    #[test]
    fn session_limits_and_non_finite_specs_are_typed_errors() {
        let queue = new_queue(AdmissionConfig {
            mode: AdmissionMode::Streaming {
                close_after_sessions: Some(1),
            },
            ..AdmissionConfig::default()
        });
        let s = open(&queue);
        assert!(matches!(
            queue.open_session(),
            Err(ServiceError::SessionLimit { sessions: 1 })
        ));
        let mut bad = spec(1, 0.0);
        bad.submit_time = Seconds::new(f64::NAN);
        assert!(matches!(
            queue.submit(s, &TenantId::from("t"), bad),
            Err(ServiceError::MalformedRequest { .. })
        ));
        // Ending the only expected session auto-closes the host.
        queue.end_session(s);
        assert!(take(&queue).is_none());
        assert!(matches!(
            queue.submit(s, &TenantId::from("t"), spec(2, 0.0)),
            Err(ServiceError::ServiceStopped)
        ));
    }

    #[test]
    fn a_take_that_finds_nothing_is_idle_until_closed_then_closed() {
        let queue = new_queue(AdmissionConfig::default());
        let mut source = &queue;
        // A non-blocking take on an open empty queue.
        assert_eq!(source.next_arrival(Some(Duration::ZERO)), Arrival::Idle);
        // A timed take returns at its limit.
        assert_eq!(
            source.next_arrival(Some(Duration::from_millis(5))),
            Arrival::Idle
        );
        let s = open(&queue);
        queue.submit(s, &TenantId::from("t"), spec(1, 0.0)).unwrap();
        queue.close();
        // Closed, but not yet drained: the queued job still comes out.
        assert!(matches!(
            source.next_arrival(Some(Duration::ZERO)),
            Arrival::Job(_)
        ));
        for wait in [None, Some(Duration::ZERO), Some(Duration::from_millis(5))] {
            assert_eq!(source.next_arrival(wait), Arrival::Closed);
        }
    }

    #[test]
    fn a_blocking_take_wakes_on_submit() {
        let queue = new_queue(AdmissionConfig::default());
        let s = open(&queue);
        std::thread::scope(|scope| {
            let taker = scope.spawn(|| take(&queue));
            queue.submit(s, &TenantId::from("t"), spec(7, 0.0)).unwrap();
            let job = taker.join().unwrap().unwrap();
            assert_eq!(job.spec.id, JobId(7));
        });
    }

    #[test]
    fn the_recovered_head_and_the_gated_batch_pop_before_any_drr_pop() {
        let recovered: Vec<JournalEntry> = [(1, 5.0), (2, 9.0)]
            .into_iter()
            .map(|(id, submit)| JournalEntry {
                seq: id - 1,
                tenant: TenantId::from("before"),
                spec: spec(id, submit),
            })
            .collect();
        let queue = AdmissionQueue::new(AdmissionConfig::default(), &recovered, None).unwrap();
        // Submitted before the first take, stamped behind the head.
        let s = open(&queue);
        queue.submit(s, &TenantId::from("t"), spec(3, 0.0)).unwrap();
        queue.close();
        let mut popped = Vec::new();
        while let Some(job) = take(&queue) {
            popped.push((job.spec.id.0, job.seq, job.spec.submit_time.value()));
        }
        // The new session's band starts above the recovered one, and its
        // stamp continues from the recovered watermark.
        assert_eq!(popped, vec![(1, 0, 5.0), (2, 1, 9.0), (3, 1 << 32, 9.0)]);

        let gated = new_queue(AdmissionConfig {
            mode: AdmissionMode::Gated { sessions: 1 },
            ..AdmissionConfig::default()
        });
        let s = open(&gated);
        gated.submit(s, &TenantId::from("t"), spec(4, 0.0)).unwrap();
        // Before the gate nothing pops, even though a tenant is active.
        assert_eq!((&gated).next_arrival(Some(Duration::ZERO)), Arrival::Idle);
        gated.end_session(s);
        assert_eq!(take(&gated).map(|job| job.seq), Some(0));
        assert_eq!(take(&gated), None);
    }

    #[test]
    fn a_request_the_journal_cannot_record_is_refused_at_submit() {
        let queue = new_queue(AdmissionConfig::default());
        let s = open(&queue);
        let t = TenantId::from("t");
        let refused =
            |tenant: &TenantId, spec: JobSpec, field: &str| match queue.submit(s, tenant, spec) {
                Err(ServiceError::MalformedRequest { line: 0, message }) => {
                    assert!(message.contains(field), "{message}");
                }
                other => panic!("expected a refused {field}, got {other:?}"),
            };
        refused(&t, spec(1 << 53, 0.0), "id");
        refused(&TenantId::from(""), spec(1, 0.0), "tenant");
        let mut rounding = spec(2, 0.0);
        rounding.package_bytes = (1 << 53) + 1;
        refused(&t, rounding, "package_bytes");
        // The largest exact values are admitted, and what is admitted
        // survives the journal's text round trip unchanged.
        let mut edge = spec((1 << 53) - 1, 0.0);
        edge.package_bytes = 1 << 53;
        queue.submit(s, &t, edge).unwrap();
        queue.close();
        assert!(take(&queue).is_some());
        let (journal, tenants) = queue.take_report_parts();
        assert_eq!(Journal::parse(&journal.encode()).unwrap(), journal);
        assert_eq!(tenants[&t].accepted, 1);
    }
}
