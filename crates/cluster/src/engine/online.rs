//! The engine's one event loop: it dispatches every run, offline or live.
//!
//! A *live* run ([`Simulator::run_online_sequenced`]) starts from an empty
//! job table and *injects* jobs while the campaign runs: an
//! `mpsc::Receiver<SequencedJob>` is the arrival source, every enacted
//! placement is reported over a bounded [`PlacementNotice`] channel as it
//! commits, and the run ends when the source closes and every admitted job
//! has completed. `waterwise-service` builds the request/response
//! front-end (the multi-session host and its line-delimited-JSON TCP
//! listener) on top of it; see `docs/ONLINE_SERVICE.md` for the
//! operator-facing view.
//!
//! An *offline* replay ([`Simulator::run`]) is the same loop started with
//! the whole trace admitted up front and the source already closed: the
//! event queue is handed the trace's arrivals one at a time, in submit
//! order, so it holds the events in flight rather than the trace. There is
//! no channel, clock or placement sink, every queued event is
//! dispatchable, and the loop stops at the same event a live session over
//! the same trace stops at.
//!
//! # One solve path
//!
//! A round snapshots the pending pool, reserves its decision events' queue
//! keys (`EventQueue::reserve`), solves inline on the event loop, and
//! commits. Commits match assignments against the snapshot prefix only, so a
//! decision can never reach a job that arrived after its snapshot.
//!
//! # The identity discipline
//!
//! The driver's contract is that going online changes *when* work is
//! revealed to the engine, never *what* the engine computes: replaying an
//! online run's recorded trace ([`OnlineReport::trace`]) through
//! [`Simulator::run`] produces the byte-identical schedule whenever the
//! caller's sequences increase in receipt order (a single session; see
//! [`OnlineReport::trace`] for the general case). Three mechanisms enforce
//! it:
//!
//! 1. **Split sequence bands.** In an offline replay every arrival's
//!    sequence is its position in the trace and the first round's is the
//!    trace length, so on exact timestamp ties arrivals always order ahead
//!    of round/decision events. A live run cannot number its arrivals ahead
//!    of time — they are injected throughout the run — so
//!    they carry caller-allocated sequences from a dedicated low band
//!    ([`SequencedJob::seq`]) and the regular band is floored at
//!    `ONLINE_ROUND_SEQ_BASE` (2^48). Relative order within each band
//!    matches the offline replay, and the low band wins every cross-band
//!    tie, exactly as offline.
//! 2. **The watermark rule.** A queued event dispatches only when no
//!    earlier (or equally-timed) arrival can still be injected:
//!    [`ClockMode::Discrete`] requires a strictly later injection (or the
//!    closed source) as proof, [`ClockMode::RealTime`] uses the scaled wall
//!    clock, whose monotonicity bounds every future stamp from below.
//! 3. **Monotone stamps.** An injected job's submit time is never allowed
//!    at or before an already-dispatched round/ready/complete event
//!    (`RealTime` nudges the stamp up; `Discrete` rejects the request with
//!    [`SimulationError::OutOfOrderArrival`]), so the replayed arrival
//!    cannot land ahead of effects the online run has already committed.
//!
//! The guarantee is property-tested in `waterwise-service`
//! (`tests/online_equivalence.rs`) and asserted again over the TCP path by
//! the `fig17` golden-snapshot test in `waterwise-bench`.

use super::clock::{ClockMode, SimClock};
use super::queue::{Event, QueuedEvent};
use super::{timed_schedule, EnactedPlacement, SimState, SimulationReport, Simulator};
use crate::error::SimulationError;
use crate::metrics::{JobOutcome, OutcomeFold, OverheadSample};
use crate::scheduler::{Scheduler, SolverActivity};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::time::Duration;
use waterwise_sustain::Seconds;
use waterwise_telemetry::{ConditionsProvider, Region};
use waterwise_traces::{JobId, JobSpec};

/// Floor of the sequence band used for round/decision/completion events in
/// an online run. Arrivals carry sequences from the low band, so they win
/// every exact-timestamp tie against the high band — the ordering an
/// offline replay produces by pushing all arrivals first. 2^48 events is
/// far beyond any campaign; the bands cannot collide.
pub(crate) const ONLINE_ROUND_SEQ_BASE: u64 = 1 << 48;

/// Exclusive upper bound of the low (arrival) sequence band of an online
/// run ([`Simulator::run_online_sequenced`]). Every caller-allocated
/// arrival sequence must be strictly below this value or the arrival would
/// collide with the round/decision band and the run is rejected with
/// [`SimulationError::ArrivalSeqOutOfBand`].
///
/// The admission layer in `waterwise-service` partitions this band per
/// session (`session << 32 | request`), which makes exact-timestamp tie
/// order a pure function of `(session, request index)` — independent of
/// the physical interleaving in which concurrent sessions reached the
/// engine.
pub const ONLINE_ARRIVAL_SEQ_LIMIT: u64 = ONLINE_ROUND_SEQ_BASE;

/// One enacted placement, reported to the online caller as it commits.
///
/// This is the engine-level answer to a placement request; the service
/// layer enriches it with projected footprints and deadline feasibility
/// before answering the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementNotice {
    /// The placed job.
    pub job: JobId,
    /// The region that will execute it.
    pub region: Region,
    /// Index of the scheduling round that placed it (0-based).
    pub slot: usize,
    /// Simulated time of the placing round.
    pub decided_at: Seconds,
    /// The submit time the job was stamped with at ingestion (equals the
    /// request's own submit time under [`ClockMode::Discrete`]).
    pub submitted_at: Seconds,
    /// Package transfer time charged for the placement.
    pub transfer_time: Seconds,
    /// Earliest possible execution start: `decided_at + transfer_time`
    /// (actual start may be later if the region's servers are busy).
    pub projected_start: Seconds,
    /// Scheduling rounds the job was deferred before this placement.
    pub deferrals: u32,
    /// Solver work the placing round performed, if the scheduler runs an
    /// optimization solver (the per-round delta, not a cumulative total).
    pub solver: Option<SolverActivity>,
}

/// A job injected into an online run
/// ([`Simulator::run_online_sequenced`]) together with its caller-allocated
/// low-band arrival sequence.
///
/// The sequence is the exact-timestamp tie-breaker: on equal submit times
/// the arrival with the smaller `seq` orders first, regardless of the
/// physical order in which the injections reached the engine. Sequences
/// must be unique across the run and strictly below
/// [`ONLINE_ARRIVAL_SEQ_LIMIT`]; they need not be contiguous or arrive in
/// order (the admission layer may hand out per-session bands).
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedJob {
    /// The injected request.
    pub spec: JobSpec,
    /// Caller-allocated low-band arrival sequence
    /// (`< ONLINE_ARRIVAL_SEQ_LIMIT`, unique per run).
    pub seq: u64,
}

/// The result of one online campaign.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// The full simulation report, identical in structure to an offline
    /// run's.
    pub report: SimulationReport,
    /// Every admitted job in receipt order, with the submit times they
    /// were stamped with. When the sequences increased in receipt order
    /// (one session feeding the run), replaying this trace through
    /// [`Simulator::run`] reproduces [`OnlineReport::report`]'s schedule
    /// byte-identically.
    ///
    /// When receipt order and sequence order differ (concurrent sessions
    /// with private bands), an offline replay must re-inject the trace
    /// through `run_online_sequenced` with the same per-arrival sequences
    /// (the service's admission journal records them) rather than through
    /// [`Simulator::run`].
    pub trace: Vec<JobSpec>,
}

/// The engine driver: the [`SimState`] core plus, for a live run, the
/// arrival source, its watermark bookkeeping and the placement sink. See
/// [`Simulator::run`] / [`Simulator::run_online_sequenced`] for the public
/// contracts and [`self`] (module docs) for the identity discipline.
pub(crate) struct OnlineDriver<'a, 't, P> {
    sim: &'a Simulator<P>,
    state: SimState<'t>,
    /// The live arrival source while it can still produce requests; `None`
    /// once it has closed, and from the start for an offline replay.
    arrivals: Option<Receiver<SequencedJob>>,
    /// Where enacted placements are reported; `None` for an offline replay.
    placements: Option<SyncSender<PlacementNotice>>,
    /// A started clock for [`ClockMode::RealTime`], `None` otherwise.
    clock: Option<SimClock>,
    /// Caller-allocated sequences seen so far: a reused sequence would
    /// make the exact-tie order between the twins ambiguous, so the run is
    /// rejected instead.
    used_seqs: BTreeSet<u64>,
    /// Largest submit time stamped so far — the `Discrete` watermark.
    last_stamp: f64,
    /// Largest dispatched non-arrival event time: new stamps must exceed it
    /// or the replay could order the arrival ahead of committed effects.
    committed_time: f64,
    outcomes: Vec<JobOutcome>,
    /// The summary's per-job aggregates, folded as each outcome is pushed.
    fold: OutcomeFold,
    /// The placements the committing round enacted, for the sink; reused
    /// across rounds and never filled by an offline replay.
    enacted: Vec<EnactedPlacement>,
    slot: usize,
}

impl<'a, 't, P: ConditionsProvider> OnlineDriver<'a, 't, P> {
    /// A driver over a preloaded trace and a closed source.
    pub(crate) fn offline(
        sim: &'a Simulator<P>,
        jobs: &'t [JobSpec],
    ) -> Result<Self, SimulationError> {
        let state = SimState::new(sim.config(), jobs)?;
        Ok(Self::over(sim, state, None, None, None))
    }

    /// A driver over an empty job table fed by `arrivals`.
    pub(crate) fn live(
        sim: &'a Simulator<P>,
        arrivals: Receiver<SequencedJob>,
        placements: SyncSender<PlacementNotice>,
        clock: ClockMode,
    ) -> Self {
        let mut state = SimState::empty(sim.config());
        // Floor the regular sequence band; arrivals use the low band.
        state.queue.reserve(ONLINE_ROUND_SEQ_BASE);
        let clock = match clock.normalized() {
            ClockMode::Discrete => None,
            ClockMode::RealTime { scale } => Some(SimClock::start(scale)),
        };
        Self::over(sim, state, Some(arrivals), Some(placements), clock)
    }

    fn over(
        sim: &'a Simulator<P>,
        state: SimState<'t>,
        arrivals: Option<Receiver<SequencedJob>>,
        placements: Option<SyncSender<PlacementNotice>>,
        clock: Option<SimClock>,
    ) -> Self {
        Self {
            sim,
            outcomes: Vec::with_capacity(state.jobs.len()),
            fold: OutcomeFold::default(),
            state,
            arrivals,
            placements,
            clock,
            used_seqs: BTreeSet::new(),
            last_stamp: f64::NEG_INFINITY,
            committed_time: f64::NEG_INFINITY,
            enacted: Vec::new(),
            slot: 0,
        }
    }

    /// The smallest submit time a new injection may be stamped with:
    /// strictly after every dispatched non-arrival event (its effects are
    /// committed) and no earlier than the previous stamp (receipt order
    /// must equal replay order).
    fn stamp_floor(&self) -> f64 {
        let above_committed = if self.committed_time == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            self.committed_time.next_up()
        };
        self.last_stamp.max(above_committed)
    }

    /// Admit one injected job: validate its caller-allocated arrival
    /// sequence (band limit, uniqueness), stamp (or validate) its submit
    /// time, and enqueue its arrival from the low sequence band.
    fn ingest(&mut self, job: SequencedJob) -> Result<(), SimulationError> {
        let SequencedJob { mut spec, seq } = job;
        if seq >= ONLINE_ARRIVAL_SEQ_LIMIT {
            return Err(SimulationError::ArrivalSeqOutOfBand { job: spec.id, seq });
        }
        if !self.used_seqs.insert(seq) {
            return Err(SimulationError::ArrivalSeqReused { job: spec.id, seq });
        }
        let floor = self.stamp_floor();
        let stamp = match &self.clock {
            None => {
                let time = spec.submit_time.value();
                if time < floor {
                    return Err(SimulationError::OutOfOrderArrival {
                        job: spec.id,
                        time,
                        watermark: floor,
                    });
                }
                time
            }
            Some(clock) => {
                let stamp = clock.now().max(floor).max(0.0);
                spec.submit_time = Seconds::new(stamp);
                stamp
            }
        };
        self.state.push_job(spec, seq)?;
        self.last_stamp = stamp;
        Ok(())
    }

    /// Ingest every request currently sitting in the channel without
    /// blocking. Notices the source closing.
    fn drain_injections(&mut self) -> Result<(), SimulationError> {
        while let Some(arrivals) = &self.arrivals {
            match arrivals.try_recv() {
                Ok(job) => self.ingest(job)?,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => self.arrivals = None,
            }
        }
        Ok(())
    }

    /// Block until the source produces a request (ingested), closes, or —
    /// when `limit` is given — that much wall time has passed.
    fn await_source(&mut self, limit: Option<Duration>) -> Result<(), SimulationError> {
        let Some(arrivals) = &self.arrivals else {
            return Ok(());
        };
        let received = match limit {
            None => arrivals.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(limit) => arrivals.recv_timeout(limit),
        };
        match received {
            Ok(job) => self.ingest(job)?,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => self.arrivals = None,
        }
        Ok(())
    }

    /// Whether an event at `time` is safe to dispatch: no earlier (or
    /// equally-timed) arrival can still be injected.
    fn dispatchable(&self, time: f64) -> bool {
        if self.arrivals.is_none() {
            return true;
        }
        match &self.clock {
            // An injection at exactly `last_stamp` is still admissible, so
            // the proof must be strict.
            None => time < self.last_stamp,
            Some(clock) => time <= clock.now(),
        }
    }

    /// The one event-dispatch loop: run the campaign to completion under
    /// `scheduler`. Returns the report and the job table the run replayed:
    /// the caller's trace itself when an offline replay borrowed it, so that
    /// only a live run, which owns its table, pays for
    /// [`OnlineReport::trace`].
    pub(crate) fn run(
        mut self,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(SimulationReport, Cow<'t, [JobSpec]>), SimulationError> {
        loop {
            self.drain_injections()?;
            // Every admitted job fully processed and only trailing rounds
            // queued: a closed source means done, an open one means idle.
            // The trailing rounds are never popped in either case, so a
            // live session and the replay of its recorded trace report the
            // same makespan.
            let time = match self.state.queue.peek() {
                Some(top) if !self.state.should_stop() => top.time,
                _ if self.arrivals.is_none() => break,
                _ => {
                    self.await_source(None)?;
                    continue;
                }
            };
            if !self.dispatchable(time) {
                // `Discrete` waits for a strictly later injection,
                // `RealTime` at most until the wall clock reaches `time`.
                let limit = self.clock.as_ref().map(|clock| clock.wall_until(time));
                self.await_source(limit)?;
                continue;
            }
            // The peek above proved the queue is non-empty; an empty pop
            // just re-enters the watermark wait (DET003).
            let Some(QueuedEvent { time, event, .. }) = self.state.pop_event()? else {
                continue;
            };
            self.state.last_time = time;
            match event {
                Event::Arrival(i) => self.state.handle_arrival(i, time),
                Event::Round => {
                    self.committed_time = self.committed_time.max(time);
                    if !self.state.pending.is_empty() {
                        self.solve_and_commit(time, scheduler)?;
                    } else if self.state.completed < self.state.jobs.len() {
                        // An idle round is only dispatched while admitted
                        // jobs are incomplete (a fully-drained engine parks
                        // in the idle branch above instead), so a recorded
                        // trace re-arms identically when replayed.
                        self.state.push(time + self.state.interval, Event::Round)?;
                    }
                }
                Event::Ready(i) => {
                    self.committed_time = self.committed_time.max(time);
                    self.state.handle_ready(i, time)?;
                }
                Event::Complete(i) => {
                    self.committed_time = self.committed_time.max(time);
                    let runtime = self.state.handle_complete(i, time)?;
                    let outcome = self.sim.record_outcome(
                        &self.state.jobs[i],
                        &runtime,
                        self.state.tolerance,
                    )?;
                    self.fold.add(&outcome);
                    self.outcomes.push(outcome);
                }
            }
        }

        let (makespan, mean_utilization) = self.state.finalize();
        let summary = self.fold.summary(&self.state.overhead, mean_utilization);
        let report = SimulationReport {
            scheduler_name: scheduler.name().to_string(),
            outcomes: self.outcomes,
            overhead: self.state.overhead,
            summary,
            makespan: Seconds::new(makespan),
        };
        Ok((report, self.state.jobs))
    }

    /// Solve one round and commit its decision, reporting every enacted
    /// placement.
    fn solve_and_commit(
        &mut self,
        now: f64,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(), SimulationError> {
        let batch = self.state.pending.len();
        let seq_base = self.state.queue.reserve(batch as u64 + 1);
        let (pending, views) = self.state.snapshot();
        let (decision, wall, solver) =
            timed_schedule(scheduler, now, pending, views, self.sim.config());
        self.state.overhead.push(OverheadSample {
            sim_time: Seconds::new(now),
            wall_clock: Seconds::new(wall),
            batch_size: batch,
            solver,
        });
        // Offline replays have no sink and build no placements or notices.
        let enacted = self.placements.is_some().then_some(&mut self.enacted);
        self.state
            .commit_round(&decision, batch, seq_base, now, self.sim.config(), enacted)?;
        let slot = self.slot;
        self.slot += 1;
        let Some(placements) = &self.placements else {
            return Ok(());
        };
        for placement in self.enacted.drain(..) {
            let spec = &self.state.jobs[placement.job];
            let notice = PlacementNotice {
                job: spec.id,
                region: placement.region,
                slot,
                decided_at: Seconds::new(now),
                submitted_at: spec.submit_time,
                transfer_time: Seconds::new(placement.transfer_time),
                projected_start: Seconds::new(now + placement.transfer_time),
                deferrals: placement.deferrals,
                solver,
            };
            placements
                .send(notice)
                .map_err(|_| SimulationError::PlacementSinkDisconnected { job: spec.id })?;
        }
        Ok(())
    }
}
