//! The engine's one event loop: it dispatches every run, offline or live.
//!
//! A *live* run ([`Simulator::run_online_sequenced`]) starts from an empty
//! job table and *injects* jobs while the campaign runs: an
//! [`ArrivalSource`] yields them, every enacted placement is handed to the
//! caller's placement sink as it commits, and the run ends when the source
//! closes and every admitted job has completed. `waterwise-service` builds
//! the request/response front-end (the multi-session host and its
//! line-delimited-JSON TCP listener) on top of it: its admission queue is
//! the source and its sink answers the session that asked, both on the
//! engine's own thread. See `docs/ONLINE_SERVICE.md` for the
//! operator-facing view.
//!
//! An *offline* replay ([`Simulator::run`]) is the same loop started with
//! the whole trace loaded up front and the source already closed: each
//! round reads the jobs that arrived by its instant straight from the trace,
//! so the event queue holds the events in flight rather than the trace.
//! There is no source, clock or placement sink, every queued event is
//! dispatchable — so the loop pops without peeking — and the loop stops at
//! the same event a live session over the same trace stops at.
//!
//! # One solve path
//!
//! A round admits the jobs that arrived by its instant into the pending
//! pool, snapshots the pool, solves inline on the event loop, and commits.
//! Nothing joins the pool between the snapshot and the commit, so a
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
//! 1. **Arrivals are admitted, not dispatched.** Arrivals never enter the
//!    event queue. A round at `T` first moves every job stamped at or before
//!    `T` (in `f64::total_cmp` order) that no round has taken yet into the
//!    pending pool, so a job that ties a round joins it, offline and live
//!    alike. An offline
//!    replay reads them from its sorted trace, in trace order; a live run
//!    buffers its injections by `(stamp, caller sequence)`
//!    ([`SequencedJob::seq`]), which is the trace order of its recorded
//!    trace whenever the sequences increase in receipt order. The queue
//!    holds only rounds, transfers and completions, each numbered in push
//!    order, and both runs push the same events in the same order.
//! 2. **The watermark rule.** A queued event dispatches only when no
//!    earlier (or equally-timed) arrival can still be injected:
//!    [`ClockMode::Discrete`] requires a strictly later injection (or the
//!    closed source) as proof, [`ClockMode::RealTime`] uses the scaled wall
//!    clock, whose monotonicity bounds every future stamp from below.
//! 3. **Monotone stamps.** An injected job's submit time is never allowed
//!    at or before an already-dispatched event
//!    (`RealTime` nudges the stamp up; `Discrete` rejects the request with
//!    [`SimulationError::OutOfOrderArrival`]), so the replayed arrival
//!    cannot land ahead of effects the online run has already committed.
//!
//! The guarantee is the `online_equals_offline` and
//! `real_time_replays_its_recorded_trace` rows of the workspace's root
//! `tests/invariants.rs` (tie-heavy streams through a one-session host),
//! and is asserted again over the TCP path by the `fig17` golden-snapshot
//! test in `waterwise-bench`.

use super::clock::{ClockMode, SimClock};
use super::queue::{Event, QueuedEvent};
use super::{timed_schedule, EnactedPlacement, SimState, SimulationReport, Simulator};
use crate::error::SimulationError;
use crate::metrics::{JobOutcome, OutcomeFold, OverheadSample};
use crate::scheduler::{Scheduler, SolverActivity};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::time::Duration;
use waterwise_sustain::Seconds;
use waterwise_telemetry::{ConditionsProvider, Region};
use waterwise_traces::{JobId, JobSpec};

/// Exclusive upper bound of the arrival sequences of an online run
/// ([`Simulator::run_online_sequenced`]). Every caller-allocated arrival
/// sequence must be strictly below this value or the run is rejected with
/// [`SimulationError::ArrivalSeqOutOfBand`]. Below 2^48 a sequence survives
/// the admission journal, which writes it as a JSON number, exactly.
///
/// The admission layer in `waterwise-service` partitions this band per
/// session (`session << 32 | request`), which makes exact-timestamp tie
/// order a pure function of `(session, request index)` — independent of
/// the physical interleaving in which concurrent sessions reached the
/// engine.
pub const ONLINE_ARRIVAL_SEQ_LIMIT: u64 = 1 << 48;

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
/// arrival sequence.
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
    /// Caller-allocated arrival sequence
    /// (`< ONLINE_ARRIVAL_SEQ_LIMIT`, unique per run).
    pub seq: u64,
}

/// One take from an [`ArrivalSource`].
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// The next injected job.
    Job(SequencedJob),
    /// Nothing arrived within the wait; the source is still open.
    Idle,
    /// The source will never yield another job.
    Closed,
}

/// Where a live run's arrivals come from
/// ([`Simulator::run_online_sequenced`]).
///
/// The engine takes one arrival at a time, waiting as `wait` says: `None`
/// blocks until a job arrives or the source closes, `Some(limit)` waits at
/// most `limit` (`Duration::ZERO` polls without blocking). Returning
/// [`Arrival::Idle`] early is always allowed: the engine re-checks its
/// watermark and asks again.
pub trait ArrivalSource {
    /// Take the next arrival.
    fn next_arrival(&mut self, wait: Option<Duration>) -> Arrival;
}

/// A list of jobs is a source that is closed once it is taken: a replay
/// of a recorded stream.
impl ArrivalSource for std::vec::IntoIter<SequencedJob> {
    fn next_arrival(&mut self, _wait: Option<Duration>) -> Arrival {
        Iterator::next(self).map_or(Arrival::Closed, Arrival::Job)
    }
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
    pub(super) state: SimState<'t>,
    /// The live arrival source while it can still produce requests; `None`
    /// once it has closed, and from the start for an offline replay.
    arrivals: Option<&'a mut dyn ArrivalSource>,
    /// Where enacted placements are reported; `None` for an offline replay.
    placements: Option<&'a mut dyn FnMut(PlacementNotice)>,
    /// A started clock for [`ClockMode::RealTime`], `None` otherwise.
    clock: Option<SimClock>,
    /// Caller-allocated sequences seen so far: a reused sequence would
    /// make the exact-tie order between the twins ambiguous, so the run is
    /// rejected instead.
    used_seqs: BTreeSet<u64>,
    /// Largest submit time stamped so far — the `Discrete` watermark.
    last_stamp: f64,
    /// Largest dispatched event time: new stamps must exceed it or the
    /// replay could order the arrival ahead of committed effects.
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
        arrivals: &'a mut dyn ArrivalSource,
        placements: &'a mut dyn FnMut(PlacementNotice),
        clock: ClockMode,
    ) -> Self {
        let state = SimState::empty(sim.config());
        let clock = match clock.normalized() {
            ClockMode::Discrete => None,
            ClockMode::RealTime { scale } => Some(SimClock::start(scale)),
        };
        Self::over(sim, state, Some(arrivals), Some(placements), clock)
    }

    fn over(
        sim: &'a Simulator<P>,
        state: SimState<'t>,
        arrivals: Option<&'a mut dyn ArrivalSource>,
        placements: Option<&'a mut dyn FnMut(PlacementNotice)>,
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
    /// strictly after every dispatched event (its effects are committed)
    /// and no earlier than the previous stamp (receipt order
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
    /// time, and buffer it for the round that admits it.
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

    /// Take one arrival from the source, waiting as `wait` says
    /// ([`ArrivalSource`]): ingest a job, or note the source closing.
    /// Returns whether a job was ingested.
    fn pull(&mut self, wait: Option<Duration>) -> Result<bool, SimulationError> {
        let Some(arrivals) = self.arrivals.as_mut() else {
            return Ok(false);
        };
        match arrivals.next_arrival(wait) {
            Arrival::Job(job) => self.ingest(job).map(|()| true),
            Arrival::Idle => Ok(false),
            Arrival::Closed => {
                self.arrivals = None;
                Ok(false)
            }
        }
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

    /// The next event of a run whose source is open, once the watermark
    /// proves it dispatchable; `None` after waiting on the source instead,
    /// so that the loop looks again.
    fn next_live_event(&mut self) -> Result<Option<QueuedEvent>, SimulationError> {
        loop {
            // Every admitted job fully processed and only trailing rounds
            // queued: a closed source means done, an open one means idle.
            // The trailing rounds are never popped in either case, so a live
            // session and the replay of its recorded trace report the same
            // makespan.
            let top = match self.state.queue.peek() {
                Some(top) if !self.state.should_stop() => Some(top.time),
                _ => None,
            };
            // Ingest what the source holds without blocking, but only until
            // the top is dispatchable: a job taken after that is stamped
            // above the top, so it cannot join or reorder it, and the event
            // need not wait behind the rest of a burst. The peek proved the
            // queue non-empty; an empty pop just re-enters the watermark
            // wait (DET003).
            if top.is_some_and(|time| self.dispatchable(time)) {
                return Ok(self.state.queue.pop());
            }
            if self.pull(Some(Duration::ZERO))? {
                continue;
            }
            // The source is empty (or has just closed, which makes this
            // pull a no-op). `Discrete` waits for a strictly later
            // injection, `RealTime` at most until the wall clock reaches the
            // top.
            let clock = self.clock.as_ref();
            self.pull(top.and_then(|time| clock.map(|clock| clock.wall_until(time))))?;
            return Ok(None);
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
        while let Some(next) = self.next_event()? {
            self.dispatch(next, scheduler)?;
        }
        self.finish(scheduler)
    }

    /// The next event to dispatch, or `None` once the run is over.
    pub(super) fn next_event(&mut self) -> Result<Option<QueuedEvent>, SimulationError> {
        loop {
            if self.arrivals.is_none() {
                // A closed source — every offline replay — leaves no
                // watermark to consult: every queued event is
                // dispatchable, so the loop pops without peeking, and stops
                // where the open path would.
                if self.state.should_stop() {
                    return Ok(None);
                }
                return Ok(self.state.queue.pop());
            }
            if let Some(next) = self.next_live_event()? {
                return Ok(Some(next));
            }
        }
    }

    /// Close the run: its report, and the job table it replayed.
    fn finish(
        mut self,
        scheduler: &dyn Scheduler,
    ) -> Result<(SimulationReport, Cow<'t, [JobSpec]>), SimulationError> {
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

    /// Dispatch one popped event.
    pub(super) fn dispatch(
        &mut self,
        QueuedEvent { time, event, .. }: QueuedEvent,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(), SimulationError> {
        self.state.last_time = time;
        self.committed_time = self.committed_time.max(time);
        match event {
            Event::Round => {
                self.state.open_round(time)?;
                if !self.state.pending.is_empty() {
                    self.solve_and_commit(time, scheduler)?;
                } else if self.state.completed < self.state.jobs.len() {
                    // An idle round is only dispatched while admitted jobs
                    // are incomplete (a fully-drained engine stops or parks
                    // instead), so a recorded trace re-arms identically
                    // when replayed.
                    self.state.arm_next_round(time)?;
                }
            }
            Event::Ready(slot) => self.state.handle_ready(slot, time)?,
            Event::Complete(slot) => {
                let runtime = self.state.handle_complete(slot, time)?;
                let outcome = self.sim.record_outcome(
                    &self.state.jobs[runtime.job],
                    &runtime,
                    time,
                    self.state.tolerance,
                );
                self.fold.add(&outcome);
                self.outcomes.push(outcome);
            }
        }
        Ok(())
    }

    /// Solve one round and commit its decision, reporting every enacted
    /// placement.
    fn solve_and_commit(
        &mut self,
        now: f64,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(), SimulationError> {
        let batch = self.state.pending.len();
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
            .commit_round(&decision, now, self.sim.config(), enacted)?;
        let slot = self.slot;
        self.slot += 1;
        let Some(placements) = self.placements.as_mut() else {
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
            placements(notice);
        }
        Ok(())
    }
}
