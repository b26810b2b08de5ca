//! The discrete-event simulation engine.
//!
//! The engine replays a workload trace against a set of regional server
//! pools, consulting a [`Scheduler`] every scheduling round and accounting
//! carbon and water footprints with the environmental conditions in effect
//! when each job starts. It replaces the paper's physical 175-node AWS
//! deployment (the scheduler code is identical in both worlds — it only sees
//! the [`SchedulingContext`]).
//!
//! # One loop, one solve path
//!
//! Every run — an offline replay of a preloaded trace ([`Simulator::run`])
//! or a live session fed over a channel
//! ([`Simulator::run_online_sequenced`]) — is dispatched by the one event
//! loop in the [`online`] submodule over the private `SimState` core. An
//! offline replay is that loop started with the whole trace already admitted
//! (its arrivals reach the event queue one at a time, in submit order) and
//! the arrival source already closed. A round's scheduler solve and every
//! job's footprint accounting run inline on that loop, one event at a time.

pub mod clock;
pub mod online;
pub(crate) mod queue;
#[cfg(test)]
mod tests;

use crate::config::SimulationConfig;
use crate::error::SimulationError;
use crate::metrics::{CampaignSummary, JobOutcome, OverheadSample};
use crate::scheduler::{
    PendingJob, Scheduler, SchedulingContext, SchedulingDecision, SolverActivity,
};
use crate::state::{RegionRuntime, RegionView};
use queue::{Event, EventQueue, QueuedEvent};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Instant;
use waterwise_sustain::{FootprintEstimator, JobResourceUsage, Seconds};
use waterwise_telemetry::{ConditionsProvider, Region, ALL_REGIONS};
use waterwise_traces::{JobId, JobSpec};

/// The result of simulating one campaign with one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Name of the scheduler that produced this report.
    pub scheduler_name: String,
    /// Per-job outcomes in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Scheduler decision-overhead samples, one per round that had work.
    pub overhead: Vec<OverheadSample>,
    /// Aggregate summary.
    pub summary: CampaignSummary,
    /// Total simulated time from first submission to last completion.
    pub makespan: Seconds,
}

/// Discrete-event simulator of the geo-distributed cluster.
///
/// ```
/// use waterwise_cluster::{SimulationConfig, Simulator};
/// use waterwise_telemetry::SyntheticTelemetry;
///
/// let config = SimulationConfig::paper_default(40, 0.5);
/// let simulator = Simulator::new(config, SyntheticTelemetry::with_seed(1)).unwrap();
/// assert_eq!(simulator.config().regions.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<P> {
    config: SimulationConfig,
    provider: P,
    estimator: FootprintEstimator,
}

/// Per-job bookkeeping the engine maintains while a job moves through
/// arrival → assignment → transfer → execution → completion.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JobRuntime {
    pub(crate) assigned_region: Option<Region>,
    pub(crate) transfer_time: f64,
    pub(crate) start_time: f64,
    pub(crate) completion_time: f64,
}

/// One placement enacted by [`SimState::commit_round`], reported back to the
/// driver so the online service can answer the request that produced it.
/// Offline replays build none.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnactedPlacement {
    /// Index of the job in the engine's job table.
    pub(crate) job: usize,
    /// The region the job was assigned to.
    pub(crate) region: Region,
    /// Transfer time charged for shipping the package there (seconds).
    pub(crate) transfer_time: f64,
    /// Scheduling rounds the job was deferred before this placement.
    pub(crate) deferrals: u32,
}

/// The engine core: event queue, region/job bookkeeping, and the slot
/// commit logic. The one event loop ([`online`]) drives exactly this state
/// machine, offline or live, so every state transition a run may take
/// lives here.
pub(crate) struct SimState<'t> {
    /// The job table. An offline replay borrows a trace that is already in
    /// submit order and owns a sorted copy of any other; a live run owns the
    /// table and appends to it.
    pub(crate) jobs: Cow<'t, [JobSpec]>,
    /// Every job id admitted by a live injection; rejects duplicates. (A
    /// preloaded trace is checked by one sort in [`SimState::new`].) An
    /// ordered container by the DET001 discipline: nothing
    /// schedule-affecting may iterate in hash order, and membership checks
    /// cost the same either way.
    seen_ids: BTreeSet<JobId>,
    /// The preloaded jobs whose arrivals the queue has not been handed yet.
    /// A preloaded trace is held in arrival order — `jobs[i]` *is* arrival
    /// `i` — so instead of a second copy of it in the queue, one arrival is
    /// queued at a time (see [`SimState::pop_event`]). Empty in a live run.
    unqueued: Range<usize>,
    regions: Vec<RegionRuntime>,
    /// Slot in `regions` of every participating region, on
    /// [`Region::index`].
    region_slot: [Option<usize>; ALL_REGIONS.len()],
    pub(crate) queue: EventQueue,
    pub(crate) interval: f64,
    pub(crate) tolerance: f64,
    runtimes: Vec<JobRuntime>,
    /// Pending pool, kept in the form the scheduler sees (received time,
    /// rounds deferred so far) so a round lends it instead of rebuilding it.
    pub(crate) pending: Vec<PendingJob>,
    /// `pending[k]`'s index in the job table.
    pending_index: Vec<usize>,
    /// Per-round scratch, reused so a round allocates nothing: the region
    /// views lent to the scheduler, and the snapshot's `(job id, pool
    /// position)` pairs sorted by id for matching a decision's assignments.
    views: Vec<RegionView>,
    offered: Vec<(JobId, usize)>,
    pub(crate) overhead: Vec<OverheadSample>,
    pub(crate) completed: usize,
    pub(crate) last_time: f64,
    first_time: f64,
}

impl<'t> SimState<'t> {
    /// An engine state preloaded with a whole trace, replayed in
    /// `(submit time, trace index)` order. A trace already in that order is
    /// borrowed, not copied; any other is copied and the copy stably sorted
    /// once, here, so every arrival's sequence is its position in that
    /// order. The regular sequence band is floored at the trace length, so
    /// on exact timestamp ties every arrival orders ahead of round/decision
    /// events — the same split a live run makes at `ONLINE_ROUND_SEQ_BASE`.
    /// A duplicate id would leave one twin pending forever (assignments are
    /// keyed by job id) and a non-finite submit time has no place in the
    /// event order, so a malformed trace is rejected here with a typed
    /// error.
    pub(crate) fn new(
        config: &SimulationConfig,
        jobs: &'t [JobSpec],
    ) -> Result<Self, SimulationError> {
        if let Some(id) = duplicate_id(jobs) {
            return Err(SimulationError::DuplicateJobId { id });
        }
        let submit = |job: &JobSpec| job.submit_time.value();
        if let Some(i) = jobs.iter().position(|job| !submit(job).is_finite()) {
            return Err(SimulationError::NonFiniteEventTime {
                time: submit(&jobs[i]),
                event: Event::Arrival(i).describe(jobs),
            });
        }
        let mut state = Self::empty(config);
        // Checked first: a stable sort allocates its scratch (half the trace)
        // before it notices there is nothing to do.
        state.jobs = if jobs.is_sorted_by(|a, b| submit(a).total_cmp(&submit(b)).is_le()) {
            Cow::Borrowed(jobs)
        } else {
            let mut sorted = jobs.to_vec();
            sorted.sort_by(|a, b| submit(a).total_cmp(&submit(b)));
            Cow::Owned(sorted)
        };
        state.runtimes = vec![JobRuntime::default(); jobs.len()];
        state.unqueued = 0..jobs.len();
        state.queue.reserve(jobs.len() as u64);
        state.queue_next_preloaded()?;
        Ok(state)
    }

    /// An engine state with no jobs and no queued events — the starting
    /// point of a live run, which injects arrivals while the campaign runs
    /// ([`SimState::push_job`]) instead of preloading a trace.
    pub(crate) fn empty(config: &SimulationConfig) -> Self {
        let regions: Vec<RegionRuntime> = config
            .regions
            .iter()
            .map(|(r, servers)| RegionRuntime::new(*r, *servers))
            .collect();
        let mut region_slot = [None; ALL_REGIONS.len()];
        for (slot, r) in regions.iter().enumerate() {
            region_slot[r.region.index()] = Some(slot);
        }
        Self {
            jobs: Cow::Owned(Vec::new()),
            seen_ids: BTreeSet::new(),
            unqueued: 0..0,
            views: Vec::with_capacity(regions.len()),
            regions,
            region_slot,
            queue: EventQueue::default(),
            interval: config.scheduling_interval.value(),
            tolerance: config.delay_tolerance,
            runtimes: Vec::new(),
            pending: Vec::new(),
            pending_index: Vec::new(),
            offered: Vec::new(),
            overhead: Vec::new(),
            completed: 0,
            last_time: 0.0,
            first_time: 0.0,
        }
    }

    /// Admit one injected job: validate its id, grow the runtime table, and
    /// enqueue its arrival with the caller-chosen sequence number (arrivals
    /// are stamped from a dedicated low sequence band so they order ahead of
    /// round/decision events on exact timestamp ties).
    pub(crate) fn push_job(
        &mut self,
        spec: JobSpec,
        arrival_seq: u64,
    ) -> Result<(), SimulationError> {
        if !self.seen_ids.insert(spec.id) {
            return Err(SimulationError::DuplicateJobId { id: spec.id });
        }
        let (index, time) = (self.jobs.len(), spec.submit_time.value());
        // In the table first, so that a rejected arrival names its job.
        self.jobs.to_mut().push(spec);
        self.runtimes.push(JobRuntime::default());
        self.queue_arrival(index, time, arrival_seq)
    }

    /// Enqueue `event` at `time` with the next sequence number.
    pub(crate) fn push(&mut self, time: f64, event: Event) -> Result<(), SimulationError> {
        let seq = self.queue.reserve(1);
        self.push_with_seq(time, seq, event)
    }

    /// Enqueue `event` at `(time, seq)`. A NaN or infinite `time` fails the
    /// run with [`SimulationError::NonFiniteEventTime`], naming the job by
    /// its trace id.
    fn push_with_seq(&mut self, time: f64, seq: u64, event: Event) -> Result<(), SimulationError> {
        self.queue.push_with_seq(time, seq, event).map_err(|_| {
            SimulationError::NonFiniteEventTime {
                time,
                event: event.describe(&self.jobs),
            }
        })
    }

    /// Enqueue the arrival of job `index`. The first job's arrival also
    /// bootstraps the periodic round chain at its own submit time.
    fn queue_arrival(&mut self, index: usize, time: f64, seq: u64) -> Result<(), SimulationError> {
        self.push_with_seq(time, seq, Event::Arrival(index))?;
        if index == 0 {
            self.push(time, Event::Round)?;
            self.first_time = time;
            self.last_time = time;
        }
        Ok(())
    }

    /// Hand the queue the next arrival of the preloaded trace, if any is
    /// left.
    fn queue_next_preloaded(&mut self) -> Result<(), SimulationError> {
        if let Some(i) = self.unqueued.next() {
            self.queue_arrival(i, self.jobs[i].submit_time.value(), i as u64)?;
        }
        Ok(())
    }

    /// Remove and return the earliest queued event. A preloaded arrival is
    /// succeeded in the queue by the next one, which by the trace's order
    /// cannot dispatch before it — the queue sees the trace as an ordered
    /// stream without ever holding more than its head.
    pub(crate) fn pop_event(&mut self) -> Result<Option<QueuedEvent>, SimulationError> {
        let popped = self.queue.pop();
        if popped.is_some_and(|queued| matches!(queued.event, Event::Arrival(_))) {
            self.queue_next_preloaded()?;
        }
        Ok(popped)
    }

    /// A job arrived at its home region's decision controller.
    pub(crate) fn handle_arrival(&mut self, i: usize, time: f64) {
        self.pending.push(PendingJob {
            spec: self.jobs[i].clone(),
            received_at: Seconds::new(time),
            deferrals: 0,
        });
        self.pending_index.push(i);
    }

    /// The scheduler-visible state for a round: the pending jobs (with
    /// received times and deferral counts) and the per-region views. Lent,
    /// not built.
    pub(crate) fn snapshot(&mut self) -> (&[PendingJob], &[RegionView]) {
        self.views.clear();
        self.views.extend(self.regions.iter().map(|r| r.view()));
        (&self.pending, &self.views)
    }

    /// Commit a round's decision: enact the placements, count a deferral for
    /// every snapshot job left pending, and schedule the next round.
    ///
    /// `snapshot_len` is the pending-pool size when the round's snapshot was
    /// taken and `seq_base` the sequence block reserved at that moment (see
    /// [`EventQueue::reserve`]). The decision's `Ready` events are stamped
    /// with `seq_base + k` and the next round with `seq_base + snapshot_len`.
    /// Assignments are matched against the snapshot prefix of the pending
    /// pool only: a decision can never reach jobs that arrived after its
    /// snapshot.
    /// The placements actually enacted are appended to `enacted` (in
    /// decision order) when the run has someone to notify of them; an
    /// offline replay passes `None`.
    pub(crate) fn commit_round(
        &mut self,
        decision: &SchedulingDecision,
        snapshot_len: usize,
        seq_base: u64,
        now: f64,
        config: &SimulationConfig,
        mut enacted: Option<&mut Vec<EnactedPlacement>>,
    ) -> Result<(), SimulationError> {
        self.offered.clear();
        if !decision.assignments.is_empty() {
            let snapshot = self.pending.iter().take(snapshot_len);
            self.offered
                .extend(snapshot.enumerate().map(|(at, p)| (p.spec.id, at)));
            self.offered.sort_unstable();
        }
        let mut placed = 0u64;
        for a in &decision.assignments {
            let Ok(hit) = self.offered.binary_search_by_key(&a.job, |&(id, _)| id) else {
                continue; // Unknown or already-scheduled job id: ignore.
            };
            let at = self.offered[hit].1;
            let i = self.pending_index[at];
            let Some(slot) = self.region_slot[a.region.index()] else {
                continue; // Not a participating region.
            };
            if self.runtimes[i].assigned_region.is_some() {
                continue;
            }
            let transfer_time = config
                .transfer
                .transfer_time(
                    self.jobs[i].home_region,
                    a.region,
                    self.jobs[i].package_bytes,
                )
                .value();
            self.runtimes[i].assigned_region = Some(a.region);
            self.runtimes[i].transfer_time = transfer_time;
            self.regions[slot].inbound += 1;
            self.push_with_seq(now + transfer_time, seq_base + placed, Event::Ready(i))?;
            placed += 1;
            if let Some(enacted) = enacted.as_deref_mut() {
                enacted.push(EnactedPlacement {
                    job: i,
                    region: a.region,
                    transfer_time,
                    deferrals: self.pending[at].deferrals,
                });
            }
        }
        // Drop the assigned jobs from the pool (a pooled job has a region
        // iff this commit just gave it one); jobs that were *offered* this
        // round (the snapshot prefix) and stayed count one more deferral.
        // Arrivals ingested after the snapshot are untouched.
        let runtimes = &self.runtimes;
        let pending_index = &self.pending_index;
        let mut position = 0usize;
        self.pending.retain_mut(|job| {
            let offered = position < snapshot_len;
            let assigned = runtimes[pending_index[position]].assigned_region.is_some();
            position += 1;
            if offered && !assigned {
                job.deferrals += 1;
            }
            !assigned
        });
        self.pending_index
            .retain(|&i| runtimes[i].assigned_region.is_none());
        if self.completed < self.jobs.len() {
            self.push_with_seq(
                now + self.interval,
                seq_base + snapshot_len as u64,
                Event::Round,
            )?;
        }
        Ok(())
    }

    /// The `regions` slot of the region job `i` was assigned to, or the
    /// typed error for an `event` that reached a job without one, naming the
    /// job by its trace id.
    fn assigned_slot(&self, i: usize, event: &str) -> Result<usize, SimulationError> {
        self.runtimes[i]
            .assigned_region
            .and_then(|region| self.region_slot[region.index()])
            .ok_or_else(|| SimulationError::UnassignedJob {
                job: self.jobs[i].id,
                event: format!("{event} of job {}", self.jobs[i].id.0),
            })
    }

    /// A job's package transfer completed: start it or queue it in its
    /// assigned region.
    pub(crate) fn handle_ready(&mut self, i: usize, time: f64) -> Result<(), SimulationError> {
        let slot = self.assigned_slot(i, "readiness")?;
        self.regions[slot].advance_to(time);
        self.regions[slot].inbound = self.regions[slot].inbound.saturating_sub(1);
        if self.regions[slot].busy < self.regions[slot].servers {
            self.regions[slot].busy += 1;
            self.runtimes[i].start_time = time;
            let done = time + self.jobs[i].actual_execution_time.value();
            self.push(done, Event::Complete(i))?;
        } else {
            self.regions[slot].queue.push_back(i);
        }
        Ok(())
    }

    /// A job finished executing: free the server (or admit the next queued
    /// job) and return the final runtime footprint accounting needs.
    pub(crate) fn handle_complete(
        &mut self,
        i: usize,
        time: f64,
    ) -> Result<JobRuntime, SimulationError> {
        let slot = self.assigned_slot(i, "completion")?;
        self.regions[slot].advance_to(time);
        self.runtimes[i].completion_time = time;
        self.completed += 1;
        // Free the server and admit the next queued job, if any.
        if let Some(next) = self.regions[slot].queue.pop_front() {
            self.runtimes[next].start_time = time;
            let done = time + self.jobs[next].actual_execution_time.value();
            self.push(done, Event::Complete(next))?;
        } else {
            self.regions[slot].busy -= 1;
        }
        Ok(self.runtimes[i])
    }

    /// Whether the campaign is finished: every job completed, nothing
    /// pending, and only periodic rounds left queued.
    pub(crate) fn should_stop(&self) -> bool {
        self.completed == self.jobs.len()
            && self.pending.is_empty()
            && self.queue.only_rounds_left()
    }

    /// Close the utilization integrals and return
    /// `(makespan, mean_utilization)`.
    pub(crate) fn finalize(&mut self) -> (f64, f64) {
        for r in &mut self.regions {
            r.advance_to(self.last_time);
        }
        let makespan = (self.last_time - self.first_time).max(0.0);
        let capacity_seconds: f64 = self
            .regions
            .iter()
            .map(|r| r.servers as f64 * makespan)
            .sum();
        let busy_seconds: f64 = self.regions.iter().map(|r| r.busy_server_seconds).sum();
        let mean_utilization = if capacity_seconds > 0.0 {
            busy_seconds / capacity_seconds
        } else {
            0.0
        };
        (makespan, mean_utilization)
    }
}

/// A job id the trace carries twice, if there is one. Strictly increasing ids
/// (every generator's output) have none, which one scan shows; otherwise a
/// sort and an adjacent scan instead of a set insert per job.
fn duplicate_id(jobs: &[JobSpec]) -> Option<JobId> {
    if jobs.windows(2).all(|pair| pair[0].id < pair[1].id) {
        return None;
    }
    let mut ids: Vec<JobId> = jobs.iter().map(|job| job.id).collect();
    ids.sort_unstable();
    ids.windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0])
}

/// Run one `Scheduler::schedule` call over a round snapshot, timing it and
/// attributing the solver work spent during the call (cold vs warm solves,
/// pivots, nodes, cache traffic): the per-round `OverheadSample::solver`
/// delta.
pub(crate) fn timed_schedule(
    scheduler: &mut dyn Scheduler,
    now: f64,
    pending: &[PendingJob],
    regions: &[RegionView],
    config: &SimulationConfig,
) -> (SchedulingDecision, f64, Option<SolverActivity>) {
    let ctx = SchedulingContext {
        now: Seconds::new(now),
        pending,
        regions,
        delay_tolerance: config.delay_tolerance,
        transfer: &config.transfer,
    };
    let before = scheduler.solver_activity();
    // lint:allow(DET002: OverheadSample wall_clock timing capture; scrubbed from schedules by without_wall_clock)
    let started = Instant::now();
    let decision = scheduler.schedule(&ctx);
    let elapsed = started.elapsed().as_secs_f64();
    let solver = match (before, scheduler.solver_activity()) {
        (Some(before), Some(after)) => Some(after.delta_since(&before)),
        _ => None,
    };
    (decision, elapsed, solver)
}

impl<P: ConditionsProvider> Simulator<P> {
    /// Create a simulator. Fails if the configuration is invalid.
    pub fn new(config: SimulationConfig, provider: P) -> Result<Self, SimulationError> {
        config.validate()?;
        let mut datacenter = config.datacenter;
        datacenter.server = datacenter
            .server
            .perturbed_embodied(config.embodied_perturbation);
        let estimator = FootprintEstimator::new(datacenter);
        Ok(Self {
            config,
            provider,
            estimator,
        })
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The footprint estimator (after applying any embodied perturbation).
    pub fn estimator(&self) -> &FootprintEstimator {
        &self.estimator
    }

    /// Run the campaign: replay `jobs` under `scheduler` and return the full
    /// report.
    ///
    /// `jobs` may come in any order. They are replayed in `(submit time,
    /// position in jobs)` order — the report is that of the stably sorted
    /// trace, and the campaign's clock and round chain start at its
    /// earliest submit time. A trace already sorted by submit time (what
    /// every generator in `waterwise-traces` and every recorded
    /// [`online::OnlineReport::trace`] is) is borrowed as it stands, never
    /// copied; any other costs one copy and one sort.
    ///
    /// This is the engine's one event loop ([`online`]) started with the
    /// whole trace admitted and the arrival source already closed: no
    /// channel, clock or placement sink exists on this path.
    ///
    /// Fails if the trace contains duplicate job ids, or if the trace or
    /// transfer model would produce an event with a non-finite timestamp
    /// (see [`SimulationError::NonFiniteEventTime`]). A panic inside
    /// `scheduler` propagates with its own payload.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        scheduler: &mut dyn Scheduler,
    ) -> Result<SimulationReport, SimulationError> {
        let (report, _replayed) = online::OnlineDriver::offline(self, jobs)?.run(scheduler)?;
        Ok(report)
    }

    /// Run a campaign against a *live* arrival source instead of a
    /// preloaded trace: jobs received over `arrivals` are injected into the
    /// running event loop, and every enacted placement is reported over
    /// `placements` as it commits. See [`online`] for the pacing rules
    /// ([`clock::ClockMode`]) and the determinism guarantee (the recorded
    /// trace replays offline to the byte-identical schedule).
    ///
    /// Each arrival carries a caller-allocated low-band sequence number
    /// ([`online::SequencedJob`]) that breaks exact-timestamp ties, so tie
    /// order never depends on which thread's submission happened to reach
    /// the channel first: `waterwise-service` partitions the band per
    /// session (`session << 32 | request index`), and the identical
    /// schedule is reproduced by re-injecting the journaled `(spec, seq)`
    /// pairs in any order. A single feeder simply numbers its arrivals
    /// `0, 1, 2, …` in receipt order.
    ///
    /// Sequences must be unique and strictly below
    /// [`online::ONLINE_ARRIVAL_SEQ_LIMIT`]; violations fail the run with
    /// [`SimulationError::ArrivalSeqOutOfBand`] /
    /// [`SimulationError::ArrivalSeqReused`].
    pub fn run_online_sequenced(
        &self,
        scheduler: &mut dyn Scheduler,
        arrivals: std::sync::mpsc::Receiver<online::SequencedJob>,
        placements: std::sync::mpsc::SyncSender<online::PlacementNotice>,
        clock: clock::ClockMode,
    ) -> Result<online::OnlineReport, SimulationError> {
        let (report, trace) =
            online::OnlineDriver::live(self, arrivals, placements, clock).run(scheduler)?;
        Ok(online::OnlineReport {
            report,
            trace: trace.into_owned(),
        })
    }

    /// The conditions provider the engine accounts footprints with.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// Footprint accounting for one completed job: estimate the execution
    /// and transfer footprints under the conditions at the job's start time
    /// and derive the service-time verdicts. Pure with respect to engine
    /// state.
    pub(crate) fn record_outcome(
        &self,
        job: &JobSpec,
        runtime: &JobRuntime,
        tolerance: f64,
    ) -> Result<JobOutcome, SimulationError> {
        let region = runtime
            .assigned_region
            .ok_or_else(|| SimulationError::UnassignedJob {
                job: job.id,
                event: format!("outcome of job {}", job.id.0),
            })?;
        let start = Seconds::new(runtime.start_time);
        let conditions = self.provider.conditions(region, start);
        let usage = JobResourceUsage::new(job.actual_energy, job.actual_execution_time);
        let footprint = self.estimator.estimate(usage, conditions);
        let transfer_footprint = if region == job.home_region {
            Default::default()
        } else {
            let energy =
                self.config
                    .transfer
                    .transfer_energy(job.home_region, region, job.package_bytes);
            // The transfer consumes energy along the path; attribute it to the
            // destination region's conditions and exclude embodied terms.
            self.estimator
                .estimate_operational(JobResourceUsage::new(energy, Seconds::zero()), conditions)
        };
        let service_time = runtime.completion_time - job.submit_time.value();
        let allowed = (1.0 + tolerance) * job.actual_execution_time.value();
        Ok(JobOutcome {
            job: job.id,
            home_region: job.home_region,
            executed_region: region,
            submit_time: job.submit_time,
            start_time: start,
            completion_time: Seconds::new(runtime.completion_time),
            execution_time: job.actual_execution_time,
            footprint,
            transfer_footprint,
            transfer_time: Seconds::new(runtime.transfer_time),
            violated_tolerance: service_time > allowed + 1e-6,
        })
    }
}
