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
//! or a live session fed by an arrival source
//! ([`Simulator::run_online_sequenced`]) — is dispatched by the one event
//! loop in the [`online`] submodule over the private `SimState` core. An
//! offline replay is that loop started with the whole trace already loaded
//! and the arrival source already closed. Arrivals are not events: each
//! round first pulls every admitted job stamped at or before it into the
//! pending pool, as the paper's controller collects `J ∪ J_delay` once a
//! slot. A round's scheduler solve and every job's footprint accounting run
//! inline on that loop, one event at a time.
//!
//! # What the engine keeps
//!
//! Besides the job table and the outcomes it reports, the engine keeps only
//! what a round works on: the pending pool and the jobs in flight. A job's
//! runtime row (`JobRuntime`) lives in a slot of the in-flight table from
//! the commit that places it to its completion, which frees the slot for a
//! later placement; the `Ready` and `Complete` events and the region queues
//! carry the slot. The table is as long as the most jobs in flight at once,
//! not as the trace.

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
use queue::{time_key, Event, EventQueue};
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
use std::time::Instant;
use waterwise_sustain::{Co2Grams, FootprintEstimator, FootprintTotals, Liters, Seconds};
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

/// The runtime row of one placed job, from the commit that places it
/// through transfer and execution to its completion. The completion time is
/// not kept: it is the `Complete` event's own time, `start_time +
/// execution_time`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobRuntime {
    /// The job's index in the job table.
    pub(crate) job: usize,
    pub(crate) transfer_time: f64,
    /// NaN until the job takes a server.
    pub(crate) start_time: f64,
    /// The region the commit placed the job in.
    pub(crate) region: Region,
    /// That region's position in `SimState::regions`.
    pool: u8,
}

// One per job in flight: four words.
const _: () = assert!(std::mem::size_of::<JobRuntime>() <= 32);

/// The runtime rows of the jobs in flight, each in a slot that a commit
/// takes ([`InFlight::insert`]) and a completion frees
/// ([`InFlight::remove`]). A freed slot is the next one taken, so the table
/// grows only while more jobs are in flight than ever before.
#[derive(Debug, Default)]
pub(crate) struct InFlight {
    rows: Vec<JobRuntime>,
    /// Slots of `rows` that hold no job.
    free: Vec<usize>,
}

impl InFlight {
    /// Take a slot for `row`.
    fn insert(&mut self, row: JobRuntime) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.rows[slot] = row;
                slot
            }
            None => {
                self.rows.push(row);
                self.rows.len() - 1
            }
        }
    }

    /// Free `slot`, returning its row.
    fn remove(&mut self, slot: usize) -> JobRuntime {
        self.free.push(slot);
        self.rows[slot]
    }

    /// The jobs in flight.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len() - self.free.len()
    }
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
/// lives here. Of what it holds, only the job table and a live run's
/// admitted ids grow with the trace; the pending pool, the in-flight table
/// and the event queue hold what a round works on.
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
    /// The preloaded jobs no round has pulled in yet. A preloaded trace is
    /// held in arrival order — `jobs[i]` *is* arrival `i` — so a round reads
    /// its arrivals from the trace with this cursor (see
    /// [`SimState::pull_arrivals`]). Empty in a live run.
    unpulled: Range<usize>,
    /// A live run's injected jobs no round has pulled in yet, as
    /// `(arrival key, job index)` in ascending key order: the key is the
    /// stamp's [`time_key`] over the caller's arrival sequence, so a later
    /// injection that ties a stamp with a smaller sequence sorts ahead.
    /// Empty in an offline replay.
    admission: VecDeque<(u128, usize)>,
    regions: Vec<RegionRuntime>,
    /// Position in `regions` of every participating region, on
    /// [`Region::index`].
    region_slot: [Option<u8>; ALL_REGIONS.len()],
    pub(crate) queue: EventQueue,
    interval: f64,
    pub(crate) tolerance: f64,
    /// The runtime rows of the placed jobs not yet completed; `Ready` and
    /// `Complete` events and the region queues carry a row's slot.
    pub(crate) in_flight: InFlight,
    /// Pending pool, kept in the form the scheduler sees (received time,
    /// rounds deferred so far) so a round lends it instead of rebuilding it.
    pub(crate) pending: Vec<PendingJob>,
    /// `pending[k]`'s index in the job table.
    pending_index: Vec<usize>,
    /// Per-round scratch, reused so a round allocates nothing: the region
    /// views lent to the scheduler, the snapshot's `(job id, pool position)`
    /// pairs sorted by id, for a decision that does not list its jobs in
    /// pool order (see [`SimState::locate`]), and whether the commit placed
    /// the job at each pool position.
    views: Vec<RegionView>,
    offered: Vec<(JobId, usize)>,
    placed: Vec<bool>,
    pub(crate) overhead: Vec<OverheadSample>,
    pub(crate) completed: usize,
    pub(crate) last_time: f64,
    first_time: f64,
    /// The instant of the last round opened.
    round_at: f64,
}

impl<'t> SimState<'t> {
    /// An engine state preloaded with a whole trace, replayed in
    /// `(submit time, trace index)` order. A trace already in that order is
    /// borrowed, not copied; any other is copied and the copy stably sorted
    /// once, here, so rounds pull in the jobs in that order. The first round
    /// is queued at the earliest submit time.
    /// A duplicate id would leave one twin pending forever (assignments are
    /// keyed by job id), a non-finite submit time has no place in the event
    /// order, a negative execution time would complete a job before it
    /// starts, and a non-finite estimate would price every round holding the
    /// job out of the scheduler's model, so a malformed trace is rejected
    /// here with a typed error.
    pub(crate) fn new(
        config: &SimulationConfig,
        jobs: &'t [JobSpec],
    ) -> Result<Self, SimulationError> {
        // One pass over the trace for the four facts preloading needs —
        // ids strictly increase (so none repeats), every submit time is
        // finite, every job is admissible (see `rejection`), the trace is in
        // submit order — instead of one pass each. Only a trace that fails
        // one pays for the search behind it.
        let submit = |job: &JobSpec| job.submit_time.value();
        let mut finite = jobs.first().is_none_or(|job| submit(job).is_finite());
        let mut admissible = jobs.first().is_none_or(|job| rejection(job).is_none());
        let (mut ids_increase, mut in_order) = (true, true);
        for pair in jobs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            finite &= submit(b).is_finite();
            admissible &= rejection(b).is_none();
            ids_increase &= a.id < b.id;
            in_order &= submit(a).total_cmp(&submit(b)).is_le();
        }
        let duplicate = if ids_increase {
            None
        } else {
            duplicate_id(jobs)
        };
        if let Some(id) = duplicate {
            return Err(SimulationError::DuplicateJobId { id });
        }
        let non_finite = if finite {
            None
        } else {
            jobs.iter().position(|job| !submit(job).is_finite())
        };
        if let Some(i) = non_finite {
            return Err(SimulationError::NonFiniteEventTime {
                time: submit(&jobs[i]),
                event: arrival_of(&jobs[i]),
            });
        }
        let rejected = if admissible {
            None
        } else {
            jobs.iter().find_map(rejection)
        };
        if let Some(err) = rejected {
            return Err(err);
        }
        let mut state = Self::empty(config);
        // Checked first: a stable sort allocates its scratch (half the trace)
        // before it notices there is nothing to do.
        state.jobs = if in_order {
            Cow::Borrowed(jobs)
        } else {
            let mut sorted = jobs.to_vec();
            sorted.sort_by(|a, b| submit(a).total_cmp(&submit(b)));
            Cow::Owned(sorted)
        };
        state.unpulled = 0..jobs.len();
        if let Some(first) = state.jobs.first() {
            state.start_rounds(submit(first))?;
        }
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
        // A validated configuration lists each of the five regions at most
        // once, so every position fits a byte.
        for (position, r) in regions.iter().enumerate() {
            region_slot[r.region.index()] = Some(position as u8);
        }
        Self {
            jobs: Cow::Owned(Vec::new()),
            seen_ids: BTreeSet::new(),
            unpulled: 0..0,
            admission: VecDeque::new(),
            views: Vec::with_capacity(regions.len()),
            regions,
            region_slot,
            queue: EventQueue::default(),
            interval: config.scheduling_interval.value(),
            tolerance: config.delay_tolerance,
            in_flight: InFlight::default(),
            pending: Vec::new(),
            pending_index: Vec::new(),
            offered: Vec::new(),
            placed: Vec::new(),
            overhead: Vec::new(),
            completed: 0,
            last_time: 0.0,
            first_time: 0.0,
            round_at: f64::NEG_INFINITY,
        }
    }

    /// Admit one injected job: validate its id, submit time, execution time
    /// and estimates, append it to the job table, and buffer it under the
    /// caller-chosen arrival sequence, which orders it among the jobs that
    /// tie its stamp.
    /// The first job also starts the round chain at its own submit time.
    pub(crate) fn push_job(
        &mut self,
        spec: JobSpec,
        arrival_seq: u64,
    ) -> Result<(), SimulationError> {
        if !self.seen_ids.insert(spec.id) {
            return Err(SimulationError::DuplicateJobId { id: spec.id });
        }
        let (index, time) = (self.jobs.len(), spec.submit_time.value());
        if !time.is_finite() {
            return Err(SimulationError::NonFiniteEventTime {
                time,
                event: arrival_of(&spec),
            });
        }
        if let Some(err) = rejection(&spec) {
            return Err(err);
        }
        self.jobs.to_mut().push(spec);
        let key = u128::from(time_key(time)) << 64 | u128::from(arrival_seq);
        let at = self.admission.partition_point(|&(queued, _)| queued < key);
        self.admission.insert(at, (key, index));
        if index == 0 {
            self.start_rounds(time)?;
        }
        Ok(())
    }

    /// Queue the first round at the first job's submit time, where the
    /// campaign's clock starts.
    fn start_rounds(&mut self, time: f64) -> Result<(), SimulationError> {
        self.first_time = time;
        self.last_time = time;
        self.push(time, Event::Round)
    }

    /// Enqueue `event` at `time` with the next sequence number. A NaN or
    /// infinite `time` fails the run with
    /// [`SimulationError::NonFiniteEventTime`], naming the job by its trace
    /// id.
    fn push(&mut self, time: f64, event: Event) -> Result<(), SimulationError> {
        self.queue
            .push(time, event)
            .map_err(|_| SimulationError::NonFiniteEventTime {
                time,
                event: event.describe(|slot| self.jobs[self.in_flight.rows[slot].job].id),
            })
    }

    /// Queue the round after the one at `now`.
    pub(crate) fn arm_next_round(&mut self, now: f64) -> Result<(), SimulationError> {
        self.push(now + self.interval, Event::Round)
    }

    /// Open the round at `now`: pull in the jobs that arrived by then.
    ///
    /// A round at the previous round's instant was re-armed by an interval
    /// too small to move the clock, and would re-arm there forever, so it
    /// fails the run instead. It fails as it fires, after the events already
    /// due at that instant: an earlier error in event order surfaces first.
    pub(crate) fn open_round(&mut self, now: f64) -> Result<(), SimulationError> {
        if now.total_cmp(&self.round_at).is_le() {
            return Err(SimulationError::SchedulingIntervalBelowClockResolution {
                time: now,
                interval: self.interval,
            });
        }
        self.round_at = now;
        self.pull_arrivals(now);
        Ok(())
    }

    /// Move every admitted job stamped at or before `now` (in
    /// [`f64::total_cmp`] order) into the pending pool, in `(stamp,
    /// sequence)` order: the round at `now` sees each job that arrived by
    /// then, and a job that ties the round joins it. A preloaded job is read
    /// from the trace here.
    fn pull_arrivals(&mut self, now: f64) {
        let until = time_key(now);
        let due = self.jobs[self.unpulled.clone()]
            .iter()
            .take_while(|job| time_key(job.submit_time.value()) <= until)
            .count();
        for i in self.unpulled.start..self.unpulled.start + due {
            self.join_pool(i);
        }
        self.unpulled.start += due;
        while let Some(&(key, i)) = self.admission.front() {
            if (key >> 64) as u64 > until {
                break;
            }
            self.admission.pop_front();
            self.join_pool(i);
        }
    }

    /// Job `i` joins the pending pool, received at its submit time.
    fn join_pool(&mut self, i: usize) {
        let spec = self.jobs[i].clone();
        self.pending.push(PendingJob {
            received_at: spec.submit_time,
            spec,
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
    /// every job left pending, and schedule the next round. Each placement
    /// takes a slot of the in-flight table for the job's runtime row, and its
    /// `Ready` event carries that slot.
    ///
    /// Nothing joins the pool between a round's snapshot and its commit, so
    /// the pool at commit is the snapshot. The decision's `Ready` events are
    /// queued in the order it lists them, and the next round after them.
    /// A decision that lists its jobs in pool order (every
    /// baseline, and WaterWise whenever its slack manager keeps the whole
    /// pool) is matched by walking the pool beside it; see
    /// [`SimState::locate`].
    /// The placements actually enacted are appended to `enacted` (in
    /// decision order) when the run has someone to notify of them; an
    /// offline replay passes `None`.
    pub(crate) fn commit_round(
        &mut self,
        decision: &SchedulingDecision,
        now: f64,
        config: &SimulationConfig,
        mut enacted: Option<&mut Vec<EnactedPlacement>>,
    ) -> Result<(), SimulationError> {
        let mut walk = Some(0);
        self.placed.clear();
        self.placed.resize(self.pending.len(), false);
        for a in &decision.assignments {
            let Some(at) = self.locate(a.job, &mut walk) else {
                continue; // Unknown or already-scheduled job id: ignore.
            };
            let Some(pool) = self.region_slot[a.region.index()] else {
                continue; // Not a participating region.
            };
            if self.placed[at] {
                continue; // Listed twice: the first placement stands.
            }
            self.placed[at] = true;
            let i = self.pending_index[at];
            let transfer_time = config
                .transfer
                .transfer_time(
                    self.jobs[i].home_region,
                    a.region,
                    self.jobs[i].package_bytes,
                )
                .value();
            let slot = self.in_flight.insert(JobRuntime {
                job: i,
                transfer_time,
                start_time: f64::NAN,
                region: a.region,
                pool,
            });
            self.regions[usize::from(pool)].inbound += 1;
            self.push(now + transfer_time, Event::Ready(slot))?;
            if let Some(enacted) = enacted.as_deref_mut() {
                enacted.push(EnactedPlacement {
                    job: i,
                    region: a.region,
                    transfer_time,
                    deferrals: self.pending[at].deferrals,
                });
            }
        }
        // Drop the placed jobs from the pool; every job that stayed was
        // offered this round and counts one more deferral.
        let mut placed = self.placed.iter();
        self.pending.retain_mut(|job| {
            let stays = placed.next() == Some(&false);
            if stays {
                job.deferrals += 1;
            }
            stays
        });
        let mut placed = self.placed.iter();
        self.pending_index.retain(|_| placed.next() == Some(&false));
        if self.completed < self.jobs.len() {
            self.arm_next_round(now)?;
        }
        Ok(())
    }

    /// The position of `job` in the pool, if it is there. `walk` is where
    /// the previous lookup left off while a decision lists its jobs in pool
    /// order: the job is sought from there on, so a decision in pool order
    /// costs one pass over the pool. At the first job not found ahead —
    /// listed out of pool order, twice, or not offered at all — `walk`
    /// becomes `None` and every lookup from then on binary-searches the
    /// pool's `(id, position)` pairs, sorted once here. Ids are unique in
    /// the pool, so both find the same position.
    fn locate(&mut self, job: JobId, walk: &mut Option<usize>) -> Option<usize> {
        if let Some(from) = *walk {
            let ahead = &self.pending[from..];
            if let Some(k) = ahead.iter().position(|p| p.spec.id == job) {
                *walk = Some(from + k + 1);
                return Some(from + k);
            }
            *walk = None;
            let pool = self.pending.iter().enumerate();
            self.offered.clear();
            self.offered.extend(pool.map(|(at, p)| (p.spec.id, at)));
            self.offered.sort_unstable();
        }
        let hit = self
            .offered
            .binary_search_by_key(&job, |&(id, _)| id)
            .ok()?;
        Some(self.offered[hit].1)
    }

    /// The job in flight in `slot` takes a server at `time`: its completion
    /// is queued at `time + execution time`.
    fn start(&mut self, slot: usize, time: f64) -> Result<(), SimulationError> {
        let row = &mut self.in_flight.rows[slot];
        row.start_time = time;
        let done = time + self.jobs[row.job].actual_execution_time.value();
        self.push(done, Event::Complete(slot))
    }

    /// The package transfer of the job in flight in `slot` completed: start
    /// it or queue it in its assigned region.
    pub(crate) fn handle_ready(&mut self, slot: usize, time: f64) -> Result<(), SimulationError> {
        let region = &mut self.regions[usize::from(self.in_flight.rows[slot].pool)];
        region.advance_to(time);
        region.inbound = region.inbound.saturating_sub(1);
        if region.busy < region.servers {
            region.busy += 1;
            self.start(slot, time)
        } else {
            region.queue.push_back(slot);
            Ok(())
        }
    }

    /// The job in flight in `slot` finished executing at `time`: free the
    /// server (or admit the next queued job) and the slot, and return the
    /// job's runtime row for footprint accounting.
    pub(crate) fn handle_complete(
        &mut self,
        slot: usize,
        time: f64,
    ) -> Result<JobRuntime, SimulationError> {
        let row = self.in_flight.remove(slot);
        let region = &mut self.regions[usize::from(row.pool)];
        region.advance_to(time);
        self.completed += 1;
        // Free the server and admit the next queued job, if any.
        match region.queue.pop_front() {
            Some(next) => self.start(next, time)?,
            None => region.busy -= 1,
        }
        Ok(row)
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

/// How an error names the arrival of `job`: by its trace id.
fn arrival_of(job: &JobSpec) -> String {
    format!("arrival of job {}", job.id.0)
}

/// Why `job` cannot be admitted, if it cannot. A finite negative execution
/// time would complete it before it starts; a NaN or infinite one is left to
/// the event queue, which rejects the completion it stamps as non-finite. A
/// non-finite estimated execution time or energy makes every cost the
/// scheduler derives from it non-finite, so every round holding the job
/// would defer its whole batch.
fn rejection(job: &JobSpec) -> Option<SimulationError> {
    let time = job.actual_execution_time.value();
    if time < 0.0 && time.is_finite() {
        return Some(SimulationError::NegativeExecutionTime { job: job.id, time });
    }
    let estimates = [
        (
            "estimated_execution_time",
            job.estimated_execution_time.value(),
        ),
        ("estimated_energy", job.estimated_energy.value()),
    ];
    let (field, value) = estimates
        .into_iter()
        .find(|(_, value)| !value.is_finite())?;
    Some(SimulationError::NonFiniteEstimate {
        job: job.id,
        field,
        value,
    })
}

/// A job id the trace carries twice, if there is one: a sort and an adjacent
/// scan instead of a set insert per job. [`SimState::new`] asks only about a
/// trace whose ids do not strictly increase; every generator's output does.
fn duplicate_id(jobs: &[JobSpec]) -> Option<JobId> {
    let mut ids: Vec<JobId> = jobs.iter().map(|job| job.id).collect();
    ids.sort_unstable();
    ids.windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0])
}

/// Run one `Scheduler::schedule` call over a round snapshot, timing it and
/// attributing the solver work spent during the call (solves, pivots,
/// nodes): the per-round `OverheadSample::solver` delta.
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
    #[expect(
        clippy::disallowed_methods,
        reason = "DET002: OverheadSample wall_clock timing capture; scrubbed from schedules by without_wall_clock"
    )]
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
    /// source, clock or placement sink exists on this path.
    ///
    /// Fails if the trace contains duplicate job ids, a negative execution
    /// time ([`SimulationError::NegativeExecutionTime`]) or a non-finite
    /// estimate ([`SimulationError::NonFiniteEstimate`]), or if the trace or
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
    /// preloaded trace: jobs taken from `arrivals` are injected into the
    /// running event loop, and every enacted placement is handed to
    /// `placements` as it commits, on the caller's thread. See [`online`]
    /// for the pacing rules ([`clock::ClockMode`]) and the determinism
    /// guarantee (the recorded trace replays offline to the byte-identical
    /// schedule).
    ///
    /// Each arrival carries a caller-allocated sequence number
    /// ([`online::SequencedJob`]) that breaks exact-timestamp ties, so tie
    /// order never depends on which thread's submission happened to reach
    /// the source first: `waterwise-service` partitions the band per
    /// session (`session << 32 | request index`), and the identical
    /// schedule is reproduced by re-injecting the journaled `(spec, seq)`
    /// pairs in any order. A single-stream caller simply numbers its
    /// arrivals `0, 1, 2, …` in receipt order.
    ///
    /// Sequences must be unique and strictly below
    /// [`online::ONLINE_ARRIVAL_SEQ_LIMIT`]; violations fail the run with
    /// [`SimulationError::ArrivalSeqOutOfBand`] /
    /// [`SimulationError::ArrivalSeqReused`]. The sink cannot refuse a
    /// notice: what becomes of it — delivered, dropped with a dead session,
    /// collected by a journal replay — is the caller's business, and the run
    /// goes on either way.
    pub fn run_online_sequenced(
        &self,
        scheduler: &mut dyn Scheduler,
        arrivals: &mut dyn online::ArrivalSource,
        placements: &mut dyn FnMut(online::PlacementNotice),
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

    /// Footprint accounting for one job whose `Complete` event fired at
    /// `completion_time`: the totals of its execution and transfer
    /// footprints under the conditions at the job's start time, and the
    /// service-time verdict. The totals come from the estimator's split
    /// (`embodied` + `totals`, with zero embodied terms for the transfer),
    /// which carries the bits of `estimate` and `estimate_operational`
    /// without building either breakdown. The outcome keeps no completion
    /// time: [`JobOutcome::completion_time`] derives the event's.
    pub(crate) fn record_outcome(
        &self,
        job: &JobSpec,
        runtime: &JobRuntime,
        completion_time: f64,
        tolerance: f64,
    ) -> JobOutcome {
        let region = runtime.region;
        let start = Seconds::new(runtime.start_time);
        let conditions = self.provider.conditions(region, start);
        let totals = |embodied, energy| {
            let (carbon, water) = self.estimator.totals(energy, embodied, conditions);
            FootprintTotals {
                carbon: Co2Grams::new(carbon),
                water: Liters::new(water),
            }
        };
        let embodied = self.estimator.embodied(job.actual_execution_time);
        let footprint = totals(embodied, job.actual_energy);
        let transfer_footprint = if region == job.home_region {
            FootprintTotals::default()
        } else {
            let energy =
                self.config
                    .transfer
                    .transfer_energy(job.home_region, region, job.package_bytes);
            // The transfer consumes energy along the path; attribute it to the
            // destination region's conditions and exclude embodied terms.
            totals((Co2Grams::zero(), Liters::zero()), energy)
        };
        let mut outcome = JobOutcome {
            job: job.id,
            home_region: job.home_region,
            executed_region: region,
            submit_time: job.submit_time,
            start_time: start,
            execution_time: job.actual_execution_time,
            footprint,
            transfer_footprint,
            transfer_time: Seconds::new(runtime.transfer_time),
            violated_tolerance: false,
        };
        debug_assert_eq!(
            outcome.completion_time().value().to_bits(),
            completion_time.to_bits(),
            "job {} completed off its start + execution time",
            job.id.0
        );
        let allowed = (1.0 + tolerance) * job.actual_execution_time.value();
        outcome.violated_tolerance = outcome.service_time().value() > allowed + 1e-6;
        outcome
    }
}
