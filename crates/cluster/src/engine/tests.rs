//! Engine unit tests: replay behavior, typed error paths, trace order, and
//! the live source's identity with an offline replay.

use super::*;
use crate::scheduler::Assignment;
use waterwise_telemetry::SyntheticTelemetry;
use waterwise_traces::{TraceConfig, TraceGenerator};

/// A trivial scheduler that always sends every pending job to its home
/// region immediately (the paper's Baseline).
struct HomeScheduler;
impl Scheduler for HomeScheduler {
    fn name(&self) -> &str {
        "home"
    }
    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        SchedulingDecision {
            assignments: ctx
                .pending
                .iter()
                .map(|p| Assignment {
                    job: p.spec.id,
                    region: p.spec.home_region,
                })
                .collect(),
        }
    }
}

/// A scheduler that sends everything to one region, to exercise queueing.
struct PinScheduler(Region);
impl Scheduler for PinScheduler {
    fn name(&self) -> &str {
        "pin"
    }
    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        SchedulingDecision {
            assignments: ctx
                .pending
                .iter()
                .map(|p| Assignment {
                    job: p.spec.id,
                    region: self.0,
                })
                .collect(),
        }
    }
}

fn small_trace(seed: u64) -> Vec<JobSpec> {
    TraceGenerator::new(TraceConfig::borg(0.05, seed)).generate()
}

fn hand_built_job(submit_time: f64, execution_time: f64) -> JobSpec {
    use waterwise_sustain::KilowattHours;
    use waterwise_traces::Benchmark;
    JobSpec {
        id: JobId(0),
        benchmark: Benchmark::Dedup,
        submit_time: Seconds::new(submit_time),
        home_region: Region::Oregon,
        actual_execution_time: Seconds::new(execution_time),
        actual_energy: KilowattHours::new(0.01),
        estimated_execution_time: Seconds::new(execution_time),
        estimated_energy: KilowattHours::new(0.01),
        package_bytes: 1,
    }
}

fn simulator(servers: usize, tolerance: f64) -> Simulator<SyntheticTelemetry> {
    Simulator::new(
        SimulationConfig::paper_default(servers, tolerance),
        SyntheticTelemetry::with_seed(1),
    )
    .unwrap()
}

#[test]
fn every_job_completes_exactly_once() {
    let jobs = small_trace(3);
    let report = simulator(50, 0.5).run(&jobs, &mut HomeScheduler).unwrap();
    assert_eq!(report.summary.total_jobs, jobs.len());
    assert_eq!(report.outcomes.len(), jobs.len());
    let mut ids: Vec<u64> = report.outcomes.iter().map(|o| o.job.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), jobs.len());
}

#[test]
fn home_scheduler_never_migrates_and_never_violates_generously() {
    let jobs = small_trace(5);
    let report = simulator(200, 1.0).run(&jobs, &mut HomeScheduler).unwrap();
    assert_eq!(report.summary.migration_fraction, 0.0);
    // With ample capacity and no migration, the only delay is the
    // scheduling-round granularity, so violations should be rare.
    assert!(report.summary.violation_fraction < 0.2);
    assert!(report.summary.mean_service_stretch >= 1.0);
}

#[test]
fn service_time_is_at_least_execution_time() {
    let jobs = small_trace(7);
    let report = simulator(50, 0.5).run(&jobs, &mut HomeScheduler).unwrap();
    for o in &report.outcomes {
        assert!(o.service_time().value() >= o.execution_time.value() - 1e-6);
        assert!(o.completion_time.value() > o.start_time.value());
        assert!(o.start_time.value() >= o.submit_time.value());
    }
}

#[test]
fn footprints_are_positive() {
    let jobs = small_trace(9);
    let report = simulator(50, 0.5).run(&jobs, &mut HomeScheduler).unwrap();
    assert!(report.summary.total_carbon.value() > 0.0);
    assert!(report.summary.total_water.value() > 0.0);
    for o in &report.outcomes {
        assert!(o.footprint.total_carbon().value() > 0.0);
        assert!(o.footprint.total_water().value() > 0.0);
    }
}

#[test]
fn pinning_to_a_tiny_region_queues_jobs_and_stretches_service_time() {
    let jobs = small_trace(11);
    // Only 2 servers per region: pinning everything to Zurich must queue.
    let report = simulator(2, 0.25)
        .run(&jobs, &mut PinScheduler(Region::Zurich))
        .unwrap();
    assert!(report.summary.migration_fraction > 0.5);
    assert!(report.summary.mean_service_stretch > 1.0);
    assert_eq!(
        report.summary.jobs_per_region[Region::Zurich.index()],
        jobs.len()
    );
    // Capacity is never exceeded: utilization cannot exceed 1.
    assert!(report.summary.mean_utilization <= 1.0 + 1e-9);
}

#[test]
fn migrated_jobs_carry_transfer_overhead() {
    let jobs = small_trace(13);
    let report = simulator(20, 0.5)
        .run(&jobs, &mut PinScheduler(Region::Mumbai))
        .unwrap();
    let migrated: Vec<_> = report.outcomes.iter().filter(|o| o.migrated()).collect();
    assert!(!migrated.is_empty());
    for o in migrated {
        assert!(o.transfer_time.value() > 0.0);
        assert!(o.transfer_footprint.total_carbon().value() > 0.0);
        // Transfer overhead must be small relative to execution (Table 3).
        assert!(
            o.transfer_footprint.total_carbon().value() < 0.1 * o.footprint.total_carbon().value()
        );
    }
}

#[test]
fn overhead_samples_are_recorded() {
    let jobs = small_trace(15);
    let report = simulator(50, 0.5).run(&jobs, &mut HomeScheduler).unwrap();
    assert!(!report.overhead.is_empty());
    assert!(report.summary.mean_decision_time.value() >= 0.0);
    assert!(report.summary.decision_overhead_fraction < 0.01);
}

#[test]
fn empty_trace_is_handled() {
    let report = simulator(10, 0.5).run(&[], &mut HomeScheduler).unwrap();
    assert_eq!(report.summary.total_jobs, 0);
    assert_eq!(report.outcomes.len(), 0);
}

#[test]
fn nan_submit_time_is_rejected_at_insertion() {
    let jobs = vec![hand_built_job(f64::NAN, 100.0)];
    let sim = simulator(10, 0.5);
    let err = sim.run(&jobs, &mut HomeScheduler).unwrap_err();
    assert!(matches!(
        err,
        SimulationError::NonFiniteEventTime { time, ref event }
            if time.is_nan() && event.contains("arrival")
    ));
}

#[test]
fn non_finite_execution_time_is_rejected_at_insertion() {
    for bad in [f64::NAN, f64::INFINITY] {
        let jobs = vec![hand_built_job(0.0, bad)];
        let sim = simulator(10, 0.5);
        let err = sim.run(&jobs, &mut HomeScheduler).unwrap_err();
        assert!(
            matches!(
                err,
                SimulationError::NonFiniteEventTime { ref event, .. }
                    if event.contains("completion")
            ),
            "execution time {bad} should be rejected, got {err:?}"
        );
    }
}

#[test]
fn duplicate_job_ids_fail_the_campaign_with_a_typed_error() {
    // Two jobs sharing an id would leave one twin unschedulable forever
    // (assignments are keyed by id); the engine must reject the trace
    // instead of spinning or panicking.
    let mut a = hand_built_job(0.0, 50.0);
    let mut b = hand_built_job(10.0, 60.0);
    a.id = JobId(7);
    b.id = JobId(7);
    let jobs = [a, b];
    let sim = simulator(10, 0.5);
    let err = sim.run(&jobs, &mut HomeScheduler).unwrap_err();
    assert!(matches!(
        err,
        SimulationError::DuplicateJobId { id: JobId(7) }
    ));
}

#[test]
fn duplicate_ids_are_found_in_any_order() {
    let trace = |ids: &[u64]| -> Vec<JobSpec> {
        let job = |(i, &id): (usize, &u64)| JobSpec {
            id: JobId(id),
            ..hand_built_job(i as f64, 60.0)
        };
        ids.iter().enumerate().map(job).collect()
    };
    // Strictly increasing ids (what every generator emits) have no twin.
    assert_eq!(duplicate_id(&trace(&[0, 1, 5, 9])), None);
    assert_eq!(duplicate_id(&trace(&[])), None);
    // Out of order, with and without a twin that is not a neighbour.
    assert_eq!(duplicate_id(&trace(&[4, 2, 9, 3])), None);
    assert_eq!(duplicate_id(&trace(&[7, 3, 9, 7])), Some(JobId(7)));
    assert_eq!(duplicate_id(&trace(&[1, 2, 2, 3])), Some(JobId(2)));
    let jobs = trace(&[7, 3, 9, 7]);
    let sim = simulator(10, 0.5);
    let err = sim.run(&jobs, &mut HomeScheduler).unwrap_err();
    assert!(matches!(
        err,
        SimulationError::DuplicateJobId { id: JobId(7) }
    ));
}

#[test]
fn invalid_config_surfaces_as_typed_error() {
    let err = Simulator::new(
        SimulationConfig::paper_default(0, 0.5),
        SyntheticTelemetry::with_seed(1),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        SimulationError::Config(crate::error::ConfigError::EmptyRegion { .. })
    ));
}

#[test]
fn deferring_scheduler_eventually_everything_still_completes() {
    /// Defers everything for the first few rounds, then behaves like home.
    struct LazyScheduler {
        rounds: u32,
    }
    impl Scheduler for LazyScheduler {
        fn name(&self) -> &str {
            "lazy"
        }
        fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
            self.rounds += 1;
            if self.rounds <= 3 {
                SchedulingDecision::defer_all()
            } else {
                SchedulingDecision {
                    assignments: ctx
                        .pending
                        .iter()
                        .map(|p| Assignment {
                            job: p.spec.id,
                            region: p.spec.home_region,
                        })
                        .collect(),
                }
            }
        }
    }
    let jobs = small_trace(17);
    let report = simulator(50, 0.5)
        .run(&jobs, &mut LazyScheduler { rounds: 0 })
        .unwrap();
    assert_eq!(report.summary.total_jobs, jobs.len());
    // Deferral shows up as extra waiting time.
    assert!(report.summary.mean_service_stretch >= 1.0);
}

// ---------------------------------------------------------------------------
// Trace order
// ---------------------------------------------------------------------------

/// A Borg-like trace with its submit times snapped to the 60 s round grid
/// (so arrivals tie with each other and with rounds), in an order that is
/// neither sorted nor reversed.
fn shuffled_trace(seed: u64) -> Vec<JobSpec> {
    let mut jobs = small_trace(seed);
    for job in &mut jobs {
        job.submit_time = Seconds::new((job.submit_time.value() / 60.0).floor() * 60.0);
    }
    // A fixed scramble: order by a multiplicative hash of the (unique) ids.
    jobs.sort_by_key(|job| (job.id.0 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    jobs
}

fn stable_sorted(jobs: &[JobSpec]) -> Vec<JobSpec> {
    let mut twin = jobs.to_vec();
    twin.sort_by(|a, b| a.submit_time.value().total_cmp(&b.submit_time.value()));
    twin
}

#[test]
fn a_shuffled_trace_replays_as_its_stable_sorted_twin() {
    // `Simulator::run` takes a trace in any order and replays it in
    // (submit time, trace index) order — which is the order of the stably
    // sorted trace, ties included, so the two reports are the same report.
    let shuffled = shuffled_trace(47);
    let twin = stable_sorted(&shuffled);
    assert!(
        shuffled[0].submit_time > twin[0].submit_time,
        "the fixture must not even start with its earliest job"
    );
    assert!(
        twin.windows(2)
            .any(|w| w[0].submit_time == w[1].submit_time),
        "the fixture must tie arrivals"
    );
    let sim = simulator(4, 0.5);
    let of_shuffled = sim.run(&shuffled, &mut HomeScheduler).unwrap();
    let of_twin = sim.run(&twin, &mut HomeScheduler).unwrap();
    assert_reports_identical(&of_twin, &of_shuffled);
    assert_eq!(of_shuffled.summary.total_jobs, shuffled.len());
}

#[test]
fn an_unsorted_trace_is_sorted_once_at_preload_not_by_the_queue() {
    // The worst case for ordered inserts — every arrival ahead of all the
    // ones before it — never reaches the queue: the state's copy of the
    // trace is sorted at preload and the queue is handed its head alone.
    let reversed: Vec<JobSpec> = stable_sorted(&shuffled_trace(53))
        .into_iter()
        .rev()
        .collect();
    let config = SimulationConfig::paper_default(10, 0.5);
    let mut state = SimState::new(&config, &reversed).unwrap();
    assert!(matches!(state.jobs, Cow::Owned(_)));
    assert_eq!(state.jobs, stable_sorted(&reversed));
    let first = state.jobs[0].submit_time.value();
    let head = state.queue.pop().unwrap();
    assert_eq!(
        (head.time, head.seq, head.event),
        (first, 0, Event::Arrival(0))
    );
    let round = state.queue.pop().unwrap();
    assert_eq!((round.time, round.event), (first, Event::Round));
    assert!(
        state.queue.pop().is_none(),
        "the trace beyond its head was queued"
    );
}

#[test]
fn a_sorted_trace_is_borrowed_not_copied() {
    let jobs = small_trace(59);
    let config = SimulationConfig::paper_default(10, 0.5);
    let state = SimState::new(&config, &jobs).unwrap();
    assert!(
        matches!(state.jobs, Cow::Borrowed(table) if std::ptr::eq(table, &jobs[..])),
        "the engine copied a trace already in submit order"
    );
}

// ---------------------------------------------------------------------------
// Report identity
// ---------------------------------------------------------------------------

/// Compare two reports for logical identity: schedules, outcomes, and
/// everything deterministic about the overhead samples (wall-clock timings
/// are measurements and may differ).
#[track_caller]
fn assert_reports_identical(expected: &SimulationReport, actual: &SimulationReport) {
    assert_eq!(expected.outcomes, actual.outcomes);
    assert_eq!(expected.makespan, actual.makespan);
    assert_eq!(
        format!("{:?}", expected.summary.without_wall_clock()),
        format!("{:?}", actual.summary.without_wall_clock()),
    );
    assert_eq!(expected.overhead.len(), actual.overhead.len());
    for (a, b) in expected.overhead.iter().zip(&actual.overhead) {
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.batch_size, b.batch_size);
        assert_eq!(a.solver, b.solver);
    }
}

#[test]
fn the_summary_folded_at_completion_is_from_outcomes_to_the_bit() {
    // Pinning everything to two Zurich servers migrates, queues and
    // violates: every aggregate of the summary is exercised.
    let jobs = small_trace(61);
    let bits = |s: &CampaignSummary| {
        (
            s.total_jobs,
            [
                s.total_carbon.value(),
                s.total_water.value(),
                s.mean_service_stretch,
                s.violation_fraction,
                s.migration_fraction,
                s.mean_utilization,
                s.mean_decision_time.value(),
                s.decision_overhead_fraction,
            ]
            .map(f64::to_bits),
            s.jobs_per_region,
            s.solver,
        )
    };
    let sim = simulator(2, 0.25);
    let report = sim.run(&jobs, &mut PinScheduler(Region::Zurich)).unwrap();
    let folded = &report.summary;
    assert!(folded.violation_fraction > 0.0 && folded.migration_fraction > 0.0);
    let refolded =
        CampaignSummary::from_outcomes(&report.outcomes, &report.overhead, folded.mean_utilization);
    assert_eq!(bits(folded), bits(&refolded));
}

#[test]
fn a_decision_can_never_reach_jobs_that_arrived_after_its_snapshot() {
    /// An adversarial scheduler that knows every job id in the trace and
    /// claims all of them every round — including ids the engine has not
    /// offered it yet. The engine must ignore the premature assignments
    /// (commits match the snapshot prefix of the pending pool only) and
    /// place each job once it has been offered.
    struct OmniscientScheduler {
        all_ids: Vec<JobId>,
    }
    impl Scheduler for OmniscientScheduler {
        fn name(&self) -> &str {
            "omniscient"
        }
        fn schedule(&mut self, _ctx: &SchedulingContext<'_>) -> SchedulingDecision {
            SchedulingDecision {
                assignments: self
                    .all_ids
                    .iter()
                    .map(|&job| Assignment {
                        job,
                        region: Region::Zurich,
                    })
                    .collect(),
            }
        }
    }
    let jobs = small_trace(37);
    let all_ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
    let report = simulator(30, 0.5)
        .run(&jobs, &mut OmniscientScheduler { all_ids })
        .unwrap();
    assert_eq!(report.summary.total_jobs, jobs.len());
    for o in &report.outcomes {
        // A premature assignment would have started the job before it was
        // submitted.
        assert!(o.start_time >= o.submit_time, "{o:?}");
        assert_eq!(o.executed_region, Region::Zurich);
    }
}

#[test]
fn scheduler_panic_keeps_its_payload() {
    /// Places like [`HomeScheduler`] until its third round, then panics.
    struct PanickingScheduler {
        rounds: u32,
    }
    impl Scheduler for PanickingScheduler {
        fn name(&self) -> &str {
            "panicking"
        }
        fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
            self.rounds += 1;
            if self.rounds == 3 {
                panic!("scheduler exploded on round 3");
            }
            HomeScheduler.schedule(ctx)
        }
    }
    let jobs = small_trace(43);
    let sim = simulator(50, 0.5);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run(&jobs, &mut PanickingScheduler { rounds: 0 })
    }))
    .expect_err("the scheduler's panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("scheduler exploded on round 3"),
    );
}

// ---------------------------------------------------------------------------
// Live source: live injection must be decision-identical to offline replay.

mod online_driver {
    use super::*;
    use crate::engine::clock::ClockMode;
    use crate::engine::online::{OnlineReport, PlacementNotice, SequencedJob};
    use std::sync::mpsc::Receiver;

    /// Buffer `jobs` as a closed arrival stream, each sequenced by its
    /// receipt index — what a single feeder hands the driver.
    fn sequenced_stream(jobs: &[JobSpec]) -> Receiver<SequencedJob> {
        let (tx, rx) = std::sync::mpsc::sync_channel(jobs.len().max(1));
        for (index, spec) in jobs.iter().cloned().enumerate() {
            tx.send(SequencedJob {
                spec,
                seq: index as u64,
            })
            .unwrap();
        }
        rx
    }

    /// Feed `jobs` through the online driver in submission order (the whole
    /// stream is buffered up front, which a bounded channel permits because
    /// the driver drains while running) and collect the report plus every
    /// placement notice.
    fn run_online_with(
        sim: &Simulator<SyntheticTelemetry>,
        scheduler: &mut dyn Scheduler,
        jobs: &[JobSpec],
        clock: ClockMode,
    ) -> (OnlineReport, Vec<PlacementNotice>) {
        let (notice_tx, notice_rx) = std::sync::mpsc::sync_channel(jobs.len() + 4);
        let report = sim
            .run_online_sequenced(scheduler, sequenced_stream(jobs), notice_tx, clock)
            .unwrap();
        let notices: Vec<_> = notice_rx.iter().collect();
        (report, notices)
    }

    #[test]
    fn discrete_online_run_matches_offline_replay() {
        let jobs = small_trace(11);
        let sim = simulator(50, 0.5);
        let offline = sim.run(&jobs, &mut HomeScheduler).unwrap();
        let (online, notices) =
            run_online_with(&sim, &mut HomeScheduler, &jobs, ClockMode::Discrete);
        assert_eq!(online.trace, jobs, "discrete stamps must keep the trace");
        assert_eq!(online.report.outcomes, offline.outcomes);
        assert_eq!(online.report.makespan, offline.makespan);
        assert_eq!(
            online.report.summary.without_wall_clock(),
            offline.summary.without_wall_clock()
        );
        // Every job is placed exactly once and notified with its region.
        assert_eq!(notices.len(), jobs.len());
        let mut ids: Vec<u64> = notices.iter().map(|n| n.job.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
        for notice in &notices {
            assert_eq!(
                notice.projected_start.value(),
                notice.decided_at.value() + notice.transfer_time.value()
            );
        }
    }

    #[test]
    fn offline_replay_is_the_live_loop_over_a_closed_source() {
        // Every submit, round, readiness (home placements transfer in zero
        // time) and completion lands on a multiple of the 60 s scheduling
        // interval, and two Oregon servers force queueing: the densest
        // exact-timestamp ties the two sequence layouts (offline: arrivals
        // 0..n then rounds; live: low band vs 2^48 floor) must agree on.
        let jobs: Vec<JobSpec> = (0..48u64)
            .map(|i| {
                let mut job = hand_built_job((i / 6) as f64 * 60.0, (1 + i % 4) as f64 * 60.0);
                job.id = JobId(1000 - i);
                job
            })
            .collect();
        let sim = simulator(2, 0.5);
        let offline = sim.run(&jobs, &mut HomeScheduler).unwrap();
        let (online, notices) =
            run_online_with(&sim, &mut HomeScheduler, &jobs, ClockMode::Discrete);
        assert_eq!(online.trace, jobs);
        assert_eq!(notices.len(), jobs.len());
        assert_eq!(online.report.scheduler_name, offline.scheduler_name);
        // Outcomes, makespan, scrubbed summary, `overhead.len()` and
        // every deterministic per-round field.
        assert_reports_identical(&offline, &online.report);
    }

    #[test]
    fn real_time_online_recorded_trace_replays_byte_identically() {
        let jobs = small_trace(17);
        let sim = simulator(50, 0.5);
        // A huge scale compresses the whole campaign into microseconds of
        // wall time; the stamps land wherever the wall clock put them.
        let (online, notices) = run_online_with(
            &sim,
            &mut HomeScheduler,
            &jobs,
            ClockMode::RealTime { scale: 5e7 },
        );
        assert_eq!(online.trace.len(), jobs.len());
        // Stamps are monotone non-decreasing in receipt order.
        for pair in online.trace.windows(2) {
            assert!(pair[0].submit_time.value() <= pair[1].submit_time.value());
        }
        let replay = sim.run(&online.trace, &mut HomeScheduler).unwrap();
        assert_eq!(online.report.outcomes, replay.outcomes);
        assert_eq!(online.report.makespan, replay.makespan);
        assert_eq!(notices.len(), jobs.len());
    }

    #[test]
    fn discrete_rejects_out_of_order_and_duplicate_injections() {
        let sim = simulator(10, 0.5);
        let (notice_tx, _notice_rx) = std::sync::mpsc::sync_channel(4);
        let mut early = hand_built_job(100.0, 60.0);
        early.id = JobId(1);
        let mut late = hand_built_job(50.0, 60.0);
        late.id = JobId(2);
        let rx = sequenced_stream(&[early, late]);
        let err = sim
            .run_online_sequenced(&mut HomeScheduler, rx, notice_tx, ClockMode::Discrete)
            .unwrap_err();
        assert!(matches!(
            err,
            SimulationError::OutOfOrderArrival { job: JobId(2), .. }
        ));

        let (notice_tx, _notice_rx) = std::sync::mpsc::sync_channel(4);
        // Both hand-built jobs carry JobId(0).
        let rx = sequenced_stream(&[hand_built_job(10.0, 60.0), hand_built_job(20.0, 60.0)]);
        let err = sim
            .run_online_sequenced(&mut HomeScheduler, rx, notice_tx, ClockMode::Discrete)
            .unwrap_err();
        assert!(matches!(
            err,
            SimulationError::DuplicateJobId { id: JobId(0) }
        ));
    }

    #[test]
    fn dropped_notice_receiver_is_a_typed_error() {
        let sim = simulator(10, 0.5);
        let (notice_tx, notice_rx) = std::sync::mpsc::sync_channel(4);
        drop(notice_rx);
        let rx = sequenced_stream(&[hand_built_job(10.0, 60.0)]);
        let err = sim
            .run_online_sequenced(&mut HomeScheduler, rx, notice_tx, ClockMode::Discrete)
            .unwrap_err();
        assert!(matches!(
            err,
            SimulationError::PlacementSinkDisconnected { job: JobId(0) }
        ));
    }

    #[test]
    fn empty_online_run_produces_an_empty_report() {
        let sim = simulator(10, 0.5);
        let (notice_tx, _notice_rx) = std::sync::mpsc::sync_channel(1);
        let online = sim
            .run_online_sequenced(
                &mut HomeScheduler,
                sequenced_stream(&[]),
                notice_tx,
                ClockMode::Discrete,
            )
            .unwrap();
        assert!(online.report.outcomes.is_empty());
        assert!(online.trace.is_empty());
        assert_eq!(online.report.makespan.value(), 0.0);
    }
}
