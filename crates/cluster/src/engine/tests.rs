//! Engine unit tests: replay behavior, typed error paths, trace order, and
//! the live source's identity with an offline replay.

use super::*;
use crate::scheduler::Assignment;
use waterwise_sustain::JobResourceUsage;
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
        assert!(o.completion_time().value() > o.start_time.value());
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
fn recorded_totals_are_the_estimators_bits() {
    /// Places job `j` in region `j mod 5`: most jobs migrate, some stay.
    struct Spread;
    impl Scheduler for Spread {
        fn name(&self) -> &str {
            "spread"
        }
        fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
            SchedulingDecision::from_pairs(
                ctx.pending
                    .iter()
                    .map(|p| (p.spec.id, ALL_REGIONS[p.spec.id.0 as usize % 5])),
            )
        }
    }
    let jobs = TraceGenerator::new(TraceConfig::borg(0.05, 42)).generate();
    let sim = simulator(50, 0.5);
    let report = sim.run(&jobs, &mut Spread).unwrap();
    assert_eq!(report.outcomes.len(), jobs.len());
    let bits =
        |carbon: Co2Grams, water: Liters| (carbon.value().to_bits(), water.value().to_bits());
    let mut migrated = 0;
    for o in &report.outcomes {
        let spec = &jobs[jobs.binary_search_by_key(&o.job, |job| job.id).unwrap()];
        let conditions = sim.provider().conditions(o.executed_region, o.start_time);
        let usage = JobResourceUsage::new(spec.actual_energy, o.execution_time);
        let execution = sim.estimator().estimate(usage, conditions);
        assert_eq!(
            bits(o.footprint.total_carbon(), o.footprint.total_water()),
            bits(execution.total_carbon(), execution.total_water()),
            "{o:?}"
        );
        let transfer = bits(
            o.transfer_footprint.total_carbon(),
            o.transfer_footprint.total_water(),
        );
        if o.migrated() {
            migrated += 1;
            let energy = sim.config().transfer.transfer_energy(
                o.home_region,
                o.executed_region,
                spec.package_bytes,
            );
            let usage = JobResourceUsage::new(energy, Seconds::zero());
            let expected = sim.estimator().estimate_operational(usage, conditions);
            assert_eq!(
                transfer,
                bits(expected.total_carbon(), expected.total_water()),
                "{o:?}"
            );
        } else {
            assert_eq!(transfer, (0.0f64.to_bits(), 0.0f64.to_bits()), "{o:?}");
        }
    }
    assert!(migrated > 0 && migrated < jobs.len(), "{migrated} migrated");
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
        let mut job = hand_built_job(0.0, bad);
        // Only the actual time is bad: a non-finite estimate is refused at
        // admission (`a_non_finite_estimate_is_rejected_at_preload`).
        job.estimated_execution_time = Seconds::new(100.0);
        let jobs = vec![job];
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
fn a_negative_execution_time_is_rejected_at_preload() {
    // Accepted, such a job's completion was dispatched 5000 s before its
    // start and it came first among the outcomes.
    let mut jobs = TraceGenerator::new(TraceConfig::borg(0.05, 42)).generate();
    jobs[3].actual_execution_time = Seconds::new(-5000.0);
    let err = simulator(50, 0.5)
        .run(&jobs, &mut HomeScheduler)
        .unwrap_err();
    assert_eq!(
        err,
        SimulationError::NegativeExecutionTime {
            job: jobs[3].id,
            time: -5000.0
        }
    );
    assert!(err.to_string().contains(&jobs[3].id.to_string()), "{err}");
    // A zero of either sign runs forward.
    jobs[3].actual_execution_time = Seconds::new(-0.0);
    let report = simulator(50, 0.5).run(&jobs, &mut HomeScheduler).unwrap();
    assert_eq!(report.outcomes.len(), jobs.len());
}

#[test]
fn a_non_finite_estimate_is_rejected_at_preload() {
    // Accepted, such a job priced every WaterWise round holding it out of
    // the model, and the run deferred that whole batch forever.
    use waterwise_sustain::KilowattHours;
    let cases = [
        ("estimated_execution_time", f64::INFINITY),
        ("estimated_energy", f64::INFINITY),
        ("estimated_energy", f64::NAN),
    ];
    for (field, value) in cases {
        let mut jobs = small_trace(42);
        if field == "estimated_energy" {
            jobs[3].estimated_energy = KilowattHours::new(value);
        } else {
            jobs[3].estimated_execution_time = Seconds::new(value);
        }
        let err = simulator(50, 0.5)
            .run(&jobs, &mut HomeScheduler)
            .unwrap_err();
        let message = err.to_string();
        let SimulationError::NonFiniteEstimate {
            job,
            field: named,
            value: carried,
        } = err
        else {
            panic!("expected NonFiniteEstimate, got {err:?}");
        };
        assert_eq!((job, named), (jobs[3].id, field));
        assert_eq!(carried.to_bits(), value.to_bits());
        assert!(message.contains(&job.to_string()) && message.contains(field));
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
    // trace is sorted at preload, the queue holds the first round alone, and
    // that round reads its arrivals from the sorted copy.
    let reversed: Vec<JobSpec> = stable_sorted(&shuffled_trace(53))
        .into_iter()
        .rev()
        .collect();
    let config = SimulationConfig::paper_default(10, 0.5);
    let mut state = SimState::new(&config, &reversed).unwrap();
    assert!(matches!(state.jobs, Cow::Owned(_)));
    assert_eq!(state.jobs, stable_sorted(&reversed));
    let first = state.jobs[0].submit_time.value();
    let round = state.queue.pop().unwrap();
    assert_eq!(
        (round.time, round.seq, round.event),
        (first, 0, Event::Round)
    );
    assert!(state.queue.pop().is_none(), "an arrival was queued");
    assert!(state.pending.is_empty() && state.in_flight.rows.is_empty());
    // The first round admits exactly the jobs that tie its instant (the
    // fixture snaps submit times to the round grid), in trace order.
    state.open_round(round.time).unwrap();
    let tied = state
        .jobs
        .iter()
        .take_while(|job| job.submit_time.value() == first)
        .count();
    assert!(tied > 1, "the fixture must tie the first round");
    let admitted: Vec<JobId> = state.pending.iter().map(|p| p.spec.id).collect();
    let expected: Vec<JobId> = state.jobs[..tied].iter().map(|job| job.id).collect();
    assert_eq!(admitted, expected);
    // Admitted is not placed: no job has a runtime row before a commit.
    assert!(
        state.in_flight.rows.is_empty(),
        "a pending job got a runtime row"
    );
}

#[test]
fn arrivals_at_a_round_instant_join_that_round() {
    /// Places every pending job at home, recording the instant of each
    /// round and the ids it was offered.
    #[derive(Default)]
    struct Recorder {
        rounds: Vec<(f64, Vec<JobId>)>,
    }
    impl Scheduler for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
            let offered = ctx.pending.iter().map(|p| p.spec.id).collect();
            self.rounds.push((ctx.now.value(), offered));
            HomeScheduler.schedule(ctx)
        }
    }
    // A 0.1 s interval: the round instants the engine computes from a
    // first job at -0.0 are repeated `now + interval`, which drift from the
    // multiples of the interval, so only a stamp taken the engine's way ties.
    let interval = 0.1;
    let mut config = SimulationConfig::paper_default(50, 0.5);
    config.scheduling_interval = Seconds::new(interval);
    let sim = Simulator::new(config, SyntheticTelemetry::with_seed(1)).unwrap();
    let mut instants = vec![-0.0f64];
    for k in 0..12 {
        instants.push(instants[k] + interval);
    }
    assert!((1..13).any(|k| instants[k] != k as f64 * interval));
    // A -0.0 / 0.0 pair at the first round: equal under `==`, but 0.0 sorts
    // after -0.0 in `total_cmp` order, so it waits for the second round.
    // Then three jobs on every other instant, and one between two rounds.
    let mut stamps = vec![-0.0, 0.0];
    for k in (1..12).step_by(2) {
        stamps.extend([instants[k]; 3]);
        stamps.push(instants[k] + interval / 2.0);
    }
    let jobs: Vec<JobSpec> = stamps
        .iter()
        .enumerate()
        .map(|(i, &stamp)| {
            let mut job = hand_built_job(stamp, 1.0);
            job.id = JobId(i as u64);
            job
        })
        .collect();
    let mut recorder = Recorder::default();
    let report = sim.run(&jobs, &mut recorder).unwrap();
    assert_eq!(report.summary.total_jobs, jobs.len());
    // Each job is offered once, in the first round at or after its stamp in
    // `total_cmp` order — for a stamp on a round instant, the round it ties.
    let round_of = |id: JobId| {
        let offered = recorder.rounds.iter().filter(|(_, ids)| ids.contains(&id));
        let instants: Vec<u64> = offered.map(|(now, _)| now.to_bits()).collect();
        assert_eq!(instants.len(), 1, "{id:?} offered in {instants:?}");
        f64::from_bits(instants[0])
    };
    for (job, &stamp) in jobs.iter().zip(&stamps) {
        let expected = instants
            .iter()
            .find(|instant| instant.total_cmp(&stamp).is_ge())
            .unwrap();
        assert_eq!(round_of(job.id).to_bits(), expected.to_bits(), "{stamp}");
    }
    assert_eq!(round_of(JobId(0)).to_bits(), (-0.0f64).to_bits());
    assert_eq!(round_of(JobId(1)), interval);
    // A live session over the same trace admits the same jobs at the same
    // rounds.
    let (online, _) =
        online_driver::run_online_with(&sim, &mut HomeScheduler, &jobs, clock::ClockMode::Discrete);
    assert_reports_identical(&report, &online.report);
}

#[test]
fn an_interval_below_the_clocks_resolution_fails_the_run() {
    // 1e-300 s is positive, so the configuration validates, but it is far
    // below half an ulp of any submit time: `now + interval == now`, and
    // the round would re-arm at the same instant forever.
    let mut config = SimulationConfig::paper_default(10, 0.5);
    config.scheduling_interval = Seconds::new(1e-300);
    let jobs = TraceGenerator::new(TraceConfig::borg(0.01, 3)).generate();
    let first = jobs[0].submit_time.value();
    assert!(first > 0.0 && first + 1e-300 == first);
    let sim = Simulator::new(config, SyntheticTelemetry::with_seed(1)).unwrap();
    let err = sim.run(&jobs, &mut HomeScheduler).unwrap_err();
    assert!(
        matches!(
            err,
            SimulationError::SchedulingIntervalBelowClockResolution { time, interval }
                if time == first && interval == 1e-300
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("1e-300"), "{err}");
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
fn a_decision_commits_by_position_what_the_sorted_index_commits() {
    /// How a scheduler lists the placements it decides.
    #[derive(Debug, Clone, Copy)]
    enum Form {
        PoolOrder,
        Reversed,
        UnknownId,
        DuplicatedId,
        Subset,
    }
    /// Places each pending job (every other one as a `Subset`) in a region
    /// picked by its id, listed in `form`. When `indexed`, the list opens
    /// with an id no pool holds: the first lookup misses, so every lookup
    /// after it goes through the sorted `(id, position)` index.
    struct Lister {
        form: Form,
        indexed: bool,
    }
    impl Scheduler for Lister {
        fn name(&self) -> &str {
            "lister"
        }
        fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
            let region = |id: JobId| ctx.regions[id.0 as usize % ctx.regions.len()].region;
            let place = |p: &PendingJob| Assignment {
                job: p.spec.id,
                region: region(p.spec.id),
            };
            let step = if matches!(self.form, Form::Subset) {
                2
            } else {
                1
            };
            let mut assignments: Vec<Assignment> =
                ctx.pending.iter().step_by(step).map(place).collect();
            let unknown = Assignment {
                job: JobId(u64::MAX),
                region: ctx.regions[0].region,
            };
            let middle = assignments.len() / 2;
            match self.form {
                Form::Reversed => assignments.reverse(),
                Form::UnknownId => assignments.insert(middle, unknown),
                Form::DuplicatedId => assignments.insert(middle, assignments[middle]),
                Form::PoolOrder | Form::Subset => {}
            }
            if self.indexed {
                assignments.insert(0, unknown);
            }
            SchedulingDecision { assignments }
        }
    }
    // Submit times on the round grid and three servers a region: rounds
    // tie arrivals, home placements tie their round, and jobs queue, so the
    // order a decision's transfers are stamped in shows in the schedule.
    let jobs = stable_sorted(&shuffled_trace(71));
    let sim = simulator(3, 0.5);
    let digest = |form, indexed| {
        let report = sim.run(&jobs, &mut Lister { form, indexed }).unwrap();
        assert_eq!(report.summary.total_jobs, jobs.len(), "{form:?}");
        crate::metrics::schedule_digest(&report.outcomes)
    };
    let forms = [
        Form::PoolOrder,
        Form::Reversed,
        Form::UnknownId,
        Form::DuplicatedId,
        Form::Subset,
    ];
    for form in forms {
        assert_eq!(digest(form, false), digest(form, true), "{form:?}");
    }
    // Padding a list in pool order with an unknown or a repeated id changes
    // nothing; reversing it stamps the transfers in another order, which is
    // another schedule — so the comparisons above are not vacuous.
    let in_pool_order = digest(Form::PoolOrder, false);
    assert_eq!(digest(Form::UnknownId, false), in_pool_order);
    assert_eq!(digest(Form::DuplicatedId, false), in_pool_order);
    assert_ne!(digest(Form::Reversed, false), in_pool_order);
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
    use crate::engine::online::{OnlineDriver, OnlineReport, PlacementNotice, SequencedJob};

    /// `jobs` as a closed arrival stream, each sequenced by its receipt
    /// index — what a single session hands the driver.
    fn sequenced_stream(jobs: &[JobSpec]) -> std::vec::IntoIter<SequencedJob> {
        let stream: Vec<SequencedJob> = jobs
            .iter()
            .cloned()
            .enumerate()
            .map(|(index, spec)| SequencedJob {
                spec,
                seq: index as u64,
            })
            .collect();
        stream.into_iter()
    }

    /// Feed `jobs` through the online driver in submission order (the whole
    /// stream is buffered up front) and collect the report plus every
    /// placement notice.
    pub(super) fn run_online_with(
        sim: &Simulator<SyntheticTelemetry>,
        scheduler: &mut dyn Scheduler,
        jobs: &[JobSpec],
        clock: ClockMode,
    ) -> (OnlineReport, Vec<PlacementNotice>) {
        let mut notices = Vec::new();
        let report = sim
            .run_online_sequenced(
                scheduler,
                &mut sequenced_stream(jobs),
                &mut |notice| notices.push(notice),
                clock,
            )
            .unwrap();
        (report, notices)
    }

    /// A placement sink that drops every notice.
    fn discard(_: PlacementNotice) {}

    /// Every submit, round, readiness (home placements transfer in zero
    /// time) and completion lands on a multiple of the 60 s scheduling
    /// interval: the densest exact-timestamp ties. Run on two servers a
    /// region, it queues jobs too.
    fn tie_heavy_jobs() -> Vec<JobSpec> {
        (0..48u64)
            .map(|i| {
                let mut job = hand_built_job((i / 6) as f64 * 60.0, (1 + i % 4) as f64 * 60.0);
                job.id = JobId(1000 - i);
                job
            })
            .collect()
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
        // The densest exact-timestamp ties the two admission paths
        // (offline: a cursor over the trace; live: a buffer by stamp and
        // caller sequence) must agree on, with two Oregon servers forcing
        // queueing.
        let jobs = tie_heavy_jobs();
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
    fn discrete_rejects_out_of_order_and_duplicate_injections() {
        let sim = simulator(10, 0.5);
        let mut early = hand_built_job(100.0, 60.0);
        early.id = JobId(1);
        let mut late = hand_built_job(50.0, 60.0);
        late.id = JobId(2);
        let mut rx = sequenced_stream(&[early, late]);
        let err = sim
            .run_online_sequenced(
                &mut HomeScheduler,
                &mut rx,
                &mut discard,
                ClockMode::Discrete,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SimulationError::OutOfOrderArrival { job: JobId(2), .. }
        ));

        // Both hand-built jobs carry JobId(0).
        let mut rx = sequenced_stream(&[hand_built_job(10.0, 60.0), hand_built_job(20.0, 60.0)]);
        let err = sim
            .run_online_sequenced(
                &mut HomeScheduler,
                &mut rx,
                &mut discard,
                ClockMode::Discrete,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SimulationError::DuplicateJobId { id: JobId(0) }
        ));
    }

    #[test]
    fn a_negative_execution_time_is_rejected_at_injection() {
        let mut jobs = small_trace(42);
        jobs[3].actual_execution_time = Seconds::new(-5000.0);
        let sim = simulator(50, 0.5);
        let err = sim
            .run_online_sequenced(
                &mut HomeScheduler,
                &mut sequenced_stream(&jobs),
                &mut discard,
                ClockMode::Discrete,
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimulationError::NegativeExecutionTime {
                job: jobs[3].id,
                time: -5000.0
            }
        );
    }

    #[test]
    fn a_non_finite_estimate_is_rejected_at_injection() {
        let mut jobs = small_trace(42);
        jobs[3].estimated_execution_time = Seconds::new(f64::INFINITY);
        let sim = simulator(50, 0.5);
        let err = sim
            .run_online_sequenced(
                &mut HomeScheduler,
                &mut sequenced_stream(&jobs),
                &mut discard,
                ClockMode::Discrete,
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimulationError::NonFiniteEstimate {
                job: jobs[3].id,
                field: "estimated_execution_time",
                value: f64::INFINITY,
            }
        );
    }

    /// Dispatch `driver`'s run to its end, checking after every event that
    /// the in-flight table holds a row for exactly the jobs placed and not
    /// yet completed, and that it has grown only to the most of them in
    /// flight at once. Returns that peak and the jobs completed.
    fn dispatch_checking_in_flight(
        mut driver: OnlineDriver<'_, '_, SyntheticTelemetry>,
    ) -> (usize, usize) {
        let mut peak = 0;
        while let Some(next) = driver.next_event().unwrap() {
            driver.dispatch(next, &mut HomeScheduler).unwrap();
            let state = &driver.state;
            let joined = state.jobs.len() - state.unpulled.len() - state.admission.len();
            let placed = joined - state.pending.len();
            assert_eq!(state.in_flight.len(), placed - state.completed);
            peak = peak.max(state.in_flight.len());
            assert_eq!(
                state.in_flight.rows.len(),
                peak,
                "a free slot was passed over"
            );
        }
        assert_eq!(driver.state.in_flight.len(), 0, "a row outlived its job");
        (peak, driver.state.completed)
    }

    #[test]
    fn the_in_flight_table_holds_the_placed_jobs_until_they_complete() {
        let jobs = tie_heavy_jobs();
        let sim = simulator(2, 0.5);
        let offline = OnlineDriver::offline(&sim, &jobs).unwrap();
        let (mut stream, mut sink) = (sequenced_stream(&jobs), discard);
        let live = OnlineDriver::live(&sim, &mut stream, &mut sink, ClockMode::Discrete);
        for driver in [offline, live] {
            let (peak, completed) = dispatch_checking_in_flight(driver);
            assert_eq!(completed, jobs.len());
            assert!(peak < jobs.len(), "no slot was reused: {peak} rows");
        }
    }

    #[test]
    fn empty_online_run_produces_an_empty_report() {
        let sim = simulator(10, 0.5);
        let online = sim
            .run_online_sequenced(
                &mut HomeScheduler,
                &mut sequenced_stream(&[]),
                &mut discard,
                ClockMode::Discrete,
            )
            .unwrap();
        assert!(online.report.outcomes.is_empty());
        assert!(online.trace.is_empty());
        assert_eq!(online.report.makespan.value(), 0.0);
    }
}
