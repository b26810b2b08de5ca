//! The service-level determinism contract: **a request stream fed through
//! a one-session [`ClusterHost`] yields a schedule byte-identical to the
//! host's recorded trace replayed offline**.
//!
//! The generated streams are adversarial for event ordering: submit times
//! sit on a coarse grid so
//! arrivals collide exactly with scheduling rounds, decision `Ready`
//! events, and completions — the ties where admitting arrivals at rounds
//! (a job that ties a round joins it) and the watermark rule are the only
//! things keeping the replay identical.

use proptest::prelude::*;
use waterwise_cluster::{
    Scheduler, SchedulingContext, SchedulingDecision, SimulationConfig, SimulationReport, Simulator,
};
use waterwise_core::{build_scheduler, SchedulerKind, WaterWiseConfig};
use waterwise_service::{
    AdmissionConfig, AdmissionMode, ClusterHost, HostConfig, HostReport, PlacementResponse,
    ServiceConfig,
};
use waterwise_sustain::{FootprintEstimator, KilowattHours, Seconds};
use waterwise_telemetry::{Region, SyntheticTelemetry, TelemetryConfig, ALL_REGIONS};
use waterwise_traces::{Benchmark, JobId, JobSpec};

const TELEMETRY_SEED: u64 = 7;

fn job(id: u64, submit: f64, exec: f64, home: Region, bytes: u64) -> JobSpec {
    JobSpec {
        id: JobId(id),
        benchmark: Benchmark::Dedup,
        submit_time: Seconds::new(submit),
        home_region: home,
        actual_execution_time: Seconds::new(exec),
        actual_energy: KilowattHours::new(0.01),
        estimated_execution_time: Seconds::new(exec),
        estimated_energy: KilowattHours::new(0.01),
        package_bytes: bytes,
    }
}

/// A deterministic scheduler family: home placement, pinning, rotation,
/// partial assignment, periodic deferral. Stateful on purpose — the online
/// and offline runs must present it the identical context sequence.
struct VariedScheduler {
    variant: usize,
    round: usize,
}

impl Scheduler for VariedScheduler {
    fn name(&self) -> &str {
        "varied"
    }
    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        self.round += 1;
        match self.variant {
            0 => SchedulingDecision::from_pairs(
                ctx.pending.iter().map(|p| (p.spec.id, p.spec.home_region)),
            ),
            1 => SchedulingDecision::from_pairs(
                ctx.pending.iter().map(|p| (p.spec.id, Region::Zurich)),
            ),
            2 => SchedulingDecision::from_pairs(ctx.pending.iter().map(|p| {
                let region = ALL_REGIONS[(p.spec.id.0 as usize + self.round) % ALL_REGIONS.len()];
                (p.spec.id, region)
            })),
            3 => SchedulingDecision::from_pairs(
                ctx.pending
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == 0)
                    .map(|(_, p)| (p.spec.id, p.spec.home_region)),
            ),
            _ => {
                if self.round.is_multiple_of(3) {
                    SchedulingDecision::defer_all()
                } else {
                    SchedulingDecision::from_pairs(
                        ctx.pending.iter().map(|p| (p.spec.id, p.spec.home_region)),
                    )
                }
            }
        }
    }
}

fn simulation_config(servers: usize) -> SimulationConfig {
    SimulationConfig::paper_default(servers, 0.5)
}

/// Feed `jobs` (already sorted by submit time) through the one session of
/// a host: quota sized to the stream, and the host closes itself when its
/// one session ends.
fn serve_stream(
    jobs: &[JobSpec],
    servers: usize,
    scheduler: Box<dyn Scheduler>,
) -> (HostReport, Vec<PlacementResponse>) {
    let config = HostConfig::new(ServiceConfig::new(
        simulation_config(servers),
        TelemetryConfig {
            seed: TELEMETRY_SEED,
            ..TelemetryConfig::default()
        },
    ))
    .with_admission(AdmissionConfig {
        tenant_inflight_quota: jobs.len().max(1),
        mode: AdmissionMode::Streaming {
            close_after_sessions: Some(1),
        },
        ..AdmissionConfig::default()
    });
    let host = ClusterHost::start(config, scheduler).unwrap();
    let session = host.open_session("client").unwrap();
    let outbox = session.take_responses().unwrap();
    let responses = std::thread::scope(|scope| {
        let collector = scope.spawn(move || outbox.iter().collect::<Vec<_>>());
        for spec in jobs.iter().cloned() {
            session.submit(spec).unwrap();
        }
        session.finish();
        collector.join().unwrap()
    });
    (host.shutdown().unwrap(), responses)
}

fn replay_offline(
    jobs: &[JobSpec],
    servers: usize,
    scheduler: &mut dyn Scheduler,
) -> SimulationReport {
    let simulator = Simulator::new(
        simulation_config(servers),
        SyntheticTelemetry::with_seed(TELEMETRY_SEED),
    )
    .unwrap();
    simulator.run(jobs, scheduler).unwrap()
}

fn assert_identical(online: &HostReport, offline: &SimulationReport) {
    assert_eq!(
        online.report.outcomes, offline.outcomes,
        "schedule diverged"
    );
    assert_eq!(
        online.report.makespan, offline.makespan,
        "makespan diverged"
    );
    assert_eq!(
        format!("{:?}", online.report.summary.without_wall_clock()),
        format!("{:?}", offline.summary.without_wall_clock()),
        "summaries diverged"
    );
    assert_eq!(online.report.overhead.len(), offline.overhead.len());
    for (a, b) in online.report.overhead.iter().zip(&offline.overhead) {
        assert_eq!(a.sim_time, b.sim_time, "round cadence diverged");
        assert_eq!(a.batch_size, b.batch_size, "round batches diverged");
        assert_eq!(a.solver, b.solver, "per-round solver work diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Online == offline on tie-heavy request streams across scheduler
    /// behaviors and capacity pressure.
    #[test]
    fn online_ingestion_is_byte_identical_to_offline_replay(
        raw in prop::collection::vec((0u64..30, 1u64..20, 0usize..5, 1u64..200_000_000), 1..30),
        servers in 1usize..6,
        variant in 0usize..5,
    ) {
        // Coarse grids (multiples of 30 s and 45 s) force exact-timestamp
        // collisions with the 60 s scheduling rounds. The stream must be
        // non-decreasing in submit time (the discrete clock's contract),
        // so sort while keeping receipt order stable within ties.
        let mut jobs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(s, e, r, bytes))| {
                job(i as u64, s as f64 * 30.0, e as f64 * 45.0, ALL_REGIONS[r], bytes)
            })
            .collect();
        jobs.sort_by(|a, b| a.submit_time.value().total_cmp(&b.submit_time.value()));

        let (online, responses) =
            serve_stream(&jobs, servers, Box::new(VariedScheduler { variant, round: 0 }));
        let offline =
            replay_offline(&online.trace, servers, &mut VariedScheduler { variant, round: 0 });

        prop_assert_eq!(&online.trace, &jobs, "discrete stamps must keep the stream");
        assert_identical(&online, &offline);
        // Every job completes, whatever the scheduler deferred.
        prop_assert_eq!(offline.summary.total_jobs, jobs.len());
        prop_assert_eq!(online.accepted, jobs.len());
        prop_assert_eq!(online.rejected, 0);
        prop_assert_eq!(online.served, jobs.len());
        prop_assert_eq!(responses.len(), jobs.len());

        // Every response agrees with the schedule the campaign recorded.
        for response in &responses {
            let outcome = offline
                .outcomes
                .iter()
                .find(|o| o.job == response.job)
                .expect("response for a job the schedule knows");
            prop_assert_eq!(response.region, outcome.executed_region);
        }
    }
}

/// The full WaterWise scheduler (MILP + warm starts) through the service:
/// expensive, so a fixed stream rather than a property, but it covers the
/// solver plus a stateful scheduler end-to-end.
#[test]
fn waterwise_scheduler_is_byte_identical_online() {
    let jobs: Vec<JobSpec> = (0..10)
        .map(|i| {
            job(
                i,
                (i / 2) as f64 * 30.0,
                300.0 + (i % 3) as f64 * 45.0,
                ALL_REGIONS[(i % 5) as usize],
                1 << 20,
            )
        })
        .collect();
    let servers = 2;

    // The default scheduler, and the all-MILP reference that solves every
    // round (by default the hint or the transportation kernel decides them).
    let default = WaterWiseConfig::default();
    for config in [default.clone(), default.with_warm_start(false)] {
        let make_scheduler = || {
            build_scheduler(
                SchedulerKind::WaterWise,
                SyntheticTelemetry::with_seed(TELEMETRY_SEED).shared(),
                FootprintEstimator::new(simulation_config(servers).datacenter),
                &config,
            )
        };

        let offline = replay_offline(&jobs, servers, make_scheduler().as_mut());

        let (report, responses) = serve_stream(&jobs, servers, make_scheduler());
        assert_eq!(report.trace, jobs);
        assert_eq!(report.report.outcomes, offline.outcomes);
        assert_eq!(report.report.makespan, offline.makespan);
        assert_eq!(responses.len(), jobs.len());
        // The MILP scheduler reports its per-round solver work in the
        // response enrichment.
        let solved = responses
            .iter()
            .any(|r| r.solver.is_some_and(|s| s.solves > 0));
        assert_eq!(solved, !config.warm_start);
    }
}
