//! The multi-session determinism contract: **N concurrent sessions
//! racing onto one persistent host produce an admission journal whose
//! offline replay is byte-identical to the live schedule** — and, when
//! every submit time ties exactly, the live schedule itself is independent
//! of how the session threads interleaved.
//!
//! Tie-adversarial on purpose: submit times sit on a coarse grid (many
//! exactly equal), so the only thing keeping the schedule stable is the
//! per-session arrival-sequence band (`session << 32 | request index`)
//! plus the journal pinning the drained `(spec, seq)` stream.

use proptest::prelude::*;
use std::collections::BTreeMap;
use waterwise_cluster::{Scheduler, SchedulingContext, SchedulingDecision, SimulationConfig};
use waterwise_service::{
    AdmissionConfig, AdmissionMode, ClusterHost, HostReport, PlacementResponse, PlacementService,
    ServiceConfig, ServiceError, TenantId,
};
use waterwise_sustain::{KilowattHours, Seconds};
use waterwise_telemetry::{Region, TelemetryConfig, ALL_REGIONS};
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

/// The same deterministic scheduler family as `online_equivalence.rs`:
/// home placement, pinning, rotation, partial assignment, periodic
/// deferral. Stateful on purpose — the live run and the journal replay
/// must present it the identical context sequence.
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

fn service_config(servers: usize) -> ServiceConfig {
    ServiceConfig::new(
        SimulationConfig::paper_default(servers, 0.5),
        TelemetryConfig {
            seed: TELEMETRY_SEED,
            ..TelemetryConfig::default()
        },
    )
}

/// Run `sessions` concurrent session threads against one host, each
/// submitting its own job list under its own tenant, and return the host
/// report plus each tenant's delivered responses (in delivery order) and
/// its count of quota rejections.
fn run_live(
    sessions: &[Vec<JobSpec>],
    servers: usize,
    variant: usize,
    quota: usize,
) -> (
    HostReport,
    BTreeMap<TenantId, Vec<PlacementResponse>>,
    BTreeMap<TenantId, usize>,
) {
    let service = PlacementService::new(service_config(servers)).unwrap();
    let host = ClusterHost::start_with_service(
        service,
        AdmissionConfig {
            tenant_inflight_quota: quota,
            drr_quantum: 2,
            mode: AdmissionMode::Streaming {
                close_after_sessions: Some(sessions.len()),
            },
        },
        Box::new(VariedScheduler { variant, round: 0 }),
    )
    .unwrap();
    let mut delivered = BTreeMap::new();
    let mut shed = BTreeMap::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(index, jobs)| {
                let tenant = TenantId::from(format!("tenant-{index}"));
                let session = host.open_session(tenant.clone()).unwrap();
                scope.spawn(move || {
                    let mut rejected = 0usize;
                    for spec in jobs {
                        match session.submit(spec.clone()) {
                            Ok(()) => {}
                            Err(ServiceError::AdmissionRejected { .. }) => rejected += 1,
                            Err(other) => panic!("unexpected submit failure: {other}"),
                        }
                    }
                    (tenant, session.drain(), rejected)
                })
            })
            .collect();
        for handle in handles {
            let (tenant, responses, rejected) = handle.join().unwrap();
            delivered.insert(tenant.clone(), responses);
            shed.insert(tenant, rejected);
        }
    });
    (host.shutdown().unwrap(), delivered, shed)
}

/// Replay the live run's journal offline and assert byte-identity plus
/// per-tenant response agreement.
fn assert_replay_identical(
    live: &HostReport,
    delivered: &BTreeMap<TenantId, Vec<PlacementResponse>>,
    servers: usize,
    variant: usize,
) {
    let replay_service = PlacementService::new(service_config(servers)).unwrap();
    let mut scheduler = VariedScheduler { variant, round: 0 };
    let replay = live
        .journal
        .replay(&replay_service, &mut scheduler)
        .unwrap();
    assert_eq!(
        live.schedule_digest(),
        replay.schedule_digest(),
        "journal replay digest diverged from the live schedule"
    );
    assert_eq!(
        live.report.outcomes, replay.report.report.outcomes,
        "journal replay outcomes diverged"
    );
    assert_eq!(
        live.trace, replay.report.trace,
        "replay ingested a different stamped stream"
    );
    // Per-tenant responses agree: same jobs, same placements, same
    // projections, in the same commit order.
    for (tenant, live_responses) in delivered {
        let replayed = replay.responses.get(tenant).cloned().unwrap_or_default();
        assert_eq!(
            live_responses, &replayed,
            "tenant {tenant} responses diverged under replay"
        );
    }
    let replay_total: usize = replay.responses.values().map(Vec::len).sum();
    let live_total: usize = delivered.values().map(Vec::len).sum();
    assert_eq!(live_total, replay_total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent interleaved sessions with exact-time ties: the journal
    /// replays to the byte-identical schedule and every tenant gets the
    /// same responses.
    #[test]
    fn journal_replay_is_byte_identical_to_live_multi_session_run(
        raw in prop::collection::vec(
            prop::collection::vec((0u64..4, 1u64..20, 0usize..5, 1u64..200_000_000), 0..10),
            2..5,
        ),
        servers in 1usize..6,
        variant in 0usize..5,
        tight_quota in 0usize..2,
    ) {
        // A tight quota exercises in-band shedding; a loose one keeps
        // every generated request admitted.
        let quota = if tight_quota == 1 { 2 } else { 64 };
        // Coarse grids (multiples of 30 s / 45 s) collide arrivals with
        // the 60 s rounds and with each other, within and across
        // sessions. Ids are globally unique; per-session submit times are
        // non-decreasing so a session is a well-formed stream on its own,
        // while cross-session interleaving stays fully racy.
        let sessions: Vec<Vec<JobSpec>> = raw
            .iter()
            .enumerate()
            .map(|(s, jobs)| {
                let mut times: Vec<u64> = jobs.iter().map(|&(t, ..)| t).collect();
                times.sort_unstable();
                jobs.iter()
                    .zip(times)
                    .enumerate()
                    .map(|(k, (&(_, e, r, bytes), t))| {
                        job(
                            (s as u64) * 1000 + k as u64,
                            t as f64 * 30.0,
                            e as f64 * 45.0,
                            ALL_REGIONS[r],
                            bytes,
                        )
                    })
                    .collect()
            })
            .collect();
        let (report, delivered, shed) = run_live(&sessions, servers, variant, quota);

        let submitted: usize = sessions.iter().map(Vec::len).sum();
        let rejected: usize = shed.values().sum();
        prop_assert_eq!(report.accepted + rejected, submitted);
        prop_assert_eq!(report.rejected, rejected);
        prop_assert_eq!(report.served, report.accepted);
        prop_assert_eq!(report.journal.entries.len(), report.accepted);
        prop_assert_eq!(report.sessions, sessions.len());
        // Admission accounting agrees tenant by tenant.
        for (index, jobs) in sessions.iter().enumerate() {
            let tenant = TenantId::from(format!("tenant-{index}"));
            let stats = report.tenants.get(&tenant).cloned().unwrap_or_default();
            prop_assert_eq!(stats.accepted + stats.rejected, jobs.len());
            prop_assert_eq!(stats.served, delivered[&tenant].len());
        }

        // The journal survives its text round trip and replays to the
        // byte-identical schedule.
        let reparsed = waterwise_service::Journal::parse(&report.journal.encode()).unwrap();
        prop_assert_eq!(&reparsed, &report.journal);
        assert_replay_identical(&report, &delivered, servers, variant);
    }
}

/// With every submit time tied exactly, the committed schedule is a pure
/// function of `(session, request index)` — so a fully concurrent run and
/// a strictly sequential one (session 0 submits everything, then session
/// 1, ...) must commit the byte-identical schedule.
#[test]
fn all_ties_schedule_is_independent_of_session_interleaving() {
    let sessions: Vec<Vec<JobSpec>> = (0..4u64)
        .map(|s| {
            (0..6u64)
                .map(|k| {
                    job(
                        s * 1000 + k,
                        0.0,
                        45.0 * (1 + (s + k) % 4) as f64,
                        ALL_REGIONS[((s + k) % 5) as usize],
                        1 << 20,
                    )
                })
                .collect()
        })
        .collect();

    // Concurrent: all four session threads race.
    let (concurrent, _, _) = run_live(&sessions, 2, 2, 64);

    // Sequential: one session at a time submits its whole stream
    // (the admission queue still sees four sessions; only the
    // interleaving changes — maximally, from racy to serialized).
    let service = PlacementService::new(service_config(2)).unwrap();
    let host = ClusterHost::start_with_service(
        service,
        AdmissionConfig {
            tenant_inflight_quota: 64,
            drr_quantum: 2,
            mode: AdmissionMode::Streaming {
                close_after_sessions: Some(sessions.len()),
            },
        },
        Box::new(VariedScheduler {
            variant: 2,
            round: 0,
        }),
    )
    .unwrap();
    let opened: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(i, _)| host.open_session(format!("tenant-{i}")).unwrap())
        .collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (session, jobs) in opened.into_iter().zip(&sessions) {
            for spec in jobs {
                session.submit(spec.clone()).unwrap();
            }
            // Drain concurrently (responses only flush as other
            // sessions advance time or the host auto-closes), but
            // submit strictly sequentially.
            handles.push(scope.spawn(move || session.drain()));
        }
        for handle in handles {
            handle.join().unwrap();
        }
    });
    let sequential = host.shutdown().unwrap();

    assert_eq!(
        concurrent.schedule_digest(),
        sequential.schedule_digest(),
        "tied-arrival schedule depended on session interleaving"
    );
    assert_eq!(concurrent.report.outcomes, sequential.report.outcomes);
}
