//! Golden-snapshot verification of the declarative scenarios.
//!
//! Each `scenarios/*.spec` workload is replayed and its canonical result
//! rendering ([`Snapshot`]) compared byte-for-byte against the committed
//! golden under `tests/snapshots/<scenario>.snap`. These tests replace the
//! former `golden_figures.rs` percentage-table regressions (Figs. 5 and 8)
//! and the in-bench identity asserts of the retired Fig. 17 study: any
//! schedule or summary drift fails with a line-level diff naming the
//! drifted snapshot file.
//!
//! Blessing: `UPDATE_SNAPSHOTS=1 cargo test --test scenario_snapshots`
//! rewrites the goldens; commit the resulting diff. CI guards that the
//! variable is never set there, so drift can only be accepted deliberately.
//!
//! That each scenario renders alike with `warm_start` on and off (the
//! all-MILP reference) is the `default_equals_all_milp` row of the root
//! `tests/invariants.rs`.

#[path = "../crates/service/tests/support/mod.rs"]
mod support;

use std::path::PathBuf;
use waterwise_bench::experiments::{scenario_spec_path, validate_scenarios, SCENARIO_NAMES};
use waterwise_core::scenario::{
    assert_snapshot, check_snapshot, orphaned_snapshots, snapshot_path, update_mode, Snapshot,
    SnapshotError,
};
use waterwise_core::{load_spec, Campaign, ObjectiveWeights, Parallelism, Scenario, SchedulerKind};

fn snapshots_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
}

/// Load a scenario at its spec scale. Deliberately *not*
/// `waterwise_core::scenario::load_scenario`: goldens are pinned at the
/// committed spec's own days/seed, immune to `WATERWISE_DAYS`/`WATERWISE_SEED`
/// in the environment.
fn load(name: &str) -> Scenario {
    load_spec(scenario_spec_path(name)).expect("committed scenario spec must load")
}

/// Snapshot one campaign outcome (summary + schedule digest) under `prefix`.
fn add_outcome(snap: &mut Snapshot, prefix: &str, outcome: &waterwise_core::CampaignOutcome) {
    snap.add_summary(prefix, &outcome.summary);
    snap.add_schedule(prefix, &outcome.report.outcomes);
}

// ---------------------------------------------------------------------------
// Per-scenario goldens
// ---------------------------------------------------------------------------

#[test]
fn fig05_scenario_matches_golden_snapshot() {
    let scenario = load("fig05");
    let tolerances = [
        (0.25, "tol25"),
        (0.50, "tol50"),
        (0.75, "tol75"),
        (1.00, "tol100"),
    ];
    let configs: Vec<_> = tolerances
        .iter()
        .map(|&(tol, _)| scenario.config.clone().with_delay_tolerance(tol))
        .collect();
    let kinds = [
        SchedulerKind::Baseline,
        SchedulerKind::CarbonGreedyOpt,
        SchedulerKind::WaterGreedyOpt,
        SchedulerKind::WaterWise,
    ];
    let matrix =
        Campaign::run_matrix(&configs, &kinds, Parallelism::Auto).expect("campaign must run");
    let mut snap = Snapshot::new();
    for ((_, label), row) in tolerances.iter().zip(&matrix) {
        for outcome in row {
            add_outcome(
                &mut snap,
                &format!("{label}.{}", outcome.kind.label()),
                outcome,
            );
        }
    }
    assert_snapshot(&snapshots_dir(), "fig05", &snap.render());
}

#[test]
fn fig08_scenario_matches_golden_snapshot() {
    let scenario = load("fig08");
    let lambdas = [(0.3, "lambda30"), (0.5, "lambda50"), (0.7, "lambda70")];
    let configs: Vec<_> = lambdas
        .iter()
        .map(|&(lambda, _)| {
            scenario
                .config
                .clone()
                .with_weights(ObjectiveWeights::paper_default().with_carbon_weight(lambda))
        })
        .collect();
    let matrix = Campaign::run_matrix(
        &configs,
        &[SchedulerKind::Baseline, SchedulerKind::WaterWise],
        Parallelism::Auto,
    )
    .expect("campaign must run");
    let mut snap = Snapshot::new();
    for ((_, label), row) in lambdas.iter().zip(&matrix) {
        for outcome in row {
            add_outcome(
                &mut snap,
                &format!("{label}.{}", outcome.kind.label()),
                outcome,
            );
        }
    }
    assert_snapshot(&snapshots_dir(), "fig08", &snap.render());
}

#[test]
fn fig14_scenario_matches_golden_snapshot() {
    let scenario = load("fig14");
    let mut snap = Snapshot::new();
    for (horizon, label) in [(Some(16), "h16"), (None, "hcap")] {
        let mut config = scenario.config.clone();
        config.waterwise.horizon = horizon;
        let outcome = Campaign::new(config)
            .run(SchedulerKind::WaterWise)
            .expect("campaign must run");
        add_outcome(&mut snap, label, &outcome);
    }
    assert_snapshot(&snapshots_dir(), "fig14", &snap.render());
}

#[test]
fn fig17_scenario_online_sessions_match_offline_golden() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use waterwise_cluster::{ClockMode, Simulator};
    use waterwise_core::build_scheduler;
    use waterwise_service::{
        AdmissionConfig, AdmissionMode, ClusterHost, PlacementService, ServiceConfig,
        TcpClusterServer,
    };
    use waterwise_sustain::FootprintEstimator;
    use waterwise_telemetry::SyntheticTelemetry;
    use waterwise_traces::TraceGenerator;

    let scenario = load("fig17");
    let jobs = TraceGenerator::new(scenario.config.trace.clone()).generate();
    let simulation = scenario.config.simulation.clone();
    let telemetry = scenario.config.telemetry;
    let make_scheduler = || {
        build_scheduler(
            SchedulerKind::WaterWise,
            SyntheticTelemetry::generate(telemetry).shared(),
            FootprintEstimator::new(simulation.datacenter),
            &scenario.config.waterwise,
        )
    };

    let offline = Simulator::new(
        simulation.clone(),
        SyntheticTelemetry::generate(telemetry).shared(),
    )
    .expect("valid simulation config")
    .run(&jobs, make_scheduler().as_mut())
    .expect("offline reference campaign must run");

    // A live TCP session on a one-session host under the discrete clock
    // must reproduce the offline schedule byte for byte.
    let config = ServiceConfig::new(simulation.clone(), telemetry).with_clock(ClockMode::Discrete);
    let service = PlacementService::new(config).expect("valid service config");
    let host = ClusterHost::start_with_service(
        service,
        AdmissionConfig {
            tenant_inflight_quota: jobs.len().max(1),
            mode: AdmissionMode::Streaming {
                close_after_sessions: Some(1),
            },
            ..AdmissionConfig::default()
        },
        make_scheduler(),
    )
    .expect("host must start");
    let server = TcpClusterServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        let jobs = &jobs;
        let client = scope.spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect to service");
            let mut writer = stream.try_clone().expect("clone stream");
            std::thread::scope(|inner| {
                // Drain responses concurrently or the two directions
                // deadlock on full socket buffers.
                let reader = inner.spawn(move || {
                    for line in BufReader::new(stream).lines() {
                        line.expect("read response line");
                    }
                });
                for spec in jobs.iter() {
                    writeln!(writer, "{}", waterwise_service::wire::encode_request(spec))
                        .expect("send request");
                }
                writer.flush().expect("flush requests");
                let _ = writer.shutdown(std::net::Shutdown::Write);
                reader.join().expect("response reader panicked");
            });
        });
        server
            .serve_sessions(&host, 1)
            .expect("serving session must complete");
        client.join().expect("client panicked");
    });
    let report = host.shutdown().expect("host shutdown");
    assert_eq!(report.accepted, jobs.len(), "every request admitted");
    assert_eq!(
        report.report.outcomes, offline.outcomes,
        "online session diverged from the offline replay"
    );

    let mut snap = Snapshot::new();
    snap.add_summary("offline", &offline.summary);
    snap.add_schedule("offline", &offline.outcomes);
    assert_snapshot(&snapshots_dir(), "fig17", &snap.render());
}

#[test]
fn server_multi_scenario_live_tcp_sessions_match_golden() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use waterwise_cluster::ClockMode;
    use waterwise_core::build_scheduler;
    use waterwise_service::{
        wire, AdmissionConfig, AdmissionMode, ClusterHost, PlacementService, ServiceConfig,
        TcpClusterServer,
    };
    use waterwise_sustain::FootprintEstimator;
    use waterwise_traces::TraceGenerator;

    let scenario = load("server_multi");
    let jobs = TraceGenerator::new(scenario.config.trace.clone()).generate();
    let simulation = scenario.config.simulation.clone();
    let telemetry = scenario.config.telemetry;
    // Round-robin split across four tenant streams — a pure function of the
    // trace, independent of any live-run race.
    let tenants = ["tenant-a", "tenant-b", "tenant-c", "tenant-d"];
    let streams: Vec<Vec<_>> = (0..tenants.len())
        .map(|t| {
            jobs.iter()
                .skip(t)
                .step_by(tenants.len())
                .cloned()
                .collect()
        })
        .collect();

    let make_service = || {
        PlacementService::new(
            ServiceConfig::new(simulation.clone(), telemetry).with_clock(ClockMode::Discrete),
        )
        .expect("valid service config")
    };
    let make_scheduler = |service: &PlacementService| {
        build_scheduler(
            SchedulerKind::WaterWise,
            service.telemetry(),
            FootprintEstimator::new(simulation.datacenter),
            &scenario.config.waterwise,
        )
    };

    // Gated admission: every request is held until all four sessions end,
    // then released in canonical (submit_time, tenant, id) order — the
    // merged schedule cannot depend on accept order or interleaving, which
    // is what makes a live multi-session TCP run goldenable at all.
    let admission = AdmissionConfig {
        tenant_inflight_quota: jobs.len().max(1),
        mode: AdmissionMode::Gated {
            sessions: tenants.len(),
        },
        ..AdmissionConfig::default()
    };

    let service = make_service();
    let scheduler = make_scheduler(&service);
    let host =
        ClusterHost::start_with_service(service, admission, scheduler).expect("host must start");
    let server = TcpClusterServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_sessions(&host, tenants.len()));
        let clients: Vec<_> = tenants
            .iter()
            .zip(&streams)
            .map(|(tenant, stream)| {
                scope.spawn(move || {
                    let mut socket = TcpStream::connect(addr).expect("connect");
                    let reader = BufReader::new(socket.try_clone().expect("clone stream"));
                    for spec in stream {
                        writeln!(socket, "{}", wire::encode_tenant_request(tenant, spec))
                            .expect("send request");
                    }
                    socket.flush().expect("flush requests");
                    let _ = socket.shutdown(std::net::Shutdown::Write);
                    reader
                        .lines()
                        .filter_map(|l| wire::placement_job_id(&l.expect("read line")))
                        .count()
                })
            })
            .collect();
        for (client, stream) in clients.into_iter().zip(&streams) {
            assert_eq!(
                client.join().expect("client panicked"),
                stream.len(),
                "every request of every tenant must be placed"
            );
        }
        serving.join().expect("server panicked").expect("sessions");
    });
    let report = host.shutdown().expect("host shutdown");
    assert_eq!(report.accepted, jobs.len());
    assert_eq!(report.served, jobs.len());
    assert_eq!(report.sessions, tenants.len());

    // journal == replay, byte for byte: the live run's admission
    // journal replayed offline reproduces the schedule exactly.
    let replay_service = make_service();
    let mut replay_scheduler = make_scheduler(&replay_service);
    let replay = report
        .journal
        .replay(&replay_service, replay_scheduler.as_mut())
        .expect("journal must replay");
    assert_eq!(
        report.report.outcomes, replay.report.report.outcomes,
        "offline journal replay diverged from the live multi-session run"
    );
    assert_eq!(report.schedule_digest(), replay.schedule_digest());

    let mut snap = Snapshot::new();
    snap.add_summary("host", &report.report.summary);
    snap.add_schedule("host", &report.report.outcomes);
    snap.entry("host.sessions", report.sessions);
    snap.entry("host.accepted", report.accepted);
    for (tenant, stats) in &report.tenants {
        snap.entry(format!("tenant.{tenant}.served"), stats.served);
    }
    assert_snapshot(&snapshots_dir(), "server_multi", &snap.render());
}

#[test]
fn server_resume_scenario_pins_a_save_restart_resume_cycle() {
    use support::submit_wave;
    use waterwise_cluster::ClockMode;
    use waterwise_core::build_scheduler;
    use waterwise_service::{
        AdmissionConfig, AdmissionMode, ClusterHost, HostPersistence, Journal, PlacementService,
        ServiceConfig, TenantId,
    };
    use waterwise_sustain::FootprintEstimator;
    use waterwise_traces::TraceGenerator;

    let scenario = load("server_resume");
    let dir = std::env::temp_dir().join(format!("ww-resume-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let journal_path = dir.join("host.journal");

    // The uninterrupted reference: the spec as an offline campaign.
    let cold = Campaign::new(scenario.config.clone())
        .run(SchedulerKind::WaterWise)
        .expect("cold campaign must run");

    // The same trace through a host that streams its admission journal,
    // stopped half-way and resumed from that journal. One tenant drains in
    // submission order; the quota holds the whole trace in flight.
    let wave: Vec<_> = TraceGenerator::new(scenario.config.trace.clone())
        .generate()
        .into_iter()
        .map(|spec| (TenantId::from("client"), spec))
        .collect();
    let (head, tail) = wave.split_at(wave.len() / 2);
    let start = |resume: Option<Journal>| {
        let config = ServiceConfig::new(
            scenario.config.simulation.clone(),
            scenario.config.telemetry,
        )
        .with_clock(ClockMode::Discrete);
        let service = PlacementService::new(config).expect("valid service config");
        let scheduler = build_scheduler(
            SchedulerKind::WaterWise,
            service.telemetry(),
            FootprintEstimator::new(scenario.config.simulation.datacenter),
            &scenario.config.waterwise,
        );
        let mut persistence = HostPersistence::default().with_journal_path(&journal_path);
        if let Some(journal) = resume {
            persistence = persistence.with_resume(journal);
        }
        let admission = AdmissionConfig {
            tenant_inflight_quota: wave.len(),
            mode: AdmissionMode::Streaming {
                close_after_sessions: None,
            },
            ..AdmissionConfig::default()
        };
        ClusterHost::start_persistent(service, admission, scheduler, persistence)
            .expect("host must start")
    };

    // The interrupted run: the head is on disk, then the host stops. Only
    // the journal file crosses the restart.
    let host = start(None);
    let _head_responses = submit_wave(&host, head, &journal_path, 0);
    host.shutdown().expect("interrupted host shutdown");
    let recovered = Journal::load(&journal_path).expect("recover journal");
    assert_eq!(recovered.entries.len(), head.len());

    let host = start(Some(recovered));
    let _tail_responses = submit_wave(&host, tail, &journal_path, head.len());
    let resumed = host.shutdown().expect("resumed host shutdown");
    assert_eq!(resumed.journal.entries.len(), wave.len());

    // resume == uninterrupted (ARCHITECTURE.md invariant table).
    assert_eq!(
        cold.report.outcomes, resumed.report.outcomes,
        "the journal-resumed host diverged from the uninterrupted campaign"
    );
    let mut snap = Snapshot::new();
    add_outcome(&mut snap, "cold", &cold);
    snap.add_summary("resumed", &resumed.report.summary);
    snap.add_schedule("resumed", &resumed.report.outcomes);
    assert_snapshot(&snapshots_dir(), "server_resume", &snap.render());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Harness negatives and hygiene
// ---------------------------------------------------------------------------

/// The deliberate-drift negative test: a single flipped digit in a schedule
/// digest must be caught and reported as a readable diff naming the
/// drifted `.snap` file.
#[test]
fn deliberate_drift_fails_with_a_diff_naming_the_scenario_file() {
    if update_mode() {
        return; // bless runs rewrite instead of diffing
    }
    let dir = snapshots_dir();
    let committed =
        std::fs::read_to_string(snapshot_path(&dir, "fig05")).expect("committed fig05.snap");
    // Flip the last hex digit of the first schedule digest.
    let drifted: String = {
        let target = committed
            .lines()
            .find(|l| l.contains(".digest = "))
            .expect("fig05.snap has digest lines");
        let flipped = {
            let mut chars: Vec<char> = target.chars().collect();
            let last = chars.last_mut().expect("non-empty digest line");
            *last = if *last == '0' { '1' } else { '0' };
            chars.into_iter().collect::<String>()
        };
        committed.replacen(target, &flipped, 1)
    };
    let err = check_snapshot(&dir, "fig05", &drifted).expect_err("drift must be detected");
    let SnapshotError::Drift { path, diff } = &err else {
        panic!("expected Drift, got {err:?}");
    };
    assert!(path.ends_with("fig05.snap"), "diff must name the file");
    assert!(diff.contains("- "), "diff shows the golden line");
    assert!(diff.contains("+ "), "diff shows the drifted line");
    assert!(diff.contains(".digest = "), "diff names the drifted key");
}

#[test]
fn no_orphaned_snapshot_files() {
    let orphans = orphaned_snapshots(&snapshots_dir(), &SCENARIO_NAMES)
        .expect("snapshot directory must be readable");
    assert!(
        orphans.is_empty(),
        "stale goldens with no scenario: {orphans:?} — delete them or restore their specs"
    );
}

#[test]
fn committed_scenario_specs_all_validate() {
    if let Err(located) = validate_scenarios(&SCENARIO_NAMES) {
        panic!("committed scenario spec failed validation: {located}");
    }
    // The server's default spec is not a fig scenario but ships alongside.
    load_spec(scenario_spec_path("server_default")).expect("server_default.spec must load");
}

#[test]
fn update_snapshots_is_never_set_in_ci() {
    if std::env::var_os("CI").is_some() {
        assert!(
            !update_mode(),
            "UPDATE_SNAPSHOTS must never be set in CI: goldens would silently re-bless"
        );
    }
}
