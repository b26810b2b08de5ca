//! The durable-state contract: **a host restarted from its recovered
//! on-disk journal behaves byte-identically to one that was never
//! interrupted.**
//!
//! The headline test runs a multi-tenant host, "crashes" it after N
//! admissions (capturing exactly what had reached disk, torn tail
//! included), restarts from the recovered journal, streams a second wave of
//! requests, and asserts the combined schedule digest, the combined
//! journal (in memory *and* on disk), and the per-tenant response sets
//! all match an uninterrupted run over the same submissions.
//!
//! The negative battery pins the failure typing: unsupported resume
//! configurations and corrupted journals each surface as their own
//! [`ServiceError`] variant naming the offender — never a panic, never
//! garbage state.

mod support;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use support::{submit_wave, wait_for_journal_lines};
use waterwise_cluster::{ClockMode, Scheduler, SimulationConfig};
use waterwise_core::{build_scheduler, SchedulerKind, WaterWiseConfig};
use waterwise_service::{
    AdmissionConfig, AdmissionMode, ClusterHost, HostPersistence, Journal, PlacementResponse,
    PlacementService, ServiceConfig, ServiceError, TenantId,
};
use waterwise_sustain::{FootprintEstimator, KilowattHours, Seconds};
use waterwise_telemetry::{Region, TelemetryConfig};
use waterwise_traces::{Benchmark, JobId, JobSpec};

const TELEMETRY_SEED: u64 = 23;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ww-restart-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn service_config() -> ServiceConfig {
    ServiceConfig::new(
        SimulationConfig::paper_default(3, 0.5),
        TelemetryConfig {
            seed: TELEMETRY_SEED,
            ..TelemetryConfig::default()
        },
    )
}

fn job(id: u64, submit: f64) -> JobSpec {
    JobSpec {
        id: JobId(id),
        benchmark: Benchmark::Dedup,
        submit_time: Seconds::new(submit),
        home_region: Region::Oregon,
        actual_execution_time: Seconds::new(120.0),
        actual_energy: KilowattHours::new(0.02),
        estimated_execution_time: Seconds::new(120.0),
        estimated_energy: KilowattHours::new(0.02),
        package_bytes: 1 << 16,
    }
}

/// The two waves of the run: wave one is admitted before the crash, wave
/// two only after the restart. Tenants interleave within each wave, and
/// wave-two submit times sit after wave one's so the commit order is
/// stable across the session boundary.
fn wave_one() -> Vec<(TenantId, JobSpec)> {
    (0..6u64)
        .map(|k| {
            let tenant = if k % 2 == 0 { "acme" } else { "umbrella" };
            (TenantId::from(tenant), job(k + 1, k as f64 * 30.0))
        })
        .collect()
}

fn wave_two() -> Vec<(TenantId, JobSpec)> {
    (0..6u64)
        .map(|k| {
            let tenant = if k % 2 == 0 { "umbrella" } else { "acme" };
            (
                TenantId::from(tenant),
                job(k + 101, 600.0 + k as f64 * 30.0),
            )
        })
        .collect()
}

/// The default WaterWise scheduler over the service's telemetry.
fn waterwise_scheduler(service: &PlacementService) -> Box<dyn Scheduler> {
    build_scheduler(
        SchedulerKind::WaterWise,
        service.telemetry(),
        FootprintEstimator::new(service.config().simulation.datacenter),
        &WaterWiseConfig::default(),
    )
}

fn streaming() -> AdmissionConfig {
    AdmissionConfig {
        mode: AdmissionMode::Streaming {
            close_after_sessions: None,
        },
        ..AdmissionConfig::default()
    }
}

/// Responses do not carry a tenant (the admission layer owns routing), so
/// per-tenant sets are re-derived from the waves' job→tenant assignment.
fn group_by_tenant(
    responses: Vec<PlacementResponse>,
) -> BTreeMap<TenantId, Vec<PlacementResponse>> {
    let owners: BTreeMap<JobId, TenantId> = wave_one()
        .into_iter()
        .chain(wave_two())
        .map(|(tenant, spec)| (spec.id, tenant))
        .collect();
    let mut grouped: BTreeMap<TenantId, Vec<PlacementResponse>> = BTreeMap::new();
    for response in responses {
        let tenant = owners.get(&response.job).expect("response for a known job");
        grouped.entry(tenant.clone()).or_default().push(response);
    }
    grouped
}

/// A one-entry journal built through the public text codec.
fn one_entry_journal() -> Journal {
    Journal::parse(
        "{\"seq\":0,\"tenant\":\"acme\",\"id\":1,\"benchmark\":\"dedup\",\
         \"home_region\":\"oregon\",\"execution_time\":60,\"energy\":0.01}",
    )
    .expect("test journal")
}

/// The headline battery: crash after wave one, restart from disk, run
/// wave two, compare everything against the uninterrupted double-wave run.
#[test]
fn restarted_host_is_byte_identical_to_uninterrupted_run() {
    let dir = scratch("identity");
    let journal_path = dir.join("host.journal");

    // ---- Interrupted run, part 1: stream wave one, then "crash". ----
    let (pre_responses, frozen_journal) = {
        let service = PlacementService::new(service_config()).expect("service");
        let scheduler = waterwise_scheduler(&service);
        let host = ClusterHost::start_persistent(
            service,
            streaming(),
            scheduler,
            HostPersistence::default().with_journal_path(&journal_path),
        )
        .expect("start host 1");
        let responses = submit_wave(&host, &wave_one(), &journal_path, 0);
        // The crash point: all six admissions are on disk. Freeze the file
        // content *now* — nothing the host does after this instant reaches
        // the "recovered" state.
        let frozen = wait_for_journal_lines(&journal_path, wave_one().len());
        // The doomed host must still drain (threads cannot be killed), so
        // clean-join it and discard its report; only `frozen` and the
        // already-delivered responses survive the crash.
        host.shutdown().expect("host 1 shutdown");
        let delivered: Vec<PlacementResponse> = responses.iter().collect();
        (delivered, frozen)
    };
    assert_eq!(pre_responses.len(), wave_one().len());

    // The crash tore a half-written line onto the journal tail; recovery
    // must shed it and keep every complete entry.
    fs::write(
        &journal_path,
        format!("{frozen_journal}{{\"seq\":4294967296,\"tena"),
    )
    .expect("write torn journal");

    // ---- Interrupted run, part 2: restart from the recovered journal. ----
    let recovered = Journal::load(&journal_path).expect("recover journal");
    assert_eq!(
        recovered.entries.len(),
        wave_one().len(),
        "torn tail must be shed, complete entries kept"
    );

    let service = PlacementService::new(service_config()).expect("service");
    let scheduler = waterwise_scheduler(&service);
    let host = ClusterHost::start_persistent(
        service,
        streaming(),
        scheduler,
        HostPersistence::default()
            .with_journal_path(&journal_path)
            .with_resume(recovered),
    )
    .expect("start resumed host");
    let responses = submit_wave(&host, &wave_two(), &journal_path, wave_one().len());
    let resumed_report = host.shutdown().expect("resumed shutdown");
    let post_responses: Vec<PlacementResponse> = responses.iter().collect();
    assert_eq!(post_responses.len(), wave_two().len());

    // ---- Uninterrupted baseline: both waves through one host life. ----
    let baseline_journal_path = dir.join("baseline.journal");
    let service = PlacementService::new(service_config()).expect("service");
    let scheduler = waterwise_scheduler(&service);
    let host = ClusterHost::start_persistent(
        service,
        streaming(),
        scheduler,
        HostPersistence::default().with_journal_path(&baseline_journal_path),
    )
    .expect("start baseline host");
    let first = submit_wave(&host, &wave_one(), &baseline_journal_path, 0);
    let second = submit_wave(&host, &wave_two(), &baseline_journal_path, wave_one().len());
    let baseline_report = host.shutdown().expect("baseline shutdown");
    let baseline_responses: Vec<PlacementResponse> = first.iter().chain(second.iter()).collect();

    // ---- The identity. ----
    assert_eq!(
        baseline_report.trace, resumed_report.trace,
        "combined stamped trace diverged"
    );
    assert_eq!(
        baseline_report.journal, resumed_report.journal,
        "combined journal diverged"
    );
    assert_eq!(
        baseline_report.schedule_digest(),
        resumed_report.schedule_digest(),
        "resumed schedule diverged from the uninterrupted run"
    );
    // The on-disk journals are byte-identical too: the resumed host
    // rewrote the recovered prefix and streamed the new entries behind it.
    assert_eq!(
        fs::read(&journal_path).expect("read resumed journal"),
        fs::read(&baseline_journal_path).expect("read baseline journal"),
        "on-disk journals diverged"
    );
    // Per-tenant response sets: crash-surviving responses plus
    // post-restart responses must equal the uninterrupted run's, tenant by
    // tenant, in commit order.
    let interrupted = group_by_tenant(
        pre_responses
            .into_iter()
            .chain(post_responses)
            .collect::<Vec<_>>(),
    );
    let baseline = group_by_tenant(baseline_responses);
    assert_eq!(
        baseline, interrupted,
        "per-tenant response sets diverged across the restart"
    );

    // And the combined journal still replays offline to the same bytes —
    // resume composes with the existing replay harness.
    let replay_service = PlacementService::new(service_config()).expect("service");
    let mut replay_scheduler = waterwise_scheduler(&replay_service);
    let replay = resumed_report
        .journal
        .replay(&replay_service, replay_scheduler.as_mut())
        .expect("replay");
    assert_eq!(replay.schedule_digest(), resumed_report.schedule_digest());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_requires_streaming_admission() {
    let service = PlacementService::new(service_config()).expect("service");
    let scheduler = waterwise_scheduler(&service);
    let result = ClusterHost::start_persistent(
        service,
        AdmissionConfig {
            mode: AdmissionMode::Gated { sessions: 1 },
            ..AdmissionConfig::default()
        },
        scheduler,
        HostPersistence::default().with_resume(one_entry_journal()),
    );
    match result {
        Err(ServiceError::ResumeUnsupported { reason }) => {
            assert!(reason.contains("streaming"), "{reason}")
        }
        Ok(_) => panic!("gated resume must be rejected"),
        Err(other) => panic!("expected ResumeUnsupported, got {other}"),
    }
}

#[test]
fn resume_requires_the_discrete_clock() {
    let service =
        PlacementService::new(service_config().with_clock(ClockMode::RealTime { scale: 1000.0 }))
            .expect("service");
    let scheduler = waterwise_scheduler(&service);
    let result = ClusterHost::start_persistent(
        service,
        streaming(),
        scheduler,
        HostPersistence::default().with_resume(one_entry_journal()),
    );
    match result {
        Err(ServiceError::ResumeUnsupported { reason }) => {
            assert!(reason.contains("discrete"), "{reason}")
        }
        Ok(_) => panic!("real-time resume must be rejected"),
        Err(other) => panic!("expected ResumeUnsupported, got {other}"),
    }
}

#[test]
fn missing_journal_file_is_a_typed_io_error() {
    let dir = scratch("missing-journal");
    let path = dir.join("never-written.journal");
    match Journal::load(&path) {
        Err(ServiceError::JournalIo { path: reported, .. }) => assert_eq!(reported, path),
        other => panic!("expected JournalIo, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_complete_journal_line_is_typed_and_names_the_line() {
    let dir = scratch("corrupt-journal");
    let path = dir.join("host.journal");
    let good = one_entry_journal().encode();
    // A *complete* (newline-terminated) malformed line is corruption, not
    // a torn tail: it must fail typed, naming the line.
    fs::write(&path, format!("{good}this is not json\n")).expect("write");
    match Journal::load(&path) {
        Err(ServiceError::JournalMalformed { line: 2, .. }) => {}
        other => panic!("expected JournalMalformed on line 2, got {other:?}"),
    }
    // A torn (unterminated) tail is recovered by shedding it.
    fs::write(&path, format!("{good}{{\"seq\":12,\"tena")).expect("write torn");
    let recovered = Journal::load(&path).expect("torn tail must recover");
    assert_eq!(recovered.entries.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}
