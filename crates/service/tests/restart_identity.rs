//! The durable-state contract's failure typing: unsupported resume
//! configurations and corrupted journals each surface as their own
//! [`ServiceError`] variant naming the offender — never a panic, never
//! garbage state.
//!
//! The contract itself, **a host restarted from its recovered on-disk
//! journal behaves byte-identically to one that was never interrupted**
//! (torn tail shed, second wave served, schedule, journal in memory and on
//! disk and per-tenant responses compared), is the
//! `resume_equals_uninterrupted` row of the root `tests/invariants.rs`.

use std::fs;
use std::path::PathBuf;
use waterwise_cluster::{ClockMode, Scheduler, SimulationConfig};
use waterwise_core::{build_scheduler, SchedulerKind, WaterWiseConfig};
use waterwise_service::{
    AdmissionConfig, AdmissionMode, ClusterHost, HostPersistence, Journal, PlacementService,
    ServiceConfig, ServiceError,
};
use waterwise_sustain::FootprintEstimator;
use waterwise_telemetry::TelemetryConfig;

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

/// The default WaterWise scheduler over the service's telemetry.
fn waterwise_scheduler(service: &PlacementService) -> Box<dyn Scheduler> {
    build_scheduler(
        SchedulerKind::WaterWise,
        service.telemetry(),
        FootprintEstimator::new(service.config().simulation.datacenter),
        &WaterWiseConfig::default(),
    )
}

/// A one-entry journal built through the public text codec.
fn one_entry_journal() -> Journal {
    Journal::parse(
        "{\"seq\":0,\"tenant\":\"acme\",\"id\":1,\"benchmark\":\"dedup\",\
         \"home_region\":\"oregon\",\"execution_time\":60,\"energy\":0.01}",
    )
    .expect("test journal")
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
        AdmissionConfig::default(),
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
