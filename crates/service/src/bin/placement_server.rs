//! `placement_server` — stand-alone TCP placement service.
//!
//! Serves the line-delimited-JSON placement protocol. The base
//! configuration is a declarative scenario spec —
//! `scenarios/server_default.spec` unless `--scenario <path>` /
//! `WATERWISE_SCENARIO` names another file (grammar: `docs/SCENARIOS.md`)
//! — and individual environment variables override knobs on top of it;
//! see `docs/ONLINE_SERVICE.md` for the operator's guide.
//!
//! One serving shape: each engine run is a [`ClusterHost`] hosting
//! `WATERWISE_MULTI_SESSION` *concurrent* client sessions (default 1) with
//! per-tenant admission control and a fresh scheduler. When a run's
//! sessions have all ended it prints the campaign summary and
//! (with `WATERWISE_JOURNAL=<path>`) writes the admission journal,
//! replayable via [`waterwise_service::Journal`]. The server exits after
//! `WATERWISE_SESSIONS` sessions in total — by default after one run when
//! `WATERWISE_MULTI_SESSION` is set, never otherwise.
//!
//! | Variable | Value | Overrides | Meaning |
//! |---|---|---|---|
//! | `WATERWISE_ADDR` | `host:port` | — | Listen address, default `127.0.0.1:7878`; port `0` binds an ephemeral port. |
//! | `WATERWISE_SCENARIO` | path | the whole spec | Path of the scenario spec file (as `--scenario`). |
//! | `WATERWISE_CLOCK` | `discrete` \| `real-time:S` (S > 0) | `[simulation] clock` | Clock of the online service (`ClockMode`; alias `realtime:S`); offline campaigns are always discrete. |
//! | `WATERWISE_SERVERS` | integer ≥ 1 | `[simulation] servers_per_region` | Uniform region capacity. |
//! | `WATERWISE_TOLERANCE` | float ≥ 0 | `[simulation] delay_tolerance` | Deadline slack as a fraction of execution time. |
//! | `WATERWISE_SEED` | u64 | `[scenario] seed` | Campaign seed — trace *and* (unless `[telemetry] seed` overrides it) telemetry. |
//! | `WATERWISE_MULTI_SESSION` | integer ≥ 1 | — | Concurrent sessions per engine run, default 1: each run accepts this many connections, serves them on one engine, and reports when the last one ends. |
//! | `WATERWISE_SESSIONS` | integer ≥ 0 | — | Serve this many sessions in total, then exit. Default: one run's worth when `WATERWISE_MULTI_SESSION` is set, unlimited otherwise. |
//! | `WATERWISE_ADMISSION` | `streaming` \| `gated` | — | Drain mode, default `streaming`. |
//! | `WATERWISE_TENANT_QUOTA` | integer ≥ 1 | — | Per-tenant in-flight admission quota, default 64. |
//! | `WATERWISE_DRR_QUANTUM` | integer ≥ 1 | — | Deficit-round-robin drain quantum, default 8. |
//! | `WATERWISE_JOURNAL` | path | — | Write each finished run's admission journal to this file. |
//! | `WATERWISE_JOURNAL_PATH` | path | — | *Stream* the current run's admission journal to this file as entries are admitted (crash durability); each run restarts the file. |
//! | `WATERWISE_RESUME` | `1` \| `true` \| `0` \| `false` | — | `1`/`true`: the first run replays the journal recovered at `WATERWISE_JOURNAL_PATH` before new sessions; default `0`/`false`. |
//!
//! Each override is read through its spec key's row, so it refuses what the
//! key refuses. A refused value exits 2 naming the variable and quoting the
//! value; a trailing `--scenario` with no path exits 2 naming the flag. A
//! test keeps this table equal to the tables the server reads.

// DET003 (docs/LINTING.md): a bad override is an exit-2 message, never a
// panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::path::Path;
use waterwise_core::scenario::load_scenario;
use waterwise_core::{build_scheduler, Scenario, SchedulerKind};
use waterwise_service::deployment::SPEC_OVERRIDES;
use waterwise_service::{
    ClusterHost, Deployment, HostPersistence, Journal, PlacementService, ServiceConfig,
    TcpClusterServer,
};
use waterwise_sustain::FootprintEstimator;

/// Print the failure and exit with the operator-error status. A failed run
/// is reported and the server keeps going; this is for startup-time
/// failures (unbindable address, unusable journal).
fn exit_with(message: std::fmt::Arguments<'_>) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Journal durability: `WATERWISE_JOURNAL_PATH` streams the run's
/// admission journal to disk; with `resume` (the first run under
/// `WATERWISE_RESUME=1`) the run replays whatever journal survived there.
fn persistence_setup(journal_path: Option<&Path>, resume: bool) -> HostPersistence {
    let mut persistence = HostPersistence::default();
    let Some(path) = journal_path else {
        return persistence;
    };
    if resume && path.exists() {
        match Journal::load(path) {
            Ok(journal) => {
                eprintln!(
                    "resuming: {} admitted entries recovered from {}",
                    journal.entries.len(),
                    path.display()
                );
                persistence = persistence.with_resume(journal);
            }
            Err(error) => exit_with(format_args!("failed to recover journal: {error}")),
        }
    }
    persistence.with_journal_path(path)
}

/// One engine run: host `concurrent` simultaneous sessions on a fresh
/// [`ClusterHost`] until every one of them has ended, then report. Returns
/// whether the run's engine finished cleanly.
fn serve_run(
    server: &TcpClusterServer,
    config: &ServiceConfig,
    scenario: &Scenario,
    deployment: &Deployment,
    concurrent: usize,
    resume: bool,
) -> bool {
    let service = match PlacementService::new(config.clone()) {
        Ok(service) => service,
        Err(error) => exit_with(format_args!("invalid service configuration: {error}")),
    };
    let scheduler = build_scheduler(
        SchedulerKind::WaterWise,
        service.telemetry(),
        FootprintEstimator::new(service.config().simulation.datacenter),
        &scenario.config.waterwise,
    );
    let admission = deployment.admission(concurrent);
    let persistence = persistence_setup(deployment.journal_path.as_deref(), resume);
    let host = match ClusterHost::start_persistent(service, admission, scheduler, persistence) {
        Ok(host) => host,
        Err(error) => exit_with(format_args!("failed to start cluster host: {error}")),
    };
    if let Err(error) = server.serve_sessions(&host, concurrent) {
        eprintln!("serve ended with a session failure: {error}");
    }
    match host.shutdown() {
        Ok(report) => {
            eprintln!(
                "host done: {} sessions, {} tenants, accepted {}, rejected {}, served {}, \
                 makespan {:.0} s, total {:.1} gCO2 / {:.1} L, digest {:016x}",
                report.sessions,
                report.tenants.len(),
                report.accepted,
                report.rejected,
                report.served,
                report.report.makespan.value(),
                report.report.summary.total_carbon.value(),
                report.report.summary.total_water.value(),
                report.schedule_digest(),
            );
            if let Some(path) = &deployment.journal {
                match std::fs::write(path, report.journal.encode()) {
                    Ok(()) => eprintln!(
                        "admission journal ({} entries) written to {}",
                        report.journal.entries.len(),
                        path.display()
                    ),
                    Err(error) => eprintln!("failed to write journal: {error}"),
                }
            }
            true
        }
        Err(error) => {
            eprintln!("host failed: {error}");
            false
        }
    }
}

fn main() {
    let scenario = load_scenario("server_default", &SPEC_OVERRIDES).unwrap_or_else(|e| e.exit());
    let deployment = Deployment::from_env().unwrap_or_else(|e| e.exit());
    let config = ServiceConfig::new(
        scenario.config.simulation.clone(),
        scenario.config.telemetry,
    )
    .with_clock(scenario.clock);
    let concurrent = deployment.multi_session.unwrap_or(1);
    // Naming a concurrency asks for exactly one run of that many sessions;
    // the plain invocation keeps serving clients until killed.
    let sessions = deployment
        .sessions
        .or(deployment.multi_session)
        .unwrap_or(usize::MAX);

    let addr = deployment.addr.as_deref().unwrap_or("127.0.0.1:7878");
    let server = match TcpClusterServer::bind(addr) {
        Ok(server) => server,
        Err(error) => exit_with(format_args!("failed to bind {addr}: {error}")),
    };
    match server.local_addr() {
        Ok(local) => eprintln!(
            "placement_server listening on {local}, {concurrent} concurrent session(s) per run \
             (scenario {}, clock {}, seed {})",
            scenario.name,
            scenario.clock.label(),
            scenario.seed,
        ),
        Err(error) => exit_with(format_args!("listener has no local address: {error}")),
    }

    let mut served = 0usize;
    let mut failed = false;
    while served < sessions {
        let batch = concurrent.min(sessions - served);
        // Runs are independent campaigns over a fresh engine; only the first
        // resumes a recovered journal.
        let resume_run = deployment.resume && served == 0;
        failed |= !serve_run(&server, &config, &scenario, &deployment, batch, resume_run);
        served += batch;
    }
    if failed {
        std::process::exit(2);
    }
}
