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
//! | Variable | Overrides | Meaning |
//! |---|---|---|
//! | `WATERWISE_ADDR` | — | Listen address, default `127.0.0.1:7878` (`:0` for ephemeral). |
//! | `WATERWISE_SCENARIO` | the whole spec | Path of the scenario spec file. |
//! | `WATERWISE_CLOCK` | `[simulation] clock` | `discrete` or `real-time:<scale>` (finite, positive scale), as in the spec. |
//! | `WATERWISE_SERVERS` | `[simulation] servers_per_region` | Servers per region. |
//! | `WATERWISE_TOLERANCE` | `[simulation] delay_tolerance` | Delay tolerance (fraction of execution time). |
//! | `WATERWISE_SEED` | `[scenario] seed` | Trace + telemetry seed. |
//! | `WATERWISE_SESSIONS` | — | Serve this many sessions in total, then exit. |
//! | `WATERWISE_MULTI_SESSION` | — | Concurrent sessions per engine run (default 1). |
//! | `WATERWISE_ADMISSION` | — | Drain mode: `streaming` (default) or `gated`; anything else is a startup error. |
//! | `WATERWISE_TENANT_QUOTA` | — | Per-tenant in-flight quota (default 64). |
//! | `WATERWISE_DRR_QUANTUM` | — | Deficit-round-robin quantum (default 8). |
//! | `WATERWISE_JOURNAL` | — | Write each finished run's admission journal to this path. |
//! | `WATERWISE_JOURNAL_PATH` | — | *Stream* the current run's admission journal to this file as entries are admitted (crash durability). |
//! | `WATERWISE_RESUME` | — | `1`/`true`: the first run replays a recovered `WATERWISE_JOURNAL_PATH` journal at startup, rebuilding the engine's state before new sessions; `0`/`false` (default): it does not. Anything else is a startup error. |

use std::path::{Path, PathBuf};
use waterwise_cluster::ClockMode;
use waterwise_core::{build_scheduler, parse_clock_mode, Scenario, SchedulerKind};
use waterwise_service::{
    AdmissionConfig, AdmissionMode, ClusterHost, HostPersistence, Journal, PlacementService,
    ServiceConfig, TcpClusterServer,
};
use waterwise_sustain::FootprintEstimator;

/// An environment override: unset keeps the default, a value that does not
/// parse is a startup error naming the variable — never a silent default.
fn env_opt<T: std::str::FromStr>(key: &str) -> Option<T> {
    let raw = std::env::var_os(key)?;
    match raw.to_str().and_then(|value| value.parse().ok()) {
        Some(value) => Some(value),
        None => exit_with(format_args!("invalid {key}: cannot parse {raw:?}")),
    }
}

/// An environment switch: unset keeps the default, a value outside
/// `choices` is a startup error naming the variable.
fn env_choice<T: Copy>(key: &str, choices: &[(&str, T)]) -> Option<T> {
    let raw = std::env::var_os(key)?;
    let value = raw.to_str().unwrap_or_default();
    match choices.iter().find(|(name, _)| *name == value) {
        Some(&(_, choice)) => Some(choice),
        None => {
            let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
            exit_with(format_args!(
                "invalid {key}: expected one of {}, got {raw:?}",
                names.join(" | ")
            ))
        }
    }
}

/// Print the failure and exit with the operator-error status. A failed run
/// is reported and the server keeps going; this is for startup-time
/// misconfiguration (bad spec, unbindable address, unusable journal).
fn exit_with(message: std::fmt::Arguments<'_>) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// `--scenario <path>` / `--scenario=<path>` / `WATERWISE_SCENARIO`, else
/// `server_default.spec` under `WATERWISE_SCENARIO_DIR` or the workspace
/// `scenarios/` directory. A trailing `--scenario` with no path exits 2.
fn spec_path() -> PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scenario" {
            return match args.next() {
                Some(path) => PathBuf::from(path),
                None => exit_with(format_args!("--scenario needs a path")),
            };
        }
        if let Some(path) = arg.strip_prefix("--scenario=") {
            return PathBuf::from(path);
        }
    }
    if let Some(path) = std::env::var_os("WATERWISE_SCENARIO") {
        return PathBuf::from(path);
    }
    std::env::var_os("WATERWISE_SCENARIO_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("scenarios")
        })
        .join("server_default.spec")
}

fn load_scenario_or_exit() -> Scenario {
    let path = spec_path();
    match waterwise_core::load_spec(&path) {
        Ok(scenario) => scenario,
        Err(err) => exit_with(format_args!(
            "invalid scenario spec: {}",
            err.located(path.display())
        )),
    }
}

/// `WATERWISE_CLOCK`, in the grammar of the spec's `clock` key; a value it
/// rejects (including a zero, negative or non-finite scale) is a startup
/// error.
fn clock_override() -> Option<ClockMode> {
    let raw = std::env::var_os("WATERWISE_CLOCK")?;
    match parse_clock_mode(raw.to_str().unwrap_or_default()) {
        Ok(clock) => Some(clock),
        Err(reason) => exit_with(format_args!("invalid WATERWISE_CLOCK {raw:?}: {reason}")),
    }
}

/// Journal durability from the environment: `WATERWISE_JOURNAL_PATH`
/// streams the run's admission journal to disk; with `resume` (the first
/// run under `WATERWISE_RESUME=1`) the run replays whatever journal
/// survived at that path.
fn persistence_setup(resume: bool) -> HostPersistence {
    let mut persistence = HostPersistence::default();
    let Some(path) = std::env::var_os("WATERWISE_JOURNAL_PATH").map(PathBuf::from) else {
        return persistence;
    };
    if resume && path.exists() {
        match Journal::load(&path) {
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

/// The admission policy from the environment; `gated` is
/// `WATERWISE_ADMISSION=gated`.
fn admission_config(concurrent: usize, gated: bool) -> AdmissionConfig {
    let mut config = AdmissionConfig {
        mode: AdmissionMode::Streaming {
            close_after_sessions: Some(concurrent),
        },
        ..AdmissionConfig::default()
    };
    if let Some(quota) = env_opt::<usize>("WATERWISE_TENANT_QUOTA") {
        config.tenant_inflight_quota = quota;
    }
    if let Some(quantum) = env_opt::<usize>("WATERWISE_DRR_QUANTUM") {
        config.drr_quantum = quantum;
    }
    if gated {
        config.mode = AdmissionMode::Gated {
            sessions: concurrent,
        };
    }
    config
}

/// One engine run: host `concurrent` simultaneous sessions on a fresh
/// [`ClusterHost`] until every one of them has ended, then report. Returns
/// whether the run's engine finished cleanly.
fn serve_run(
    server: &TcpClusterServer,
    config: &ServiceConfig,
    scenario: &Scenario,
    concurrent: usize,
    gated: bool,
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
    let admission = admission_config(concurrent, gated);
    let persistence = persistence_setup(resume);
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
            if let Some(path) = std::env::var_os("WATERWISE_JOURNAL") {
                match std::fs::write(&path, report.journal.encode()) {
                    Ok(()) => eprintln!(
                        "admission journal ({} entries) written to {}",
                        report.journal.entries.len(),
                        PathBuf::from(&path).display()
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
    let mut scenario = load_scenario_or_exit();
    if let Some(seed) = env_opt::<u64>("WATERWISE_SEED") {
        scenario = scenario.with_seed(seed);
    }
    let mut simulation = scenario.config.simulation.clone();
    if let Some(servers) = env_opt::<usize>("WATERWISE_SERVERS") {
        for (_, n) in &mut simulation.regions {
            *n = servers;
        }
    }
    if let Some(tolerance) = env_opt::<f64>("WATERWISE_TOLERANCE") {
        simulation.delay_tolerance = tolerance;
    }
    let clock = clock_override().unwrap_or(scenario.clock);
    let gated = env_choice(
        "WATERWISE_ADMISSION",
        &[("streaming", false), ("gated", true)],
    )
    .unwrap_or(false);
    let resume = env_choice(
        "WATERWISE_RESUME",
        &[("1", true), ("true", true), ("0", false), ("false", false)],
    )
    .unwrap_or(false);
    if let Err(error) = simulation.validate() {
        exit_with(format_args!("invalid service configuration: {error}"));
    }
    let config = ServiceConfig::new(simulation, scenario.config.telemetry).with_clock(clock);
    let addr = std::env::var("WATERWISE_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());
    let multi_session = env_opt::<usize>("WATERWISE_MULTI_SESSION");
    let concurrent = multi_session.unwrap_or(1).max(1);
    // Naming a concurrency asks for exactly one run of that many sessions;
    // the plain invocation keeps serving clients until killed.
    let sessions: usize = env_opt("WATERWISE_SESSIONS")
        .or(multi_session.map(|_| concurrent))
        .unwrap_or(usize::MAX);

    let server = match TcpClusterServer::bind(&addr) {
        Ok(server) => server,
        Err(error) => exit_with(format_args!("failed to bind {addr}: {error}")),
    };
    match server.local_addr() {
        Ok(local) => eprintln!(
            "placement_server listening on {local}, {concurrent} concurrent session(s) per run \
             (scenario {}, clock {}, seed {})",
            scenario.name,
            clock.label(),
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
        let resume_run = resume && served == 0;
        failed |= !serve_run(&server, &config, &scenario, batch, gated, resume_run);
        served += batch;
    }
    if failed {
        std::process::exit(2);
    }
}
