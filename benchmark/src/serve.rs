//! The `serve_tcp` workload: the engine behind `ClusterHost` +
//! `TcpClusterServer` on loopback, one tenant connection that streams the
//! trace as NDJSON, half-closes and reads to EOF.
//!
//! Every pass streams the admission journal to a file under the
//! benchmark's own `target/` (one `fsync` per 32 requests), because the
//! journal is part of the serving share this workload exists to measure; the
//! file must load back to what the host accepted, and is removed after the
//! pass. What the journal costs is a per-layer number of the traced run
//! (`service.host.nojournal_jobs_per_s`).
//!
//! Closed set, open pace: the single client writes as fast as the socket
//! takes it (one writer thread, one reader thread — the two load-generating
//! threads the 2-core box allows) and never waits for a reply, so the server
//! is always backlogged and the metric is throughput, not latency. One
//! session keeps the schedule a pure function of the trace.

use crate::campaign::{self, scheduler_for, Inputs};
use crate::measure::{paired_overhead_pct, peak_rss_mb, set_layer, solver_layers, Ledger};
use crate::stats::median;
use crate::trace::{
    allocation_counters, count_allocations, direct_loop_s, lookup_cost_s, RoundLog, TimedProvider,
    TimedScheduler, Tracer,
};
use crate::workload::{RunOptions, Workload, WorkloadResult, MIN_PASSES};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use waterwise::cluster::{ClockMode, EngineMode, Scheduler};
use waterwise::core::sched::SolveStats;
use waterwise::core::CampaignConfig;
use waterwise::service::{
    wire, AdmissionConfig, AdmissionMode, ClusterHost, HostPersistence, HostReport, Journal,
    JournalWriter, PlacementResponse, PlacementService, ServiceConfig, TcpClusterServer,
};
use waterwise::telemetry::SyntheticTelemetry;
use waterwise::traces::{JobSpec, TraceGenerator};

/// The requests of one pass: the generated jobs and their wire lines.
/// Encoding the lines is the load generator's work, not the service's, so
/// only the generation is timed (and counts towards `setup_s`).
struct Requests {
    config: CampaignConfig,
    jobs: Vec<JobSpec>,
    lines: Vec<String>,
    traces_s: f64,
}

fn requests(options: &RunOptions) -> Requests {
    let days = options.days.unwrap_or(Workload::ServeTcp.default_days());
    let config = Workload::ServeTcp.config(options.seed, days);
    let start = Instant::now();
    let jobs = TraceGenerator::new(config.trace.clone()).generate();
    let traces_s = start.elapsed().as_secs_f64();
    let lines = jobs.iter().map(wire::encode_request).collect();
    Requests {
        config,
        jobs,
        lines,
        traces_s,
    }
}

fn service_for(config: &CampaignConfig, engine: EngineMode) -> Result<PlacementService, String> {
    PlacementService::new(
        ServiceConfig::new(
            config.simulation.clone().with_engine_mode(engine),
            config.telemetry,
        )
        .with_clock(ClockMode::Discrete),
    )
    .map_err(|e| e.to_string())
}

/// One session that takes the whole trace: quota as large as the trace, and
/// the host closes itself when its one session ends.
fn admission_for(requests: usize) -> AdmissionConfig {
    AdmissionConfig {
        tenant_inflight_quota: requests.max(1),
        mode: AdmissionMode::Streaming {
            close_after_sessions: Some(1),
        },
        ..AdmissionConfig::default()
    }
}

/// How one serving pass is to be run.
struct PassPlan<'a> {
    engine: EngineMode,
    /// Stream the admission journal to this file.
    journal: Option<&'a Path>,
    /// Wrap provider and scheduler and record spans.
    tracer: Option<(&'a Arc<Tracer>, usize)>,
    /// Count allocations over the timed region (costs several percent, so
    /// only a pass outside the timed passes does it).
    count_allocations: bool,
}

/// The numbers one serving pass measured.
#[derive(Clone, Copy)]
struct Numbers {
    setup_s: f64,
    traces_s: f64,
    telemetry_s: f64,
    /// First request written → EOF read.
    wall_s: f64,
    first_response_ms: f64,
    /// Half-close → EOF: the backlog the engine still held.
    drain_ms: f64,
    /// The `TimedScheduler`'s log (all zero in an untraced pass).
    log: RoundLog,
    core_lookups: f64,
    allocations: f64,
    allocated_bytes: f64,
}

/// One serving pass: its numbers, what the client saw, what the host reports.
struct ServePass {
    numbers: Numbers,
    placements: u64,
    errors: u64,
    report: HostReport,
    requests: Requests,
}

fn serve_pass(options: &RunOptions, plan: &PassPlan<'_>) -> Result<ServePass, String> {
    // Set-up: inputs, service (telemetry + simulator), scheduler, host,
    // listener, connection.
    let requests = requests(options);
    let setup = Instant::now();
    let start = Instant::now();
    let service = service_for(&requests.config, plan.engine)?;
    let telemetry_s = start.elapsed().as_secs_f64();
    let mut core_side = None;
    let mut log = None;
    let mut span = 0;
    let scheduler: Box<dyn Scheduler> = match plan.tracer {
        None => Box::new(scheduler_for(&requests.config, service.telemetry())),
        Some((tracer, index)) => {
            let provider = TimedProvider::new(service.telemetry());
            span = tracer.open("service.pass", 0, index as u64);
            let timed = TimedScheduler::new(
                scheduler_for(&requests.config, Arc::new(provider.clone())),
                tracer.clone(),
                span,
            );
            core_side = Some(provider);
            log = Some(timed.log());
            Box::new(timed)
        }
    };
    let mut persistence = HostPersistence::default();
    if let Some(path) = plan.journal {
        persistence = persistence.with_journal_path(path);
    }
    let host = ClusterHost::start_persistent(
        service,
        admission_for(requests.jobs.len()),
        scheduler,
        persistence,
    )
    .map_err(|e| e.to_string())?;
    let server = TcpClusterServer::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The kernel completes the handshake from the listen backlog, so the
    // connection exists before the server thread accepts it — and a failed
    // connect cannot leave that thread waiting forever.
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let sender = stream.try_clone().map_err(|e| e.to_string())?;
    let setup_s = requests.traces_s + setup.elapsed().as_secs_f64();

    let before = allocation_counters();
    let tracer = plan.tracer.map(|(tracer, _)| tracer);
    let lines = &requests.lines;
    let measured = std::thread::scope(|scope| -> Result<_, String> {
        let serving = scope.spawn(|| server.serve_sessions(&host, 1));
        count_allocations(plan.count_allocations);
        let start = Instant::now();
        let writer = scope.spawn(move || -> Result<Instant, String> {
            let began = Instant::now();
            let mut out = BufWriter::with_capacity(64 * 1024, &sender);
            for line in lines {
                out.write_all(line.as_bytes())
                    .and_then(|_| out.write_all(b"\n"))
                    .map_err(|e| format!("sending a request: {e}"))?;
            }
            out.flush().map_err(|e| format!("flushing requests: {e}"))?;
            drop(out);
            sender
                .shutdown(Shutdown::Write)
                .map_err(|e| format!("half-closing: {e}"))?;
            let closed = Instant::now();
            if let Some(tracer) = tracer {
                tracer.record("client.write", span, 0, began, closed);
            }
            Ok(closed)
        });
        let (mut placements, mut errors, mut first) = (0u64, 0u64, None);
        for line in BufReader::new(stream).lines() {
            let line = line.map_err(|e| format!("reading a response: {e}"))?;
            first.get_or_insert_with(Instant::now);
            if line.starts_with("{\"type\":\"placement\"") {
                placements += 1;
            } else {
                errors += 1;
            }
        }
        let eof = Instant::now();
        count_allocations(false);
        let closed = writer
            .join()
            .map_err(|_| "the client writer panicked".to_string())??;
        serving
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        Ok((
            eof.duration_since(start).as_secs_f64(),
            first.map_or(f64::NAN, |f| f.duration_since(start).as_secs_f64() * 1e3),
            eof.saturating_duration_since(closed).as_secs_f64() * 1e3,
            placements,
            errors,
        ))
    });
    if let Some(tracer) = tracer {
        tracer.close(span);
    }
    let after = allocation_counters();
    let (wall_s, first_response_ms, drain_ms, placements, errors) = measured?;
    let report = host.shutdown().map_err(|e| e.to_string())?;
    Ok(ServePass {
        numbers: Numbers {
            setup_s,
            traces_s: requests.traces_s,
            telemetry_s,
            wall_s,
            first_response_ms,
            drain_ms,
            log: log.map_or_else(RoundLog::default, |log| {
                *log.lock().expect("round log poisoned")
            }),
            core_lookups: core_side.map_or(0.0, |p| p.lookups() as f64),
            allocations: (after.0 - before.0) as f64,
            allocated_bytes: (after.1 - before.1) as f64,
        },
        placements,
        errors,
        report,
        requests,
    })
}

/// Where the pass's journal streams to; removed when the guard drops.
struct JournalFile(PathBuf);

impl JournalFile {
    fn new(dir: &Path, seed: u64) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir.join(format!(
            "journal-{seed}-{}.ndjson",
            std::process::id()
        ))))
    }
}

impl Drop for JournalFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Run the `serve_tcp` workload in this process. `scratch` is where the
/// journal files live while a pass runs.
pub fn run(
    options: &RunOptions,
    tracer: &Arc<Tracer>,
    scratch: &Path,
) -> Result<WorkloadResult, String> {
    let mut ledger = Ledger::default();
    // One pass with its journal on disk; the file must load back to exactly
    // what the host accepted (checked after the pass's timed region).
    let journaled = |ledger: &mut Ledger, plan: PassPlan<'_>| -> Result<ServePass, String> {
        let journal = JournalFile::new(scratch, options.seed)?;
        let pass = serve_pass(
            options,
            &PassPlan {
                journal: Some(&journal.0),
                ..plan
            },
        )?;
        match Journal::load(&journal.0) {
            Ok(on_disk) if on_disk.entries.len() == pass.report.accepted => {}
            Ok(on_disk) => ledger.problem(format!(
                "the on-disk journal holds {} entries, the host accepted {}",
                on_disk.entries.len(),
                pass.report.accepted
            )),
            Err(e) => ledger.problem(format!("the on-disk journal does not load: {e}")),
        }
        Ok(pass)
    };
    // A traced run wraps every other pass, so the wrappers' overhead is read
    // off passes that shared the same minute of the same host.
    let plan = |index: usize| PassPlan {
        engine: EngineMode::Sync,
        journal: None,
        tracer: (options.traced && index.is_multiple_of(2)).then_some((tracer, index)),
        count_allocations: false,
    };

    // One untimed warm-up pass, then timed passes; every pass sets the whole
    // service up afresh, so `setup_s` is the median over the passes.
    journaled(&mut ledger, plan(0))?;
    let mut numbers: Vec<Numbers> = Vec::new();
    let mut last = None;
    let mut walls_by_kind = Vec::new();
    let timed = Instant::now();
    // A traced run needs two passes of either kind for its medians.
    let floor = if options.traced { MIN_PASSES + 1 } else { 0 };
    while numbers.len() < floor
        || options.wants_another_pass(
            Workload::ServeTcp,
            numbers.len(),
            timed.elapsed().as_secs_f64(),
        )
    {
        let pass = journaled(&mut ledger, plan(numbers.len() + 1))?;
        let requests = pass.requests.jobs.len() as u64;
        let unanswered = requests.saturating_sub(pass.placements);
        if pass.errors > 0 || unanswered > 0 {
            ledger.problem(format!(
                "{} error lines and {unanswered} missing responses for {requests} requests",
                pass.errors
            ));
        }
        if pass.report.accepted as u64 != requests || pass.report.served as u64 != requests {
            ledger.problem(format!(
                "host accepted {} and served {} of {requests} requests",
                pass.report.accepted, pass.report.served
            ));
        }
        ledger.add_pass(
            &pass.requests.jobs,
            &pass.report.report,
            pass.numbers.wall_s,
            pass.errors + unanswered,
        );
        ledger.setups_s.push(pass.numbers.setup_s);
        walls_by_kind.push((pass.numbers.wall_s, pass.numbers.log.calls > 0));
        numbers.push(pass.numbers);
        last = Some(pass);
    }
    let peak_rss = peak_rss_mb();
    let last = last.expect("at least one timed pass ran");
    let requests = &last.requests;

    // journal replay == live; offline == live.
    let replay_service = service_for(&requests.config, EngineMode::Sync)?;
    let mut replay_scheduler = scheduler_for(&requests.config, replay_service.telemetry());
    let replay = last
        .report
        .journal
        .replay(&replay_service, &mut replay_scheduler)
        .map_err(|e| e.to_string())?;
    ledger.expect_digest("the journal replay", replay.schedule_digest());
    let inputs = Inputs {
        config: requests.config.clone(),
        jobs: requests.jobs.clone(),
        telemetry: SyntheticTelemetry::generate(requests.config.telemetry).shared(),
    };
    let offline = campaign::plain_pass(&inputs.config, &inputs, None)?;
    ledger.expect_digest(
        "the offline run of the same jobs",
        waterwise::cluster::schedule_digest(&offline.report.outcomes),
    );
    if offline.report.overhead.len() != last.report.report.overhead.len() {
        ledger.problem(format!(
            "served in {} rounds, offline in {}",
            last.report.report.overhead.len(),
            offline.report.overhead.len()
        ));
    }
    let baseline = campaign::baseline_summary(&inputs)?;

    let of = |f: fn(&Numbers) -> f64| median(&numbers.iter().map(f).collect::<Vec<_>>());
    // A host consumes its boxed scheduler, statistics and all: only a
    // `TimedScheduler`'s shared log outlives it. The solver counters are in
    // the report either way.
    let traced: Vec<Numbers> = numbers
        .iter()
        .copied()
        .filter(|p| p.log.calls > 0)
        .collect();
    let stats = traced
        .last()
        .map_or_else(SolveStats::default, |p| p.log.stats);
    let activity = last.report.report.summary.solver;
    let of_traced = |f: fn(&Numbers) -> f64| {
        if traced.is_empty() {
            0.0
        } else {
            median(&traced.iter().map(f).collect::<Vec<_>>())
        }
    };
    let mut layers = solver_layers(
        &last.report.report,
        &stats,
        &activity,
        requests.config.waterwise.branch_bound.max_nodes,
        of_traced(|p| p.log.stats.prepare_seconds),
        of_traced(|p| p.log.stats.solve_seconds),
    );
    let mut set = |name: &str, value: f64| set_layer(&mut layers, name, value);
    set("traces.generate_s", of(|p| p.traces_s));
    set("telemetry.generate_s", of(|p| p.telemetry_s));
    set("service.tcp.first_response_ms", of(|p| p.first_response_ms));
    set("service.tcp.drain_ms", of(|p| p.drain_ms));

    if options.traced {
        let jobs = requests.jobs.len() as f64;
        let probes: Vec<_> = last
            .report
            .report
            .outcomes
            .iter()
            .take(4096)
            .map(|o| (o.executed_region, o.start_time))
            .collect();
        let lookup_s = lookup_cost_s(inputs.telemetry.as_ref(), &probes);
        let of = of_traced;
        let busy_s = of(|p| p.log.busy_ns as f64 / 1e9);
        // The host's simulator owns its own telemetry handle, so only the
        // scheduler's side of the lookups is visible from outside.
        set("telemetry.lookups", of(|p| p.core_lookups));
        set("telemetry.lookup_busy_s", of(|p| p.core_lookups) * lookup_s);
        set("core.schedule.calls", of(|p| p.log.calls as f64));
        set("core.schedule.busy_s", busy_s);
        // Everything that is not the scheduler: engine, admission, codec
        // and socket threads, as wall the scheduler did not cover.
        set("cluster.engine_self_s", of(|p| p.wall_s) - busy_s);
        set("trace.overhead_pct", paired_overhead_pct(&walls_by_kind));
        let counted = journaled(
            &mut ledger,
            PassPlan {
                count_allocations: true,
                ..plan(2 * numbers.len())
            },
        )?;
        ledger.expect_digest(
            "the allocation-counting pass",
            counted.report.schedule_digest(),
        );
        set("alloc.count_per_job", counted.numbers.allocations / jobs);
        set(
            "alloc.bytes_per_job",
            counted.numbers.allocated_bytes / jobs,
        );

        let inproc = in_process(requests)?;
        ledger.expect_digest("the in-process host", inproc.digest);
        set("service.admission.submit_us", inproc.submit_us);
        set("service.host.inproc_jobs_per_s", jobs / inproc.wall_s);
        set("service.wire.parse_us", parse_cost_us(&requests.lines));
        set("service.wire.encode_us", encode_cost_us(&inproc.responses));
        let journal_cost = journal_cost(&last.report.journal, scratch, options.seed)?;
        set("service.journal.append_us", journal_cost.append_us);
        set("service.journal.sync_ms", journal_cost.sync_ms);
        set("service.journal.syncs", journal_cost.syncs);

        // Ablations against a reference pass taken in the same sitting;
        // every variant must serve the same schedule.
        let reference = journaled(&mut ledger, plan(1))?;
        ledger.expect_digest("the reference pass", reference.report.schedule_digest());
        let pipelined = journaled(
            &mut ledger,
            PassPlan {
                engine: EngineMode::Pipelined { workers: 2 },
                ..plan(1)
            },
        )?;
        ledger.expect_digest("the pipelined host", pipelined.report.schedule_digest());
        let unjournaled = serve_pass(options, &plan(1))?;
        ledger.expect_digest(
            "the host without a journal",
            unjournaled.report.schedule_digest(),
        );
        set(
            "cluster.pipeline.speedup",
            reference.numbers.wall_s / pipelined.numbers.wall_s,
        );
        set(
            "service.host.nojournal_jobs_per_s",
            jobs / unjournaled.numbers.wall_s,
        );
        set(
            "core.matrix.speedup_2t",
            campaign::matrix_speedup(options.seed)?,
        );
    }

    Ok(ledger.finish(
        Workload::ServeTcp.name(),
        &last.report.report.summary,
        &baseline,
        peak_rss,
        layers,
    ))
}

/// The same trace through `open_session` → `submit` → `drain`: no socket,
/// no codec, no journal.
struct InProcess {
    wall_s: f64,
    submit_us: f64,
    digest: u64,
    responses: Vec<PlacementResponse>,
}

fn in_process(requests: &Requests) -> Result<InProcess, String> {
    let service = service_for(&requests.config, EngineMode::Sync)?;
    let scheduler = scheduler_for(&requests.config, service.telemetry());
    let host = ClusterHost::start_with_service(
        service,
        admission_for(requests.jobs.len()),
        Box::new(scheduler),
    )
    .map_err(|e| e.to_string())?;
    let session = host.open_session("client-0").map_err(|e| e.to_string())?;
    let outbox = session
        .take_responses()
        .ok_or("the session's outbox was already taken")?;
    let jobs = requests.jobs.clone();
    let (wall_s, submit_s, responses) = std::thread::scope(|scope| -> Result<_, String> {
        let start = Instant::now();
        let reader = scope.spawn(move || outbox.iter().collect::<Vec<_>>());
        let submitting = Instant::now();
        for spec in jobs {
            session.submit(spec).map_err(|e| e.to_string())?;
        }
        let submit_s = submitting.elapsed().as_secs_f64();
        session.finish();
        let responses = reader
            .join()
            .map_err(|_| "the in-process reader panicked".to_string())?;
        Ok((start.elapsed().as_secs_f64(), submit_s, responses))
    })?;
    let report = host.shutdown().map_err(|e| e.to_string())?;
    Ok(InProcess {
        wall_s,
        submit_us: submit_s * 1e6 / requests.jobs.len().max(1) as f64,
        digest: report.schedule_digest(),
        responses,
    })
}

/// `wire::parse_tenant_request` over the run's own request lines.
fn parse_cost_us(lines: &[String]) -> f64 {
    let sample = &lines[..lines.len().min(4096)];
    1e6 * direct_loop_s(sample.len(), || {
        for line in sample {
            let _ = std::hint::black_box(wire::parse_tenant_request(std::hint::black_box(line)));
        }
    })
}

/// `wire::encode_response` over the run's own responses.
fn encode_cost_us(responses: &[PlacementResponse]) -> f64 {
    let sample = &responses[..responses.len().min(4096)];
    1e6 * direct_loop_s(sample.len(), || {
        for response in sample {
            std::hint::black_box(wire::encode_response(std::hint::black_box(response)));
        }
    })
}

struct JournalCost {
    append_us: f64,
    sync_ms: f64,
    syncs: f64,
}

/// `JournalWriter::append` over the run's own journal at the writer's own
/// cadence. The writer syncs inside every 32nd append, so each append is
/// timed on its own: the slow ones are an append plus a sync.
fn journal_cost(journal: &Journal, scratch: &Path, seed: u64) -> Result<JournalCost, String> {
    const CADENCE: usize = 32;
    let file = JournalFile::new(scratch, seed)?;
    let mut writer = JournalWriter::create(&file.0).map_err(|e| e.to_string())?;
    let (mut plain, mut syncing) = (Vec::new(), Vec::new());
    for (index, entry) in journal.entries.iter().enumerate() {
        let start = Instant::now();
        writer.append(entry).map_err(|e| e.to_string())?;
        let took = start.elapsed().as_secs_f64();
        if (index + 1) % CADENCE == 0 {
            syncing.push(took);
        } else {
            plain.push(took);
        }
    }
    let append_s = if plain.is_empty() {
        0.0
    } else {
        median(&plain)
    };
    Ok(JournalCost {
        append_us: append_s * 1e6,
        sync_ms: if syncing.is_empty() {
            0.0
        } else {
            (median(&syncing) - append_s).max(0.0) * 1e3
        },
        syncs: syncing.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_files_are_removed_when_the_run_lets_go_of_them() {
        let dir = std::env::temp_dir().join(format!("ledger-journal-{}", std::process::id()));
        let path = {
            let file = JournalFile::new(&dir, 7).unwrap();
            std::fs::write(&file.0, "{}\n").unwrap();
            assert!(file.0.is_file());
            file.0.clone()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir(&dir);
    }
}
