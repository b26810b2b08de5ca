//! TCP integration battery for the host: a lone client on a one-session
//! host (the single-client serving shape), concurrent clients on one
//! persistent engine, in-band typed admission errors, malformed /
//! duplicate / non-UTF-8 / over-long lines, per-session half-close drain
//! while other sessions continue, and abrupt disconnects that must not
//! poison the host.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use waterwise_cluster::{
    Scheduler, SchedulingContext, SchedulingDecision, SimulationConfig, Simulator,
};
use waterwise_service::{
    wire, AdmissionConfig, AdmissionMode, ClusterHost, HostReport, PlacementService, ServiceConfig,
    TcpClusterServer, TenantId,
};
use waterwise_sustain::{KilowattHours, Seconds};
use waterwise_telemetry::{Region, SyntheticTelemetry, TelemetryConfig};
use waterwise_traces::{Benchmark, JobId, JobSpec};

const TELEMETRY_SEED: u64 = 11;

fn job(id: u64, submit: f64, exec: f64) -> JobSpec {
    JobSpec {
        id: JobId(id),
        benchmark: Benchmark::Dedup,
        submit_time: Seconds::new(submit),
        home_region: Region::Oregon,
        actual_execution_time: Seconds::new(exec),
        actual_energy: KilowattHours::new(0.01),
        estimated_execution_time: Seconds::new(exec),
        estimated_energy: KilowattHours::new(0.01),
        package_bytes: 1 << 16,
    }
}

/// Deterministic home-region scheduler — keeps the battery about the
/// serving layer, not the policy.
struct HomeScheduler;

impl Scheduler for HomeScheduler {
    fn name(&self) -> &str {
        "home"
    }
    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        SchedulingDecision::from_pairs(ctx.pending.iter().map(|p| (p.spec.id, p.spec.home_region)))
    }
}

fn start_host(mode: AdmissionMode, quota: usize) -> ClusterHost {
    let config = ServiceConfig::new(
        SimulationConfig::paper_default(4, 0.5),
        TelemetryConfig {
            seed: TELEMETRY_SEED,
            ..TelemetryConfig::default()
        },
    );
    let service = PlacementService::new(config).unwrap();
    ClusterHost::start_with_service(
        service,
        AdmissionConfig {
            tenant_inflight_quota: quota,
            drr_quantum: 2,
            mode,
        },
        Box::new(HomeScheduler),
    )
    .unwrap()
}

/// One test client: write every line, half-close, read every reply line.
fn run_client(addr: SocketAddr, lines: &[impl AsRef<[u8]>]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for line in lines {
        stream.write_all(line.as_ref()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return replies;
        }
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            replies.push(trimmed.to_string());
        }
    }
}

/// Serve `lines` from one client on a one-session host with the given
/// quota; returns the client's replies and the host's report.
fn serve_lone_client(quota: usize, lines: &[impl AsRef<[u8]>]) -> (Vec<String>, HostReport) {
    let host = start_host(
        AdmissionMode::Streaming {
            close_after_sessions: Some(1),
        },
        quota,
    );
    let server = TcpClusterServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let replies = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_sessions(&host, 1));
        let replies = run_client(addr, lines);
        serving.join().unwrap().unwrap();
        replies
    });
    (replies, host.shutdown().unwrap())
}

fn placements(replies: &[String]) -> Vec<u64> {
    replies
        .iter()
        .filter_map(|l| wire::placement_job_id(l))
        .collect()
}

fn error_codes(replies: &[String]) -> Vec<String> {
    replies.iter().filter_map(|l| wire::error_code(l)).collect()
}

/// One client on a one-session host — the single-client serving shape.
/// A malformed line and a duplicate id are answered in-band, a blank line
/// is a keep-alive, the half-close drains every admitted job, and the
/// recorded trace replays offline to the byte-identical schedule.
#[test]
fn lone_client_session_serves_requests_and_shuts_down_cleanly() {
    let lines = vec![
        wire::encode_request(&job(1, 0.0, 300.0)),
        wire::encode_request(&job(2, 30.0, 300.0)),
        wire::encode_request(&job(3, 60.0, 300.0)),
        "this is not json".to_string(),
        wire::encode_request(&job(2, 90.0, 300.0)), // duplicate id
        String::new(),                              // blank keep-alive line
        wire::encode_request(&job(4, 120.0, 300.0)),
    ];
    let (replies, report) = serve_lone_client(64, &lines);
    let mut codes = error_codes(&replies);
    codes.sort_unstable();
    assert_eq!(
        codes,
        vec!["duplicate", "malformed"],
        "replies: {replies:?}"
    );
    let mut placed = placements(&replies);
    placed.sort_unstable();
    assert_eq!(placed, vec![1, 2, 3, 4], "replies: {replies:?}");
    assert_eq!((report.accepted, report.rejected, report.served), (4, 1, 4));
    assert_eq!(report.report.outcomes.len(), 4);

    // The recorded trace replays offline to the byte-identical schedule.
    let offline = Simulator::new(
        SimulationConfig::paper_default(4, 0.5),
        SyntheticTelemetry::with_seed(TELEMETRY_SEED),
    )
    .unwrap()
    .run(&report.trace, &mut HomeScheduler)
    .unwrap();
    assert_eq!(report.report.outcomes, offline.outcomes);
}

/// A request line that is not UTF-8, or longer than the server will
/// buffer, is answered in-band as `malformed` with its line number; the
/// rest of it is discarded through the next newline and the session keeps
/// going.
#[test]
fn non_utf8_and_over_long_lines_are_answered_in_band() {
    let lines: Vec<Vec<u8>> = vec![
        wire::encode_request(&job(1, 0.0, 60.0)).into_bytes(),
        vec![b'{', 0xff, 0xfe, b'}'],
        vec![b'x'; 200 * 1024],
        wire::encode_request(&job(2, 30.0, 60.0)).into_bytes(),
    ];
    let (replies, report) = serve_lone_client(64, &lines);
    assert_eq!(
        error_codes(&replies),
        vec!["malformed"; 2],
        "replies: {replies:?}"
    );
    let errors: Vec<&String> = replies
        .iter()
        .filter(|l| wire::error_code(l).is_some())
        .collect();
    assert!(
        errors[0].contains("line 2") && errors[0].contains("UTF-8"),
        "{errors:?}"
    );
    assert!(
        errors[1].contains("line 3") && errors[1].contains("exceeds"),
        "{errors:?}"
    );
    let mut placed = placements(&replies);
    placed.sort_unstable();
    assert_eq!(placed, vec![1, 2]);
    assert_eq!((report.accepted, report.rejected, report.served), (2, 0, 2));
}

/// A lone client over its tenant quota is shed in-band (the multi-tenant
/// contract, not a blocked socket): under the discrete clock nothing can
/// be placed while every request carries the same stamp, so ids 3–5 are
/// rejected deterministically. The session keeps answering afterwards and
/// every accepted job is placed once the stream ends.
#[test]
fn lone_client_over_its_quota_is_shed_in_band_and_keeps_its_session() {
    let mut lines: Vec<String> = (1..=5u64)
        .map(|id| wire::encode_request(&job(id, 0.0, 60.0)))
        .collect();
    // Still served after the rejections: a reused id gets its own answer.
    lines.push(wire::encode_request(&job(1, 0.0, 60.0)));
    let (replies, report) = serve_lone_client(2, &lines);
    assert_eq!(
        error_codes(&replies),
        vec![
            "admission_rejected",
            "admission_rejected",
            "admission_rejected",
            "duplicate"
        ],
        "replies: {replies:?}"
    );
    let mut placed = placements(&replies);
    placed.sort_unstable();
    assert_eq!(placed, vec![1, 2]);
    assert_eq!((report.accepted, report.rejected, report.served), (2, 4, 2));
    let stats = &report.tenants[&TenantId::from("client-0")];
    assert_eq!((stats.accepted, stats.rejected, stats.served), (2, 4, 2));
}

/// Four concurrent tenant clients on one engine run: every request
/// placed, every session drained, and the admission journal replays to
/// the byte-identical schedule.
#[test]
fn four_concurrent_clients_share_one_engine_run() {
    let host = start_host(
        AdmissionMode::Streaming {
            close_after_sessions: Some(4),
        },
        64,
    );
    let server = TcpClusterServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let per_client: Vec<Vec<String>> = (0..4u64)
        .map(|c| {
            (0..5u64)
                .map(|k| {
                    wire::encode_tenant_request(
                        &format!("tenant-{c}"),
                        &job(c * 100 + k, 30.0 * k as f64, 90.0),
                    )
                })
                .collect()
        })
        .collect();
    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_sessions(&host, 4));
        let clients: Vec<_> = per_client
            .iter()
            .map(|lines| scope.spawn(move || run_client(addr, lines)))
            .collect();
        let replies = clients.into_iter().map(|c| c.join().unwrap()).collect();
        serving.join().unwrap().unwrap();
        replies
    });
    for (c, replies) in replies.iter().enumerate() {
        let mut placed = placements(replies);
        placed.sort_unstable();
        let expected: Vec<u64> = (0..5u64).map(|k| c as u64 * 100 + k).collect();
        assert_eq!(placed, expected, "client {c} placements");
        assert!(error_codes(replies).is_empty());
    }
    let report = host.shutdown().unwrap();
    assert_eq!(report.sessions, 4);
    assert_eq!(
        (report.accepted, report.served, report.rejected),
        (20, 20, 0)
    );
    assert_eq!(report.tenants.len(), 4);

    // The live TCP run's journal replays offline byte-identically.
    let replay_service = PlacementService::new(ServiceConfig::new(
        SimulationConfig::paper_default(4, 0.5),
        TelemetryConfig {
            seed: TELEMETRY_SEED,
            ..TelemetryConfig::default()
        },
    ))
    .unwrap();
    let replay = report
        .journal
        .replay(&replay_service, &mut HomeScheduler)
        .unwrap();
    assert_eq!(report.schedule_digest(), replay.schedule_digest());
    let replayed: usize = replay.responses.values().map(Vec::len).sum();
    assert_eq!(replayed, 20);
}

/// A tenant at its quota gets typed in-band `admission_rejected` lines,
/// deterministically (gated host: nothing drains before end-of-stream,
/// so the queue depth is exactly the submission count).
#[test]
fn quota_exhaustion_is_reported_in_band_as_typed_errors() {
    let host = start_host(AdmissionMode::Gated { sessions: 1 }, 2);
    let server = TcpClusterServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let lines: Vec<String> = (1..=5u64)
        .map(|id| wire::encode_tenant_request("acme", &job(id, 0.0, 60.0)))
        .collect();
    let replies = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_sessions(&host, 1));
        let replies = run_client(addr, &lines);
        serving.join().unwrap().unwrap();
        replies
    });
    // Ids 1 and 2 fill the quota; 3, 4, 5 are shed with the typed code.
    assert_eq!(
        error_codes(&replies),
        vec!["admission_rejected"; 3],
        "replies: {replies:?}"
    );
    let mut placed = placements(&replies);
    placed.sort_unstable();
    assert_eq!(placed, vec![1, 2]);
    // The error lines name the rejected jobs and the quota.
    for line in replies.iter().filter(|l| wire::error_code(l).is_some()) {
        assert!(line.contains("quota (2/2)"), "{line}");
    }

    let report = host.shutdown().unwrap();
    assert_eq!((report.accepted, report.rejected, report.served), (2, 3, 2));
    let stats = &report.tenants[&TenantId::from("acme")];
    assert_eq!((stats.accepted, stats.rejected, stats.served), (2, 3, 2));
}

/// Malformed lines and duplicate ids answered in-band mid-concurrency:
/// the offending request dies, the session and its neighbors keep going.
#[test]
fn malformed_and_duplicate_lines_do_not_kill_sessions() {
    let host = start_host(
        AdmissionMode::Streaming {
            close_after_sessions: Some(2),
        },
        64,
    );
    let server = TcpClusterServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let dirty = vec![
        wire::encode_tenant_request("acme", &job(1, 0.0, 60.0)),
        "{\"this is\": not json".to_string(),
        wire::encode_tenant_request("acme", &job(1, 30.0, 60.0)), // duplicate id
        "{\"id\":9,\"benchmark\":\"dedup\",\"home_region\":\"oregon\",\"execution_time\":1e999,\"energy\":0.1}"
            .to_string(), // non-finite time
        wire::encode_tenant_request("acme", &job(2, 30.0, 60.0)),
    ];
    let clean: Vec<String> = (10..14u64)
        .map(|id| wire::encode_tenant_request("umbrella", &job(id, 30.0 * id as f64, 120.0)))
        .collect();
    let (dirty_replies, clean_replies) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_sessions(&host, 2));
        let dirty_client = scope.spawn(|| run_client(addr, &dirty));
        let clean_client = scope.spawn(|| run_client(addr, &clean));
        let replies = (dirty_client.join().unwrap(), clean_client.join().unwrap());
        serving.join().unwrap().unwrap();
        replies
    });

    let mut codes = error_codes(&dirty_replies);
    codes.sort_unstable();
    assert_eq!(
        codes,
        vec!["duplicate", "malformed", "malformed"],
        "dirty replies: {dirty_replies:?}"
    );
    let mut placed = placements(&dirty_replies);
    placed.sort_unstable();
    assert_eq!(placed, vec![1, 2]);

    assert!(error_codes(&clean_replies).is_empty());
    assert_eq!(placements(&clean_replies).len(), 4);

    let report = host.shutdown().unwrap();
    assert_eq!((report.accepted, report.rejected, report.served), (6, 1, 6));
}

/// A session that half-closes early drains to EOF while its neighbor is
/// still streaming: the early client's connection completes first, the
/// late one keeps the host running.
#[test]
fn half_closed_session_drains_while_others_continue() {
    let host = start_host(
        AdmissionMode::Streaming {
            close_after_sessions: Some(2),
        },
        64,
    );
    let server = TcpClusterServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let early_lines: Vec<String> = (1..=2u64)
        .map(|id| wire::encode_tenant_request("early", &job(id, 0.0, 60.0)))
        .collect();
    let early_done = std::sync::atomic::AtomicBool::new(false);
    let pushed = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_sessions(&host, 2));

        // The late session connects first and holds its stream open.
        let mut late = TcpStream::connect(addr).unwrap();
        let mut late_reader = BufReader::new(late.try_clone().unwrap());
        for id in 100..103u64 {
            let line = wire::encode_tenant_request("late", &job(id, 0.0, 60.0));
            late.write_all(line.as_bytes()).unwrap();
            late.write_all(b"\n").unwrap();
        }
        late.flush().unwrap();

        // The early session submits two short jobs and half-closes.
        let early_replies = scope.spawn(|| {
            let replies = run_client(addr, &early_lines);
            early_done.store(true, std::sync::atomic::Ordering::Release);
            replies
        });

        // Advancing simulated time well past the early jobs' completions
        // lets the engine commit and deliver them while `late` is still
        // open — which is exactly what un-blocks the early client's
        // read-to-EOF. The early jobs may be stamped *after* a push that
        // raced ahead of their admission, so keep pushing later times
        // until the early session has fully drained.
        let mut pushes = Vec::new();
        for round in 0..200u64 {
            if early_done.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
            let id = 103 + round;
            let line =
                wire::encode_tenant_request("late", &job(id, 7200.0 * (round + 1) as f64, 60.0));
            late.write_all(line.as_bytes()).unwrap();
            late.write_all(b"\n").unwrap();
            late.flush().unwrap();
            pushes.push(id);
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        // Deferred assert: failing here would hang the scope on the
        // still-blocked early reader, so remember the verdict and close
        // the late session either way first.
        let drained_while_late_open = early_done.load(std::sync::atomic::Ordering::Acquire);

        // Now the late session ends too; its replies all arrive.
        late.shutdown(Shutdown::Write).unwrap();
        let mut late_replies = Vec::new();
        loop {
            let mut line = String::new();
            if late_reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if !line.trim().is_empty() {
                late_replies.push(line.trim().to_string());
            }
        }
        let early_replies = early_replies.join().unwrap();
        serving.join().unwrap().unwrap();

        assert!(
            drained_while_late_open,
            "early session did not drain while the late session stayed open"
        );
        let mut placed = placements(&early_replies);
        placed.sort_unstable();
        assert_eq!(placed, vec![1, 2]);
        let mut placed = placements(&late_replies);
        placed.sort_unstable();
        let mut expected: Vec<u64> = vec![100, 101, 102];
        expected.extend(&pushes);
        assert_eq!(placed, expected);
        assert!(!pushes.is_empty(), "the clock never needed advancing?");
        pushes.len()
    });
    let report = host.shutdown().unwrap();
    assert_eq!(report.accepted, 5 + pushed);
    assert_eq!(report.served, report.accepted);
}

/// An abrupt client disconnect (socket dropped, responses never read)
/// discards that session's undelivered responses without poisoning the
/// host: the surviving session completes and the host reports cleanly.
#[test]
fn abrupt_disconnect_does_not_poison_the_host() {
    let host = start_host(
        AdmissionMode::Streaming {
            close_after_sessions: Some(2),
        },
        64,
    );
    let server = TcpClusterServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let survivor_lines: Vec<String> = (10..16u64)
        .map(|id| wire::encode_tenant_request("survivor", &job(id, 30.0 * id as f64, 90.0)))
        .collect();
    let survivor_replies = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_sessions(&host, 2));

        // The doomed client submits and vanishes without half-closing or
        // reading a single response.
        {
            let mut doomed = TcpStream::connect(addr).unwrap();
            for id in 1..=3u64 {
                let line = wire::encode_tenant_request("doomed", &job(id, 0.0, 60.0));
                doomed.write_all(line.as_bytes()).unwrap();
                doomed.write_all(b"\n").unwrap();
            }
            doomed.flush().unwrap();
            // Dropped here: the OS closes the socket with requests
            // admitted and no reader on the other side.
        }

        let replies = run_client(addr, &survivor_lines);
        serving.join().unwrap().unwrap();
        replies
    });
    assert_eq!(placements(&survivor_replies).len(), 6);
    assert!(error_codes(&survivor_replies).is_empty());

    let report = host.shutdown().unwrap();
    // Every admitted job ran to completion (the engine cannot un-admit),
    // even though the doomed session's deliveries were discarded.
    assert_eq!(report.accepted, 9);
    assert_eq!(report.report.outcomes.len(), 9);
    let survivor = &report.tenants[&TenantId::from("survivor")];
    assert_eq!((survivor.accepted, survivor.served), (6, 6));
    let doomed_stats = &report.tenants[&TenantId::from("doomed")];
    assert_eq!(doomed_stats.accepted, 3);

    // The journal still replays the full 9-job schedule byte-identically.
    let replay_service = PlacementService::new(ServiceConfig::new(
        SimulationConfig::paper_default(4, 0.5),
        TelemetryConfig {
            seed: TELEMETRY_SEED,
            ..TelemetryConfig::default()
        },
    ))
    .unwrap();
    let replay = report
        .journal
        .replay(&replay_service, &mut HomeScheduler)
        .unwrap();
    assert_eq!(report.schedule_digest(), replay.schedule_digest());
    let tenants: BTreeMap<&TenantId, usize> =
        replay.responses.iter().map(|(t, r)| (t, r.len())).collect();
    assert_eq!(tenants[&TenantId::from("doomed")], 3);
    assert_eq!(tenants[&TenantId::from("survivor")], 6);
}
