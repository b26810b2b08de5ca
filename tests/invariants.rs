//! The determinism table, executable. Each row of [`INVARIANTS`] runs its
//! workloads two ways through the public API and demands one result:
//! outcomes, makespan, the summary without its wall-clock fields, every
//! round's instant and batch and, where a run has them, its stamped trace,
//! journal (in memory and on disk) and per-tenant responses. The paper's
//! savings (Figs. 5–13) rest on these rows: a replayed campaign is the same
//! however it is run. ARCHITECTURE.md's run-pair table lists exactly these
//! rows (`architecture_lists_every_invariant`).
//!
//! A failure names the row, the workload and the case. A random workload
//! draws each case from a generator seeded by the workload's label and the
//! case index, so the named case fails the same way on every run.

#[path = "../crates/service/tests/support/mod.rs"]
mod support;

use proptest::prelude::*;
use proptest::rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use support::{submit_wave, wait_for_journal_lines};
use waterwise::cluster::{
    CampaignSummary, ClockMode, JobOutcome, OverheadSample, Scheduler, SchedulingContext,
    SchedulingDecision, SimulationConfig, SimulationReport, Simulator, SolverActivity,
};
use waterwise::core::sched::SolveStats;
use waterwise::core::{
    build_scheduler, load_spec, Campaign, CampaignConfig, Parallelism, SchedulerKind,
    WaterWiseConfig, WaterWiseScheduler,
};
use waterwise::service::{
    AdmissionConfig, AdmissionMode, ClusterHost, HostPersistence, HostReport, Journal,
    PlacementResponse, PlacementService, ServiceConfig, ServiceError, TenantId,
};
use waterwise::sustain::{FootprintEstimator, KilowattHours, Seconds};
use waterwise::telemetry::{Region, SyntheticTelemetry, TelemetryConfig, ALL_REGIONS};
use waterwise::traces::{Benchmark, JobId, JobSpec, TraceConfig, TraceGenerator};
use waterwise_bench::experiments::scenario_spec_path;

/// One row of the determinism table.
struct Invariant {
    name: &'static str,
    /// What the row claims, as ARCHITECTURE.md's run-pair table states it.
    states: &'static str,
    workloads: &'static [Workload],
    left: fn(&Case) -> Run,
    right: Right,
    /// Panics where the two runs differ, or where either breaks a check
    /// of its own.
    compare: fn(&Case, &Run, &Run),
}

/// How a row makes its second run.
enum Right {
    /// On its own, beside the first.
    Run(fn(&Case) -> Run),
    /// From what the first run recorded: its trace or its journal.
    Replay(fn(&Case, &Run) -> Run),
}

const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: "same_seed_twice",
        states: "Two campaigns prepared from one seed run alike",
        workloads: &[
            Workload::Demo(33, SchedulerKind::Baseline),
            Workload::Demo(33, SchedulerKind::WaterWise),
            Workload::Demo(77, SchedulerKind::Baseline),
            Workload::Demo(77, SchedulerKind::WaterWise),
        ],
        left: campaign_run,
        right: Right::Run(campaign_run),
        compare: identical,
    },
    Invariant {
        name: "serial_equals_parallel",
        states: "A parallel `run_all` / `run_matrix` merges, in input order, the cells a serial one runs",
        workloads: &[
            Workload::RunAll(55, Parallelism::Threads(7)),
            Workload::RunAll(42, Parallelism::Threads(4)),
            Workload::Matrix(&[3, 9], Parallelism::Auto),
        ],
        left: |case| sweep(case, false),
        right: Right::Run(|case| sweep(case, true)),
        compare: identical,
    },
    Invariant {
        name: "default_equals_all_milp",
        states: "The default scheduler (certified hint, transportation kernel, a tied round solved) commits what the all-MILP reference (`warm_start` off) commits, in as many rounds with as many soft fallbacks",
        workloads: &[
            Workload::Demo(42, SchedulerKind::WaterWise),
            Workload::Demo(9, SchedulerKind::WaterWise),
            Workload::Demo(3, SchedulerKind::WaterWise),
            Workload::Ledger("tight", 2.0, 0.10, None),
            Workload::Ledger("pressured", 1.0, 0.5, Some(30)),
            Workload::Spec("fig05", None),
            Workload::Spec("fig08", None),
            Workload::Spec("fig14", Some(16)),
            Workload::Spec("fig14", None),
            Workload::TenJobs,
        ],
        left: |case| waterwise_run(case, true),
        right: Right::Run(|case| waterwise_run(case, false)),
        compare: same_decisions,
    },
    Invariant {
        name: "online_equals_offline",
        states: "A one-session host under the discrete clock serves the schedule an offline run of its stream computes",
        workloads: &[Workload::Streams(24), Workload::TenJobs],
        left: |case| serve(&traffic(case), false),
        right: Right::Run(|case| {
            let traffic = traffic(case);
            offline(&traffic, &traffic.sessions[0])
        }),
        compare: served_as_replayed,
    },
    Invariant {
        name: "real_time_replays_its_recorded_trace",
        states: "A one-session host under the real-time clock serves the schedule an offline run of its recorded, stamped trace computes",
        workloads: &[Workload::RealTime],
        left: |case| serve(&traffic(case), false),
        right: Right::Replay(|case, served| offline(&traffic(case), trace(served))),
        compare: served_as_replayed,
    },
    Invariant {
        name: "journal_equals_replay",
        states: "Concurrent sessions' admission journal replays offline to their schedule and per-tenant responses; with every submit time tied, the schedule is the same however the sessions interleave",
        workloads: &[Workload::Sessions(16), Workload::AllTies],
        left: |case| serve(&traffic(case), false),
        right: Right::Replay(|case, live| match case.workload {
            // Tied everywhere, the second run need replay nothing: the same
            // sessions submitting one at a time must serve the same.
            Workload::AllTies => serve(&traffic(case), true),
            _ => replay_journal(&traffic(case), live),
        }),
        compare: journal_pins_the_schedule,
    },
    Invariant {
        name: "resume_equals_uninterrupted",
        states: "A host restarted from its streamed journal, torn tail shed, serves what a never-interrupted host serves: schedule, stamped trace, journal in memory and on disk, per-tenant responses",
        workloads: &[Workload::TwoWaves],
        left: |_| interrupted(),
        right: Right::Run(|_| uninterrupted()),
        compare: identical,
    },
];

/// Run every case of the row `name` both ways and compare, naming the row,
/// the workload and the case in any failure.
fn check(name: &str) {
    let row = (INVARIANTS.iter().find(|row| row.name == name)).expect("a row of INVARIANTS");
    for workload in row.workloads {
        for index in 0..workload.cases() {
            let case = Case { workload, index };
            let checked = catch_unwind(AssertUnwindSafe(|| {
                let (left, right) = match row.right {
                    Right::Run(right) => std::thread::scope(|scope| {
                        let left = scope.spawn(|| (row.left)(&case));
                        let right = right(&case);
                        let left = left.join().unwrap_or_else(|panic| resume_unwind(panic));
                        (left, right)
                    }),
                    Right::Replay(replay) => {
                        let left = (row.left)(&case);
                        let right = replay(&case, &left);
                        (left, right)
                    }
                };
                (row.compare)(&case, &left, &right);
            }));
            if let Err(panic) = checked {
                let why = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("a panic without a message");
                panic!("{name} · {} · case {index}: {why}", workload.label());
            }
        }
    }
}

macro_rules! invariant_tests {
    ($($name:ident),*) => {
        $(#[test] fn $name() { check(stringify!($name)); })*

        #[test]
        fn every_invariant_has_a_test() {
            let names: Vec<&str> = INVARIANTS.iter().map(|row| row.name).collect();
            assert_eq!(names, [$(stringify!($name)),*]);
        }
    };
}

invariant_tests!(
    same_seed_twice,
    serial_equals_parallel,
    default_equals_all_milp,
    online_equals_offline,
    real_time_replays_its_recorded_trace,
    journal_equals_replay,
    resume_equals_uninterrupted
);

#[test]
fn architecture_lists_every_invariant() {
    let architecture = include_str!("../ARCHITECTURE.md");
    let section = (architecture.split("### Run pairs").nth(1))
        .and_then(|rest| rest.split("\n### ").next())
        .expect("ARCHITECTURE.md has a \"Run pairs\" section");
    let listed: Vec<&str> = (section.lines())
        .filter(|line| line.starts_with("| `"))
        .collect();
    let expected: Vec<String> = (INVARIANTS.iter())
        .map(|row| {
            let workloads: Vec<String> = row.workloads.iter().map(Workload::label).collect();
            let workloads = workloads.join("; ");
            format!("| `{}` | {} | {workloads} |", row.name, row.states)
        })
        .collect();
    assert_eq!(
        listed,
        expected,
        "ARCHITECTURE.md's run-pair table drifted from INVARIANTS; it should read:\n{}",
        expected.join("\n")
    );
}

/// What a row runs both ways.
#[derive(Debug)]
enum Workload {
    /// `CampaignConfig::small_demo(seed)` under one scheduler.
    Demo(u64, SchedulerKind),
    /// `Campaign::run_all` over every scheduler on `small_demo(seed)`, run
    /// in parallel as given.
    RunAll(u64, Parallelism),
    /// `Campaign::run_matrix` of WaterWise with every round solved
    /// (`warm_start` off) on `small_demo` at each seed, run in parallel as
    /// given.
    Matrix(&'static [u64], Parallelism),
    /// A perf-ledger configuration: Borg at seed 42 over days, at a delay
    /// tolerance, with that many servers a region (`None`: the paper's).
    Ledger(&'static str, f64, f64, Option<usize>),
    /// A committed `scenarios/*.spec`, its rolling horizon as written
    /// (`None`) or set to that many jobs.
    Spec(&'static str, Option<usize>),
    /// Ten jobs in five tied pairs on two servers a region, under WaterWise.
    TenJobs,
    /// Tie-heavy random request streams, each under every
    /// [`VariedScheduler`] variant.
    Streams(usize),
    /// A Borg trace served under the real-time clock, home placement.
    RealTime,
    /// Random multi-session runs: 2–4 sessions of tied submissions each.
    Sessions(usize),
    /// Four sessions of six jobs, every submit time 0.
    AllTies,
    /// Two waves of six requests across two tenants, a crash between them.
    TwoWaves,
}

/// `VariedScheduler` variants.
const VARIANTS: usize = 5;

impl Workload {
    fn cases(&self) -> usize {
        match self {
            Workload::Streams(streams) => streams * VARIANTS,
            Workload::Sessions(cases) => *cases,
            _ => 1,
        }
    }

    /// How ARCHITECTURE.md's table and a failure message name it.
    fn label(&self) -> String {
        match self {
            Workload::Demo(seed, kind) => format!("`small_demo({seed})` {kind:?}"),
            Workload::RunAll(seed, workers) => {
                format!("`run_all` of `small_demo({seed})` on `{workers:?}`")
            }
            Workload::Matrix(seeds, workers) => {
                format!("`run_matrix` of `small_demo` {seeds:?}, all-MILP, on `{workers:?}`")
            }
            Workload::Ledger(name, ..) => format!("ledger `{name}`"),
            Workload::Spec(name, None) => format!("`{name}.spec`"),
            Workload::Spec(name, Some(jobs)) => format!("`{name}.spec` at horizon {jobs}"),
            Workload::TenJobs => "the 10-job stream".into(),
            Workload::Streams(n) => {
                format!("{n} tie-heavy streams × {VARIANTS} `VariedScheduler`s")
            }
            Workload::RealTime => "Borg 0.05 d at 5e7× wall time".into(),
            Workload::Sessions(cases) => format!("{cases} interleaved multi-session runs"),
            Workload::AllTies => "4 × 6 tied jobs, concurrent vs one session at a time".into(),
            Workload::TwoWaves => "two waves, crash and torn tail between".into(),
        }
    }

    /// The campaign configuration of an offline workload.
    fn config(&self) -> CampaignConfig {
        match *self {
            Workload::Demo(seed, _) | Workload::RunAll(seed, _) => CampaignConfig::small_demo(seed),
            Workload::Ledger(_, days, tolerance, servers) => {
                let config = CampaignConfig::paper_default(days, tolerance, 42);
                match servers {
                    Some(n) => config.with_servers_per_region(n),
                    None => config,
                }
            }
            Workload::Spec(name, horizon) => {
                let spec = load_spec(scenario_spec_path(name)).expect("committed spec loads");
                let mut config = spec.config;
                config.waterwise.horizon = horizon.or(config.waterwise.horizon);
                config
            }
            _ => panic!("{self:?} is not an offline campaign"),
        }
    }
}

/// One case of a workload.
struct Case<'a> {
    workload: &'a Workload,
    index: usize,
}

impl Case<'_> {
    /// The generator of the case's `draw`-th input, seeded by the
    /// workload's label and `draw`.
    fn rng(&self, draw: usize) -> StdRng {
        let label = format!("{} {draw}", self.workload.label());
        StdRng::seed_from_u64(proptest::seed_for_test(&label))
    }
}

/// What one way of running a workload produced.
#[derive(Default)]
struct Run {
    /// One report per campaign, in input order (a sweep runs several).
    reports: Vec<SimulationReport>,
    /// WaterWise's own counters, where the run kept its scheduler.
    stats: Option<SolveStats>,
    /// The stamped jobs the engine admitted, in receipt order.
    trace: Option<Vec<JobSpec>>,
    /// Each tenant's responses, in delivery order.
    responses: Option<BTreeMap<TenantId, Vec<PlacementResponse>>>,
    /// A host run's report: its journal and admission accounting.
    host: Option<HostReport>,
    /// Quota rejections the host's clients saw.
    shed: usize,
    /// The journal file's bytes.
    journal_file: Option<Vec<u8>>,
}

impl Run {
    fn offline(report: SimulationReport, trace: &[JobSpec]) -> Self {
        let trace = Some(trace.to_vec());
        Run {
            reports: vec![report],
            trace,
            ..Run::default()
        }
    }

    fn host(report: HostReport, responses: BTreeMap<TenantId, Vec<PlacementResponse>>) -> Self {
        Run {
            reports: vec![report.report.clone()],
            trace: Some(report.trace.clone()),
            responses: Some(responses),
            host: Some(report),
            ..Run::default()
        }
    }

    fn report(&self) -> &SimulationReport {
        assert_eq!(self.reports.len(), 1, "one campaign");
        &self.reports[0]
    }

    fn host_report(&self) -> &HostReport {
        self.host.as_ref().expect("a host run")
    }

    fn responses(&self) -> impl Iterator<Item = &PlacementResponse> {
        (self.responses.iter()).flat_map(|by_tenant| by_tenant.values().flatten())
    }
}

fn trace(run: &Run) -> &[JobSpec] {
    run.trace.as_deref().expect("a stamped trace")
}

/// Panic naming `what` and the first position the lists differ at (`None`
/// past the shorter one's end).
fn same_list<T: PartialEq + Debug>(what: &str, left: &[T], right: &[T]) {
    let first = (0..left.len().max(right.len())).find(|&i| left.get(i) != right.get(i));
    if let Some(i) = first {
        let (l, r) = (left.get(i), right.get(i));
        panic!("{what} differ at {i}: {l:?} vs {r:?}");
    }
}

/// Two runs decided alike: the same reports (scheduler, outcomes,
/// makespan, summary without wall clock, each round's instant and batch)
/// and the same responses. `solver` also compares the solver work: per
/// round, in the summary and in each response.
fn same_schedule(left: &Run, right: &Run, solver: bool) {
    let keep = |work: Option<SolverActivity>| work.filter(|_| solver);
    let summary = |s: &CampaignSummary| {
        let mut s = s.without_wall_clock();
        s.solver = keep(Some(s.solver)).unwrap_or_default();
        format!("{s:?}")
    };
    let rounds = |r: &SimulationReport| -> Vec<_> {
        let round = |o: &OverheadSample| (o.sim_time, o.batch_size, keep(o.solver));
        r.overhead.iter().map(round).collect()
    };
    assert_eq!(left.reports.len(), right.reports.len(), "campaigns");
    for (l, r) in left.reports.iter().zip(&right.reports) {
        let name = &l.scheduler_name;
        assert_eq!(name, &r.scheduler_name, "merge order");
        same_list(&format!("{name} outcomes"), &l.outcomes, &r.outcomes);
        assert_eq!(l.makespan, r.makespan, "{name} makespan");
        assert_eq!(summary(&l.summary), summary(&r.summary), "{name} summary");
        same_list(&format!("{name} rounds"), &rounds(l), &rounds(r));
    }
    if let (Some(l), Some(r)) = (&left.responses, &right.responses) {
        // A tenant that submitted nothing may have no entry.
        let of = |by_tenant: &BTreeMap<TenantId, Vec<PlacementResponse>>, tenant| {
            let mut responses = by_tenant.get(tenant).cloned().unwrap_or_default();
            responses.iter_mut().for_each(|p| p.solver = keep(p.solver));
            responses
        };
        for tenant in l.keys().chain(r.keys()) {
            let what = format!("{tenant}'s responses");
            same_list(&what, &of(l, tenant), &of(r, tenant));
        }
    }
}

/// Byte-identical runs: the same schedule and solver work, and the same
/// stamped trace, journal and journal file wherever both runs have them.
fn identical(_: &Case, left: &Run, right: &Run) {
    same_schedule(left, right, true);
    if let (Some(l), Some(r)) = (&left.trace, &right.trace) {
        same_list("stamped traces", l, r);
    }
    if let (Some(l), Some(r)) = (&left.host, &right.host) {
        same_list("journals", &l.journal.entries, &r.journal.entries);
    }
    if let (Some(l), Some(r)) = (&left.journal_file, &right.journal_file) {
        assert!(l == r, "journal files differ");
    }
}

fn campaign_run(case: &Case) -> Run {
    let Workload::Demo(_, kind) = *case.workload else {
        panic!("{:?} is not one scheduler's campaign", case.workload)
    };
    let campaign = Campaign::new(case.workload.config());
    let outcome = campaign.run(kind).expect("campaign runs");
    Run::offline(outcome.report, campaign.jobs())
}

/// A `run_all` or `run_matrix` sweep, serially or at the workload's
/// parallelism, every cell a report.
fn sweep(case: &Case, parallel: bool) -> Run {
    let (Workload::RunAll(.., workers) | Workload::Matrix(.., workers)) = *case.workload else {
        panic!("{:?} is not a sweep", case.workload)
    };
    let parallelism = if parallel {
        workers
    } else {
        Parallelism::Serial
    };
    let outcomes = match *case.workload {
        Workload::Matrix(seeds, _) => {
            let configs: Vec<CampaignConfig> = (seeds.iter())
                .map(|&seed| {
                    let mut config = CampaignConfig::small_demo(seed);
                    config.waterwise.warm_start = false;
                    config.with_parallelism(parallelism)
                })
                .collect();
            let matrix = Campaign::run_matrix(&configs, &[SchedulerKind::WaterWise], parallelism);
            matrix.expect("matrix runs").into_iter().flatten().collect()
        }
        _ => {
            let campaign = Campaign::new(case.workload.config().with_parallelism(parallelism));
            campaign
                .run_all(&SchedulerKind::ALL)
                .expect("campaigns run")
        }
    };
    let reports = outcomes.into_iter().map(|outcome| outcome.report).collect();
    Run {
        reports,
        ..Run::default()
    }
}

/// WaterWise with `warm_start` set: served when the workload is traffic,
/// otherwise the campaign `Campaign::run` makes, on a scheduler kept so
/// that its counters can be read.
fn waterwise_run(case: &Case, warm_start: bool) -> Run {
    if let Workload::TenJobs = case.workload {
        let config = WaterWiseConfig::default().with_warm_start(warm_start);
        return serve(&ten_jobs(config), false);
    }
    let mut config = case.workload.config();
    config.waterwise.warm_start = warm_start;
    assert!(
        config.estimate_carbon_error == 1.0 && config.estimate_water_error == 1.0,
        "the scheduler sees the ground truth, as `Campaign::run` shows it"
    );
    let campaign = Campaign::new(config.clone());
    let telemetry = campaign.telemetry().clone();
    let estimator = FootprintEstimator::new(config.simulation.datacenter);
    let mut scheduler = WaterWiseScheduler::new(telemetry.clone(), estimator, config.waterwise);
    let simulator = Simulator::new(config.simulation, telemetry).expect("valid simulation");
    let report = (simulator.run(campaign.jobs(), &mut scheduler)).expect("campaign runs");
    let stats = Some(scheduler.stats());
    Run {
        stats,
        ..Run::offline(report, campaign.jobs())
    }
}

/// The default scheduler and the all-MILP reference decided alike; the
/// reference solved every round, the default only those it could not
/// certify.
fn same_decisions(case: &Case, default: &Run, reference: &Run) {
    same_schedule(default, reference, false);
    if let (Some(hinted), Some(solved)) = (default.stats, reference.stats) {
        assert_eq!(hinted.rounds, solved.rounds, "rounds");
        // The kernel proves a hard round infeasible exactly when the solver does.
        assert_eq!(hinted.soft_fallbacks, solved.soft_fallbacks, "softened");
        assert_eq!(solved.certified_rounds, 0, "no hint, no certificate");
        assert_eq!(
            solved.rounds,
            reference.report().overhead.len(),
            "rounds with work"
        );
        // The reference solves each round's hard model, and its soft twin.
        let work = reference.report().summary.solver;
        let softened = solved.soft_fallbacks;
        assert_eq!(work.solves, solved.rounds + softened, "{work:?}");
        assert!(work.simplex_pivots > 0 && work.warm_solves == 0, "{work:?}");
        // Every uncertified round reached the solver: `solves ≥ rounds −
        // certified_rounds`, and no round solved more than its two models.
        let uncertified = hinted.rounds - hinted.certified_rounds;
        let solves = default.report().summary.solver.solves;
        let once_or_twice = (uncertified..=2 * uncertified).contains(&solves);
        assert!(once_or_twice, "{uncertified} uncertified, {solves} solves");
    }
    match case.workload {
        // How many rounds the default scheduler decides without a model on
        // the ledger's configurations (Borg, seed 42): the hint is certified
        // or the transportation kernel proves its optimum unique. The hint
        // decides every round of `campaign_tight` (2 days, tolerance 0.10);
        // capacity needs a price in nearly every round of
        // `campaign_pressure` (30 servers per region, its hard model
        // infeasible in most rounds; one day of it), so the kernel decides
        // them, all but one round with tied optima, which is solved.
        //
        // And every solve of the reference is root-integral. With Eq. 11 as
        // one weighted row per job the tight trace explored 37 022 nodes in
        // its 2 789 rounds and hit the 10 000-node cap in three; as arc
        // bounds the model is a transportation problem, so each solve — hard,
        // or hard then soft — ends at the root of branch-and-bound.
        Workload::Ledger(name, ..) => {
            let without_model = match *name {
                "tight" => (2_789, 2_789),
                "pressured" => (1_876, 1_877),
                _ => panic!("no pinned counts for ledger `{name}`"),
            };
            let hinted = default.stats.expect("the default run keeps its scheduler");
            assert_eq!(
                (hinted.certified_rounds, hinted.rounds),
                without_model,
                "rounds decided without a model"
            );
            let max_nodes = case.workload.config().waterwise.branch_bound.max_nodes;
            let work = reference.report().summary.solver;
            assert!(work.solves > 2_000, "{work:?}");
            assert_eq!(work.nodes, work.solves, "a solve branched: {work:?}");
            for (round, sample) in reference.report().overhead.iter().enumerate() {
                let solver = sample.solver.expect("WaterWise reports solver activity");
                assert_eq!(solver.nodes, solver.solves, "round {round}: {solver:?}");
                assert!(solver.nodes < max_nodes, "round {round} hit the node cap");
            }
        }
        // The hint or the kernel decides every round of the demo campaigns.
        Workload::Demo(..) => {
            let work = default.report().summary.solver;
            assert_eq!(work, SolverActivity::default(), "reached the solver");
        }
        // The responses carry each round's solver work: none by default.
        Workload::TenJobs => {
            let solves = |run: &Run| -> usize {
                let solves = |r: &PlacementResponse| r.solver.map_or(0, |s| s.solves);
                run.responses().map(solves).sum()
            };
            assert_eq!(solves(default), 0, "the default reached the solver");
            assert!(solves(reference) > 0, "the reference solved nothing");
        }
        _ => {}
    }
}

/// Request streams, one a session, and the host that serves them.
struct Traffic {
    sessions: Vec<Vec<JobSpec>>,
    /// Servers in each region.
    servers: usize,
    telemetry_seed: u64,
    clock: ClockMode,
    policy: Policy,
    /// Each tenant's in-flight quota.
    quota: usize,
}

enum Policy {
    Varied(usize),
    WaterWise(WaterWiseConfig),
}

impl Traffic {
    /// Under the discrete clock, telemetry seed 7, a quota that holds
    /// every request.
    fn new(sessions: Vec<Vec<JobSpec>>, servers: usize, policy: Policy) -> Self {
        let quota = sessions.iter().map(Vec::len).sum::<usize>().max(1);
        let (telemetry_seed, clock) = (7, ClockMode::Discrete);
        Traffic {
            sessions,
            servers,
            telemetry_seed,
            clock,
            policy,
            quota,
        }
    }

    fn simulation(&self) -> SimulationConfig {
        SimulationConfig::paper_default(self.servers, 0.5)
    }

    fn service(&self) -> PlacementService {
        let config = ServiceConfig::new(self.simulation(), telemetry(self.telemetry_seed));
        PlacementService::new(config.with_clock(self.clock)).expect("valid service")
    }

    fn scheduler(&self) -> Box<dyn Scheduler> {
        match &self.policy {
            Policy::Varied(variant) => Box::new(VariedScheduler::new(*variant)),
            Policy::WaterWise(config) => build_scheduler(
                SchedulerKind::WaterWise,
                SyntheticTelemetry::with_seed(self.telemetry_seed).shared(),
                FootprintEstimator::new(self.simulation().datacenter),
                config,
            ),
        }
    }
}

/// Ten jobs in five tied pairs, one session, on two servers a region.
fn ten_jobs(config: WaterWiseConfig) -> Traffic {
    let jobs = (0..10u64).map(|i| {
        let (submit, exec) = ((i / 2) as f64 * 30.0, 300.0 + (i % 3) as f64 * 45.0);
        job(i, submit, exec, ALL_REGIONS[i as usize % 5], 1 << 20)
    });
    Traffic::new(vec![jobs.collect()], 2, Policy::WaterWise(config))
}

/// The case's traffic. A random stream (case `i` is stream `i / 5` under
/// variant `i % 5`) or random sessions sit on coarse grids (multiples of
/// 30 s and 45 s), which collide arrivals with the 60 s rounds and with
/// each other; ids are unique and each session's submit times
/// non-decreasing, as the discrete clock takes them.
fn traffic(case: &Case) -> Traffic {
    let grid = |id: u64, (t, e, r, bytes): (u64, u64, usize, u64)| {
        job(id, t as f64 * 30.0, e as f64 * 45.0, ALL_REGIONS[r], bytes)
    };
    match case.workload {
        Workload::Streams(_) => {
            let mut rng = case.rng(case.index / VARIANTS);
            let draws = (0u64..30, 1u64..20, 0usize..5, 1u64..200_000_000);
            let raw = prop::collection::vec(draws, 1..30).sample(&mut rng);
            let mut jobs: Vec<JobSpec> = (raw.into_iter().enumerate())
                .map(|(i, draw)| grid(i as u64, draw))
                .collect();
            // Sorted stably: receipt order stays within ties.
            jobs.sort_by(|a, b| a.submit_time.value().total_cmp(&b.submit_time.value()));
            let servers = (1usize..6).sample(&mut rng);
            Traffic::new(vec![jobs], servers, Policy::Varied(case.index % VARIANTS))
        }
        Workload::Sessions(_) => {
            let mut rng = case.rng(case.index);
            let draws = (0u64..4, 1u64..20, 0usize..5, 1u64..200_000_000);
            let raw = prop::collection::vec(prop::collection::vec(draws, 0..10), 2..5);
            let sessions = (raw.sample(&mut rng).into_iter().enumerate())
                .map(|(s, mut draws)| {
                    draws.sort_by_key(|&(t, ..)| t);
                    let ids = (s as u64 * 1000..).zip(draws);
                    ids.map(|(id, draw)| grid(id, draw)).collect()
                })
                .collect();
            let servers = (1usize..6).sample(&mut rng);
            let policy = Policy::Varied((0..VARIANTS).sample(&mut rng));
            // A tight quota sheds in-band; a loose one admits everything.
            let quota = [64, 2][(0usize..2).sample(&mut rng)];
            Traffic {
                quota,
                ..Traffic::new(sessions, servers, policy)
            }
        }
        Workload::AllTies => {
            let session = |s: u64| -> Vec<JobSpec> {
                let tied = |k: u64| {
                    let (exec, home) = (45.0 * (1 + (s + k) % 4) as f64, (s + k) as usize % 5);
                    job(s * 1000 + k, 0.0, exec, ALL_REGIONS[home], 1 << 20)
                };
                (0..6).map(tied).collect()
            };
            let sessions = (0..4).map(session).collect();
            Traffic {
                quota: 64,
                ..Traffic::new(sessions, 2, Policy::Varied(2))
            }
        }
        Workload::TenJobs => ten_jobs(WaterWiseConfig::default()),
        Workload::RealTime => {
            let jobs = TraceGenerator::new(TraceConfig::borg(0.05, 17)).generate();
            Traffic {
                telemetry_seed: 1,
                // The whole campaign passes in microseconds of wall time;
                // the stamps land wherever the wall clock put them.
                clock: ClockMode::RealTime { scale: 5e7 },
                ..Traffic::new(vec![jobs], 50, Policy::Varied(0))
            }
        }
        workload => panic!("{workload:?} is not traffic"),
    }
}

/// One host, one session per stream under tenant `tenant-<index>`, each
/// draining its own responses; the host closes when they all end. The
/// sessions submit each on its own thread at once, or (`one_at_a_time`)
/// each all its jobs before the next.
fn serve(traffic: &Traffic, one_at_a_time: bool) -> Run {
    let admission = AdmissionConfig {
        tenant_inflight_quota: traffic.quota,
        drr_quantum: 2,
        mode: AdmissionMode::Streaming {
            close_after_sessions: Some(traffic.sessions.len()),
        },
    };
    let host = ClusterHost::start_with_service(traffic.service(), admission, traffic.scheduler())
        .expect("host starts");
    let submit = |session: &waterwise::service::HostSession, jobs: &[JobSpec]| {
        let rejected = |spec: &JobSpec| match session.submit(spec.clone()) {
            Ok(()) => false,
            Err(ServiceError::AdmissionRejected { .. }) => true,
            Err(other) => panic!("unexpected submit failure: {other}"),
        };
        jobs.iter().filter(|spec| rejected(spec)).count()
    };
    let (mut responses, mut shed) = (BTreeMap::new(), 0);
    std::thread::scope(|scope| {
        let opened: Vec<_> = (traffic.sessions.iter().enumerate())
            .map(|(index, jobs)| {
                let tenant = TenantId::from(format!("tenant-{index}"));
                let session = host.open_session(tenant.clone()).expect("session opens");
                (session, jobs, tenant)
            })
            .collect();
        let mut clients = Vec::new();
        for (session, jobs, tenant) in opened {
            // Responses flush only as other sessions advance time, so they
            // always drain concurrently.
            let submitted = one_at_a_time.then(|| submit(&session, jobs));
            clients.push(scope.spawn(move || {
                let rejected = submitted.unwrap_or_else(|| submit(&session, jobs));
                (tenant, session.drain(), rejected)
            }));
        }
        for client in clients {
            let (tenant, delivered, rejected) = client.join().expect("client");
            responses.insert(tenant, delivered);
            shed += rejected;
        }
    });
    Run {
        shed,
        ..Run::host(host.shutdown().expect("host shuts down"), responses)
    }
}

/// Run `jobs` offline on the traffic's cluster and scheduler.
fn offline(traffic: &Traffic, jobs: &[JobSpec]) -> Run {
    let telemetry = SyntheticTelemetry::with_seed(traffic.telemetry_seed);
    let simulator = Simulator::new(traffic.simulation(), telemetry).expect("valid simulation");
    let report = simulator.run(jobs, traffic.scheduler().as_mut());
    Run::offline(report.expect("replays"), jobs)
}

/// The host served what the offline run computed, every job once, and
/// each response names the region the offline schedule ran the job in.
fn served_as_replayed(case: &Case, served: &Run, replayed: &Run) {
    identical(case, served, replayed);
    let jobs = traffic(case).sessions[0].len();
    let stamps: Vec<Seconds> = trace(served).iter().map(|j| j.submit_time).collect();
    assert_eq!(stamps.len(), jobs, "recorded trace");
    assert!(stamps.is_sorted(), "stamps are monotone in receipt order");
    let host = served.host_report();
    let admission = (host.accepted, host.rejected, host.served);
    assert_eq!(admission, (jobs, 0, jobs), "accepted, rejected, served");
    assert_eq!(replayed.report().summary.total_jobs, jobs, "completed");
    let ran = |o: &JobOutcome| (o.job, o.executed_region);
    let regions: BTreeMap<JobId, Region> = replayed.report().outcomes.iter().map(ran).collect();
    assert_eq!(served.responses().count(), jobs, "responses");
    for response in served.responses() {
        let ran = regions.get(&response.job);
        assert_eq!(Some(&response.region), ran, "{:?}", response.job);
    }
}

fn replay_journal(traffic: &Traffic, live: &Run) -> Run {
    let journal = &live.host_report().journal;
    let replay = journal.replay(&traffic.service(), traffic.scheduler().as_mut());
    let replay = replay.expect("journal replays");
    Run {
        reports: vec![replay.report.report],
        trace: Some(replay.report.trace),
        responses: Some(replay.responses),
        ..Run::default()
    }
}

fn sorted_by<T: Clone, K: Ord>(items: &[T], key: impl FnMut(&T) -> K) -> Vec<T> {
    let mut items = items.to_vec();
    items.sort_by_key(key);
    items
}

/// The live run's schedule and responses are the other run's, and so is
/// its stamped trace: in receipt order against a replay, which receives in
/// journal order, and in id order against another live run (receipt order
/// is the race between sessions to the admission queue, which the sequence
/// bands make irrelevant), whose journal must hold the same entries by sequence. The
/// live run's admission accounting adds up, tenant by tenant, and its
/// journal survives the text round trip.
fn journal_pins_the_schedule(case: &Case, live: &Run, other: &Run) {
    same_schedule(live, other, true);
    let host = live.host_report();
    match &other.host {
        Some(other_host) => {
            let by_id = |run| sorted_by(trace(run), |spec| spec.id);
            same_list("stamped jobs", &by_id(live), &by_id(other));
            let by_seq = |host: &HostReport| sorted_by(&host.journal.entries, |entry| entry.seq);
            same_list("journal entries", &by_seq(host), &by_seq(other_host));
        }
        None => same_list("stamped traces", trace(live), trace(other)),
    }
    let sessions = traffic(case).sessions;
    let submitted: usize = sessions.iter().map(Vec::len).sum();
    assert_eq!(host.accepted + live.shed, submitted, "admitted or shed");
    assert_eq!(host.rejected, live.shed, "rejected");
    assert_eq!(host.served, host.accepted, "served");
    assert_eq!(host.journal.entries.len(), host.accepted, "journaled");
    assert_eq!(host.sessions, sessions.len(), "sessions");
    let delivered = live.responses.as_ref().expect("a host run");
    for (index, jobs) in sessions.iter().enumerate() {
        let tenant = TenantId::from(format!("tenant-{index}"));
        let stats = host.tenants.get(&tenant).cloned().unwrap_or_default();
        assert_eq!(stats.accepted + stats.rejected, jobs.len(), "{tenant}");
        assert_eq!(stats.served, delivered[&tenant].len(), "{tenant}");
    }
    let reparsed = Journal::parse(&host.journal.encode()).expect("the journal parses");
    assert!(reparsed == host.journal, "the journal's text round trip");
}

/// The two waves: wave one is admitted before the crash, wave two only
/// after the restart. Tenants interleave within each wave, and wave two's
/// submit times follow wave one's, so the commit order is stable across
/// the restart.
fn wave(first: bool) -> Vec<(TenantId, JobSpec)> {
    let (even, odd, ids, start) = match first {
        true => ("acme", "umbrella", 1, 0.0),
        false => ("umbrella", "acme", 101, 600.0),
    };
    let request = |k: u64| {
        let tenant = TenantId::from(if k.is_multiple_of(2) { even } else { odd });
        let mut spec = job(
            k + ids,
            start + k as f64 * 30.0,
            120.0,
            Region::Oregon,
            1 << 16,
        );
        spec.actual_energy = KilowattHours::new(0.02);
        spec.estimated_energy = spec.actual_energy;
        (tenant, spec)
    };
    (0..6).map(request).collect()
}

/// The resume row's host journaling to `path`, resumed from `resume` when
/// given.
fn persistent_host(path: &Path, resume: Option<Journal>) -> ClusterHost {
    let traffic = resume_host();
    let journaled = HostPersistence::default().with_journal_path(path);
    let persistence = match resume {
        Some(journal) => journaled.with_resume(journal),
        None => journaled,
    };
    // Streaming admission that never closes itself: the test shuts it down.
    let (admission, service) = (AdmissionConfig::default(), traffic.service());
    ClusterHost::start_persistent(service, admission, traffic.scheduler(), persistence)
        .expect("host starts")
}

/// The resume row's host: three servers a region, telemetry seed 23, the
/// default WaterWise scheduler.
fn resume_host() -> Traffic {
    let policy = Policy::WaterWise(WaterWiseConfig::default());
    Traffic {
        telemetry_seed: 23,
        ..Traffic::new(Vec::new(), 3, policy)
    }
}

/// Run both waves in a scratch directory of `label`, through `waves`,
/// which returns the host's report and every response it delivered. The
/// run keeps the journal file and the responses grouped by the tenant each
/// job was submitted under (responses do not carry a tenant).
fn resumable(label: &str, waves: fn(&Path) -> (HostReport, Vec<PlacementResponse>)) -> Run {
    let dir = std::env::temp_dir().join(format!("ww-invariants-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch dir");
    let path = dir.join("host.journal");
    let (report, responses) = waves(&path);
    let requests = wave(true).into_iter().chain(wave(false));
    let owners: BTreeMap<JobId, TenantId> = requests.map(|(t, spec)| (spec.id, t)).collect();
    let mut grouped: BTreeMap<TenantId, Vec<PlacementResponse>> = BTreeMap::new();
    for response in responses {
        let tenant = owners[&response.job].clone();
        grouped.entry(tenant).or_default().push(response);
    }
    let journal_file = Some(std::fs::read(&path).expect("read the journal"));
    let _ = std::fs::remove_dir_all(&dir);
    Run {
        journal_file,
        ..Run::host(report, grouped)
    }
}

/// Wave one, a crash once its six admissions are on disk, a torn half-line
/// on the journal's tail, a restart from the recovered journal, wave two.
fn interrupted() -> Run {
    let run = resumable("interrupted", |path| {
        let host = persistent_host(path, None);
        let outbox = submit_wave(&host, &wave(true), path, 0);
        // The crash: nothing the host does after this reaches the recovered
        // state. The doomed host still drains (threads cannot be killed);
        // only the frozen file and the delivered responses survive it.
        let frozen = wait_for_journal_lines(path, 6);
        host.shutdown().expect("the first host shuts down");
        let mut responses: Vec<PlacementResponse> = outbox.iter().collect();
        assert_eq!(responses.len(), 6, "wave one's responses");
        let torn = format!("{frozen}{{\"seq\":4294967296,\"tena");
        std::fs::write(path, torn).expect("tear the tail");
        let recovered = Journal::load(path).expect("recover the journal");
        assert_eq!(
            recovered.entries.len(),
            6,
            "the torn tail is shed, the rest kept"
        );

        let host = persistent_host(path, Some(recovered));
        let outbox = submit_wave(&host, &wave(false), path, 6);
        let report = host.shutdown().expect("the resumed host shuts down");
        responses.extend(outbox.iter());
        assert_eq!(responses.len(), 12, "wave two's responses");
        (report, responses)
    });
    // Resume composes with replay: the combined journal replays offline to
    // the resumed schedule and responses.
    same_schedule(&run, &replay_journal(&resume_host(), &run), true);
    run
}

/// Both waves through one host life.
fn uninterrupted() -> Run {
    resumable("uninterrupted", |path| {
        let host = persistent_host(path, None);
        let first = submit_wave(&host, &wave(true), path, 0);
        let second = submit_wave(&host, &wave(false), path, 6);
        let report = host.shutdown().expect("the host shuts down");
        (report, first.iter().chain(second.iter()).collect())
    })
}

fn telemetry(seed: u64) -> TelemetryConfig {
    TelemetryConfig {
        seed,
        ..TelemetryConfig::default()
    }
}

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
/// partial assignment, periodic deferral. Stateful on purpose: both ways
/// must present it the same sequence of contexts.
struct VariedScheduler {
    variant: usize,
    round: usize,
}

impl VariedScheduler {
    fn new(variant: usize) -> Self {
        Self { variant, round: 0 }
    }
}

impl Scheduler for VariedScheduler {
    fn name(&self) -> &str {
        "varied"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        self.round += 1;
        let round = self.round;
        let to = |region: fn(&JobSpec) -> Region| {
            SchedulingDecision::from_pairs(ctx.pending.iter().map(|p| (p.spec.id, region(&p.spec))))
        };
        let home = |spec: &JobSpec| spec.home_region;
        match self.variant {
            0 => to(home),
            1 => to(|_| Region::Zurich),
            2 => SchedulingDecision::from_pairs(ctx.pending.iter().map(|p| {
                let rotated = (p.spec.id.0 as usize + round) % ALL_REGIONS.len();
                (p.spec.id, ALL_REGIONS[rotated])
            })),
            3 => SchedulingDecision::from_pairs(
                (ctx.pending.iter().step_by(2)).map(|p| (p.spec.id, p.spec.home_region)),
            ),
            _ if round.is_multiple_of(3) => SchedulingDecision::defer_all(),
            _ => to(home),
        }
    }
}
