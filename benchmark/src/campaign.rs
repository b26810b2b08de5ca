//! The four `campaign_*` workloads: an offline `Simulator::run` of the
//! WaterWise scheduler over a generated trace, repeated for the length of
//! the timed region.

use crate::measure::{paired_overhead_pct, peak_rss_mb, set_layer, solver_layers, Ledger};
use crate::stats::median;
use crate::trace::{
    allocation_counters, count_allocations, direct_loop_s, lookup_cost_s, TimedProvider,
    TimedScheduler, Tracer,
};
use crate::workload::{RunOptions, Workload, WorkloadResult, MIN_PASSES};
use std::sync::Arc;
use std::time::Instant;
use waterwise::cluster::{
    CampaignSummary, EngineMode, SimulationReport, Simulator, SolverActivity,
};
use waterwise::core::sched::SolveStats;
use waterwise::core::{
    BaselineScheduler, Campaign, CampaignConfig, Parallelism, SchedulerKind, SolutionCache,
    SolutionCacheHandle, WaterWiseScheduler,
};
use waterwise::sustain::{FootprintEstimator, JobResourceUsage, Seconds};
use waterwise::telemetry::{ConditionsProvider, Region, SyntheticTelemetry};
use waterwise::traces::{JobSpec, TraceGenerator};

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 25;

/// The generated inputs of a workload.
pub struct Inputs {
    pub config: CampaignConfig,
    pub jobs: Vec<JobSpec>,
    pub telemetry: Arc<SyntheticTelemetry>,
}

/// Seconds spent generating the trace and the telemetry of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct GenerateTimes {
    pub traces_s: f64,
    pub telemetry_s: f64,
}

/// Generate a workload's inputs from the seed, timing the two generators.
pub fn generate(workload: Workload, options: &RunOptions) -> (Inputs, GenerateTimes) {
    let days = options.days.unwrap_or(workload.default_days());
    let config = workload.config(options.seed, days);
    let start = Instant::now();
    let jobs = TraceGenerator::new(config.trace.clone()).generate();
    let traces_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let telemetry = SyntheticTelemetry::generate(config.telemetry).shared();
    let telemetry_s = start.elapsed().as_secs_f64();
    (
        Inputs {
            config,
            jobs,
            telemetry,
        },
        GenerateTimes {
            traces_s,
            telemetry_s,
        },
    )
}

/// The WaterWise scheduler exactly as `Campaign::build_scheduler` builds it,
/// kept concrete so its statistics can be read after the run.
pub fn scheduler_for(
    config: &CampaignConfig,
    provider: Arc<dyn ConditionsProvider>,
) -> WaterWiseScheduler {
    WaterWiseScheduler::new(
        provider,
        FootprintEstimator::new(config.simulation.datacenter),
        config.waterwise.clone(),
    )
}

/// The `SchedulerKind::Baseline` totals the footprint metrics are relative to.
pub fn baseline_summary(inputs: &Inputs) -> Result<CampaignSummary, String> {
    let simulator = Simulator::new(inputs.config.simulation.clone(), inputs.telemetry.clone())
        .map_err(|e| e.to_string())?;
    let report = simulator
        .run(&inputs.jobs, &mut BaselineScheduler::new())
        .map_err(|e| e.to_string())?;
    Ok(report.summary)
}

/// One offline run and what the scheduler said about it.
pub struct Pass {
    pub wall_s: f64,
    pub report: SimulationReport,
    pub stats: SolveStats,
    pub activity: SolverActivity,
}

/// One untraced pass: exactly what `Campaign::run` does, with the concrete
/// scheduler kept so its statistics can be read afterwards.
pub fn plain_pass(
    config: &CampaignConfig,
    inputs: &Inputs,
    cache: Option<SolutionCacheHandle>,
) -> Result<Pass, String> {
    let simulator = Simulator::new(config.simulation.clone(), inputs.telemetry.clone())
        .map_err(|e| e.to_string())?;
    let mut scheduler = scheduler_for(config, inputs.telemetry.clone());
    if let Some(cache) = cache {
        scheduler.attach_cache(cache);
    }
    let start = Instant::now();
    let report = simulator
        .run(&inputs.jobs, &mut scheduler)
        .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Pass {
        wall_s,
        report,
        stats: scheduler.stats(),
        activity: waterwise::cluster::Scheduler::solver_activity(&scheduler).unwrap_or_default(),
    })
}

/// What the wrappers of one traced pass counted.
struct TracedCounts {
    /// The pass's wall, for the wrappers' share of it.
    wall_s: f64,
    schedule_calls: f64,
    schedule_busy_s: f64,
    core_lookups: f64,
    engine_lookups: f64,
    allocations: f64,
    allocated_bytes: f64,
}

/// One traced pass: the same run with a `TimedProvider` on either side of
/// the engine/scheduler boundary, a `TimedScheduler` around the scheduler and
/// a span per pass and per round. Allocations are counted only when asked:
/// two atomic adds per allocation cost several percent of a pass, so they
/// get a pass of their own outside the timed region.
fn traced_pass(
    inputs: &Inputs,
    tracer: &Arc<Tracer>,
    index: usize,
    count: bool,
) -> Result<(Pass, TracedCounts), String> {
    let core_side = TimedProvider::new(inputs.telemetry.clone());
    let engine_side = TimedProvider::new(inputs.telemetry.clone());
    let simulator = Simulator::new(inputs.config.simulation.clone(), engine_side.clone())
        .map_err(|e| e.to_string())?;
    let span = tracer.open("cluster.pass", 0, index as u64);
    let mut scheduler = TimedScheduler::new(
        scheduler_for(&inputs.config, Arc::new(core_side.clone())),
        tracer.clone(),
        span,
    );
    let log = scheduler.log();
    let before = allocation_counters();
    count_allocations(count);
    let start = Instant::now();
    let report = simulator.run(&inputs.jobs, &mut scheduler);
    let wall_s = start.elapsed().as_secs_f64();
    count_allocations(false);
    tracer.close(span);
    let after = allocation_counters();
    let report = report.map_err(|e| e.to_string())?;
    let log = *log.lock().expect("round log poisoned");
    Ok((
        Pass {
            wall_s,
            report,
            stats: log.stats,
            activity: log.activity,
        },
        TracedCounts {
            wall_s,
            schedule_calls: log.calls as f64,
            schedule_busy_s: log.busy_ns as f64 / 1e9,
            core_lookups: core_side.lookups() as f64,
            engine_lookups: engine_side.lookups() as f64,
            allocations: (after.0 - before.0) as f64,
            allocated_bytes: (after.1 - before.1) as f64,
        },
    ))
}

/// Run one `campaign_*` workload in this process.
pub fn run(
    workload: Workload,
    options: &RunOptions,
    tracer: &Arc<Tracer>,
) -> Result<WorkloadResult, String> {
    let mut ledger = Ledger::default();

    // Set-up: generation plus the (cheap) construction of the simulator and
    // the scheduler. It is repeated for the median, but only after the timed
    // region, so that `peak_rss_mb` is the high-water mark of the workload
    // and not of two dozen generated-and-dropped traces.
    let (mut traces_s, mut telemetry_s) = (Vec::new(), Vec::new());
    let mut set_up = |ledger: &mut Ledger| -> Result<Inputs, String> {
        let span = tracer.open("setup", 0, ledger.setups_s.len() as u64);
        let start = Instant::now();
        let (generated, times) = generate(workload, options);
        let simulator = Simulator::new(
            generated.config.simulation.clone(),
            generated.telemetry.clone(),
        )
        .map_err(|e| e.to_string())?;
        let scheduler = scheduler_for(&generated.config, generated.telemetry.clone());
        std::hint::black_box((&simulator, &scheduler));
        ledger.setups_s.push(start.elapsed().as_secs_f64());
        tracer.close(span);
        traces_s.push(times.traces_s);
        telemetry_s.push(times.telemetry_s);
        Ok(generated)
    };
    let inputs = set_up(&mut ledger)?;
    if inputs.jobs.is_empty() {
        return Err("the generated trace is empty".to_string());
    }
    let baseline = baseline_summary(&inputs)?;

    // Untimed warm-up, then the timed passes. A traced run wraps every other
    // pass, so the wrappers' overhead is read off passes that shared the same
    // minute of the same host.
    let pass = |index: usize| -> Result<(Pass, Option<TracedCounts>), String> {
        if options.traced && index.is_multiple_of(2) {
            traced_pass(&inputs, tracer, index, false).map(|(pass, counts)| (pass, Some(counts)))
        } else {
            plain_pass(&inputs.config, &inputs, None).map(|pass| (pass, None))
        }
    };
    if !workload.single_pass() {
        plain_pass(&inputs.config, &inputs, None)?;
    }
    let (mut prepare_s, mut solve_s) = (Vec::new(), Vec::new());
    let mut counts: Vec<TracedCounts> = Vec::new();
    let mut walls_by_kind = Vec::new();
    let mut last = None;
    let timed = Instant::now();
    // A traced run needs a pass of either kind, two for its medians where a
    // pass is cheap.
    let floor = match (options.traced, workload.single_pass()) {
        (false, _) => 0,
        (true, true) => 2,
        (true, false) => MIN_PASSES + 1,
    };
    while ledger.walls_s.len() < floor
        || options.wants_another_pass(
            workload,
            ledger.walls_s.len(),
            timed.elapsed().as_secs_f64(),
        )
    {
        let (pass, traced) = pass(ledger.walls_s.len() + 1)?;
        ledger.add_pass(&inputs.jobs, &pass.report, pass.wall_s, 0);
        prepare_s.push(pass.stats.prepare_seconds);
        solve_s.push(pass.stats.solve_seconds);
        walls_by_kind.push((pass.wall_s, traced.is_some()));
        counts.extend(traced);
        last = Some(pass);
    }
    let peak_rss = peak_rss_mb();
    for _ in 1..SETUP_REPEATS {
        set_up(&mut ledger)?;
    }
    let last = last.expect("at least one timed pass ran");
    let jobs = inputs.jobs.len() as f64;

    let max_nodes = inputs.config.waterwise.branch_bound.max_nodes;
    let mut layers = solver_layers(
        &last.report,
        &last.stats,
        &last.activity,
        max_nodes,
        median(&prepare_s),
        median(&solve_s),
    );
    let mut set = |name: &str, value: f64| set_layer(&mut layers, name, value);
    set("traces.generate_s", median(&traces_s));
    set("telemetry.generate_s", median(&telemetry_s));

    if options.traced {
        let of = |f: fn(&TracedCounts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
        // A lookup is cheaper than two clock reads, so its busy time is
        // count × cost, the cost taken in a direct loop over the (region,
        // start time) pairs this run's own outcomes touched.
        let probes: Vec<(Region, Seconds)> = last
            .report
            .outcomes
            .iter()
            .take(4096)
            .map(|o| (o.executed_region, o.start_time))
            .collect();
        let lookup_s = lookup_cost_s(inputs.telemetry.as_ref(), &probes);
        let lookups = of(|c| c.core_lookups) + of(|c| c.engine_lookups);
        let busy_s = of(|c| c.schedule_busy_s);
        set("telemetry.lookups", lookups);
        set("telemetry.lookup_busy_s", lookups * lookup_s);
        set("core.schedule.calls", of(|c| c.schedule_calls));
        set("core.schedule.busy_s", busy_s);
        set(
            "cluster.engine_self_s",
            of(|c| c.wall_s) - busy_s - of(|c| c.engine_lookups) * lookup_s,
        );
        set("trace.overhead_pct", paired_overhead_pct(&walls_by_kind));
        let (counted, allocations) = traced_pass(&inputs, tracer, 2 * ledger.walls_s.len(), true)?;
        ledger.expect_digest(
            "the allocation-counting pass",
            waterwise::cluster::schedule_digest(&counted.report.outcomes),
        );
        set("alloc.count_per_job", allocations.allocations / jobs);
        set("alloc.bytes_per_job", allocations.allocated_bytes / jobs);
        set(
            "sustain.estimate_ns",
            estimate_cost_ns(&inputs, &last.report),
        );
        // Not on `campaign_tight`: five more passes of 14 to 23 s and 4 GiB
        // each, for ratios the other workloads already give.
        if workload != Workload::CampaignTight {
            for (name, value) in ablations(&inputs, &mut ledger)? {
                set(name, value);
            }
        }
        set("core.matrix.speedup_2t", matrix_speedup(options.seed)?);
    }

    Ok(ledger.finish(
        workload.name(),
        &last.report.summary,
        &baseline,
        peak_rss,
        layers,
    ))
}

/// Cost of one `FootprintEstimator::estimate`, in nanoseconds: a direct loop
/// over the run's own outcomes under the conditions they executed in.
fn estimate_cost_ns(inputs: &Inputs, report: &SimulationReport) -> f64 {
    let estimator = FootprintEstimator::new(inputs.config.simulation.datacenter);
    let by_id: Vec<&JobSpec> = inputs.jobs.iter().collect();
    let calls: Vec<_> = report
        .outcomes
        .iter()
        .take(4096)
        .filter_map(|o| {
            let spec = by_id.get(o.job.0 as usize)?;
            Some((
                JobResourceUsage::new(spec.actual_energy, o.execution_time),
                inputs.telemetry.conditions(o.executed_region, o.start_time),
            ))
        })
        .collect();
    1e9 * direct_loop_s(calls.len(), || {
        for &(usage, conditions) in &calls {
            std::hint::black_box(estimator.estimate(
                std::hint::black_box(usage),
                std::hint::black_box(conditions),
            ));
        }
    })
}

/// The public-config ablations, each one extra untraced pass against a
/// plain synchronous reference taken in the same sitting. Every variant of
/// the engine or the cache must reproduce the timed passes' schedule. Cold
/// starts need not: where branch-and-bound stops inside its gap tolerance the
/// incumbent depends on where the search started (`campaign_pressure`, 2 d,
/// seed 42: 10 242 of 38 277 placements differ, total carbon by 0.016 %, no
/// round near the node cap), so a different schedule is said, not failed.
fn ablations(inputs: &Inputs, ledger: &mut Ledger) -> Result<Vec<(&'static str, f64)>, String> {
    let reference = plain_pass(&inputs.config, inputs, None)?;
    let warm_digest = ledger.digest;
    let mut run = |what: &str, config: &CampaignConfig, cache| -> Result<Pass, String> {
        let pass = plain_pass(config, inputs, cache)?;
        ledger.expect_digest(
            what,
            waterwise::cluster::schedule_digest(&pass.report.outcomes),
        );
        Ok(pass)
    };

    let pipelined = run(
        "the pipelined engine",
        &inputs
            .config
            .clone()
            .with_engine_mode(EngineMode::Pipelined { workers: 2 }),
        None,
    )?;

    let mut sharded_config = inputs.config.clone();
    sharded_config.waterwise = sharded_config
        .waterwise
        .with_parallelism(Parallelism::Threads(2));
    let sharded = run("sharded prepare", &sharded_config, None)?;

    let mut cold_config = inputs.config.clone();
    cold_config.waterwise = cold_config.waterwise.with_warm_start(false);
    let cold = plain_pass(&cold_config, inputs, None)?;
    let cold_digest = waterwise::cluster::schedule_digest(&cold.report.outcomes);
    if warm_digest.is_some_and(|warm| warm != cold_digest) {
        eprintln!("ledger: note: cold starts commit schedule {cold_digest:016x}, not the warm one");
    }

    // The cache earns its memory only if replaying exact hits beats
    // solving: warm a shared cache with one pass, time the second.
    let cache = SolutionCache::shared();
    run("the cold shared cache", &inputs.config, Some(cache.clone()))?;
    let replay = run("the warm shared cache", &inputs.config, Some(cache))?;

    Ok(vec![
        (
            "cluster.pipeline.speedup",
            reference.wall_s / pipelined.wall_s,
        ),
        (
            "core.prepare.sharded_speedup",
            reference.stats.prepare_seconds / sharded.stats.prepare_seconds,
        ),
        (
            "milp.warm.pivot_ratio",
            cold.activity.simplex_pivots as f64 / reference.activity.simplex_pivots.max(1) as f64,
        ),
        (
            "milp.cache.exact_replay_speedup",
            reference.wall_s / replay.wall_s,
        ),
        (
            "milp.cache.exact_hits",
            replay.activity.cache_exact_hits as f64,
        ),
        (
            "milp.cache.hint_hits",
            replay.activity.cache_hint_hits as f64,
        ),
        ("milp.cache.misses", replay.activity.cache_misses as f64),
    ])
}

/// `Campaign::run_matrix` over four equal Borg 1 d cells, serial against two
/// threads: the only multicore path users run.
pub fn matrix_speedup(seed: u64) -> Result<f64, String> {
    let cells = vec![CampaignConfig::paper_default(1.0, 0.5, seed); 4];
    let time = |parallelism| -> Result<f64, String> {
        let start = Instant::now();
        Campaign::run_matrix(&cells, &[SchedulerKind::WaterWise], parallelism)
            .map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64())
    };
    Ok(time(Parallelism::Serial)? / time(Parallelism::Threads(2))?)
}
