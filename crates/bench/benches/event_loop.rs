//! Criterion bench: the event loop itself — a Borg-scale offline replay
//! (16 days, ~300k jobs, ~22k rounds with work: the ledger's
//! `campaign_borg` trace) under the home-region baseline, whose rounds cost
//! next to nothing, so what is timed is the engine: preload, event queue,
//! pending pool, commits, footprint accounting and the summary.

use criterion::{criterion_group, criterion_main, Criterion};
use waterwise_cluster::{SimulationConfig, Simulator};
use waterwise_core::BaselineScheduler;
use waterwise_telemetry::SyntheticTelemetry;
use waterwise_traces::{TraceConfig, TraceGenerator};

fn bench_event_loop(c: &mut Criterion) {
    let jobs = TraceGenerator::new(TraceConfig::borg(16.0, 42)).generate();
    let simulator = Simulator::new(
        SimulationConfig::paper_default(280, 0.5),
        SyntheticTelemetry::with_seed(42),
    )
    .expect("the paper's default configuration is valid");
    let mut group = c.benchmark_group("event_loop");
    group.sample_size(10);
    group.bench_function(format!("borg_16d_baseline/{}_jobs", jobs.len()), |b| {
        b.iter(|| {
            let report = simulator
                .run(&jobs, &mut BaselineScheduler::new())
                .expect("the replay completes");
            report.summary.total_jobs
        })
    });
    group.finish();
}

criterion_group!(benches, bench_event_loop);
criterion_main!(benches);
