//! Criterion bench: end-to-end WaterWise decision latency per scheduling
//! round (the quantity plotted in Fig. 13).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use waterwise_cluster::{PendingJob, RegionView, Scheduler, SchedulingContext, TransferModel};
use waterwise_core::{BaselineScheduler, WaterWiseScheduler};
use waterwise_sustain::{KilowattHours, Seconds, Watts};
use waterwise_telemetry::{SyntheticTelemetry, ALL_REGIONS};
use waterwise_traces::{JobId, JobSpec, ALL_BENCHMARKS};

fn pending_batch(n: usize) -> Vec<PendingJob> {
    (0..n)
        .map(|i| {
            let benchmark = ALL_BENCHMARKS[i % ALL_BENCHMARKS.len()];
            let profile = benchmark.profile();
            let exec = profile.mean_execution_time;
            let energy = Watts::new(profile.mean_power.value()).energy_over(exec);
            PendingJob {
                spec: JobSpec {
                    id: JobId(i as u64),
                    benchmark,
                    submit_time: Seconds::new(0.0),
                    home_region: ALL_REGIONS[i % 5],
                    actual_execution_time: exec,
                    actual_energy: energy,
                    estimated_execution_time: exec,
                    estimated_energy: KilowattHours::new(energy.value()),
                    package_bytes: profile.package_bytes,
                },
                received_at: Seconds::new(0.0),
                deferrals: 0,
            }
        })
        .collect()
}

fn region_views() -> Vec<RegionView> {
    ALL_REGIONS
        .iter()
        .map(|&region| RegionView {
            region,
            total_servers: 280,
            busy_servers: 40,
            queued_jobs: 0,
            inbound_jobs: 0,
        })
        .collect()
}

fn bench_decision(c: &mut Criterion) {
    let provider = Arc::new(SyntheticTelemetry::with_seed(3));
    let transfer = TransferModel::paper_default();
    let regions = region_views();

    let mut group = c.benchmark_group("scheduler_decision");
    group.sample_size(10);
    for &batch in &[8usize, 16, 32, 64] {
        let pending = pending_batch(batch);
        group.bench_with_input(
            BenchmarkId::new("waterwise", batch),
            &pending,
            |b, pending| {
                let mut scheduler = WaterWiseScheduler::with_defaults(provider.clone());
                b.iter(|| {
                    let ctx = SchedulingContext {
                        now: Seconds::from_hours(6.0),
                        pending,
                        regions: &regions,
                        delay_tolerance: 0.5,
                        transfer: &transfer,
                    };
                    scheduler.schedule(&ctx).assignments.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("baseline", batch),
            &pending,
            |b, pending| {
                let mut scheduler = BaselineScheduler::new();
                b.iter(|| {
                    let ctx = SchedulingContext {
                        now: Seconds::from_hours(6.0),
                        pending,
                        regions: &regions,
                        delay_tolerance: 0.5,
                        transfer: &transfer,
                    };
                    scheduler.schedule(&ctx).assignments.len()
                })
            },
        );
    }
    // The steady state of a campaign — a certified round on a scheduler whose
    // scratch an earlier round has already grown — at the median batch of
    // `campaign_borg` (13) and of `campaign_alibaba` (120): the micro row of
    // the ledger's `round_ms_p50`.
    for &batch in &[13usize, 120] {
        let pending = pending_batch(batch);
        group.bench_with_input(
            BenchmarkId::new("waterwise_certified_steady", batch),
            &pending,
            |b, pending| {
                let ctx = SchedulingContext {
                    now: Seconds::from_hours(6.0),
                    pending,
                    regions: &regions,
                    delay_tolerance: 0.5,
                    transfer: &transfer,
                };
                let mut scheduler = WaterWiseScheduler::with_defaults(provider.clone());
                scheduler.schedule(&ctx);
                assert_eq!(
                    scheduler.stats().certified_rounds,
                    1,
                    "the round was solved"
                );
                b.iter(|| scheduler.schedule(&ctx).assignments.len())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decision);
criterion_main!(benches);
