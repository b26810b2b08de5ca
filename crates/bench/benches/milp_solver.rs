//! Criterion bench: MILP solver scaling with batch size.
//!
//! Supports the Fig. 13 overhead claim: the assignment MILP WaterWise builds
//! (jobs × regions binary variables, assignment + capacity rows, delay
//! tolerance as arc bounds)
//! builds in microseconds and solves in milliseconds at realistic batch
//! sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use waterwise_milp::{LinExpr, Model, Sense, Var, VarKind};

/// Build a WaterWise-shaped assignment MILP with `jobs` jobs and 5 regions
/// the way the scheduler's `assignment_model` builds its own: variable
/// `x[m][n]` is index `m * regions + n` (the farthest region is out of
/// tolerance for every other job: upper bound 0), rows are pre-sized and
/// filled with `add_term`, and nothing is named.
fn assignment_model(jobs: usize) -> Model {
    let regions = 5usize;
    let x = |m: usize, n: usize| Var::from_index(m * regions + n);
    let mut model = Model::new("bench-assignment");
    model.reserve(jobs * regions, jobs + regions);
    for m in 0..jobs {
        for n in 0..regions {
            let excluded = n == regions - 1 && m % 2 == 1;
            model.add_var("", VarKind::Binary, 0.0, if excluded { 0.0 } else { 1.0 });
        }
    }
    let mut objective = LinExpr::with_capacity(jobs * regions);
    for m in 0..jobs {
        for n in 0..regions {
            // Deterministic pseudo-random costs in [0, 1).
            let cost = (((m * 2654435761 + n * 40503) % 1000) as f64) / 1000.0;
            objective.add_term(x(m, n), cost);
        }
    }
    model.minimize(objective);
    for m in 0..jobs {
        let mut expr = LinExpr::with_capacity(regions);
        for n in 0..regions {
            expr.add_term(x(m, n), 1.0);
        }
        model.add_constraint("", expr, Sense::Equal, 1.0);
    }
    for n in 0..regions {
        let mut expr = LinExpr::with_capacity(jobs);
        for m in 0..jobs {
            expr.add_term(x(m, n), 1.0);
        }
        model.add_constraint("", expr, Sense::LessEqual, (jobs as f64 / 2.0).ceil());
    }
    model
}

fn bench_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp_assignment_solve");
    group.sample_size(10);
    for &jobs in &[8usize, 16, 32, 64] {
        let model = assignment_model(jobs);
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &model, |b, model| {
            b.iter(|| {
                let solution = model.solve().expect("solvable");
                assert!(solution.status.has_solution());
                solution.objective
            })
        });
    }
    group.finish();

    // The front-end on its own: what the scheduler pays per round before the
    // first pivot.
    let mut group = c.benchmark_group("milp_assignment_build");
    group.sample_size(10);
    for &jobs in &[8usize, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            b.iter(|| assignment_model(jobs).num_constraints())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_milp);
criterion_main!(benches);
