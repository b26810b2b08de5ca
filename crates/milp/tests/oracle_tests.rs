//! Oracle tests for branch & bound: exhaustively enumerate every binary
//! assignment of models with at most 12 integer variables and assert that
//! branch & bound finds the same optimal objective as the brute force.
//!
//! The model generator is deterministic (an inline LCG), so failures
//! reproduce; the ground truth is computed generically through
//! `Model::is_feasible` and objective evaluation, not re-derived per shape.

use waterwise_milp::{LinExpr, Model, Sense, SolveStatus, Var};

/// Minimal deterministic generator (64-bit LCG, MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform float in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A random binary model with `n <= 12` variables and a mix of knapsack,
/// cover, and (sometimes) partition constraints — a superset of the shapes
/// the WaterWise scheduler emits.
fn random_binary_model(n: usize, rng: &mut Lcg) -> (Model, Vec<Var>) {
    let mut m = Model::new(format!("oracle-{n}"));
    let vars: Vec<Var> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();

    // Knapsack: sum w_i x_i <= C with C somewhere between min(w) and sum(w).
    let weights: Vec<f64> = (0..n).map(|_| rng.uniform(0.2, 4.0)).collect();
    let total: f64 = weights.iter().sum();
    let capacity = rng.uniform(0.2, 1.0) * total;
    let mut knap = LinExpr::zero();
    for (i, &v) in vars.iter().enumerate() {
        knap.add_term(v, weights[i]);
    }
    m.add_constraint("knap", knap, Sense::LessEqual, capacity);

    // Cover: at least `k` selections (possibly infeasible together with the
    // knapsack — the oracle must then agree on infeasibility).
    if rng.below(2) == 0 {
        let k = 1.0 + rng.below(3) as f64;
        let cover = LinExpr::sum(vars.iter().map(|&v| LinExpr::from(v)));
        m.add_constraint("cover", cover, Sense::GreaterEqual, k);
    }

    // Partition: exactly one of the first few variables.
    if n >= 4 && rng.below(2) == 0 {
        let head = LinExpr::sum(vars.iter().take(3).map(|&v| LinExpr::from(v)));
        m.add_constraint("partition", head, Sense::Equal, 1.0);
    }

    let mut obj = LinExpr::zero();
    for &v in &vars {
        obj.add_term(v, rng.uniform(-5.0, 5.0));
    }
    if rng.below(2) == 0 {
        m.minimize(obj);
    } else {
        m.maximize(obj);
    }
    (m, vars)
}

/// Exhaustive ground truth: the best objective over all feasible 0/1
/// points, `None` when there is none.
fn brute_force(m: &Model, n: usize) -> Option<f64> {
    let (direction, objective) = m.objective().expect("oracle models have objectives");
    let maximize = matches!(direction, waterwise_milp::model::Direction::Maximize);
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let values: Vec<f64> = (0..n)
            .map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
            .collect();
        if !m.is_feasible(&values, 1e-9) {
            continue;
        }
        let value = objective.evaluate(&values);
        let better = match best {
            None => true,
            Some(b) if maximize => value > b,
            Some(b) => value < b,
        };
        if better {
            best = Some(value);
        }
    }
    best
}

#[test]
fn branch_bound_matches_exhaustive_enumeration() {
    let mut rng = Lcg(0x5eed_2024);
    let mut solved = 0usize;
    let mut infeasible = 0usize;
    for n in 2..=12usize {
        for _instance in 0..4 {
            let (m, _vars) = random_binary_model(n, &mut rng);
            let truth = brute_force(&m, n);
            let cold = m.solve().unwrap();
            match truth {
                None => {
                    assert_eq!(
                        cold.status,
                        SolveStatus::Infeasible,
                        "n={n}: brute force found no feasible point but solver says {:?}",
                        cold.status
                    );
                    infeasible += 1;
                }
                Some(best) => {
                    assert!(
                        cold.status.has_solution(),
                        "n={n}: expected a solution, got {:?}",
                        cold.status
                    );
                    assert!(
                        (cold.objective - best).abs() < 1e-6,
                        "n={n}: cold {} vs brute force {best}",
                        cold.objective
                    );
                    assert!(m.is_feasible(&cold.values, 1e-6), "n={n}");
                    solved += 1;
                }
            }
        }
    }
    // The generator must have exercised both regimes.
    assert!(solved >= 20, "only {solved} solvable instances generated");
    assert!(infeasible >= 2, "only {infeasible} infeasible instances");
}

#[test]
fn oracle_holds_at_the_twelve_variable_ceiling_with_equalities() {
    // A 12-variable assignment model (4 jobs x 3 regions) solved against
    // full enumeration — the exact WaterWise shape at the oracle size limit.
    let mut m = Model::new("oracle-assign");
    let n_jobs = 4;
    let n_regions = 3;
    let mut rng = Lcg(7);
    let mut vars = vec![];
    for j in 0..n_jobs {
        for r in 0..n_regions {
            vars.push(m.add_binary(format!("x_{j}_{r}")));
        }
    }
    let v = |j: usize, r: usize| vars[j * n_regions + r];
    for j in 0..n_jobs {
        let expr = LinExpr::sum((0..n_regions).map(|r| LinExpr::from(v(j, r))));
        m.add_constraint(format!("assign_{j}"), expr, Sense::Equal, 1.0);
    }
    for r in 0..n_regions {
        let expr = LinExpr::sum((0..n_jobs).map(|j| LinExpr::from(v(j, r))));
        m.add_constraint(format!("cap_{r}"), expr, Sense::LessEqual, 2.0);
    }
    let mut obj = LinExpr::zero();
    for j in 0..n_jobs {
        for r in 0..n_regions {
            obj.add_term(v(j, r), rng.uniform(0.5, 9.5));
        }
    }
    m.minimize(obj);

    let best = brute_force(&m, n_jobs * n_regions).expect("model is feasible");
    let cold = m.solve().unwrap();
    assert!((cold.objective - best).abs() < 1e-6);
    assert!(m.is_feasible(&cold.values, 1e-6));
    assert_eq!(
        cold.nodes_explored, 1,
        "the assignment LP is integral at the root"
    );
}
