//! Property-based tests for the LP/MILP solver.
//!
//! Strategy: generate small random problems where the ground truth can be
//! established independently (brute-force enumeration for binary programs,
//! feasibility checking for LPs) and verify the solver agrees.

use proptest::prelude::*;
use waterwise_milp::{LinExpr, Model, Sense, SolveStatus};

/// Build a random binary minimization problem: `n` binary variables, a
/// single knapsack-style capacity constraint, and a cost vector.
fn binary_problem(
    costs: &[f64],
    weights: &[f64],
    capacity: f64,
) -> (Model, Vec<waterwise_milp::Var>) {
    let mut m = Model::new("prop-binary");
    let vars: Vec<_> = (0..costs.len())
        .map(|i| m.add_binary(format!("x{i}")))
        .collect();
    let mut weight_expr = LinExpr::zero();
    let mut cost_expr = LinExpr::zero();
    for (i, &v) in vars.iter().enumerate() {
        weight_expr.add_term(v, weights[i]);
        cost_expr.add_term(v, costs[i]);
    }
    m.add_constraint("cap", weight_expr, Sense::LessEqual, capacity);
    // Force at least one selection so the trivial all-zero answer is not
    // always optimal.
    let any = LinExpr::sum(vars.iter().map(|&v| LinExpr::from(v)));
    m.add_constraint("atleast", any, Sense::GreaterEqual, 1.0);
    m.minimize(cost_expr);
    (m, vars)
}

/// Brute-force the optimum of the binary problem above.
fn brute_force(costs: &[f64], weights: &[f64], capacity: f64) -> Option<f64> {
    let n = costs.len();
    let mut best: Option<f64> = None;
    for mask in 1u32..(1 << n) {
        let mut weight = 0.0;
        let mut cost = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                weight += weights[i];
                cost += costs[i];
            }
        }
        if weight <= capacity + 1e-9 {
            best = Some(best.map_or(cost, |b: f64| b.min(cost)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MILP optimum matches exhaustive enumeration on small binary programs.
    #[test]
    fn milp_matches_brute_force(
        costs in prop::collection::vec(0.1f64..10.0, 2..7),
        weights_seed in prop::collection::vec(0.1f64..5.0, 2..7),
        cap_frac in 0.3f64..1.0,
    ) {
        let n = costs.len().min(weights_seed.len());
        let costs = &costs[..n];
        let weights = &weights_seed[..n];
        let total_weight: f64 = weights.iter().sum();
        let capacity = total_weight * cap_frac;
        let (m, _) = binary_problem(costs, weights, capacity);
        let sol = m.solve().unwrap();
        let truth = brute_force(costs, weights, capacity);
        match truth {
            Some(best) => {
                prop_assert!(sol.status.has_solution(), "expected solution, got {:?}", sol.status);
                prop_assert!((sol.objective - best).abs() < 1e-6,
                    "solver {} vs brute force {}", sol.objective, best);
                prop_assert!(m.is_feasible(&sol.values, 1e-6));
            }
            None => {
                prop_assert_eq!(sol.status, SolveStatus::Infeasible);
            }
        }
    }

    /// Any LP solution returned as optimal is feasible and at least as good
    /// as a set of sampled feasible points.
    #[test]
    fn lp_optimum_dominates_sampled_feasible_points(
        c0 in -5.0f64..5.0,
        c1 in -5.0f64..5.0,
        b0 in 1.0f64..20.0,
        b1 in 1.0f64..20.0,
        a00 in 0.1f64..3.0,
        a01 in 0.1f64..3.0,
        a10 in 0.1f64..3.0,
        a11 in 0.1f64..3.0,
        samples in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 20),
    ) {
        let mut m = Model::new("prop-lp");
        let x = m.add_non_negative("x");
        let y = m.add_non_negative("y");
        m.add_constraint("r0", LinExpr::from(x) * a00 + LinExpr::from(y) * a01, Sense::LessEqual, b0);
        m.add_constraint("r1", LinExpr::from(x) * a10 + LinExpr::from(y) * a11, Sense::LessEqual, b1);
        m.minimize(LinExpr::from(x) * c0 + LinExpr::from(y) * c1);
        let sol = m.solve().unwrap();
        // The origin is always feasible here, so the LP cannot be infeasible.
        prop_assert!(matches!(sol.status, SolveStatus::Optimal | SolveStatus::Unbounded));
        if sol.status == SolveStatus::Optimal {
            prop_assert!(m.is_feasible(&sol.values, 1e-6));
            for (sx, sy) in samples {
                let feasible = a00 * sx + a01 * sy <= b0 + 1e-9 && a10 * sx + a11 * sy <= b1 + 1e-9;
                if feasible {
                    let value = c0 * sx + c1 * sy;
                    prop_assert!(sol.objective <= value + 1e-6,
                        "sampled point ({sx},{sy}) beats 'optimal' {} with {}", sol.objective, value);
                }
            }
        } else {
            // Unbounded requires some negative cost direction.
            prop_assert!(c0 < 0.0 || c1 < 0.0);
        }
    }

    /// On random small feasible LPs the simplex optimum satisfies every
    /// constraint within tolerance and is never beaten by any vertex of a
    /// brute-force grid probe over the (bounded) feasible box.
    #[test]
    fn simplex_optimum_is_feasible_and_dominates_grid_probe(
        costs in prop::collection::vec(-4.0f64..4.0, 3),
        rows in prop::collection::vec(
            (prop::collection::vec(0.05f64..2.0, 3), 1.0f64..15.0), 1..4),
        upper in 2.0f64..8.0,
    ) {
        // Non-negative constraint matrices with positive rhs keep the origin
        // feasible, and the box bound keeps the LP bounded for any costs.
        let mut m = Model::new("prop-simplex");
        let vars: Vec<_> = (0..3)
            .map(|i| m.add_var(format!("x{i}"), waterwise_milp::VarKind::Continuous, 0.0, upper))
            .collect();
        for (r, (coeffs, rhs)) in rows.iter().enumerate() {
            let mut expr = LinExpr::zero();
            for (i, &v) in vars.iter().enumerate() {
                expr.add_term(v, coeffs[i]);
            }
            m.add_constraint(format!("r{r}"), expr, Sense::LessEqual, *rhs);
        }
        let mut obj = LinExpr::zero();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(v, costs[i]);
        }
        m.minimize(obj);
        let sol = m.solve().unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(m.is_feasible(&sol.values, 1e-6),
            "optimum {:?} violates a constraint", sol.values);
        // Probe an 11x11x11 grid of the box; no feasible probe point may
        // beat the reported optimum.
        let steps = 10usize;
        for gx in 0..=steps {
            for gy in 0..=steps {
                for gz in 0..=steps {
                    let point = [
                        upper * gx as f64 / steps as f64,
                        upper * gy as f64 / steps as f64,
                        upper * gz as f64 / steps as f64,
                    ];
                    let feasible = rows.iter().all(|(coeffs, rhs)| {
                        coeffs.iter().zip(&point).map(|(c, p)| c * p).sum::<f64>() <= rhs + 1e-9
                    });
                    if feasible {
                        let value: f64 =
                            costs.iter().zip(&point).map(|(c, p)| c * p).sum();
                        prop_assert!(sol.objective <= value + 1e-6,
                            "grid point {point:?} ({value}) beats 'optimal' {}", sol.objective);
                    }
                }
            }
        }
    }

    /// Self-oracle for the implicit variable bounds: a model solved as given
    /// and the same model with every finite upper bound written out as an
    /// explicit `<=` row over an unbounded-above variable must agree on the
    /// verdict, the objective and (for the MILP) every integer value.
    #[test]
    fn implicit_upper_bounds_match_explicit_bound_rows(
        vars in prop::collection::vec((-4.0f64..4.0, -3.0f64..3.0, 0.5f64..6.0), 2..6),
        rows in prop::collection::vec(
            (prop::collection::vec(-2.0f64..2.0, 5), 0u32..3, 0.0f64..1.0), 1..4),
        integer_mask in 0u32..64,
    ) {
        for integral in [false, true] {
            let build = |explicit: bool| {
                let mut m = Model::new("prop-bounds");
                let mut handles = Vec::new();
                for (i, &(_, lo, width)) in vars.iter().enumerate() {
                    let is_integer = integral && integer_mask & (1 << i) != 0;
                    let (kind, lo, hi) = if is_integer {
                        (waterwise_milp::VarKind::Integer, lo.floor(), lo.floor() + width.ceil())
                    } else {
                        (waterwise_milp::VarKind::Continuous, lo, lo + width)
                    };
                    let upper = if explicit { f64::INFINITY } else { hi };
                    let v = m.add_var(format!("x{i}"), kind, lo, upper);
                    if explicit {
                        m.add_constraint(format!("ub{i}"), LinExpr::from(v), Sense::LessEqual, hi);
                    }
                    handles.push((v, lo, hi));
                }
                for (r, (coeffs, sense, frac)) in rows.iter().enumerate() {
                    // Place the rhs inside the row's range over the box, so
                    // the row cuts it without (usually) emptying it.
                    let mut expr = LinExpr::zero();
                    let (mut min, mut max) = (0.0, 0.0);
                    for (&(v, lo, hi), &c) in handles.iter().zip(coeffs) {
                        expr.add_term(v, c);
                        min += (c * lo).min(c * hi);
                        max += (c * lo).max(c * hi);
                    }
                    let sense = [Sense::LessEqual, Sense::GreaterEqual, Sense::Equal][*sense as usize];
                    m.add_constraint(format!("r{r}"), expr, sense, min + (max - min) * frac);
                }
                let mut obj = LinExpr::zero();
                for (&(v, _, _), &(cost, _, _)) in handles.iter().zip(&vars) {
                    obj.add_term(v, cost);
                }
                m.minimize(obj);
                m
            };
            let implicit = build(false).solve().unwrap();
            let explicit = build(true).solve().unwrap();
            prop_assert_eq!(implicit.status, explicit.status);
            if implicit.status.has_solution() {
                prop_assert!((implicit.objective - explicit.objective).abs() < 1e-9,
                    "implicit {} vs explicit {}", implicit.objective, explicit.objective);
                for (i, (a, b)) in implicit.values.iter().zip(&explicit.values).enumerate() {
                    if integral && integer_mask & (1 << i) != 0 {
                        prop_assert_eq!(a, b, "integer x{} differs", i);
                    }
                }
            }
        }
    }

    /// However an expression was put together, the model stores one row for
    /// it — terms sorted by index, duplicates merged, exact cancellations
    /// gone, the constant folded into the rhs — and solves to one solution.
    #[test]
    fn stored_rows_do_not_depend_on_how_the_expression_was_built(
        coeffs in prop::collection::vec(0.25f64..4.0, 3..7),
        extra in 0.25f64..4.0,
        constant in -2.0f64..2.0,
        cap_frac in 0.3f64..0.9,
        seed in 0u64..1000,
    ) {
        let n = coeffs.len();
        // One term per variable, a second term on variable 1 (merged) and the
        // exact negation of variable 0's (cancelled).
        let mut terms: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().collect();
        terms.push((1, extra));
        terms.push((0, -coeffs[0]));
        let rhs = coeffs.iter().sum::<f64>() * cap_frac;

        let build = |expr_of: &dyn Fn(&[waterwise_milp::Var]) -> LinExpr| {
            let mut m = Model::new("prop-storage");
            let vars: Vec<_> = (0..n).map(|_| m.add_binary("")).collect();
            m.add_constraint("cap", expr_of(&vars), Sense::LessEqual, rhs);
            let mut value = LinExpr::zero();
            for (i, &v) in vars.iter().enumerate() {
                value.add_term(v, 1.0 + i as f64 * 0.5);
            }
            m.maximize(value);
            m
        };
        let with_operators = build(&|vars| {
            let (last, head) = terms.split_last().unwrap();
            let sum = head.iter().fold(LinExpr::zero(), |acc, &(i, c)| acc + vars[i] * c);
            // `last` is the negated term: written as a subtraction.
            sum - vars[last.0] * -last.1 + constant
        });
        let with_sum = build(&|vars| {
            LinExpr::sum(terms.iter().map(|&(i, c)| LinExpr::term(vars[i], c))) + constant
        });
        let with_add_term = build(&|vars| {
            let mut shuffled = terms.clone();
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut expr = LinExpr::with_capacity(shuffled.len());
            for (i, c) in shuffled {
                expr.add_term(vars[i], c);
            }
            expr.add_constant(constant);
            expr
        });

        let row = &with_operators.constraints()[0];
        let mut expected: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().skip(1).collect();
        expected[0].1 += extra;
        prop_assert_eq!(&row.coeffs, &expected);
        prop_assert_eq!(row.rhs, rhs - constant);
        prop_assert_eq!(with_sum.constraints(), with_operators.constraints());
        prop_assert_eq!(with_add_term.constraints(), with_operators.constraints());

        let solution = with_operators.solve().unwrap();
        prop_assert!(solution.status.has_solution());
        prop_assert_eq!(&with_sum.solve().unwrap(), &solution);
        prop_assert_eq!(&with_add_term.solve().unwrap(), &solution);
    }

    /// Assignment problems with adequate capacity always produce a feasible,
    /// fully integral assignment.
    #[test]
    fn assignment_always_assigns_every_job(
        n_jobs in 1usize..6,
        n_regions in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut m = Model::new("prop-assign");
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
        // Capacity: enough in aggregate.
        let per_region = n_jobs.div_ceil(n_regions) as f64;
        for r in 0..n_regions {
            let expr = LinExpr::sum((0..n_jobs).map(|j| LinExpr::from(v(j, r))));
            m.add_constraint(format!("cap_{r}"), expr, Sense::LessEqual, per_region);
        }
        let mut obj = LinExpr::zero();
        for j in 0..n_jobs {
            for r in 0..n_regions {
                // Pseudo-random but deterministic costs.
                let cost = (((j as u64 * 2654435761 + r as u64 * 40503 + seed) % 97) as f64) / 10.0;
                obj.add_term(v(j, r), cost);
            }
        }
        m.minimize(obj);
        let sol = m.solve().unwrap();
        prop_assert!(sol.status.has_solution());
        prop_assert!(m.is_feasible(&sol.values, 1e-6));
        for j in 0..n_jobs {
            let total: f64 = (0..n_regions).map(|r| sol.value(v(j, r))).sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
        }
    }
}
