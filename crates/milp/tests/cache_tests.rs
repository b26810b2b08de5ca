//! Property tests for the solution cache: caching may change the amount of
//! solver work, never the result.

use proptest::prelude::*;
use waterwise_milp::{
    BranchBoundConfig, LinExpr, Model, ModelFingerprint, Sense, SimplexConfig, SolutionCache,
    SolverWorkspace, Var, VarKind,
};

/// A model as plain data, so a test can change exactly one datum of it and
/// rebuild. Every variable is bounded `[0, 1]` (binary clamping is then the
/// identity); row `r` leaves variable `r % n` out, so there is always an
/// index a term can move to.
#[derive(Debug, Clone)]
struct Spec {
    vars: Vec<(VarKind, f64, f64)>,
    rows: Vec<(Sense, Terms, f64)>,
    maximize: bool,
    objective: Terms,
    constant: f64,
}

type Terms = Vec<(usize, f64)>;

const KINDS: [VarKind; 3] = [VarKind::Continuous, VarKind::Integer, VarKind::Binary];
const SENSES: [Sense; 3] = [Sense::LessEqual, Sense::GreaterEqual, Sense::Equal];

impl Spec {
    /// `codes` picks kinds and senses, `numbers` (non-zero) the coefficients.
    fn generate(n_vars: usize, n_rows: usize, codes: &[usize], numbers: &[f64]) -> Spec {
        let mut numbers = numbers.iter().copied().cycle();
        let mut codes = codes.iter().copied().cycle();
        let mut next = move || numbers.next().unwrap();
        let mut code = move || codes.next().unwrap();
        let vars = (0..n_vars).map(|_| (KINDS[code()], 0.0, 1.0)).collect();
        let rows = (0..n_rows)
            .map(|r| {
                let terms = (0..n_vars)
                    .filter(|i| *i != r % n_vars)
                    .map(|i| (i, next()))
                    .collect();
                // Row 0 keeps a zero rhs so its sign can flip below.
                (SENSES[code()], terms, if r == 0 { 0.0 } else { next() })
            })
            .collect();
        Spec {
            vars,
            rows,
            maximize: code() % 2 == 1,
            objective: (0..n_vars).map(|i| (i, next())).collect(),
            constant: 0.0,
        }
    }

    /// Build the model; `name(what, index)` names it, its variables and rows.
    fn build(&self, name: impl Fn(&str, usize) -> String) -> Model {
        let expr = |terms: &[(usize, f64)]| {
            let mut expr = LinExpr::zero();
            for &(index, coeff) in terms {
                expr.add_term(Var::from_index(index), coeff);
            }
            expr
        };
        let mut model = Model::new(name("model", 0));
        for (i, &(kind, lower, upper)) in self.vars.iter().enumerate() {
            model.add_var(name("var", i), kind, lower, upper);
        }
        for (r, (sense, terms, rhs)) in self.rows.iter().enumerate() {
            model.add_constraint(name("row", r), expr(terms), *sense, *rhs);
        }
        let objective = expr(&self.objective) + self.constant;
        if self.maximize {
            model.maximize(objective);
        } else {
            model.minimize(objective);
        }
        model
    }

    fn fingerprint(&self) -> ModelFingerprint {
        let (simplex, bb) = (SimplexConfig::default(), BranchBoundConfig::default());
        ModelFingerprint::of(&self.build(|_, _| String::new()), &simplex, &bb)
    }

    /// Every copy of `self` that differs from it in exactly one datum.
    fn single_changes(&self) -> Vec<(String, Spec)> {
        let next_bit = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        let mut out = Vec::new();
        let mut change = |what: String, edit: &dyn Fn(&mut Spec)| {
            let mut changed = self.clone();
            edit(&mut changed);
            out.push((what, changed));
        };
        for i in 0..self.vars.len() {
            let kind = KINDS[(KINDS.iter().position(|k| *k == self.vars[i].0).unwrap() + 1) % 3];
            change(format!("kind of var {i}"), &|s| s.vars[i].0 = kind);
            change(format!("lower of var {i}"), &|s| s.vars[i].1 = 0.25);
            change(format!("upper of var {i}"), &|s| s.vars[i].2 = 0.75);
            if self.vars[i].0 != VarKind::Binary {
                // (Binary clamps its lower bound with `max(0.0)`.)
                change(format!("sign of var {i}'s zero lower"), &|s| {
                    s.vars[i].1 = -0.0
                });
            }
        }
        change("an extra variable".to_string(), &|s| {
            s.vars.push((VarKind::Continuous, 0.0, 1.0))
        });
        for r in 0..self.rows.len() {
            let sense = SENSES[(SENSES.iter().position(|k| *k == self.rows[r].0).unwrap() + 1) % 3];
            change(format!("sense of row {r}"), &|s| s.rows[r].0 = sense);
            change(format!("rhs of row {r}"), &|s| s.rows[r].2 += 1.0);
            change(format!("rhs bit of row {r}"), &|s| {
                s.rows[r].2 = next_bit(s.rows[r].2)
            });
            for t in 0..self.rows[r].1.len() {
                change(format!("coefficient bit {t} of row {r}"), &|s| {
                    s.rows[r].1[t].1 = next_bit(s.rows[r].1[t].1)
                });
                change(format!("term index {t} of row {r}"), &|s| {
                    s.rows[r].1[t].0 = r % s.vars.len()
                });
            }
            change(format!("a dropped term of row {r}"), &|s| {
                s.rows[r].1.pop();
            });
        }
        // A zero coefficient never reaches a row (`add_term` drops it), so
        // the sign of zero is exercised where a zero is stored: a bound
        // (above) and an rhs.
        change("sign of row 0's zero rhs".to_string(), &|s| {
            s.rows[0].2 = -0.0
        });
        change("the objective's constant".to_string(), &|s| {
            s.constant = 1.0
        });
        change("direction".to_string(), &|s| s.maximize = !s.maximize);
        for t in 0..self.objective.len() {
            change(format!("objective coefficient bit {t}"), &|s| {
                s.objective[t].1 = next_bit(s.objective[t].1)
            });
        }
        change("a dropped objective term".to_string(), &|s| {
            s.objective.pop();
        });
        out
    }
}

/// The WaterWise shape: assignment equality rows plus capacity rows. The
/// `cost` closure varies across "campaign cells", the structure does not.
fn assignment_model(n_jobs: usize, n_regions: usize, capacity: f64, seed: u64) -> Model {
    let mut m = Model::new("cache-prop");
    let mut vars = vec![];
    for j in 0..n_jobs {
        for r in 0..n_regions {
            vars.push(m.add_binary(format!("x_{j}_{r}")));
        }
    }
    let v = |j: usize, r: usize| vars[j * n_regions + r];
    for j in 0..n_jobs {
        let expr = LinExpr::sum((0..n_regions).map(|r| LinExpr::from(v(j, r))));
        m.add_constraint(
            format!("assign_{j}"),
            expr,
            waterwise_milp::Sense::Equal,
            1.0,
        );
    }
    for r in 0..n_regions {
        let expr = LinExpr::sum((0..n_jobs).map(|j| LinExpr::from(v(j, r))));
        m.add_constraint(
            format!("cap_{r}"),
            expr,
            waterwise_milp::Sense::LessEqual,
            capacity,
        );
    }
    let mut obj = LinExpr::zero();
    for j in 0..n_jobs {
        for r in 0..n_regions {
            // Distinct powers of two make every assignment's total cost
            // unique (binary representations), so the optimum is unique and
            // byte-level value equality is well-defined even under hints.
            let cost = 0.1 + (seed as f64 + 1.0) * (1u64 << (j * n_regions + r)) as f64 * 1e-6;
            obj.add_term(v(j, r), cost);
        }
    }
    m.minimize(obj);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fingerprint is a function of the bits that determine the solution
    /// and of nothing else: no name moves it, every single datum does.
    #[test]
    fn fingerprint_ignores_names_and_sees_every_datum(
        n_vars in 2usize..6,
        n_rows in 1usize..5,
        codes in prop::collection::vec(0usize..3, 12),
        numbers in prop::collection::vec(0.5f64..8.0, 40),
    ) {
        let spec = Spec::generate(n_vars, n_rows, &codes, &numbers);
        let (simplex, bb) = (SimplexConfig::default(), BranchBoundConfig::default());
        let base = spec.fingerprint();
        for named in [
            spec.build(|what, index| format!("{what}_{index}")),
            spec.build(|what, index| format!("other-{what}-{}", index + 1000)),
        ] {
            prop_assert_eq!(ModelFingerprint::of(&named, &simplex, &bb), base);
        }
        for (what, changed) in spec.single_changes() {
            prop_assert_ne!(changed.fingerprint(), base, "{} did not move the hash", what);
        }

        let model = spec.build(|_, _| String::new());
        let configs = [
            (SimplexConfig { max_iterations: simplex.max_iterations + 1, ..simplex }, bb),
            (SimplexConfig { tolerance: simplex.tolerance * 2.0, ..simplex }, bb),
            (SimplexConfig { stall_threshold: simplex.stall_threshold + 1, ..simplex }, bb),
            (simplex, BranchBoundConfig { max_nodes: bb.max_nodes + 1, ..bb }),
            (simplex, BranchBoundConfig { integrality_tolerance: bb.integrality_tolerance * 2.0, ..bb }),
            (simplex, BranchBoundConfig { absolute_gap: bb.absolute_gap + 1.0, ..bb }),
        ];
        for (field, (simplex, bb)) in configs.iter().enumerate() {
            prop_assert_ne!(
                ModelFingerprint::of(&model, simplex, bb), base,
                "solver-config field {} did not move the hash", field
            );
        }
    }

    /// Solving a sweep of same-shaped models (varying objective "weights" per
    /// cell, like a `run_matrix` sweep) produces byte-identical solutions
    /// with the cache off, with a fresh cache, and on a second pass over a
    /// warmed cache (exact hits).
    #[test]
    fn cache_on_and_off_solutions_are_byte_identical(
        n_jobs in 1usize..6,
        n_regions in 1usize..4,
        seeds in prop::collection::vec(0u64..50, 1..5),
    ) {
        let capacity = n_jobs.div_ceil(n_regions) as f64;
        let simplex = SimplexConfig::default();
        let bb = BranchBoundConfig::default();

        let mut plain_ws = SolverWorkspace::new();
        let mut cached_ws = SolverWorkspace::new();
        cached_ws.attach_cache(SolutionCache::shared());

        let mut first_pass = Vec::new();
        for &seed in &seeds {
            let model = assignment_model(n_jobs, n_regions, capacity, seed);
            let plain = model.solve_warm(&simplex, &bb, None, &mut plain_ws).unwrap();
            let cached = model.solve_warm(&simplex, &bb, None, &mut cached_ws).unwrap();
            prop_assert_eq!(plain.status, cached.status);
            prop_assert_eq!(
                &plain.values, &cached.values,
                "cache changed the solution for seed {}", seed
            );
            first_pass.push(cached);
        }
        // A cell hits only where its seed repeats an earlier cell's.
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let stats = cached_ws.cache_stats();
        prop_assert_eq!((stats.misses, stats.exact_hits), (distinct.len(), seeds.len() - distinct.len()));

        // Re-solving a cached cell is an exact fingerprint match: the stored
        // solution comes back without any solving.
        let before = cached_ws.cache_stats();
        let last_seed = *seeds.last().unwrap();
        let model = assignment_model(n_jobs, n_regions, capacity, last_seed);
        let again = model.solve_warm(&simplex, &bb, None, &mut cached_ws).unwrap();
        prop_assert_eq!(&again.values, &first_pass.last().unwrap().values);
        prop_assert_eq!(again.simplex_iterations, 0, "exact hit must skip the solve");
        let delta = cached_ws.cache_stats().delta_since(&before);
        prop_assert_eq!(delta.exact_hits, 1);
        prop_assert_eq!(delta.misses, 0);
    }

    /// A resident entry for a *different* model never reaches the solve:
    /// solution and pivot count equal the cache-free solve under the same
    /// caller hint.
    #[test]
    fn a_resident_entry_for_another_model_never_reaches_the_solve(
        n_jobs in 2usize..5,
        seed_a in 0u64..50,
        seed_b in 50u64..100,
    ) {
        let n_regions = 3;
        let capacity = n_jobs as f64;
        let simplex = SimplexConfig::default();
        let bb = BranchBoundConfig::default();

        let warmup = assignment_model(n_jobs, n_regions, capacity, seed_a);
        let target = assignment_model(n_jobs, n_regions, capacity, seed_b);

        let mut cached_ws = SolverWorkspace::new();
        cached_ws.attach_cache(SolutionCache::shared());
        let resident = warmup.solve_warm(&simplex, &bb, None, &mut cached_ws).unwrap();
        // The caller's hint is deliberately not the resident optimum: were
        // the cache to offer its entry, the pivot counts would part.
        let mut caller_hint = vec![0.0; n_jobs * n_regions];
        for j in 0..n_jobs {
            caller_hint[j * n_regions + (j + 1) % n_regions] = 1.0;
        }
        prop_assert_ne!(&caller_hint, &resident.values);

        let reference = target
            .solve_warm(&simplex, &bb, Some(&caller_hint), &mut SolverWorkspace::new())
            .unwrap();
        let cached = target
            .solve_warm(&simplex, &bb, Some(&caller_hint), &mut cached_ws)
            .unwrap();
        prop_assert_eq!(&cached, &reference);
        let stats = cached_ws.cache_stats();
        prop_assert_eq!((stats.misses, stats.exact_hits, stats.insertions), (2, 0, 2));
    }
}
