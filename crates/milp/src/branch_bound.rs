//! Branch & bound on top of the LP relaxation.
//!
//! Nodes are explored best-first (by their parent's LP bound), branching on
//! the most fractional integer variable. The WaterWise scheduler's MILP is a
//! transportation problem whose LP relaxation is integral, so its search
//! ends at the root; the implementation nevertheless handles general bounded
//! MILPs and is tested against exhaustive enumeration.

use crate::error::MilpError;
use crate::model::{Direction, Model};
use crate::simplex::{self, BoundedLp, SimplexConfig};
use crate::solution::{Solution, SolveStatus};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Branch & bound configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BranchBoundConfig {
    /// Maximum number of nodes to explore.
    pub max_nodes: usize,
    /// Integrality tolerance: a value within this distance of an integer is
    /// considered integral.
    pub integrality_tolerance: f64,
    /// Absolute optimality gap at which a node is pruned against the
    /// incumbent.
    pub absolute_gap: f64,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        Self {
            max_nodes: 10_000,
            integrality_tolerance: 1e-6,
            absolute_gap: 1e-9,
        }
    }
}

/// A pending node: its own variable bounds (the model's, tightened by the
/// branching above it) plus the parent LP bound used for best-first ordering.
#[derive(Debug, Clone)]
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    parent_bound: f64,
    depth: usize,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.parent_bound == other.parent_bound && self.depth == other.depth
    }
}
impl Eq for Node {}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the node with the *smallest*
        // parent bound (best for minimization) on top, with deeper nodes
        // preferred on ties to find incumbents quickly.
        other
            .parent_bound
            .partial_cmp(&self.parent_bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Node {
    /// `true` when branching emptied a variable's box: trivially infeasible,
    /// and not worth a tableau.
    fn is_empty(&self) -> bool {
        self.lower.iter().zip(&self.upper).any(|(lo, hi)| lo > hi)
    }
}

/// Solve a MILP by branch & bound. The model's objective direction is handled
/// by the LP-relaxation solver on [`Model`]; internally everything is a
/// minimization of the *relaxation objective in the original direction
/// sign*, so we work with "smaller is better" on an internal key.
pub fn solve(
    model: &Model,
    simplex_config: &SimplexConfig,
    config: &BranchBoundConfig,
) -> Result<Solution, MilpError> {
    let integer_vars = model.integer_var_indices();
    let maximize = matches!(model.objective(), Some((Direction::Maximize, _)));
    // Internal key: objective mapped so that smaller is better.
    let key = |objective: f64| if maximize { -objective } else { objective };

    // Every node solves the model's own rows and costs, by reference; only
    // the bounds are the node's.
    let lp = model.lp();
    let mut heap = BinaryHeap::new();
    heap.push(Node {
        lower: lp.lower.clone(),
        upper: lp.upper.clone(),
        parent_bound: f64::NEG_INFINITY,
        depth: 0,
    });

    let mut incumbent: Option<Solution> = None;
    let mut incumbent_key = f64::INFINITY;
    let mut nodes_explored = 0usize;
    let mut total_iterations = 0usize;
    let mut saw_unbounded_root = false;
    // A node LP that ran out of pivots leaves its subtree without a bound:
    // the search can then certify neither optimality nor infeasibility.
    let mut saw_capped_node = false;

    while let Some(node) = heap.pop() {
        if nodes_explored >= config.max_nodes {
            break;
        }
        // Prune against the incumbent using the parent bound.
        if node.parent_bound > incumbent_key - config.absolute_gap {
            continue;
        }
        nodes_explored += 1;
        if node.is_empty() {
            continue;
        }
        let node_lp = BoundedLp {
            problem: lp,
            lower: &node.lower,
            upper: &node.upper,
        };
        let relaxation = model.lp_solution(simplex::solve_bounded(node_lp, simplex_config));
        total_iterations += relaxation.simplex_iterations;
        match relaxation.status {
            SolveStatus::Infeasible => continue,
            SolveStatus::Unbounded => {
                if node.depth == 0 {
                    saw_unbounded_root = true;
                    // An unbounded relaxation at the root means the MILP is
                    // unbounded or infeasible; report unbounded unless an
                    // incumbent materializes (it cannot, so break).
                    break;
                }
                continue;
            }
            SolveStatus::IterationLimit => {
                saw_capped_node = true;
                continue;
            }
            SolveStatus::Optimal | SolveStatus::Feasible => {}
        }
        let node_key = key(relaxation.objective);
        if node_key > incumbent_key - config.absolute_gap {
            // Bound dominated by incumbent.
            continue;
        }
        // Find the most fractional integer variable.
        let mut branch_var: Option<(usize, f64)> = None;
        let mut best_frac_score = -1.0;
        for &vi in &integer_vars {
            let value = relaxation.values[vi];
            let frac = value - value.floor();
            let dist = frac.min(1.0 - frac);
            if dist > config.integrality_tolerance && dist > best_frac_score {
                best_frac_score = dist;
                branch_var = Some((vi, value));
            }
        }
        match branch_var {
            None => {
                // Candidate incumbent.
                if node_key < incumbent_key {
                    incumbent_key = node_key;
                    let mut values = relaxation.values.clone();
                    // Snap integer variables to exact integers.
                    for &vi in &integer_vars {
                        values[vi] = values[vi].round();
                    }
                    incumbent = Some(Solution {
                        status: SolveStatus::Optimal,
                        objective: relaxation.objective,
                        values,
                        simplex_iterations: total_iterations,
                        nodes_explored,
                    });
                }
            }
            Some((vi, value)) => {
                let floor = value.floor();
                let mut up = Node {
                    parent_bound: node_key,
                    depth: node.depth + 1,
                    ..node
                };
                let mut down = up.clone();
                down.upper[vi] = down.upper[vi].min(floor);
                up.lower[vi] = up.lower[vi].max(floor + 1.0);
                heap.push(down);
                heap.push(up);
            }
        }
    }

    let work_remaining = !heap.is_empty();

    if saw_unbounded_root {
        return Ok(Solution {
            status: SolveStatus::Unbounded,
            objective: f64::NAN,
            values: vec![0.0; model.num_vars()],
            simplex_iterations: total_iterations,
            nodes_explored,
        });
    }
    match incumbent {
        Some(mut sol) => {
            sol.simplex_iterations = total_iterations;
            sol.nodes_explored = nodes_explored;
            // If we ran out of nodes with work remaining, or a node's LP
            // ran out of pivots, we cannot certify optimality.
            if (nodes_explored >= config.max_nodes && work_remaining) || saw_capped_node {
                sol.status = SolveStatus::Feasible;
            }
            Ok(sol)
        }
        None => {
            let status = if nodes_explored >= config.max_nodes || saw_capped_node {
                SolveStatus::IterationLimit
            } else {
                SolveStatus::Infeasible
            };
            Ok(Solution {
                status,
                objective: f64::NAN,
                values: vec![0.0; model.num_vars()],
                simplex_iterations: total_iterations,
                nodes_explored,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Sense, VarKind};

    #[test]
    fn pure_integer_program() {
        // Known optimum: x=0,y=1,z=1,w=1 => 21, found by branching.
        let m = knapsack_model();
        let sol = m.solve().unwrap();
        assert!(sol.status.has_solution());
        assert!(
            (sol.objective - 21.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!(m.is_feasible(&sol.values, 1e-6));
        assert!(sol.nodes_explored >= 7, "{} nodes", sol.nodes_explored);
    }

    #[test]
    fn mixed_integer_program() {
        // min  x + 10 y  s.t.  x + y >= 2.5, x <= 1.2 ; y integer, x continuous.
        // y must cover at least 1.3 => y >= 2 (integer), so optimum y=2, x=0.5? No:
        // x can be up to 1.2, so with y=2, x >= 0.5 required, min obj at x=0.5: 20.5.
        // With y=1: x >= 1.5 > 1.2 infeasible. So optimum 20.5.
        let mut m = Model::new("mip");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.2);
        let y = m.add_var("y", VarKind::Integer, 0.0, 100.0);
        m.add_constraint("cover", x + y, Sense::GreaterEqual, 2.5);
        m.minimize(x + LinExpr::from(y) * 10.0);
        let sol = m.solve().unwrap();
        assert!(sol.status.has_solution());
        assert!(
            (sol.objective - 20.5).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.value(y) - 2.0).abs() < 1e-6);
        assert!((sol.value(x) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new("inf");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("c", x + y, Sense::GreaterEqual, 3.0);
        m.minimize(x + y);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_milp() {
        let mut m = Model::new("unb");
        let x = m.add_var("x", VarKind::Integer, 0.0, f64::INFINITY);
        m.add_constraint("c", x * 1.0, Sense::GreaterEqual, 0.0);
        m.maximize(x * 1.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn equality_constrained_assignment_is_integral() {
        // 4 jobs x 3 regions with capacity; checks the WaterWise-shaped MILP.
        let mut m = Model::new("assign");
        let n_jobs = 4;
        let n_regions = 3;
        let cost = |j: usize, r: usize| ((j * 7 + r * 13) % 5) as f64 + 1.0;
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
                obj.add_term(v(j, r), cost(j, r));
            }
        }
        m.minimize(obj);
        let sol = m.solve().unwrap();
        assert!(sol.status.has_solution());
        assert!(m.is_feasible(&sol.values, 1e-6));
        // Every job assigned exactly once.
        for j in 0..n_jobs {
            let total: f64 = (0..n_regions).map(|r| sol.value(v(j, r))).sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    /// `max 8x + 11y + 6z + 4w  s.t.  5x + 7y + 4z + 3w <= 14` over binaries.
    fn knapsack_model() -> Model {
        let mut m = Model::new("kp");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        let w = m.add_binary("w");
        m.add_constraint(
            "cap",
            LinExpr::from(x) * 5.0
                + LinExpr::from(y) * 7.0
                + LinExpr::from(z) * 4.0
                + LinExpr::from(w) * 3.0,
            Sense::LessEqual,
            14.0,
        );
        m.maximize(
            LinExpr::from(x) * 8.0
                + LinExpr::from(y) * 11.0
                + LinExpr::from(z) * 6.0
                + LinExpr::from(w) * 4.0,
        );
        m
    }

    /// `max values·x  s.t.  weights·x <= cap` over six binaries.
    fn six_binary_knapsack(values: [f64; 6], weights: [f64; 6], cap: f64) -> Model {
        let mut m = Model::new("kp6");
        let vars: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let term =
            |coeffs: [f64; 6]| LinExpr::sum((0..6).map(|i| LinExpr::term(vars[i], coeffs[i])));
        m.add_constraint("cap", term(weights), Sense::LessEqual, cap);
        m.maximize(term(values));
        m
    }

    fn pivot_cap(max_iterations: usize) -> SimplexConfig {
        SimplexConfig {
            max_iterations,
            ..SimplexConfig::default()
        }
    }

    #[test]
    fn a_pivot_capped_root_is_an_iteration_limit_not_infeasible() {
        // Feasible, with optimum 20 after 7 nodes; its root LP takes 6 pivots.
        let m = six_binary_knapsack(
            [3.0, 5.0, 6.0, 2.0, 4.0, 9.0],
            [8.0, 3.0, 2.0, 9.0, 1.0, 7.0],
            12.0,
        );
        let bb = BranchBoundConfig::default();
        for cap in 1..=5 {
            let sol = m.solve_with(&pivot_cap(cap), &bb).unwrap();
            assert_eq!(sol.status, SolveStatus::IterationLimit, "cap {cap}");
            assert_eq!(sol.nodes_explored, 1, "cap {cap}");
        }
        for cap in [0, 6, 7, 8] {
            let sol = m.solve_with(&pivot_cap(cap), &bb).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal, "cap {cap}");
            assert_eq!(sol.objective, 20.0, "cap {cap}");
            assert_eq!(sol.nodes_explored, 7, "cap {cap}");
        }
    }

    #[test]
    fn a_pivot_capped_child_leaves_its_incumbent_uncertified() {
        // At a 6-pivot cap the root and the node that finds the optimum 20
        // solve, and a child LP then runs out of pivots.
        let m = six_binary_knapsack(
            [3.0, 5.0, 4.0, 4.0, 6.0, 9.0],
            [4.0, 5.0, 5.0, 7.0, 8.0, 4.0],
            17.0,
        );
        let bb = BranchBoundConfig::default();
        let capped = m.solve_with(&pivot_cap(6), &bb).unwrap();
        assert_eq!(capped.status, SolveStatus::Feasible);
        assert_eq!(capped.objective, 20.0);
        // Uncapped, the same search certifies it.
        let full = m.solve_with(&pivot_cap(0), &bb).unwrap();
        assert_eq!(full.status, SolveStatus::Optimal);
        assert_eq!(full.values, capped.values);
    }

    #[test]
    fn node_budget_is_respected() {
        let mut m = Model::new("budget");
        let vars: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let expr = LinExpr::sum(vars.iter().map(|&v| LinExpr::from(v)));
        m.add_constraint("c", expr.clone(), Sense::LessEqual, 3.2);
        m.maximize(expr);
        let config = BranchBoundConfig {
            max_nodes: 1,
            ..BranchBoundConfig::default()
        };
        let sol = m.solve_with(&SimplexConfig::default(), &config).unwrap();
        // With a single node we may or may not find the incumbent, but we
        // must not crash and must report a sensible status.
        assert!(matches!(
            sol.status,
            SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::IterationLimit
        ));
    }
}
