//! The model builder: variables, constraints, objective, and the `solve`
//! entry points.
//!
//! A [`Model`] owns the [`LpProblem`] it solves: `add_var` appends a bound
//! pair, `add_constraint` moves the expression's sorted term list into an
//! [`LpConstraint`] row (constant folded into the rhs) and `minimize` /
//! `maximize` write the cost vector signed for minimization. The simplex
//! reads those rows in place — at the root and, with a node's own bounds
//! alongside, at every branch-and-bound node; nothing is rebuilt per solve.

use crate::branch_bound::{self, BranchBoundConfig};
use crate::error::MilpError;
use crate::expr::{LinExpr, Var};
use crate::simplex::{self, LpConstraint, LpProblem, SimplexConfig, SimplexOutcome};
use crate::solution::{Solution, SolveStatus};
use crate::workspace::SolverWorkspace;
use serde::{Deserialize, Serialize};

/// The kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarKind {
    /// A continuous variable.
    Continuous,
    /// A general integer variable.
    Integer,
    /// A 0/1 variable (bounds are forced into `[0, 1]`).
    Binary,
}

/// The sense (direction) of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// `expr <= rhs`
    LessEqual,
    /// `expr >= rhs`
    GreaterEqual,
    /// `expr == rhs`
    Equal,
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

impl Direction {
    /// Factor that turns the objective into a minimization.
    fn sign(self) -> f64 {
        match self {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        }
    }
}

/// Metadata for one decision variable; its bounds live in the model's LP
/// ([`Model::bounds`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarInfo {
    /// Human-readable name (used in diagnostics; may be empty, diagnostics
    /// then name the variable by index).
    pub name: String,
    /// Continuous / integer / binary.
    pub kind: VarKind,
}

/// How diagnostics refer to a variable or row: by name, or by index when the
/// caller left the name empty.
fn label(name: &str, index: usize) -> String {
    if name.is_empty() {
        format!("#{index}")
    } else {
        name.to_string()
    }
}

/// A mixed-integer linear program under construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// Model name (used in diagnostics).
    pub name: String,
    vars: Vec<VarInfo>,
    /// Name of each row of `lp.constraints`.
    constraint_names: Vec<String>,
    /// The LP relaxation, in the form the simplex reads.
    lp: LpProblem,
    objective: Option<(Direction, LinExpr)>,
}

impl Model {
    /// Create an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            vars: Vec::new(),
            constraint_names: Vec::new(),
            lp: LpProblem {
                num_vars: 0,
                costs: Vec::new(),
                lower: Vec::new(),
                upper: Vec::new(),
                constraints: Vec::new(),
            },
            objective: None,
        }
    }

    /// Make room for `vars` more variables and `constraints` more rows.
    pub fn reserve(&mut self, vars: usize, constraints: usize) {
        self.vars.reserve(vars);
        self.lp.costs.reserve(vars);
        self.lp.lower.reserve(vars);
        self.lp.upper.reserve(vars);
        self.constraint_names.reserve(constraints);
        self.lp.constraints.reserve(constraints);
    }

    /// Add a decision variable and return its handle.
    ///
    /// For [`VarKind::Binary`] the bounds are clamped into `[0, 1]`.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> Var {
        let (lower, upper) = match kind {
            VarKind::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        let var = Var(self.vars.len());
        self.vars.push(VarInfo {
            name: name.into(),
            kind,
        });
        self.lp.num_vars += 1;
        self.lp.lower.push(lower);
        self.lp.upper.push(upper);
        // Zero unless an objective set earlier already names this index.
        let cost = self.objective.as_ref().map_or(0.0, |(direction, expr)| {
            direction.sign() * expr.coefficient(var)
        });
        self.lp.costs.push(cost);
        var
    }

    /// Convenience: add a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Convenience: add a non-negative continuous variable.
    pub fn add_non_negative(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name, VarKind::Continuous, 0.0, f64::INFINITY)
    }

    /// Add a constraint `expr (<=|>=|==) rhs`. The expression's term list
    /// becomes the stored row as is; its constant moves to the right-hand
    /// side.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: impl Into<LinExpr>,
        sense: Sense,
        rhs: f64,
    ) {
        let (coeffs, constant) = expr.into().into_parts();
        self.constraint_names.push(name.into());
        self.lp.constraints.push(LpConstraint {
            coeffs,
            sense,
            rhs: rhs - constant,
        });
    }

    /// Set a minimization objective.
    pub fn minimize(&mut self, expr: impl Into<LinExpr>) {
        self.set_objective(Direction::Minimize, expr.into());
    }

    /// Set a maximization objective.
    pub fn maximize(&mut self, expr: impl Into<LinExpr>) {
        self.set_objective(Direction::Maximize, expr.into());
    }

    fn set_objective(&mut self, direction: Direction, expr: LinExpr) {
        self.lp.costs.fill(0.0);
        for (i, c) in expr.iter_terms() {
            // An index past the last variable is reported by `validate`.
            if let Some(cost) = self.lp.costs.get_mut(i) {
                *cost = direction.sign() * c;
            }
        }
        self.objective = Some((direction, expr));
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.lp.constraints.len()
    }

    /// Variable metadata.
    pub fn var_info(&self, var: Var) -> &VarInfo {
        &self.vars[var.index()]
    }

    /// All variables.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// `(lower, upper)` bounds of a variable (either may be infinite).
    pub fn bounds(&self, var: Var) -> (f64, f64) {
        (self.lp.lower[var.index()], self.lp.upper[var.index()])
    }

    /// All constraint rows, as stored and solved: terms sorted by variable
    /// index, the expression's constant folded into `rhs`.
    pub fn constraints(&self) -> &[LpConstraint] {
        &self.lp.constraints
    }

    /// The name each row of [`Model::constraints`] was added under.
    pub fn constraint_names(&self) -> &[String] {
        &self.constraint_names
    }

    /// The objective, if one has been set.
    pub fn objective(&self) -> Option<(&Direction, &LinExpr)> {
        self.objective.as_ref().map(|(d, e)| (d, e))
    }

    /// The LP relaxation (integrality dropped, maximization mapped to
    /// minimization) the solver works on.
    pub(crate) fn lp(&self) -> &LpProblem {
        &self.lp
    }

    /// `true` if the model contains integer or binary variables.
    pub fn has_integer_vars(&self) -> bool {
        self.vars
            .iter()
            .any(|v| matches!(v.kind, VarKind::Integer | VarKind::Binary))
    }

    /// Indices of integer/binary variables.
    pub fn integer_var_indices(&self) -> Vec<usize> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.kind, VarKind::Integer | VarKind::Binary))
            .map(|(i, _)| i)
            .collect()
    }

    /// Validate the model: bounds, finite coefficients and right-hand sides,
    /// variable indices. Formats nothing unless it found a fault.
    pub fn validate(&self) -> Result<(), MilpError> {
        for (i, v) in self.vars.iter().enumerate() {
            let (lower, upper) = (self.lp.lower[i], self.lp.upper[i]);
            if lower.is_nan() || upper.is_nan() {
                return Err(MilpError::NonFiniteCoefficient {
                    context: format!("bounds of variable `{}`", label(&v.name, i)),
                });
            }
            if lower > upper {
                return Err(MilpError::InvalidBounds {
                    name: label(&v.name, i),
                    lower,
                    upper,
                });
            }
        }
        let non_finite = |context: String| Err(MilpError::NonFiniteCoefficient { context });
        let unknown = |max: Option<usize>| match max {
            Some(index) if index >= self.vars.len() => Err(MilpError::UnknownVariable {
                index,
                model_vars: self.vars.len(),
            }),
            _ => Ok(()),
        };
        let rows = self.lp.constraints.iter().zip(&self.constraint_names);
        for (i, (c, name)) in rows.enumerate() {
            if !c.coeffs.iter().all(|(_, coeff)| coeff.is_finite()) {
                return non_finite(format!("constraint `{}`", label(name, i)));
            }
            if !c.rhs.is_finite() {
                return non_finite(format!("rhs of constraint `{}`", label(name, i)));
            }
            unknown(c.coeffs.last().map(|&(index, _)| index))?;
        }
        let (_, objective) = self.objective.as_ref().ok_or(MilpError::MissingObjective)?;
        if !objective.is_finite() {
            return non_finite("objective".to_string());
        }
        unknown(objective.max_var_index())
    }

    /// Check whether a candidate point is feasible for all constraints and
    /// bounds (integrality is checked for integer/binary variables).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        for (i, v) in self.vars.iter().enumerate() {
            let x = values.get(i).copied().unwrap_or(0.0);
            if x < self.lp.lower[i] - tol || x > self.lp.upper[i] + tol {
                return false;
            }
            if matches!(v.kind, VarKind::Integer | VarKind::Binary) && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.lp
            .constraints
            .iter()
            .all(|c| c.is_satisfied(values, tol))
    }

    /// Solve with default configuration.
    pub fn solve(&self) -> Result<Solution, MilpError> {
        self.solve_with(&SimplexConfig::default(), &BranchBoundConfig::default())
    }

    /// Solve with explicit simplex / branch-and-bound configuration.
    pub fn solve_with(
        &self,
        simplex_config: &SimplexConfig,
        bb_config: &BranchBoundConfig,
    ) -> Result<Solution, MilpError> {
        self.validate()?;
        if self.has_integer_vars() {
            branch_bound::solve(self, simplex_config, bb_config)
        } else {
            Ok(self.solve_lp(simplex_config, None, None))
        }
    }

    /// Solve with a warm start: `hint` is a prior solution for a similar
    /// model (seeds the branch-and-bound incumbent and the simplex crash
    /// basis when feasible; ignored otherwise), and `workspace` carries
    /// reusable allocations plus cold/warm statistics across solves.
    ///
    /// The returned solution is the same optimum [`Model::solve_with`]
    /// finds — warm starting changes only the amount of work spent.
    ///
    /// ```
    /// use waterwise_milp::{
    ///     BranchBoundConfig, Model, Sense, SimplexConfig, SolverWorkspace, VarKind,
    /// };
    ///
    /// // minimize 2x + y  s.t.  x + y = 1, binary x, y — the shape of one
    /// // WaterWise assignment row (equality constraints are where phase-1
    /// // skipping pays).
    /// let mut model = Model::new("warm-example");
    /// let x = model.add_var("x", VarKind::Binary, 0.0, 1.0);
    /// let y = model.add_var("y", VarKind::Binary, 0.0, 1.0);
    /// model.add_constraint("assign", x + y, Sense::Equal, 1.0);
    /// model.minimize(x * 2.0 + y * 1.0);
    ///
    /// let mut workspace = SolverWorkspace::new();
    /// let simplex = SimplexConfig::default();
    /// let bb = BranchBoundConfig::default();
    /// // First solve is cold; the second reuses the first solution as a
    /// // warm-start hint (same optimum, less work).
    /// let cold = model.solve_warm(&simplex, &bb, None, &mut workspace).unwrap();
    /// let warm = model
    ///     .solve_warm(&simplex, &bb, Some(&cold.values), &mut workspace)
    ///     .unwrap();
    /// assert_eq!(cold.objective, warm.objective);
    /// assert_eq!(workspace.stats().cold_solves, 1);
    /// assert_eq!(workspace.stats().warm_solves, 1);
    /// ```
    pub fn solve_warm(
        &self,
        simplex_config: &SimplexConfig,
        bb_config: &BranchBoundConfig,
        hint: Option<&[f64]>,
        workspace: &mut SolverWorkspace,
    ) -> Result<Solution, MilpError> {
        self.validate()?;
        if self.has_integer_vars() {
            branch_bound::solve_warm(self, simplex_config, bb_config, hint, Some(workspace))
        } else {
            Ok(self.solve_lp(simplex_config, hint, Some(workspace)))
        }
    }

    /// Solve a model without integer variables: its LP, as stored.
    fn solve_lp(
        &self,
        config: &SimplexConfig,
        hint: Option<&[f64]>,
        workspace: Option<&mut SolverWorkspace>,
    ) -> Solution {
        self.lp_solution(simplex::solve_with_hint(&self.lp, config, hint, workspace))
    }

    /// Map a simplex outcome back into model space (objective re-evaluated
    /// in the model's own direction).
    pub(crate) fn lp_solution(&self, outcome: SimplexOutcome) -> Solution {
        let (status, objective, values, iterations) = match outcome {
            SimplexOutcome::Optimal {
                values, iterations, ..
            } => {
                let objective = self
                    .objective
                    .as_ref()
                    .map_or(0.0, |(_, expr)| expr.evaluate(&values));
                (SolveStatus::Optimal, objective, Some(values), iterations)
            }
            SimplexOutcome::Infeasible { iterations } => {
                (SolveStatus::Infeasible, f64::INFINITY, None, iterations)
            }
            SimplexOutcome::Unbounded { iterations } => {
                // Unbounded below as a minimization, so in the model's own
                // direction it runs away toward `-sign`.
                let sign = self.objective.as_ref().map_or(1.0, |(d, _)| d.sign());
                (
                    SolveStatus::Unbounded,
                    sign * f64::NEG_INFINITY,
                    None,
                    iterations,
                )
            }
            SimplexOutcome::IterationLimit { iterations } => {
                (SolveStatus::IterationLimit, f64::NAN, None, iterations)
            }
        };
        Solution {
            status,
            objective,
            values: values.unwrap_or_else(|| vec![0.0; self.vars.len()]),
            simplex_iterations: iterations,
            nodes_explored: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_lp_maximization() {
        // maximize 3x + 2y s.t. x + y <= 4, x <= 2
        let mut m = Model::new("lp");
        let x = m.add_non_negative("x");
        let y = m.add_non_negative("y");
        m.add_constraint("c1", x + y, Sense::LessEqual, 4.0);
        m.add_constraint("c2", x * 1.0, Sense::LessEqual, 2.0);
        m.maximize(x * 3.0 + y * 2.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            (sol.objective - 10.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn simple_lp_minimization_with_equality() {
        // minimize x + 2y s.t. x + y == 3, y >= 1
        let mut m = Model::new("lp");
        let x = m.add_non_negative("x");
        let y = m.add_non_negative("y");
        m.add_constraint("sum", x + y, Sense::Equal, 3.0);
        m.add_constraint("ymin", y * 1.0, Sense::GreaterEqual, 1.0);
        m.minimize(x + y * 2.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-6);
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_lp_detected() {
        let mut m = Model::new("bad");
        let x = m.add_non_negative("x");
        m.add_constraint("hi", x * 1.0, Sense::GreaterEqual, 5.0);
        m.add_constraint("lo", x * 1.0, Sense::LessEqual, 1.0);
        m.minimize(x * 1.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_lp_detected() {
        let mut m = Model::new("unbounded");
        let x = m.add_non_negative("x");
        m.add_constraint("c", x * 1.0, Sense::GreaterEqual, 1.0);
        m.maximize(x * 1.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn binary_knapsack() {
        // maximize 10a + 6b + 4c s.t. a + b + c <= 2 (binary)
        let mut m = Model::new("knapsack");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint("cap", a + b + c, Sense::LessEqual, 2.0);
        m.maximize(a * 10.0 + b * 6.0 + c * 4.0);
        let sol = m.solve().unwrap();
        assert!(sol.status.has_solution());
        assert!((sol.objective - 16.0).abs() < 1e-6);
        assert!(sol.is_one(a));
        assert!(sol.is_one(b));
        assert!(!sol.is_one(c));
    }

    #[test]
    fn integer_rounding_matters() {
        // maximize x + y s.t. 2x + y <= 4.5, x + 2y <= 4.5, integers.
        // LP optimum is x = y = 1.5 (objective 3), integer optimum is 2
        // (e.g. x=2,y=0 violates? 2*2+0=4 <= 4.5 ok, 2+0 <= 4.5 ok -> obj 2;
        //  x=1,y=1 -> obj 2). So MILP objective must be 2, not 3.
        let mut m = Model::new("int");
        let x = m.add_var("x", VarKind::Integer, 0.0, f64::INFINITY);
        let y = m.add_var("y", VarKind::Integer, 0.0, f64::INFINITY);
        m.add_constraint("c1", x * 2.0 + y, Sense::LessEqual, 4.5);
        m.add_constraint("c2", x + y * 2.0, Sense::LessEqual, 4.5);
        m.maximize(x + y);
        let sol = m.solve().unwrap();
        assert!(sol.status.has_solution());
        // The MILP optimum must differ from the fractional LP optimum of 3.
        assert!((sol.objective - 3.0).abs() > 0.5);
        assert!(
            (sol.objective - 2.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn validation_catches_bad_bounds() {
        let mut m = Model::new("bad");
        m.add_var("x", VarKind::Continuous, 2.0, 1.0);
        m.minimize(LinExpr::constant(0.0));
        assert!(matches!(m.solve(), Err(MilpError::InvalidBounds { .. })));
    }

    #[test]
    fn validation_catches_missing_objective() {
        let mut m = Model::new("noobj");
        m.add_non_negative("x");
        assert!(matches!(m.validate(), Err(MilpError::MissingObjective)));
    }

    #[test]
    fn validation_catches_nan() {
        let mut m = Model::new("nan");
        let x = m.add_non_negative("x");
        m.add_constraint("c", x * f64::NAN, Sense::LessEqual, 1.0);
        m.minimize(x * 1.0);
        assert!(matches!(
            m.solve(),
            Err(MilpError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn validation_rejects_every_non_finite_rhs() {
        for rhs in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut m = Model::new("rhs");
            let x = m.add_non_negative("x");
            m.add_constraint("ok", x * 1.0, Sense::LessEqual, 4.0);
            m.add_constraint("cap", x * 1.0, Sense::LessEqual, rhs);
            m.minimize(x * 1.0);
            match m.solve() {
                Err(MilpError::NonFiniteCoefficient { context }) => {
                    assert_eq!(context, "rhs of constraint `cap`", "rhs {rhs}")
                }
                other => panic!("rhs {rhs} must be rejected, got {other:?}"),
            }
        }
        // A constant folded into the rhs is covered by the same check.
        let mut m = Model::new("folded");
        let x = m.add_non_negative("x");
        m.add_constraint("c", x * 1.0 + f64::INFINITY, Sense::LessEqual, 1.0);
        m.minimize(x * 1.0);
        assert!(matches!(
            m.validate(),
            Err(MilpError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn validation_names_unnamed_rows_and_variables_by_index() {
        let mut m = Model::new("unnamed");
        let x = m.add_binary("");
        for _ in 0..7 {
            m.add_constraint("", x * 1.0, Sense::LessEqual, 1.0);
        }
        m.add_constraint("", x * 1.0, Sense::LessEqual, f64::NAN);
        m.minimize(x * 1.0);
        let message = m.validate().unwrap_err().to_string();
        assert!(message.contains("rhs of constraint `#7`"), "{message}");

        let mut m = Model::new("unnamed");
        m.add_binary("");
        m.add_var("", VarKind::Continuous, 2.0, 1.0);
        m.minimize(LinExpr::zero());
        match m.validate() {
            Err(MilpError::InvalidBounds { name, .. }) => assert_eq!(name, "#1"),
            other => panic!("expected invalid bounds, got {other:?}"),
        }
    }

    #[test]
    fn constraints_are_stored_as_the_rows_the_solver_reads() {
        let mut m = Model::new("rows");
        let x = m.add_non_negative("x");
        let y = m.add_non_negative("y");
        m.add_constraint("c", y * 2.0 + x + 3.0 - y, Sense::LessEqual, 5.0);
        assert_eq!(m.constraint_names(), ["c"]);
        let row = &m.constraints()[0];
        assert_eq!(row.coeffs, vec![(0, 1.0), (1, 1.0)]);
        assert_eq!((row.sense, row.rhs), (Sense::LessEqual, 2.0));
        // Costs are signed for minimization, and an objective set before a
        // variable exists still prices it.
        m.maximize(x * 3.0 + Var::from_index(2) * 4.0);
        let z = m.add_non_negative("z");
        assert_eq!(m.lp().costs, vec![-3.0, 0.0, -4.0]);
        assert_eq!(m.bounds(z), (0.0, f64::INFINITY));
    }

    #[test]
    fn negative_lower_bounds_supported() {
        // minimize x s.t. x >= -5 (lower bound), x <= 3
        let mut m = Model::new("neg");
        let x = m.add_var("x", VarKind::Continuous, -5.0, 3.0);
        m.minimize(x * 1.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.value(x) + 5.0).abs() < 1e-6);
        assert!((sol.objective + 5.0).abs() < 1e-6);
    }

    #[test]
    fn free_variables_supported() {
        // minimize y s.t. y >= x - 4, y >= -x, x free, y free.
        // Optimum at x = 2, y = -2.
        let mut m = Model::new("free");
        let x = m.add_var("x", VarKind::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_var("y", VarKind::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(y) - x, Sense::GreaterEqual, -4.0);
        m.add_constraint("c2", y + x, Sense::GreaterEqual, 0.0);
        m.minimize(y * 1.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            (sol.objective + 2.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut m = Model::new("fixed");
        let x = m.add_var("x", VarKind::Continuous, 2.5, 2.5);
        let y = m.add_non_negative("y");
        m.add_constraint("c", x + y, Sense::LessEqual, 5.0);
        m.maximize(y * 1.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.5).abs() < 1e-6);
        assert!((sol.value(y) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn feasibility_check_honors_integrality() {
        let mut m = Model::new("feas");
        let x = m.add_binary("x");
        m.add_constraint("c", x * 1.0, Sense::LessEqual, 1.0);
        m.minimize(x * 1.0);
        assert!(m.is_feasible(&[1.0], 1e-9));
        assert!(!m.is_feasible(&[0.5], 1e-9));
        assert!(!m.is_feasible(&[2.0], 1e-9));
    }

    #[test]
    fn assignment_problem_with_capacity() {
        // 3 jobs, 2 regions; costs prefer region 0 but capacity forces a split.
        let mut m = Model::new("assign");
        let costs = [[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]];
        let mut vars = Vec::new();
        for (j, row) in costs.iter().enumerate() {
            for (r, _) in row.iter().enumerate() {
                vars.push(m.add_binary(format!("x_{j}_{r}")));
            }
        }
        let var = |j: usize, r: usize| vars[j * 2 + r];
        for j in 0..3 {
            m.add_constraint(
                format!("assign_{j}"),
                LinExpr::from(var(j, 0)) + var(j, 1),
                Sense::Equal,
                1.0,
            );
        }
        // Region 0 can take at most 1 job.
        m.add_constraint(
            "cap_0",
            LinExpr::from(var(0, 0)) + var(1, 0) + var(2, 0),
            Sense::LessEqual,
            1.0,
        );
        let mut obj = LinExpr::zero();
        for j in 0..3 {
            for r in 0..2 {
                obj.add_term(var(j, r), costs[j][r]);
            }
        }
        m.minimize(obj);
        let sol = m.solve().unwrap();
        assert!(sol.status.has_solution());
        // Best: the job with the largest region-1 penalty (job 2) goes to
        // region 0, the rest to region 1: 1 + 2 + 3 = 6.
        assert!(
            (sol.objective - 6.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        // Exactly one job in region 0.
        let in_r0: f64 = (0..3).map(|j| sol.value(var(j, 0))).sum();
        assert!((in_r0 - 1.0).abs() < 1e-6);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }
}
