//! Dense bounded-variable primal simplex for linear programs.
//!
//! The solver operates on an [`LpProblem`] in "model form": arbitrary finite
//! or infinite variable bounds and `<=` / `>=` / `==` constraints. It
//! converts the problem to a bounded standard form internally:
//!
//! * variables with a finite lower bound are shifted so the solver variable
//!   starts at zero, and keep a finite upper bound *implicitly* — one column,
//!   no bound row, no slack;
//! * variables bounded only from above are mirrored;
//! * free variables are split into a difference of two non-negative
//!   variables;
//! * `>=` and `==` rows receive artificial variables driven out in phase 1.
//!
//! The tableau is one contiguous row-major buffer with exactly one row per
//! constraint. A non-basic variable sitting at its upper bound is held by
//! *complementing* its column (`y = u - y'`: negate the column, move `u`
//! times it to the rhs), so every non-basic column variable is at zero and
//! the pivoting rules read as in the textbook method. The ratio test has two
//! extra cases: a basic variable may leave at its upper bound, and the
//! entering variable may reach its own bound first (a flip, no pivot).
//!
//! Entering-variable selection uses Dantzig's rule with an automatic switch
//! to Bland's rule after a stall, which guarantees termination on degenerate
//! problems.

use crate::expr::evaluate_terms;
use crate::model::Sense;
use serde::{Deserialize, Serialize};

/// A constraint in "model form" for the LP solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpConstraint {
    /// Sparse coefficients as `(variable index, coefficient)`.
    pub coeffs: Vec<(usize, f64)>,
    /// Constraint sense.
    pub sense: Sense,
    /// Right-hand side (constant already folded in).
    pub rhs: f64,
}

impl LpConstraint {
    /// `true` if the given point satisfies the constraint within `tol`.
    pub fn is_satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = evaluate_terms(&self.coeffs, values);
        match self.sense {
            Sense::LessEqual => lhs <= self.rhs + tol,
            Sense::GreaterEqual => lhs >= self.rhs - tol,
            Sense::Equal => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A linear program in model form (always a minimization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpProblem {
    /// Number of decision variables.
    pub num_vars: usize,
    /// Objective coefficients (minimized).
    pub costs: Vec<f64>,
    /// Lower bounds (may be `-inf`).
    pub lower: Vec<f64>,
    /// Upper bounds (may be `+inf`).
    pub upper: Vec<f64>,
    /// Constraints.
    pub constraints: Vec<LpConstraint>,
}

/// An LP's rows and costs under the caller's own variable bounds: how a
/// branch-and-bound node reaches the solver without a copy of the problem.
#[derive(Clone, Copy)]
pub(crate) struct BoundedLp<'a> {
    pub(crate) problem: &'a LpProblem,
    pub(crate) lower: &'a [f64],
    pub(crate) upper: &'a [f64],
}

impl<'a> From<&'a LpProblem> for BoundedLp<'a> {
    /// The problem under its own bounds.
    fn from(problem: &'a LpProblem) -> Self {
        BoundedLp {
            problem,
            lower: &problem.lower,
            upper: &problem.upper,
        }
    }
}

/// Simplex configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimplexConfig {
    /// Hard cap on pivots across both phases. `0` means "auto" (scaled with
    /// problem size).
    pub max_iterations: usize,
    /// Numerical tolerance for reduced costs, ratio tests, and feasibility.
    pub tolerance: f64,
    /// Number of non-improving pivots after which the solver switches from
    /// Dantzig's rule to Bland's rule to escape degeneracy cycles.
    pub stall_threshold: usize,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        Self {
            max_iterations: 0,
            tolerance: 1e-9,
            stall_threshold: 64,
        }
    }
}

/// Result of a simplex solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexOutcome {
    /// Optimal solution found.
    Optimal {
        /// Objective value (of the minimization).
        objective: f64,
        /// Values of the original decision variables.
        values: Vec<f64>,
        /// Pivots performed.
        iterations: usize,
    },
    /// The constraints admit no feasible point.
    Infeasible {
        /// Pivots performed.
        iterations: usize,
    },
    /// The objective is unbounded below.
    Unbounded {
        /// Pivots performed.
        iterations: usize,
    },
    /// The pivot budget was exhausted.
    IterationLimit {
        /// Pivots performed.
        iterations: usize,
    },
}

/// How an original variable maps onto solver variables (all resting at 0).
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + y[col]`, `y[col] <= upper - lower` held implicitly.
    Shifted { col: usize, lower: f64 },
    /// `x = upper - y[col]` (upper bound finite, lower infinite)
    Mirrored { col: usize, upper: f64 },
    /// `x = y[pos] - y[neg]` (free variable)
    Split { pos: usize, neg: usize },
}

/// Map every original variable onto solver columns; also returns the number
/// of structural columns used. Depends only on the bound classes.
fn map_variables(lp: BoundedLp<'_>) -> (Vec<VarMap>, usize) {
    let mut var_map = Vec::with_capacity(lp.lower.len());
    let mut next_col = 0usize;
    for (&lower, &upper) in lp.lower.iter().zip(lp.upper) {
        if lower.is_finite() {
            var_map.push(VarMap::Shifted {
                col: next_col,
                lower,
            });
            next_col += 1;
        } else if upper.is_finite() {
            var_map.push(VarMap::Mirrored {
                col: next_col,
                upper,
            });
            next_col += 1;
        } else {
            var_map.push(VarMap::Split {
                pos: next_col,
                neg: next_col + 1,
            });
            next_col += 2;
        }
    }
    (var_map, next_col)
}

/// Implicit upper bound of every solver column: `upper - lower` for shifted
/// variables, infinite for everything else (slacks and artificials too).
fn column_bounds(upper: &[f64], var_map: &[VarMap], total_cols: usize) -> Vec<f64> {
    let mut bounds = vec![f64::INFINITY; total_cols];
    for (map, &upper) in var_map.iter().zip(upper) {
        if let VarMap::Shifted { col, lower } = *map {
            bounds[col] = upper - lower;
        }
    }
    bounds
}

struct Tableau {
    /// Row-major `rows x stride` matrix; the last entry of a row is its rhs.
    a: Vec<f64>,
    /// Row length, `cols + 1`.
    stride: usize,
    /// Column index of the basic variable of each row.
    basis: Vec<usize>,
    /// Number of structural + slack/surplus columns (artificials follow).
    non_artificial_cols: usize,
    /// Total number of columns (excluding rhs).
    cols: usize,
    /// Upper bound of each column's variable (its lower bound is 0).
    upper: Vec<f64>,
    /// Columns whose variable is currently held as its complement
    /// `upper - y`, so that a variable resting at its upper bound still
    /// reads as a non-basic at zero. Complementing keeps the bound.
    complemented: Vec<bool>,
}

impl Tableau {
    fn rows(&self) -> usize {
        self.basis.len()
    }

    fn row(&self, row: usize) -> &[f64] {
        &self.a[row * self.stride..(row + 1) * self.stride]
    }

    fn at(&self, row: usize, col: usize) -> f64 {
        self.a[row * self.stride + col]
    }

    fn rhs(&self, row: usize) -> f64 {
        self.at(row, self.cols)
    }

    /// Sum of the basic artificial variables (phase-1 infeasibility).
    fn artificial_sum(&self) -> f64 {
        (0..self.rows())
            .filter(|&r| self.basis[r] >= self.non_artificial_cols)
            .map(|r| self.rhs(r))
            .sum()
    }

    /// Tie-break rank of column `col`'s variable, or of its complement when
    /// `complement` is set. A variable and its complement are two variables
    /// to the pivoting rules (anti-cycling needs one fixed order over both):
    /// the complement ranks where the slack of an explicit bound row would,
    /// after every constraint slack and ahead of the artificials. With that
    /// order the solver takes, step for step, the path it would take on the
    /// same LP with its bounds written out as rows — implicit bounds change
    /// what a solve costs, not which vertex a tie lands on.
    fn rank(&self, col: usize, complement: bool) -> usize {
        if self.complemented[col] != complement {
            self.non_artificial_cols + col
        } else if col >= self.non_artificial_cols {
            self.cols + col
        } else {
            col
        }
    }

    /// Columns `< limit` in [`Tableau::rank`] order.
    fn ranked_cols(&self, limit: usize) -> impl Iterator<Item = usize> + '_ {
        let held = move |flag| (0..limit).filter(move |&c| self.complemented[c] == flag);
        held(false).chain(held(true))
    }

    /// Perform a pivot on (row, col): normalize the pivot row and eliminate
    /// the column from all other rows and from the objective row, if any.
    fn pivot(&mut self, row: usize, col: usize, obj_row: Option<&mut [f64]>) {
        let stride = self.stride;
        let (before, rest) = self.a.split_at_mut(row * stride);
        let (pivot_row, after) = rest.split_at_mut(stride);
        debug_assert!(pivot_row[col].abs() > 0.0);
        let inv = 1.0 / pivot_row[col];
        for value in pivot_row.iter_mut() {
            *value *= inv;
        }
        let others = before
            .chunks_exact_mut(stride)
            .chain(after.chunks_exact_mut(stride));
        for target in others.chain(obj_row) {
            let factor = target[col];
            if factor != 0.0 {
                for (t, p) in target.iter_mut().zip(pivot_row.iter()) {
                    *t -= factor * p;
                }
            }
        }
        self.basis[row] = col;
    }

    /// Move non-basic column `col` to its other bound: substitute
    /// `y = upper - y'`, after which `y'` is the non-basic at zero.
    fn complement_column(&mut self, col: usize, obj_row: &mut [f64]) {
        let (cols, upper) = (self.cols, self.upper[col]);
        let rows = self.a.chunks_exact_mut(self.stride);
        for target in rows.chain(std::iter::once(obj_row)) {
            target[cols] -= upper * target[col];
            target[col] = -target[col];
        }
        self.complemented[col] ^= true;
    }

    /// Substitute `y = upper - y'` for the basic variable of `row`. Its
    /// column is a unit vector, so only this row changes: `y + Σ a·z = b`
    /// becomes `y' - Σ a·z = upper - b`.
    fn complement_basic(&mut self, row: usize) {
        let col = self.basis[row];
        let (cols, upper) = (self.cols, self.upper[col]);
        let target = &mut self.a[row * self.stride..(row + 1) * self.stride];
        for value in target.iter_mut() {
            *value = -*value;
        }
        target[col] = -target[col];
        target[cols] += upper;
        self.complemented[col] ^= true;
    }
}

/// Solve a linear program with the two-phase primal simplex.
pub fn solve(problem: &LpProblem, config: &SimplexConfig) -> SimplexOutcome {
    solve_bounded(problem.into(), config)
}

/// The entry every solve goes through: [`solve`] under the caller's own
/// bounds.
pub(crate) fn solve_bounded(lp: BoundedLp<'_>, config: &SimplexConfig) -> SimplexOutcome {
    Solver::new(lp, config).run_phases()
}

struct Solver<'a> {
    lp: BoundedLp<'a>,
    config: SimplexConfig,
    var_map: Vec<VarMap>,
    tableau: Tableau,
    /// Costs on solver columns in their uncomplemented form (for phase 2).
    solver_costs: Vec<f64>,
    num_artificials: usize,
    /// Pivots plus bound flips performed so far.
    iterations: usize,
    max_iterations: usize,
}

/// What stops an entering variable on its way up from zero.
enum Step {
    /// The basic variable of `row` reaches zero, or its upper bound when
    /// `at_upper` is set, and leaves the basis.
    Pivot { row: usize, at_upper: bool },
    /// The entering variable reaches its own upper bound first: it stays
    /// non-basic and its column is complemented.
    Flip,
}

impl<'a> Solver<'a> {
    fn new(lp: BoundedLp<'a>, config: &SimplexConfig) -> Self {
        let problem = lp.problem;
        // --- 1. Map original variables to solver variables resting at 0. ---
        let (var_map, structural_cols) = map_variables(lp);

        // --- 2. Shift each rhs into solver space; a negative one flips its
        // row's sign and sense. Count slack and artificial columns. ---
        let m = problem.constraints.len();
        let mut rows: Vec<(f64, Sense)> = Vec::with_capacity(m);
        let (mut num_slack, mut num_artificial) = (0usize, 0usize);
        for c in &problem.constraints {
            let mut rhs = c.rhs;
            for &(var, coeff) in &c.coeffs {
                match var_map[var] {
                    VarMap::Shifted { lower, .. } => rhs -= coeff * lower,
                    VarMap::Mirrored { upper, .. } => rhs -= coeff * upper,
                    VarMap::Split { .. } => {}
                }
            }
            let sense = match c.sense {
                Sense::LessEqual if rhs < 0.0 => Sense::GreaterEqual,
                Sense::GreaterEqual if rhs < 0.0 => Sense::LessEqual,
                sense => sense,
            };
            num_slack += usize::from(sense != Sense::Equal);
            num_artificial += usize::from(sense != Sense::LessEqual);
            rows.push((rhs, sense));
        }
        let non_artificial_cols = structural_cols + num_slack;
        let total_cols = non_artificial_cols + num_artificial;

        // --- 3. Write the sparse rows straight into the tableau. ---
        let stride = total_cols + 1;
        let mut a = vec![0.0; m * stride];
        let mut basis = vec![0usize; m];
        let mut slack_cursor = structural_cols;
        let mut artificial_cursor = non_artificial_cols;
        let filled = a.chunks_exact_mut(stride).zip(&problem.constraints);
        for (r, ((row, c), &(rhs, sense))) in filled.zip(&rows).enumerate() {
            let sign = if rhs < 0.0 { -1.0 } else { 1.0 };
            for &(var, coeff) in &c.coeffs {
                let coeff = sign * coeff;
                match var_map[var] {
                    VarMap::Shifted { col, .. } => row[col] += coeff,
                    VarMap::Mirrored { col, .. } => row[col] -= coeff,
                    VarMap::Split { pos, neg } => {
                        row[pos] += coeff;
                        row[neg] -= coeff;
                    }
                }
            }
            row[total_cols] = sign * rhs;
            // The initial basic column of a row is a +1 unit column: its
            // slack for `<=`, its artificial for `>=`/`==`.
            if sense != Sense::Equal {
                row[slack_cursor] = if sense == Sense::LessEqual { 1.0 } else { -1.0 };
                basis[r] = slack_cursor;
                slack_cursor += 1;
            }
            if sense != Sense::LessEqual {
                row[artificial_cursor] = 1.0;
                basis[r] = artificial_cursor;
                artificial_cursor += 1;
            }
        }

        let tableau = Tableau {
            a,
            stride,
            basis,
            non_artificial_cols,
            cols: total_cols,
            upper: column_bounds(lp.upper, &var_map, total_cols),
            complemented: vec![false; total_cols],
        };
        let mut solver = Self {
            lp,
            config: *config,
            solver_costs: build_solver_costs(problem, &var_map, total_cols),
            var_map,
            tableau,
            num_artificials: num_artificial,
            iterations: 0,
            max_iterations: config.max_iterations,
        };
        if config.max_iterations == 0 {
            solver.max_iterations = 2_000 + 40 * solver.logical_size();
        }
        solver
    }

    /// Rows plus columns of the equivalent explicit-bound standard form, in
    /// which every finitely bounded variable owns a bound row and a slack.
    /// The auto pivot budgets scale with it, not with the tableau held.
    fn logical_size(&self) -> usize {
        let t = &self.tableau;
        let bounded = t.upper.iter().filter(|u| u.is_finite()).count();
        t.rows() + t.cols + 2 * bounded
    }

    /// An empty bound box (`upper < lower`) admits no point at all.
    fn has_empty_box(&self) -> bool {
        self.tableau.upper.iter().any(|&u| u < 0.0)
    }

    fn run_phases(&mut self) -> SimplexOutcome {
        if self.has_empty_box() {
            return SimplexOutcome::Infeasible { iterations: 0 };
        }
        let tol = self.config.tolerance;

        // ---- Phase 1: minimize the sum of artificial variables. ----
        if self.num_artificials > 0 {
            let cols = self.tableau.cols;
            let mut phase1_costs = vec![0.0; cols];
            phase1_costs[self.tableau.non_artificial_cols..].fill(1.0);
            let mut obj_row = self.reduced_costs(&phase1_costs);
            // Phase 1 is bounded below by 0; an "unbounded" verdict is
            // numerical noise and falls through to the feasibility check.
            if let LoopResult::IterationLimit = self.optimize(&mut obj_row, cols) {
                return SimplexOutcome::IterationLimit {
                    iterations: self.iterations,
                };
            }
            if self.tableau.artificial_sum() > 1e-6 {
                return SimplexOutcome::Infeasible {
                    iterations: self.iterations,
                };
            }
            self.evict_basic_artificials(tol);
        }

        // ---- Phase 2: minimize the real objective over non-artificial columns. ----
        let limit_cols = self.tableau.non_artificial_cols;
        let mut obj_row = self.reduced_costs(&self.phase2_costs());
        match self.optimize(&mut obj_row, limit_cols) {
            LoopResult::Optimal => self.optimum(),
            LoopResult::Unbounded => SimplexOutcome::Unbounded {
                iterations: self.iterations,
            },
            LoopResult::IterationLimit => SimplexOutcome::IterationLimit {
                iterations: self.iterations,
            },
        }
    }

    /// Phase-2 costs on the columns as currently held: a complemented
    /// column `y = upper - y'` prices `y'` at the negated cost.
    fn phase2_costs(&self) -> Vec<f64> {
        let costs = self.solver_costs.iter().zip(&self.tableau.complemented);
        costs.map(|(&c, &flip)| if flip { -c } else { c }).collect()
    }

    /// Compute the reduced-cost row `c_j - c_B B^-1 A_j` for the current
    /// basis; its last entry is the negated objective value `-c_B B^-1 b`.
    fn reduced_costs(&self, costs: &[f64]) -> Vec<f64> {
        let t = &self.tableau;
        let mut row = vec![0.0; t.stride];
        row[..t.cols].copy_from_slice(costs);
        for r in 0..t.rows() {
            let cb = costs[t.basis[r]];
            if cb != 0.0 {
                for (o, a) in row.iter_mut().zip(t.row(r)) {
                    *o -= cb * a;
                }
            }
        }
        row
    }

    /// Bounded ratio test for entering column `col`: the first of (a) a
    /// basic variable falling to zero, (b) a basic variable rising to its
    /// upper bound, (c) the entering variable reaching its own upper bound.
    /// Ties go to the smallest rank of the variable that would leave (in
    /// (b) and (c) that is the complement). `None` means nothing stops the
    /// variable.
    fn ratio_test(&self, col: usize) -> Option<Step> {
        struct Stop {
            ratio: f64,
            step: Step,
            rank: usize,
        }
        let t = &self.tableau;
        let tol = self.config.tolerance;
        let rows = (0..t.rows()).filter_map(|row| {
            let (a_rc, basic) = (t.at(row, col), t.basis[row]);
            let at_upper = a_rc < -tol && t.upper[basic].is_finite();
            let ratio = if a_rc > tol {
                t.rhs(row) / a_rc
            } else if at_upper {
                (t.upper[basic] - t.rhs(row)) / -a_rc
            } else {
                return None;
            };
            Some(Stop {
                ratio,
                step: Step::Pivot { row, at_upper },
                rank: t.rank(basic, at_upper),
            })
        });
        let own_bound = t.upper[col].is_finite().then(|| Stop {
            ratio: t.upper[col],
            step: Step::Flip,
            rank: t.rank(col, true),
        });
        let mut best: Option<Stop> = None;
        for stop in rows.chain(own_bound) {
            let better = match &best {
                None => true,
                Some(b) if stop.ratio < b.ratio - tol => true,
                Some(b) if stop.ratio < b.ratio + tol => stop.rank < b.rank,
                Some(_) => false,
            };
            if better {
                best = Some(stop);
            }
        }
        best.map(|stop| stop.step)
    }

    /// Carry out a ratio-test verdict for entering column `col`. A bound
    /// flip counts toward the pivot budget like a pivot.
    fn apply(&mut self, col: usize, step: Step, obj_row: &mut [f64]) {
        match step {
            Step::Pivot { row, at_upper } => {
                // Leaving at the upper bound is leaving at zero once the
                // basic variable is complemented.
                if at_upper {
                    self.tableau.complement_basic(row);
                }
                self.tableau.pivot(row, col, Some(obj_row));
            }
            Step::Flip => self.tableau.complement_column(col, obj_row),
        }
        self.iterations += 1;
    }

    /// Primal simplex loop over columns `< limit_cols`.
    fn optimize(&mut self, obj_row: &mut [f64], limit_cols: usize) -> LoopResult {
        let tol = self.config.tolerance;
        let z = self.tableau.cols;
        let mut stall = 0usize;
        let mut last_obj = obj_row[z];
        loop {
            if self.iterations >= self.max_iterations {
                return LoopResult::IterationLimit;
            }
            // Entering column: Dantzig (most negative reduced cost), or
            // Bland's rule (first negative) once the objective stalls.
            let use_bland = stall >= self.config.stall_threshold;
            let mut entering: Option<usize> = None;
            let mut best = -tol;
            for c in self.tableau.ranked_cols(limit_cols) {
                let rc = obj_row[c];
                if rc < -tol {
                    if use_bland {
                        entering = Some(c);
                        break;
                    }
                    if rc < best {
                        best = rc;
                        entering = Some(c);
                    }
                }
            }
            let Some(col) = entering else {
                return LoopResult::Optimal;
            };
            let Some(step) = self.ratio_test(col) else {
                return LoopResult::Unbounded;
            };
            self.apply(col, step, obj_row);
            if (obj_row[z] - last_obj).abs() <= tol {
                stall += 1;
            } else {
                stall = 0;
                last_obj = obj_row[z];
            }
        }
    }

    /// After phase 1, pivot any artificial variables that remain basic (at
    /// value zero) out of the basis, or neutralize redundant rows.
    fn evict_basic_artificials(&mut self, tol: f64) {
        let non_art = self.tableau.non_artificial_cols;
        for r in 0..self.tableau.rows() {
            if self.tableau.basis[r] < non_art {
                continue;
            }
            // Find any non-artificial column with a usable pivot element.
            let t = &self.tableau;
            let col = t.ranked_cols(non_art).find(|&c| t.at(r, c).abs() > tol);
            if let Some(c) = col {
                self.tableau.pivot(r, c, None);
                self.iterations += 1;
            }
            // If no pivot column exists the row is redundant (all zeros);
            // the artificial stays basic at zero and is harmless because
            // artificial columns are excluded from phase-2 entering steps.
        }
    }

    /// The optimal outcome at the current basis: original-variable values
    /// read out of the tableau and the objective evaluated on them.
    fn optimum(&self) -> SimplexOutcome {
        let t = &self.tableau;
        let mut solver_values = vec![0.0; t.cols];
        for r in 0..t.rows() {
            let col = t.basis[r];
            solver_values[col] = t.rhs(r).max(0.0).min(t.upper[col]);
        }
        for (value, (&upper, &flip)) in solver_values
            .iter_mut()
            .zip(t.upper.iter().zip(&t.complemented))
        {
            if flip {
                *value = upper - *value;
            }
        }
        let values: Vec<f64> = self
            .var_map
            .iter()
            .map(|m| match *m {
                VarMap::Shifted { col, lower } => lower + solver_values[col],
                VarMap::Mirrored { col, upper } => upper - solver_values[col],
                VarMap::Split { pos, neg } => solver_values[pos] - solver_values[neg],
            })
            .collect();
        let objective = self
            .lp
            .problem
            .costs
            .iter()
            .zip(values.iter())
            .map(|(c, v)| c * v)
            .sum();
        SimplexOutcome::Optimal {
            objective,
            values,
            iterations: self.iterations,
        }
    }
}

enum LoopResult {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Phase-2 costs on solver columns in their uncomplemented form.
fn build_solver_costs(problem: &LpProblem, var_map: &[VarMap], total_cols: usize) -> Vec<f64> {
    let mut solver_costs = vec![0.0; total_cols];
    for i in 0..problem.num_vars {
        let cost = problem.costs[i];
        if cost == 0.0 {
            continue;
        }
        match var_map[i] {
            VarMap::Shifted { col, .. } => solver_costs[col] += cost,
            VarMap::Mirrored { col, .. } => solver_costs[col] -= cost,
            VarMap::Split { pos, neg } => {
                solver_costs[pos] += cost;
                solver_costs[neg] -= cost;
            }
        }
    }
    solver_costs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constraint(coeffs: &[(usize, f64)], sense: Sense, rhs: f64) -> LpConstraint {
        LpConstraint {
            coeffs: coeffs.to_vec(),
            sense,
            rhs,
        }
    }

    fn solve_default(p: &LpProblem) -> SimplexOutcome {
        solve(p, &SimplexConfig::default())
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => 36 at (2, 6).
        // Expressed as minimization of -3x - 5y.
        let p = LpProblem {
            num_vars: 2,
            costs: vec![-3.0, -5.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            constraints: vec![
                constraint(&[(0, 1.0)], Sense::LessEqual, 4.0),
                constraint(&[(1, 2.0)], Sense::LessEqual, 12.0),
                constraint(&[(0, 3.0), (1, 2.0)], Sense::LessEqual, 18.0),
            ],
        };
        match solve_default(&p) {
            SimplexOutcome::Optimal {
                objective, values, ..
            } => {
                assert!((objective + 36.0).abs() < 1e-6);
                assert!((values[0] - 2.0).abs() < 1e-6);
                assert!((values[1] - 6.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min 2x + 3y s.t. x + y == 10, x >= 3  => x=10? No: y free to be 0.
        // Optimal: maximize x share since 2 < 3 => x=10, y=0, obj 20.
        let p = LpProblem {
            num_vars: 2,
            costs: vec![2.0, 3.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            constraints: vec![
                constraint(&[(0, 1.0), (1, 1.0)], Sense::Equal, 10.0),
                constraint(&[(0, 1.0)], Sense::GreaterEqual, 3.0),
            ],
        };
        match solve_default(&p) {
            SimplexOutcome::Optimal {
                objective, values, ..
            } => {
                assert!((objective - 20.0).abs() < 1e-6);
                assert!((values[0] - 10.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let p = LpProblem {
            num_vars: 1,
            costs: vec![1.0],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
            constraints: vec![
                constraint(&[(0, 1.0)], Sense::GreaterEqual, 5.0),
                constraint(&[(0, 1.0)], Sense::LessEqual, 2.0),
            ],
        };
        assert!(matches!(
            solve_default(&p),
            SimplexOutcome::Infeasible { .. }
        ));
    }

    #[test]
    fn unbounded_detected() {
        let p = LpProblem {
            num_vars: 1,
            costs: vec![-1.0],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
            constraints: vec![constraint(&[(0, 1.0)], Sense::GreaterEqual, 1.0)],
        };
        assert!(matches!(
            solve_default(&p),
            SimplexOutcome::Unbounded { .. }
        ));
    }

    #[test]
    fn finite_upper_bounds_respected() {
        // min -x with x in [0, 7] => x = 7.
        let p = LpProblem {
            num_vars: 1,
            costs: vec![-1.0],
            lower: vec![0.0],
            upper: vec![7.0],
            constraints: vec![],
        };
        match solve_default(&p) {
            SimplexOutcome::Optimal { values, .. } => assert!((values[0] - 7.0).abs() < 1e-6),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let p = LpProblem {
            num_vars: 1,
            costs: vec![1.0],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
            constraints: vec![constraint(&[(0, -1.0)], Sense::LessEqual, -3.0)],
        };
        match solve_default(&p) {
            SimplexOutcome::Optimal { values, .. } => assert!((values[0] - 3.0).abs() < 1e-6),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn mirrored_variable_only_upper_bound() {
        // min x with x <= 4 and x >= -inf, constraint x >= -10 absent:
        // objective unbounded below? Add constraint x >= -2 to make bounded.
        let p = LpProblem {
            num_vars: 1,
            costs: vec![1.0],
            lower: vec![f64::NEG_INFINITY],
            upper: vec![4.0],
            constraints: vec![constraint(&[(0, 1.0)], Sense::GreaterEqual, -2.0)],
        };
        match solve_default(&p) {
            SimplexOutcome::Optimal {
                values, objective, ..
            } => {
                assert!((values[0] + 2.0).abs() < 1e-6);
                assert!((objective + 2.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; correctness here is mostly "terminates
        // and returns a feasible optimum".
        let p = LpProblem {
            num_vars: 2,
            costs: vec![-1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            constraints: vec![
                constraint(&[(0, 1.0), (1, 1.0)], Sense::LessEqual, 1.0),
                constraint(&[(0, 1.0), (1, 1.0)], Sense::LessEqual, 1.0),
                constraint(&[(0, 1.0)], Sense::LessEqual, 1.0),
                constraint(&[(1, 1.0)], Sense::LessEqual, 1.0),
            ],
        };
        match solve_default(&p) {
            SimplexOutcome::Optimal { objective, .. } => assert!((objective + 1.0).abs() < 1e-6),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// A 3-variable knapsack LP over the unit box, with a `>=` row that
    /// needs an artificial.
    fn bounded_fixture() -> LpProblem {
        LpProblem {
            num_vars: 3,
            costs: vec![-8.0, -11.0, -6.0],
            lower: vec![0.0, 0.0, 0.0],
            upper: vec![1.0, 1.0, 1.0],
            constraints: vec![
                constraint(&[(0, 5.0), (1, 7.0), (2, 4.0)], Sense::LessEqual, 9.0),
                constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Sense::GreaterEqual, 1.0),
            ],
        }
    }

    #[test]
    fn optimum_with_a_non_basic_variable_at_its_upper_bound() {
        // min -x - y s.t. x + y <= 10, x in [0, 3], y in [1, 4]: both
        // variables stop at their upper bounds and the slack stays basic.
        let p = LpProblem {
            num_vars: 2,
            costs: vec![-1.0, -1.0],
            lower: vec![0.0, 1.0],
            upper: vec![3.0, 4.0],
            constraints: vec![constraint(&[(0, 1.0), (1, 1.0)], Sense::LessEqual, 10.0)],
        };
        let mut solver = Solver::new((&p).into(), &SimplexConfig::default());
        let outcome = solver.run_phases();
        let SimplexOutcome::Optimal {
            objective,
            values,
            iterations,
        } = outcome
        else {
            panic!("expected optimal, got {outcome:?}");
        };
        assert_eq!(values, vec![3.0, 4.0]);
        assert_eq!(objective, -7.0);
        assert_eq!(iterations, 2, "two bound flips, each counted once");
        assert_eq!(
            solver.tableau.basis,
            vec![2],
            "the slack never left the basis"
        );
        assert_eq!(solver.tableau.complemented, vec![true, true, false]);
    }

    #[test]
    fn assignment_tableau_has_one_row_per_constraint() {
        // 120 jobs x 5 regions, a `campaign_alibaba` round: 600 binaries
        // under 120 assignment and 5 capacity rows, plus 120 weighted rows
        // (the scheduler carried Eq. 11 as such until it became arc bounds).
        let (jobs, regions) = (120usize, 5usize);
        let var = |j: usize, r: usize| j * regions + r;
        let cost = |j: usize, r: usize| 1.0 + ((j * 31 + r * 17) % 23) as f64 / 7.0;
        let mut constraints = Vec::new();
        for j in 0..jobs {
            let row: Vec<_> = (0..regions).map(|r| (var(j, r), 1.0)).collect();
            constraints.push(constraint(&row, Sense::Equal, 1.0));
        }
        for r in 0..regions {
            let row: Vec<_> = (0..jobs).map(|j| (var(j, r), 1.0)).collect();
            constraints.push(constraint(&row, Sense::LessEqual, 40.0));
        }
        for j in 0..jobs {
            let row: Vec<_> = (0..regions)
                .map(|r| (var(j, r), 0.1 * (1 + (j + r) % 4) as f64))
                .collect();
            constraints.push(constraint(&row, Sense::LessEqual, 0.35));
        }
        let p = LpProblem {
            num_vars: jobs * regions,
            costs: (0..jobs * regions)
                .map(|i| cost(i / regions, i % regions))
                .collect(),
            lower: vec![0.0; jobs * regions],
            upper: vec![1.0; jobs * regions],
            constraints,
        };
        let mut solver = Solver::new((&p).into(), &SimplexConfig::default());
        let outcome = solver.run_phases();
        let SimplexOutcome::Optimal { values, .. } = outcome else {
            panic!("expected optimal, got {outcome:?}");
        };
        for j in 0..jobs {
            let assigned: f64 = (0..regions).map(|r| values[var(j, r)]).sum();
            assert!((assigned - 1.0).abs() < 1e-9);
        }
        assert_eq!(solver.tableau.rows(), p.constraints.len(), "no bound rows");
        assert_eq!(solver.tableau.rows(), 245);
        // 600 structural + 125 slack + 120 artificial columns, and the rhs.
        assert_eq!(solver.tableau.a.len(), 245 * (600 + 125 + 120 + 1));
    }

    #[test]
    fn auto_pivot_budgets_count_the_implicit_bounds() {
        // Written out with a row and a slack per bounded variable, the
        // fixture is 5 rows x 9 columns (3 structural, 2 + 3 slacks, 1
        // artificial); the budget must scale with that, not with the 2 x 6
        // tableau actually held.
        let p = bounded_fixture();
        let cold = Solver::new((&p).into(), &SimplexConfig::default());
        assert_eq!((cold.tableau.rows(), cold.tableau.cols), (2, 6));
        assert_eq!(cold.max_iterations, 2_000 + 40 * (5 + 9));
    }

    #[test]
    fn empty_bound_box_is_infeasible() {
        let mut p = bounded_fixture();
        (p.lower[1], p.upper[1]) = (0.75, 0.25);
        // Decided from the bounds alone, before any pivot.
        assert_eq!(
            solve_default(&p),
            SimplexOutcome::Infeasible { iterations: 0 }
        );
    }

    #[test]
    fn zero_constraint_problem() {
        // No constraints at all, bounded purely by variable bounds.
        let p = LpProblem {
            num_vars: 2,
            costs: vec![1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![5.0, 5.0],
            constraints: vec![],
        };
        match solve_default(&p) {
            SimplexOutcome::Optimal {
                objective, values, ..
            } => {
                assert!((values[0] - 0.0).abs() < 1e-6);
                assert!((values[1] - 5.0).abs() < 1e-6);
                assert!((objective + 5.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
