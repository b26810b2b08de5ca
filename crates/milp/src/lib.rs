//! # waterwise-milp
//!
//! A pure-Rust Mixed Integer Linear Programming (MILP) solver used by the
//! WaterWise scheduler, replacing the PuLP + GLPK stack of the original
//! artifact.
//!
//! The solver is deliberately small and dependency-free:
//!
//! * [`expr`] — variable handles and linear expressions: a sorted, merged
//!   `(index, coefficient)` term list behind `+`, `-`, `*` and `add_term`.
//! * [`model`] — a builder-style API for variables, constraints, and the
//!   objective, similar in spirit to PuLP. The model owns the [`LpProblem`]
//!   it solves: a constraint's term list moves into its row once, and the
//!   simplex reads those rows in place at the root and at every
//!   branch-and-bound node.
//! * [`simplex`] — a dense, two-phase primal simplex for the LP relaxation,
//!   with Bland's-rule anti-cycling and infeasibility/unboundedness
//!   detection. Every solve starts cold, from the all-slack basis.
//! * [`branch_bound`] — best-first branch & bound on fractional integer
//!   variables, with incumbent pruning and a configurable gap/node budget;
//!   a node holds only its bounds.
//! * [`solution`] — solve status and per-variable value extraction.
//!
//! The scheduling MILPs WaterWise builds (binary assignment variables with
//! per-job equality constraints and per-region capacity constraints) are
//! transportation problems with integral LP relaxations, so branch & bound
//! terminates at the root node; the solver nevertheless handles the general
//! case and is extensively property-tested against brute-force enumeration.
//!
//! The scheduler decides almost every round without it: a certified hint or
//! its transportation kernel proves the optimum. Only a round with tied
//! optima reaches [`Model::solve_with`]. The all-MILP reference
//! (`warm_start = false`) solves every round here, and is what the
//! certificate and the kernel are tested against.
//!
//! ```
//! use waterwise_milp::{Model, Sense, VarKind};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2, x,y >= 0
//! let mut model = Model::new("example");
//! let x = model.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
//! let y = model.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
//! model.add_constraint("cap", x + y, Sense::LessEqual, 4.0);
//! model.add_constraint("xcap", x * 1.0, Sense::LessEqual, 2.0);
//! model.maximize(x * 3.0 + y * 2.0);
//! let solution = model.solve().unwrap();
//! assert!((solution.objective - 10.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
// DET003 (docs/LINTING.md): failures here are typed errors, never panics.
// In test code the workspace clippy.toml allows `unwrap`, `expect` and `panic!`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod branch_bound;
pub mod error;
pub mod expr;
pub mod model;
pub mod simplex;
pub mod solution;

pub use branch_bound::BranchBoundConfig;
pub use error::MilpError;
pub use expr::{LinExpr, Var};
pub use model::{Model, Sense, VarKind};
pub use simplex::{LpConstraint, LpProblem, SimplexConfig, SimplexOutcome};
pub use solution::{Solution, SolveStatus};
