//! Error types for model construction and solving.

use std::fmt;

/// Errors produced while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// The model references a variable that does not belong to it.
    UnknownVariable {
        /// Index of the offending variable.
        index: usize,
        /// Number of variables in the model.
        model_vars: usize,
    },
    /// A variable's lower bound exceeds its upper bound.
    InvalidBounds {
        /// Variable name, or `#index` for a variable added without one.
        name: String,
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
    /// A coefficient or right-hand side is NaN or infinite, or a bound is NaN.
    NonFiniteCoefficient {
        /// Where it was found (an unnamed variable or row reads `#index`).
        context: String,
    },
    /// No objective was set before calling `solve`.
    MissingObjective,
    /// The problem was proven infeasible.
    Infeasible,
    /// The problem is unbounded in the optimization direction.
    Unbounded,
    /// The iteration or node budget was exhausted before proving optimality.
    IterationLimit {
        /// Iterations or nodes expended.
        spent: usize,
    },
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::UnknownVariable { index, model_vars } => write!(
                f,
                "variable index {index} does not belong to this model ({model_vars} variables)"
            ),
            MilpError::InvalidBounds { name, lower, upper } => {
                write!(f, "variable `{name}` has invalid bounds [{lower}, {upper}]")
            }
            MilpError::NonFiniteCoefficient { context } => {
                write!(f, "non-finite coefficient encountered in {context}")
            }
            MilpError::MissingObjective => write!(f, "no objective set"),
            MilpError::Infeasible => write!(f, "problem is infeasible"),
            MilpError::Unbounded => write!(f, "problem is unbounded"),
            MilpError::IterationLimit { spent } => {
                write!(f, "iteration/node limit reached after {spent} steps")
            }
        }
    }
}

impl std::error::Error for MilpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MilpError::InvalidBounds {
            name: "x".into(),
            lower: 2.0,
            upper: 1.0,
        };
        assert!(e.to_string().contains('x'));
        assert!(MilpError::Infeasible.to_string().contains("infeasible"));
        assert!(MilpError::Unbounded.to_string().contains("unbounded"));
        assert!(MilpError::MissingObjective
            .to_string()
            .contains("objective"));
        assert!(MilpError::IterationLimit { spent: 3 }
            .to_string()
            .contains('3'));
        assert!(MilpError::UnknownVariable {
            index: 7,
            model_vars: 2
        }
        .to_string()
        .contains('7'));
        assert!(MilpError::NonFiniteCoefficient {
            context: "objective".into()
        }
        .to_string()
        .contains("objective"));
    }
}
