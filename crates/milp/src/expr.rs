//! Variables and linear expressions.
//!
//! A [`Var`] is a lightweight handle (index) into a [`crate::Model`]. A
//! [`LinExpr`] is a sparse linear combination of variables plus a constant
//! term, built with ordinary `+`, `-`, and `*` operators so that model
//! construction reads like the mathematical formulation in the paper.
//!
//! The terms are one `Vec<(index, coefficient)>` kept sorted by index with
//! duplicates merged — the form a constraint row has inside the solver, so
//! [`crate::Model::add_constraint`] moves the vector into the row it solves.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A handle to a decision variable in a [`crate::Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The handle of the `index`-th variable added to a model, for callers
    /// that lay their variables out arithmetically (`job * regions + region`)
    /// instead of keeping the handles [`crate::Model::add_var`] returned.
    /// An index the model does not own is rejected when the model is solved
    /// ([`crate::MilpError::UnknownVariable`]).
    pub fn from_index(index: usize) -> Self {
        Var(index)
    }

    /// The variable's index within its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A sparse linear expression: `Σ coeff_i · var_i + constant`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LinExpr {
    /// `(variable index, coefficient)` pairs, sorted by index, one per
    /// variable.
    terms: Vec<(usize, f64)>,
    /// Constant offset.
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The zero expression with room for `terms` terms, so that a row built
    /// with [`LinExpr::add_term`] allocates once.
    pub fn with_capacity(terms: usize) -> Self {
        Self {
            terms: Vec::with_capacity(terms),
            constant: 0.0,
        }
    }

    /// A constant expression.
    pub fn constant(value: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// A single-term expression `coeff * var`.
    pub fn term(var: Var, coeff: f64) -> Self {
        let mut expr = Self::zero();
        expr.add_term(var, coeff);
        expr
    }

    /// Add `coeff * var` to this expression in place. A coefficient that
    /// cancels to exactly zero drops its term. Appending in ascending index
    /// order is O(1); anything else is a binary search plus a shift.
    pub fn add_term(&mut self, var: Var, coeff: f64) {
        let index = var.0;
        let at = match self.terms.last() {
            Some(&(last, _)) if last >= index => {
                self.terms.binary_search_by_key(&index, |&(i, _)| i)
            }
            _ => Err(self.terms.len()),
        };
        match at {
            Ok(pos) => {
                self.terms[pos].1 += coeff;
                if self.terms[pos].1 == 0.0 {
                    self.terms.remove(pos);
                }
            }
            Err(pos) if coeff != 0.0 => self.terms.insert(pos, (index, coeff)),
            Err(_) => {}
        }
    }

    /// Add a constant in place.
    pub fn add_constant(&mut self, value: f64) {
        self.constant += value;
    }

    /// The constant term.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// The coefficient of `var` (0 if absent).
    pub fn coefficient(&self, var: Var) -> f64 {
        match self.terms.binary_search_by_key(&var.0, |&(i, _)| i) {
            Ok(pos) => self.terms[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Iterate `(variable index, coefficient)` pairs in index order.
    pub fn iter_terms(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Number of non-zero terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if there are no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Largest variable index referenced, if any.
    pub fn max_var_index(&self) -> Option<usize> {
        self.terms.last().map(|&(i, _)| i)
    }

    /// `true` if every coefficient and the constant are finite.
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.iter().all(|(_, c)| c.is_finite())
    }

    /// Evaluate the expression at a point given by a dense value vector.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.constant + evaluate_terms(&self.terms, values)
    }

    /// Sum a sequence of expressions.
    pub fn sum(exprs: impl IntoIterator<Item = LinExpr>) -> LinExpr {
        let mut acc = LinExpr::zero();
        for e in exprs {
            acc += e;
        }
        acc
    }

    /// The sorted term list and the constant, moved out.
    pub(crate) fn into_parts(self) -> (Vec<(usize, f64)>, f64) {
        (self.terms, self.constant)
    }
}

/// `Σ coeff · values[index]` over a term list (a missing value reads as 0).
pub(crate) fn evaluate_terms(terms: &[(usize, f64)], values: &[f64]) -> f64 {
    terms
        .iter()
        .map(|&(i, c)| c * values.get(i).copied().unwrap_or(0.0))
        .sum::<f64>()
}

impl From<Var> for LinExpr {
    fn from(var: Var) -> Self {
        LinExpr::term(var, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(value: f64) -> Self {
        LinExpr::constant(value)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (i, c) in rhs.terms {
            self.add_term(Var(i), c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        *self += -rhs;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        if rhs == 0.0 {
            return LinExpr::zero();
        }
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

// --- Var operator sugar -------------------------------------------------

impl Add<Var> for Var {
    type Output = LinExpr;
    fn add(self, rhs: Var) -> LinExpr {
        LinExpr::from(self) + LinExpr::from(rhs)
    }
}

impl Add<LinExpr> for Var {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Add<Var> for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: Var) -> LinExpr {
        self + LinExpr::from(rhs)
    }
}

impl Sub<Var> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: Var) -> LinExpr {
        LinExpr::from(self) - LinExpr::from(rhs)
    }
}

impl Sub<Var> for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: Var) -> LinExpr {
        self - LinExpr::from(rhs)
    }
}

impl Mul<f64> for Var {
    type Output = LinExpr;
    fn mul(self, rhs: f64) -> LinExpr {
        LinExpr::term(self, rhs)
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var(i)
    }

    #[test]
    fn build_and_evaluate() {
        let e = v(0) * 2.0 + v(1) * 3.0 + 1.0;
        assert_eq!(e.coefficient(v(0)), 2.0);
        assert_eq!(e.coefficient(v(1)), 3.0);
        assert_eq!(e.constant_term(), 1.0);
        assert_eq!(e.evaluate(&[1.0, 2.0]), 2.0 + 6.0 + 1.0);
    }

    #[test]
    fn cancellation_removes_terms() {
        let e = v(0) * 2.0 + v(0) * -2.0;
        assert!(e.is_empty());
        assert_eq!(e.coefficient(v(0)), 0.0);
    }

    #[test]
    fn terms_stay_sorted_and_merged_in_any_insertion_order() {
        let mut e = LinExpr::with_capacity(4);
        for (i, c) in [(5, 1.0), (2, 2.0), (9, 3.0), (2, 0.5), (5, -1.0), (0, 0.0)] {
            e.add_term(v(i), c);
        }
        let (terms, constant) = e.into_parts();
        assert_eq!(terms, vec![(2, 2.5), (9, 3.0)]);
        assert_eq!(constant, 0.0);
        assert_eq!(Var::from_index(7), v(7));
    }

    #[test]
    fn subtraction_and_negation() {
        let e = (v(0) + v(1)) - v(1);
        assert_eq!(e.coefficient(v(0)), 1.0);
        assert_eq!(e.coefficient(v(1)), 0.0);
        let n = -(v(0) * 3.0 + 2.0);
        assert_eq!(n.coefficient(v(0)), -3.0);
        assert_eq!(n.constant_term(), -2.0);
    }

    #[test]
    fn scaling() {
        let e = (v(0) * 2.0 + 4.0) * 0.5;
        assert_eq!(e.coefficient(v(0)), 1.0);
        assert_eq!(e.constant_term(), 2.0);
        let z = (v(0) * 2.0) * 0.0;
        assert!(z.is_empty());
    }

    #[test]
    fn sum_of_expressions() {
        let total = LinExpr::sum((0..4).map(|i| v(i) * 1.0));
        assert_eq!(total.len(), 4);
        assert_eq!(total.evaluate(&[1.0, 1.0, 1.0, 1.0]), 4.0);
    }

    #[test]
    fn max_var_index_and_finiteness() {
        let e = v(3) * 1.0 + v(7) * 2.0;
        assert_eq!(e.max_var_index(), Some(7));
        assert!(e.is_finite());
        let bad = v(0) * f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn evaluate_with_short_value_vector_treats_missing_as_zero() {
        let e = v(5) * 2.0 + 1.0;
        assert_eq!(e.evaluate(&[0.0]), 1.0);
    }
}
