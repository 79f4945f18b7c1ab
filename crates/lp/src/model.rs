//! LP/ILP model builder.

use std::error::Error;
use std::fmt;

use crate::expr::LinExpr;

/// Handle to a model variable.
///
/// Only valid for the [`Model`] that created it; using it with another
/// model is caught by [`Model::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Zero-based index of the variable in its model.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintSense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for ConstraintSense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintSense::Le => write!(f, "<="),
            ConstraintSense::Ge => write!(f, ">="),
            ConstraintSense::Eq => write!(f, "="),
        }
    }
}

/// One linear constraint of a [`Model`].
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Diagnostic label (shows up in infeasibility reports).
    pub name: String,
    /// The linear left-hand side.
    pub expr: LinExpr,
    /// Constraint direction.
    pub sense: ConstraintSense,
    /// The right-hand-side constant.
    pub rhs: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub integer: bool,
}

/// Error raised by model construction or validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A variable's lower bound exceeds its upper bound.
    InvertedBounds {
        /// Name of the offending variable.
        var: String,
        /// The lower bound.
        lb: f64,
        /// The upper bound.
        ub: f64,
    },
    /// A coefficient, bound, or right-hand side is NaN.
    NotANumber {
        /// Where the NaN was found.
        context: String,
    },
    /// A coefficient of the objective or of a constraint is infinite.
    InfiniteCoefficient {
        /// Where the coefficient was found.
        context: String,
    },
    /// A [`VarId`] does not belong to this model.
    UnknownVariable {
        /// The stray id's index.
        index: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvertedBounds { var, lb, ub } => {
                write!(f, "variable `{var}` has inverted bounds [{lb}, {ub}]")
            }
            ModelError::NotANumber { context } => write!(f, "NaN encountered in {context}"),
            ModelError::InfiniteCoefficient { context } => {
                write!(f, "infinite coefficient in {context}")
            }
            ModelError::UnknownVariable { index } => {
                write!(f, "variable id x{index} does not belong to this model")
            }
        }
    }
}

impl Error for ModelError {}

/// An LP/ILP model: variables with bounds, linear constraints, and a
/// linear objective.
///
/// # Examples
///
/// ```
/// use aqua_lp::{Model, Sense};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var("x", 1.0, 10.0);
/// m.set_objective([(x, 3.0)]);
/// m.add_ge("floor", [(x, 1.0)], 2.0);
/// assert_eq!(m.num_vars(), 1);
/// assert_eq!(m.num_constraints(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Model {
        Model {
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense,
        }
    }

    /// Adds a continuous variable with bounds `[lb, ub]` and returns its id.
    ///
    /// Use `f64::INFINITY` / `f64::NEG_INFINITY` for unbounded sides.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.vars.push(VarDef {
            name: name.into(),
            lb,
            ub,
            integer: false,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds an integer variable with bounds `[lb, ub]` and returns its id.
    ///
    /// Integrality is enforced only by [`crate::solve_ilp`]; the plain LP
    /// [`crate::solve`] treats it as continuous (the relaxation).
    pub fn add_int_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        let id = self.add_var(name, lb, ub);
        self.vars[id.0].integer = true;
        id
    }

    /// Marks an existing variable as integer.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn set_integer(&mut self, var: VarId) {
        self.vars[var.0].integer = true;
    }

    /// Replaces the objective with `sum(coeff * var)`.
    pub fn set_objective<I: IntoIterator<Item = (VarId, f64)>>(&mut self, terms: I) {
        self.objective = terms.into_iter().collect::<LinExpr>().compact();
    }

    /// Adds a `expr <= rhs` constraint.
    pub fn add_le<I: IntoIterator<Item = (VarId, f64)>>(
        &mut self,
        name: impl Into<String>,
        terms: I,
        rhs: f64,
    ) {
        self.add_constraint(name, terms, ConstraintSense::Le, rhs);
    }

    /// Adds a `expr >= rhs` constraint.
    pub fn add_ge<I: IntoIterator<Item = (VarId, f64)>>(
        &mut self,
        name: impl Into<String>,
        terms: I,
        rhs: f64,
    ) {
        self.add_constraint(name, terms, ConstraintSense::Ge, rhs);
    }

    /// Adds a `expr == rhs` constraint.
    pub fn add_eq<I: IntoIterator<Item = (VarId, f64)>>(
        &mut self,
        name: impl Into<String>,
        terms: I,
        rhs: f64,
    ) {
        self.add_constraint(name, terms, ConstraintSense::Eq, rhs);
    }

    /// Adds a constraint with an explicit sense.
    pub fn add_constraint<I: IntoIterator<Item = (VarId, f64)>>(
        &mut self,
        name: impl Into<String>,
        terms: I,
        sense: ConstraintSense,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            name: name.into(),
            expr: terms.into_iter().collect::<LinExpr>().compact(),
            sense,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// All variable ids, in creation (= [`VarId::index`]) order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId)
    }

    /// Number of constraints as formulated (before any solver presolve).
    ///
    /// This is the figure the paper reports in Table 2's "LP constraints"
    /// column, so it intentionally counts single-variable rows that the
    /// solver will fold into bounds.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraints as formulated.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// The bounds of a variable as `(lb, ub)`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_bounds(&self, var: VarId) -> (f64, f64) {
        (self.vars[var.0].lb, self.vars[var.0].ub)
    }

    /// Tightens (never loosens) a variable's bounds; used by branch-and-bound.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn tighten_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        let v = &mut self.vars[var.0];
        v.lb = v.lb.max(lb);
        v.ub = v.ub.min(ub);
    }

    /// Ids of all variables marked integer.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.integer)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Checks structural sanity: bounds ordered, no NaNs, finite
    /// coefficients, all variable ids in range.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] found.
    pub fn validate(&self) -> Result<(), ModelError> {
        for v in &self.vars {
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(ModelError::NotANumber {
                    context: format!("bounds of `{}`", v.name),
                });
            }
            if v.lb > v.ub {
                return Err(ModelError::InvertedBounds {
                    var: v.name.clone(),
                    lb: v.lb,
                    ub: v.ub,
                });
            }
        }
        let check_expr = |expr: &LinExpr, what: &str| -> Result<(), ModelError> {
            for &(v, c) in expr.terms() {
                if v.0 >= self.vars.len() {
                    return Err(ModelError::UnknownVariable { index: v.0 });
                }
                if c.is_nan() {
                    return Err(ModelError::NotANumber {
                        context: what.to_owned(),
                    });
                }
                if c.is_infinite() {
                    return Err(ModelError::InfiniteCoefficient {
                        context: what.to_owned(),
                    });
                }
            }
            Ok(())
        };
        check_expr(&self.objective, "objective")?;
        for c in &self.constraints {
            check_expr(&c.expr, &format!("constraint `{}`", c.name))?;
            if c.rhs.is_nan() {
                return Err(ModelError::NotANumber {
                    context: format!("rhs of `{}`", c.name),
                });
            }
        }
        Ok(())
    }

    /// Checks whether a candidate point satisfies all constraints and
    /// bounds within `tol`. Useful for tests and for auditing solutions.
    pub fn is_feasible(&self, point: &[f64], tol: f64) -> bool {
        if point.len() != self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            if point[i] < v.lb - tol || point[i] > v.ub + tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs = c.expr.eval(point);
            match c.sense {
                ConstraintSense::Le => lhs <= c.rhs + tol,
                ConstraintSense::Ge => lhs >= c.rhs - tol,
                ConstraintSense::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

impl fmt::Display for Model {
    /// Renders the model in an LP-file-like textual form, handy for
    /// debugging formulation bugs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sense {
            Sense::Maximize => writeln!(f, "maximize")?,
            Sense::Minimize => writeln!(f, "minimize")?,
        }
        write!(f, " ")?;
        for &(v, c) in self.objective.terms() {
            write!(f, " {c:+}*{}", self.vars[v.0].name)?;
        }
        writeln!(f)?;
        writeln!(f, "subject to")?;
        for c in &self.constraints {
            write!(f, "  {}:", c.name)?;
            for &(v, coeff) in c.expr.terms() {
                write!(f, " {coeff:+}*{}", self.vars[v.0].name)?;
            }
            writeln!(f, " {} {}", c.sense, c.rhs)?;
        }
        writeln!(f, "bounds")?;
        for v in &self.vars {
            writeln!(
                f,
                "  {} <= {} <= {}{}",
                v.lb,
                v.name,
                v.ub,
                if v.integer { "  (integer)" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0);
        let y = m.add_int_var("y", 0.0, 5.0);
        m.add_le("c0", [(x, 1.0), (y, 1.0)], 3.0);
        m.add_eq("c1", [(y, 2.0)], 4.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 2);
        assert_eq!(m.integer_vars(), vec![y]);
        assert_eq!(m.var_name(x), "x");
    }

    #[test]
    fn validate_catches_inverted_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("bad", 2.0, 1.0);
        assert!(matches!(
            m.validate(),
            Err(ModelError::InvertedBounds { .. })
        ));
    }

    #[test]
    fn validate_catches_nan() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0);
        m.add_le("c", [(x, f64::NAN)], 1.0);
        assert!(matches!(m.validate(), Err(ModelError::NotANumber { .. })));
    }

    #[test]
    fn validate_catches_infinite_coefficients() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.add_le("c", [(x, f64::NEG_INFINITY)], 1.0);
        assert!(matches!(
            m.validate(),
            Err(ModelError::InfiniteCoefficient { .. })
        ));
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0);
        m.set_objective([(x, f64::INFINITY)]);
        assert!(matches!(
            m.validate(),
            Err(ModelError::InfiniteCoefficient { .. })
        ));
    }

    #[test]
    fn validate_catches_stray_var() {
        let mut m1 = Model::new(Sense::Minimize);
        let mut m2 = Model::new(Sense::Minimize);
        m1.add_var("x", 0.0, 1.0);
        let x1 = m1.add_var("y", 0.0, 1.0);
        m2.add_le("c", [(x1, 1.0)], 1.0); // x1 is index 1, m2 has 0 vars
        assert!(matches!(
            m2.validate(),
            Err(ModelError::UnknownVariable { index: 1 })
        ));
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        let y = m.add_var("y", 0.0, 10.0);
        m.add_le("sum", [(x, 1.0), (y, 1.0)], 5.0);
        m.add_ge("min_x", [(x, 1.0)], 1.0);
        assert!(m.is_feasible(&[1.0, 4.0], 1e-9));
        assert!(!m.is_feasible(&[0.5, 1.0], 1e-9)); // violates min_x
        assert!(!m.is_feasible(&[3.0, 3.0], 1e-9)); // violates sum
        assert!(!m.is_feasible(&[3.0], 1e-9)); // wrong arity
    }

    #[test]
    fn tighten_bounds_never_loosens() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 1.0, 5.0);
        m.tighten_bounds(x, 0.0, 4.0);
        assert_eq!(m.var_bounds(x), (1.0, 4.0));
        m.tighten_bounds(x, 2.0, 10.0);
        assert_eq!(m.var_bounds(x), (2.0, 4.0));
    }

    #[test]
    fn display_is_nonempty() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0);
        m.set_objective([(x, 1.0)]);
        m.add_le("c", [(x, 1.0)], 1.0);
        let text = m.to_string();
        assert!(text.contains("maximize"));
        assert!(text.contains("c:"));
    }
}
