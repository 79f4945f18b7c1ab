//! Two-phase primal simplex with bounded variables.
//!
//! [`solve_with`] runs the sparse revised simplex of [`crate::sparse`]:
//! CSC column storage, a product-form eta basis with periodic
//! refactorization and devex pricing ([`PricingRule::Devex`]). Work per
//! iteration is proportional to the basis/eta sizes rather than to
//! `rows x cols`.
//!
//! [`solve_dense`] runs the original dense tableau over the same
//! standardization pipeline. No production path calls it: it is the
//! differential-testing oracle for the sparse solver.
//!
//! Shared pipeline:
//!
//! 1. **Presolve** — constraints mentioning a single variable are folded
//!    into that variable's bounds (the paper's per-edge minimum-volume
//!    constraints are all of this shape). The *reported* constraint count
//!    is taken from the model before presolve, matching how the paper
//!    counts constraints in Table 2.
//! 2. **Standardization** — every variable is shifted/mirrored/split to
//!    an internal variable with bounds `[0, u]` (`u` possibly infinite);
//!    every constraint becomes an equality via a slack. (The dense
//!    tableau additionally sign-normalizes rows so the right-hand side
//!    is nonnegative; the sparse solver keeps rows as formulated and
//!    signs each row's artificial instead.)
//! 3. **Phase 1** — artificial variables are added where a slack cannot
//!    serve as the initial basis and `sum(artificials)` is minimized;
//!    a positive optimum means the model is infeasible. Artificials are
//!    then clamped to `[0, 0]` so phase 2 can never re-activate them.
//! 4. **Phase 2** — the real objective is minimized with the
//!    bounded-variable pivoting rules (entering variables may rise from
//!    their lower bound or fall from their upper bound; the ratio test
//!    admits bound flips). Dantzig pricing is used until the objective
//!    stalls for [`STALL_LIMIT`] iterations, after which Bland's rule
//!    guarantees termination.

use crate::model::{ConstraintSense, Model, Sense};
use crate::solution::Solution;

/// Feasibility and reduced-cost tolerance of both backends.
pub(crate) const TOL: f64 = 1e-7;

/// Iterations without objective progress before pricing switches to
/// Bland's rule.
pub(crate) const STALL_LIMIT: u64 = 256;

/// Entering-variable pricing rule for the sparse solver. The dense
/// oracle ([`solve_dense`]) always prices by Dantzig's rule, so its
/// pivot sequence stays put.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PricingRule {
    /// Devex reference weights (Forrest-Goldfarb) with candidate-list
    /// partial pricing; reduced costs are maintained incrementally and
    /// the reference framework resets on each refactorization.
    #[default]
    Devex,
    /// Classic most-negative-reduced-cost pricing with a full sweep per
    /// iteration; kept as the pricing differential oracle.
    Dantzig,
}

/// Tuning knobs for [`solve_with`].
#[derive(Debug, Clone, Default)]
pub struct SimplexConfig {
    /// Hard cap on simplex iterations per phase; `None` derives a cap
    /// from the problem size.
    pub max_iters: Option<u64>,
    /// Entering-variable pricing for the sparse solver.
    pub pricing: PricingRule,
    /// Instrumentation handle: spans (`lp.solve`, `lp.phase1`,
    /// `lp.phase2`) and counters (`lp.pivots`, `lp.eta_refactors`,
    /// `lp.backend_chosen.sparse`, `lp.pricing.*`). Off by default — the
    /// default handle records nothing.
    pub obs: aqua_obs::Obs,
}

/// Outcome of a solve: status plus statistics.
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// The termination status (optimal solution, infeasible, ...).
    pub status: Status,
    /// Work statistics for benchmarking.
    pub stats: SolveStats,
}

/// Work statistics of one simplex run.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Total pivots + bound flips across both phases.
    pub iterations: u64,
    /// Rows in the standardized tableau (after presolve).
    pub rows: usize,
    /// Columns in the standardized tableau (structural + slack).
    pub cols: usize,
    /// Single-variable constraints folded into bounds by presolve.
    pub folded_constraints: usize,
}

/// Termination status of the LP solver.
#[derive(Debug, Clone)]
pub enum Status {
    /// An optimal solution was found.
    Optimal(Solution),
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration cap was hit before termination (numerically
    /// pathological input).
    IterationLimit,
}

impl Status {
    /// The solution if optimal.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Status::Optimal(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the status is optimal.
    pub fn is_optimal(&self) -> bool {
        matches!(self, Status::Optimal(_))
    }
}

/// Solves a model with the default configuration.
///
/// The model is validated first; structural errors (NaN, infinite
/// coefficients, inverted bounds) are reported as [`Status::Infeasible`]
/// with zero iterations — callers that need the distinction should call
/// [`Model::validate`] themselves.
///
/// # Examples
///
/// ```
/// use aqua_lp::{Model, Sense, solve};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var("x", 0.0, f64::INFINITY);
/// m.set_objective([(x, 1.0)]);
/// m.add_ge("floor", [(x, 1.0)], 3.0);
/// let sol = solve(&m).status.solution().unwrap().clone();
/// assert!((sol.value(x) - 3.0).abs() < 1e-6);
/// ```
pub fn solve(model: &Model) -> SolveOutput {
    solve_with(model, &SimplexConfig::default())
}

/// Solves a model with an explicit configuration. See [`solve`].
pub fn solve_with(model: &Model, config: &SimplexConfig) -> SolveOutput {
    if model.validate().is_err() {
        return infeasible();
    }
    let span = config.obs.span("lp.solve");
    let out = crate::sparse::solve_sparse(model, config);
    config.obs.add("lp.backend_chosen.sparse", 1);
    config.obs.add("lp.pivots", out.stats.iterations);
    span.end();
    out
}

/// Solves a model on the dense tableau, the differential-testing oracle
/// for [`solve_with`]. It shares presolve and standardization with the
/// sparse solver but always prices by Dantzig's rule (ignoring
/// [`SimplexConfig::pricing`]) and adds no counters; only its phase
/// spans reach `config.obs`. Validation failures report
/// [`Status::Infeasible`], as in [`solve`].
pub fn solve_dense(model: &Model, config: &SimplexConfig) -> SolveOutput {
    if model.validate().is_err() {
        return infeasible();
    }
    match Tableau::build(model, config) {
        Ok(mut t) => t.run(model),
        Err(BuildVerdict::Infeasible) => infeasible(),
    }
}

/// The zero-work [`Status::Infeasible`] outcome: the model failed
/// validation, or presolve already proved it infeasible.
pub(crate) fn infeasible() -> SolveOutput {
    SolveOutput {
        status: Status::Infeasible,
        stats: SolveStats::default(),
    }
}

// ---------------------------------------------------------------------
// Standardization
// ---------------------------------------------------------------------

pub(crate) enum BuildVerdict {
    Infeasible,
}

/// How a model variable maps onto internal column(s):
/// `x_model = offset + sign * x_col` (plus a second negated column for
/// free variables).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VarMap {
    pub(crate) col: usize,
    pub(crate) offset: f64,
    pub(crate) sign: f64,
    /// Second column for split (free) variables: `x = offset + x_col - x_neg`.
    pub(crate) neg_col: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColStatus {
    Basic,
    AtLower,
    AtUpper,
}

/// Presolve result: surviving constraint indices plus tightened bounds.
pub(crate) struct Presolved {
    /// Indices into `model.constraints()` of rows the solver keeps.
    pub(crate) kept: Vec<usize>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) folded: usize,
}

/// Folds single-variable constraints into variable bounds (shared by
/// both backends so they standardize identically).
pub(crate) fn presolve(model: &Model) -> Result<Presolved, BuildVerdict> {
    let n = model.num_vars();
    let mut lb: Vec<f64> = (0..n).map(|i| model.vars[i].lb).collect();
    let mut ub: Vec<f64> = (0..n).map(|i| model.vars[i].ub).collect();
    let mut kept = Vec::new();
    let mut folded = 0usize;
    for (ci, c) in model.constraints().iter().enumerate() {
        let terms = c.expr.terms();
        match terms.len() {
            0 => {
                let ok = match c.sense {
                    ConstraintSense::Le => 0.0 <= c.rhs + TOL,
                    ConstraintSense::Ge => 0.0 >= c.rhs - TOL,
                    ConstraintSense::Eq => c.rhs.abs() <= TOL,
                };
                if !ok {
                    return Err(BuildVerdict::Infeasible);
                }
                folded += 1;
            }
            1 => {
                let (v, a) = terms[0];
                let i = v.index();
                let bound = c.rhs / a;
                // a*x <= rhs  =>  x <= bound (a>0) or x >= bound (a<0)
                let tighten_le = |ub: &mut f64| *ub = ub.min(bound);
                let tighten_ge = |lb: &mut f64| *lb = lb.max(bound);
                match (c.sense, a > 0.0) {
                    (ConstraintSense::Le, true) | (ConstraintSense::Ge, false) => {
                        tighten_le(&mut ub[i])
                    }
                    (ConstraintSense::Le, false) | (ConstraintSense::Ge, true) => {
                        tighten_ge(&mut lb[i])
                    }
                    (ConstraintSense::Eq, _) => {
                        tighten_le(&mut ub[i]);
                        tighten_ge(&mut lb[i]);
                    }
                }
                folded += 1;
            }
            _ => kept.push(ci),
        }
    }
    for i in 0..n {
        if lb[i] > ub[i] + TOL {
            return Err(BuildVerdict::Infeasible);
        }
        // Numerical cross-over from folding: clamp.
        if lb[i] > ub[i] {
            ub[i] = lb[i];
        }
    }
    Ok(Presolved {
        kept,
        lb,
        ub,
        folded,
    })
}

/// Maps model variables to internal columns with bounds `[0, u]`.
/// Returns `(maps, upper-per-structural-column, structural columns)`.
pub(crate) fn build_var_maps(lb: &[f64], ub: &[f64]) -> (Vec<VarMap>, Vec<f64>, usize) {
    let mut var_maps = Vec::with_capacity(lb.len());
    let mut upper = Vec::new();
    let mut next_col = 0usize;
    for (&l, &u) in lb.iter().zip(ub) {
        let map = if l.is_finite() {
            upper.push(u - l); // may be INFINITY
            let m = VarMap {
                col: next_col,
                offset: l,
                sign: 1.0,
                neg_col: None,
            };
            next_col += 1;
            m
        } else if u.is_finite() {
            // Mirror: x = u - x'
            upper.push(f64::INFINITY);
            let m = VarMap {
                col: next_col,
                offset: u,
                sign: -1.0,
                neg_col: None,
            };
            next_col += 1;
            m
        } else {
            // Free: x = x+ - x-
            upper.push(f64::INFINITY);
            upper.push(f64::INFINITY);
            let m = VarMap {
                col: next_col,
                offset: 0.0,
                sign: 1.0,
                neg_col: Some(next_col + 1),
            };
            next_col += 2;
            m
        };
        var_maps.push(map);
    }
    (var_maps, upper, next_col)
}

/// Internal minimization costs per structural column (sign-adjusted for
/// the model's optimization direction and each column's mapping).
pub(crate) fn internal_costs(model: &Model, var_maps: &[VarMap], ncols: usize) -> Vec<f64> {
    let mut cost = vec![0.0; ncols];
    let obj_sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    for &(v, c) in model.objective().terms() {
        let map = var_maps[v.index()];
        cost[map.col] += obj_sign * c * map.sign;
        if let Some(ncol) = map.neg_col {
            cost[ncol] -= obj_sign * c;
        }
    }
    cost
}

struct Tableau {
    /// Dense `rows x cols` matrix `B^-1 A` (row-major).
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Current values of basic variables, one per row.
    beta: Vec<f64>,
    /// Column index basic in each row.
    basic: Vec<usize>,
    status: Vec<ColStatus>,
    /// Internal upper bound (span) per column; lower bound is always 0.
    upper: Vec<f64>,
    /// Phase-2 cost per column (internal minimization).
    cost: Vec<f64>,
    /// Reduced-cost row (for the current phase).
    d: Vec<f64>,
    /// First artificial column, if any.
    art_start: usize,
    var_maps: Vec<VarMap>,
    config: SimplexConfig,
    stats: SolveStats,
}

impl Tableau {
    fn build(model: &Model, config: &SimplexConfig) -> Result<Tableau, BuildVerdict> {
        // --- Presolve + variable mapping (shared with the sparse backend). ---
        let pre = presolve(model)?;
        let (var_maps, mut upper, nstruct) = build_var_maps(&pre.lb, &pre.ub);
        let folded = pre.folded;
        let kept_rows: Vec<&crate::model::Constraint> = pre
            .kept
            .iter()
            .map(|&ci| &model.constraints()[ci])
            .collect();
        let m_rows = kept_rows.len();

        // --- Assemble rows (structural part + slack), rhs-normalized. ---
        // Columns: [0, nstruct) structural, [nstruct, nstruct+m) slack
        // (one per row; unused entries stay zero for Eq rows),
        // [art_start, ..) artificials for rows whose slack cannot start
        // basic.
        let nslack = m_rows;
        let pre_art_cols = nstruct + nslack;
        let mut dense: Vec<Vec<f64>> = Vec::with_capacity(m_rows);
        let mut rhs = Vec::with_capacity(m_rows);
        let mut needs_artificial = Vec::with_capacity(m_rows);
        for (r, c) in kept_rows.iter().enumerate() {
            let mut row = vec![0.0; pre_art_cols];
            let mut b = c.rhs;
            for &(v, coeff) in c.expr.terms() {
                let map = var_maps[v.index()];
                b -= coeff * map.offset;
                row[map.col] += coeff * map.sign;
                if let Some(ncol) = map.neg_col {
                    row[ncol] -= coeff;
                }
            }
            // Slack: Le -> +1, Ge -> -1, Eq -> none.
            let slack_coeff = match c.sense {
                ConstraintSense::Le => 1.0,
                ConstraintSense::Ge => -1.0,
                ConstraintSense::Eq => 0.0,
            };
            let mut scoef = slack_coeff;
            if b < 0.0 {
                for x in row.iter_mut() {
                    *x = -*x;
                }
                b = -b;
                scoef = -scoef;
            }
            if scoef != 0.0 {
                row[nstruct + r] = scoef;
            }
            // Slack can start basic only with +1 coefficient.
            needs_artificial.push(scoef <= 0.0);
            dense.push(row);
            rhs.push(b);
        }
        let n_art = needs_artificial.iter().filter(|&&x| x).count();
        let cols = pre_art_cols + n_art;

        // Flatten, adding artificial columns.
        let mut a = vec![0.0; m_rows * cols];
        let mut basic = vec![usize::MAX; m_rows];
        let mut art_next = pre_art_cols;
        for (r, row) in dense.into_iter().enumerate() {
            a[r * cols..r * cols + pre_art_cols].copy_from_slice(&row);
            if needs_artificial[r] {
                a[r * cols + art_next] = 1.0;
                basic[r] = art_next;
                art_next += 1;
            } else {
                basic[r] = nstruct + r;
            }
        }

        // Bounds for slack & artificial columns.
        upper.resize(nstruct, 0.0); // ensure len == nstruct (it already is)
        upper.extend(std::iter::repeat_n(f64::INFINITY, nslack));
        upper.extend(std::iter::repeat_n(f64::INFINITY, n_art));

        // Phase-2 costs (internal minimization).
        let cost = internal_costs(model, &var_maps, cols);

        let mut status = vec![ColStatus::AtLower; cols];
        for &b in &basic {
            status[b] = ColStatus::Basic;
        }

        let stats = SolveStats {
            iterations: 0,
            rows: m_rows,
            cols: pre_art_cols,
            folded_constraints: folded,
        };

        Ok(Tableau {
            a,
            rows: m_rows,
            cols,
            beta: rhs,
            basic,
            status,
            upper,
            cost,
            d: vec![0.0; cols],
            art_start: pre_art_cols,
            var_maps,
            config: config.clone(),
            stats,
        })
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    /// Recomputes the reduced-cost row `d = c - c_B^T (B^-1 A)` for the
    /// given per-column cost vector.
    fn recompute_reduced_costs(&mut self, costs: &[f64]) {
        self.d.copy_from_slice(costs);
        for r in 0..self.rows {
            let cb = costs[self.basic[r]];
            if cb != 0.0 {
                let row = &self.a[r * self.cols..(r + 1) * self.cols];
                for (dj, &arj) in self.d.iter_mut().zip(row) {
                    *dj -= cb * arj;
                }
            }
        }
    }

    /// Current value of the phase objective `sum(costs_j * x_j)`.
    fn phase_objective(&self, costs: &[f64]) -> f64 {
        let mut obj = 0.0;
        for r in 0..self.rows {
            obj += costs[self.basic[r]] * self.beta[r];
        }
        for (j, &cost) in costs.iter().enumerate() {
            if self.status[j] == ColStatus::AtUpper {
                obj += cost * self.upper[j];
            }
        }
        obj
    }

    fn iteration_cap(&self) -> u64 {
        self.config
            .max_iters
            .unwrap_or(50_000 + 50 * (self.rows as u64 + self.cols as u64))
    }

    /// Runs simplex iterations until optimal/unbounded/limit for the
    /// current reduced costs. Returns the termination kind.
    fn iterate(&mut self, costs: &[f64], phase1: bool) -> IterEnd {
        let cap = self.iteration_cap();
        let mut local_iters: u64 = 0;
        let mut bland = false;
        let mut stall: u64 = 0;
        let mut best_obj = f64::INFINITY;
        loop {
            if local_iters >= cap {
                return IterEnd::IterationLimit;
            }
            // --- Pricing ---
            let mut entering: Option<usize> = None;
            let mut best_score = TOL;
            for j in 0..self.cols {
                if self.status[j] == ColStatus::Basic || self.upper[j] <= 0.0 {
                    continue;
                }
                if phase1 && j >= self.art_start && self.status[j] != ColStatus::Basic {
                    // Nonbasic artificials never re-enter in phase 1.
                    continue;
                }
                let dj = self.d[j];
                let score = match self.status[j] {
                    ColStatus::AtLower => -dj,
                    ColStatus::AtUpper => dj,
                    ColStatus::Basic => unreachable!(),
                };
                if score > best_score {
                    entering = Some(j);
                    if bland {
                        break; // smallest index wins
                    }
                    best_score = score;
                }
            }
            let Some(jin) = entering else {
                return IterEnd::Optimal;
            };
            let sigma = if self.status[jin] == ColStatus::AtLower {
                1.0
            } else {
                -1.0
            };

            // --- Ratio test ---
            let mut tmax = self.upper[jin]; // bound-flip limit (may be INF)
            let mut leaving: Option<(usize, ColStatus)> = None; // (row, bound it hits)
            let mut leave_pivot = 0.0f64;
            for r in 0..self.rows {
                let arj = self.at(r, jin);
                let change = sigma * arj; // basic value changes by -t*change
                if change > TOL {
                    let limit = (self.beta[r].max(0.0)) / change;
                    if limit < tmax - 1e-12
                        || (limit < tmax + 1e-12 && better_leaving(arj, leave_pivot, bland))
                    {
                        tmax = limit.max(0.0);
                        leaving = Some((r, ColStatus::AtLower));
                        leave_pivot = arj;
                    }
                } else if change < -TOL {
                    let ub = self.upper[self.basic[r]];
                    if ub.is_finite() {
                        let limit = (ub - self.beta[r]).max(0.0) / (-change);
                        if limit < tmax - 1e-12
                            || (limit < tmax + 1e-12 && better_leaving(arj, leave_pivot, bland))
                        {
                            tmax = limit.max(0.0);
                            leaving = Some((r, ColStatus::AtUpper));
                            leave_pivot = arj;
                        }
                    }
                }
            }
            if tmax.is_infinite() {
                return IterEnd::Unbounded;
            }

            local_iters += 1;
            self.stats.iterations += 1;

            match leaving {
                None => {
                    // Bound flip of the entering variable.
                    let t = self.upper[jin];
                    for r in 0..self.rows {
                        let arj = self.at(r, jin);
                        if arj != 0.0 {
                            self.beta[r] -= sigma * t * arj;
                        }
                    }
                    self.status[jin] = match self.status[jin] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        ColStatus::Basic => unreachable!(),
                    };
                }
                Some((r, hit_bound)) => {
                    let t = tmax;
                    // Update basic values.
                    let entering_value = match self.status[jin] {
                        ColStatus::AtLower => sigma * t,
                        ColStatus::AtUpper => self.upper[jin] + sigma * t,
                        ColStatus::Basic => unreachable!(),
                    };
                    for i in 0..self.rows {
                        if i != r {
                            let aij = self.at(i, jin);
                            if aij != 0.0 {
                                self.beta[i] -= sigma * t * aij;
                            }
                        }
                    }
                    let jout = self.basic[r];
                    self.beta[r] = entering_value;
                    self.status[jout] = hit_bound;
                    self.status[jin] = ColStatus::Basic;
                    self.basic[r] = jin;
                    self.pivot(r, jin);
                }
            }

            // --- Stall detection -> Bland's rule ---
            let obj = self.phase_objective(costs);
            if obj < best_obj - 1e-10 * (1.0 + best_obj.abs()) {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
                if stall > STALL_LIMIT {
                    bland = true;
                }
            }
        }
    }

    /// Gauss-Jordan pivot of tableau + reduced-cost row on `(r, jin)`.
    fn pivot(&mut self, r: usize, jin: usize) {
        let cols = self.cols;
        let p = self.a[r * cols + jin];
        debug_assert!(p.abs() > 1e-12, "pivot on near-zero element");
        let inv = 1.0 / p;
        // Normalize pivot row.
        {
            let row = &mut self.a[r * cols..(r + 1) * cols];
            for x in row.iter_mut() {
                *x *= inv;
            }
            row[jin] = 1.0;
        }
        // Eliminate from other rows.
        let (before, rest) = self.a.split_at_mut(r * cols);
        let (prow, after) = rest.split_at_mut(cols);
        for (chunk_set, row_offset) in [(before, 0usize), (after, r + 1)] {
            let _ = row_offset;
            for row in chunk_set.chunks_exact_mut(cols) {
                let factor = row[jin];
                if factor != 0.0 {
                    for (x, &pv) in row.iter_mut().zip(prow.iter()) {
                        *x -= factor * pv;
                    }
                    row[jin] = 0.0;
                }
            }
        }
        // Reduced-cost row.
        let factor = self.d[jin];
        if factor != 0.0 {
            for (x, &pv) in self.d.iter_mut().zip(prow.iter()) {
                *x -= factor * pv;
            }
            self.d[jin] = 0.0;
        }
    }

    fn run(&mut self, model: &Model) -> SolveOutput {
        // --- Phase 1 ---
        if self.art_start < self.cols {
            let _phase1 = self.config.obs.span("lp.phase1");
            let mut phase1_cost = vec![0.0; self.cols];
            for c in phase1_cost.iter_mut().skip(self.art_start) {
                *c = 1.0;
            }
            self.recompute_reduced_costs(&phase1_cost);
            match self.iterate(&phase1_cost, true) {
                IterEnd::Optimal => {}
                IterEnd::Unbounded => {
                    // Phase 1 objective is bounded below by zero; reaching
                    // here means numerical trouble.
                    return self.finish(Status::IterationLimit);
                }
                IterEnd::IterationLimit => return self.finish(Status::IterationLimit),
            }
            let infeas = self.phase_objective(&phase1_cost);
            if infeas > TOL * (1.0 + self.rows as f64) {
                return self.finish(Status::Infeasible);
            }
            // Clamp artificials to zero so they can never re-activate.
            for j in self.art_start..self.cols {
                self.upper[j] = 0.0;
            }
        }

        // --- Phase 2 ---
        let _phase2 = self.config.obs.span("lp.phase2");
        let phase2_cost = self.cost.clone();
        self.recompute_reduced_costs(&phase2_cost);
        let end = self.iterate(&phase2_cost, false);
        match end {
            IterEnd::Optimal => {
                let values = self.extract(model);
                let objective = model.objective().eval(&values);
                self.finish(Status::Optimal(Solution { objective, values }))
            }
            IterEnd::Unbounded => self.finish(Status::Unbounded),
            IterEnd::IterationLimit => self.finish(Status::IterationLimit),
        }
    }

    /// Reconstructs model-space variable values from the internal state.
    fn extract(&self, model: &Model) -> Vec<f64> {
        let mut internal = vec![0.0; self.cols];
        for (j, x) in internal.iter_mut().enumerate() {
            if self.status[j] == ColStatus::AtUpper && self.upper[j].is_finite() {
                *x = self.upper[j];
            }
        }
        for r in 0..self.rows {
            internal[self.basic[r]] = self.beta[r];
        }
        let mut values = vec![0.0; model.num_vars()];
        for (i, map) in self.var_maps.iter().enumerate() {
            let mut v = map.offset + map.sign * internal[map.col];
            if let Some(ncol) = map.neg_col {
                v -= internal[ncol];
            }
            values[i] = v;
        }
        values
    }

    fn finish(&mut self, status: Status) -> SolveOutput {
        SolveOutput {
            status,
            stats: self.stats.clone(),
        }
    }
}

/// Tie-break for the leaving row: prefer larger pivot magnitude for
/// stability; under Bland's rule any deterministic choice terminates, and
/// keeping the first-seen minimum-ratio row is deterministic.
pub(crate) fn better_leaving(candidate_pivot: f64, current_pivot: f64, bland: bool) -> bool {
    if bland {
        false
    } else {
        candidate_pivot.abs() > current_pivot.abs()
    }
}

pub(crate) enum IterEnd {
    Optimal,
    Unbounded,
    IterationLimit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    /// Every test model goes through both solvers: the sparse one is
    /// what callers get, the dense tableau is its oracle.
    fn solve(m: &Model) -> SolveOutput {
        let sparse = super::solve(m);
        let dense = solve_dense(m, &SimplexConfig::default());
        match (&sparse.status, &dense.status) {
            (Status::Optimal(a), Status::Optimal(b)) => assert!(
                (a.objective - b.objective).abs() < 1e-6 * (1.0 + b.objective.abs()),
                "sparse {} vs dense {}",
                a.objective,
                b.objective
            ),
            (a, b) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "sparse {a:?} vs dense {b:?}"
            ),
        }
        sparse
    }

    fn optimal(out: &SolveOutput) -> &Solution {
        match &out.status {
            Status::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_max_problem() {
        // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Dantzig).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 3.0), (y, 5.0)]);
        m.add_le("c1", [(x, 1.0)], 4.0);
        m.add_le("c2", [(y, 2.0)], 12.0);
        m.add_le("c3", [(x, 3.0), (y, 2.0)], 18.0);
        let out = solve(&m);
        let s = optimal(&out);
        assert!((s.objective - 36.0).abs() < 1e-6);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_rows_uses_phase1() {
        // minimize 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 2.0), (y, 3.0)]);
        m.add_ge("sum", [(x, 1.0), (y, 1.0)], 10.0);
        m.add_ge("minx", [(x, 1.0)], 2.0);
        m.add_ge("miny", [(y, 1.0)], 3.0);
        let out = solve(&m);
        let s = optimal(&out);
        // Cheapest: push x as high as possible => x=7, y=3 => 14+9=23.
        assert!((s.objective - 23.0).abs() < 1e-6, "obj={}", s.objective);
        assert!(s.is_feasible_for(&m, 1e-6));
    }

    #[test]
    fn equality_constraints() {
        // maximize x + y s.t. x + 2y = 4, x - y = 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_eq("e1", [(x, 1.0), (y, 2.0)], 4.0);
        m.add_eq("e2", [(x, 1.0), (y, -1.0)], 1.0);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.add_le("hi", [(x, 1.0)], 1.0);
        m.add_ge("lo", [(x, 1.0)], 2.0);
        assert!(matches!(solve(&m).status, Status::Infeasible));
    }

    #[test]
    fn detects_infeasible_via_bounds_presolve() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0);
        m.add_ge("lo", [(x, 1.0)], 2.0); // folded into lb=2 > ub=1
        assert!(matches!(solve(&m).status, Status::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0)]);
        m.add_ge("lo", [(x, 1.0)], 1.0);
        assert!(matches!(solve(&m).status, Status::Unbounded));
    }

    #[test]
    fn bounded_variables_flip_to_upper() {
        // maximize x + y with only bounds; no constraints at all.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.0);
        let y = m.add_var("y", 1.0, 3.0);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) - 2.0).abs() < 1e-9);
        assert!((s.value(y) - 3.0).abs() < 1e-9);
        assert!((s.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // minimize x s.t. x >= -5 (shifted variable).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", -5.0, 5.0);
        m.set_objective([(x, 1.0)]);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) + 5.0).abs() < 1e-9);
    }

    #[test]
    fn free_variable_split() {
        // minimize |ish|: min x s.t. x >= -7 expressed via free var + row.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective([(x, 1.0)]);
        m.add_ge("floor", [(x, 1.0)], -7.0);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) + 7.0).abs() < 1e-6, "x={}", s.value(x));
    }

    #[test]
    fn mirrored_variable() {
        // maximize x with x <= 9 and no lower bound.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, 9.0);
        m.set_objective([(x, 1.0)]);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (Beale's example shape).
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_var("x1", 0.0, f64::INFINITY);
        let x2 = m.add_var("x2", 0.0, f64::INFINITY);
        let x3 = m.add_var("x3", 0.0, f64::INFINITY);
        let x4 = m.add_var("x4", 0.0, f64::INFINITY);
        m.set_objective([(x1, -0.75), (x2, 150.0), (x3, -0.02), (x4, 6.0)]);
        m.add_le("r1", [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        m.add_le("r2", [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        m.add_le("r3", [(x3, 1.0)], 1.0);
        let out = solve(&m);
        let s = optimal(&out);
        assert!((s.objective - (-0.05)).abs() < 1e-6, "obj={}", s.objective);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y <= -2 with 0 <= x,y <= 10; maximize x.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        let y = m.add_var("y", 0.0, 10.0);
        m.set_objective([(x, 1.0)]);
        m.add_le("gap", [(x, 1.0), (y, -1.0)], -2.0);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) - 8.0).abs() < 1e-6);
        assert!(s.is_feasible_for(&m, 1e-6));
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 3.0, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(y, 1.0)]);
        m.add_le("c", [(x, 1.0), (y, 1.0)], 10.0);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) - 3.0).abs() < 1e-9);
        assert!((s.value(y) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn empty_objective_finds_feasible_point() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.add_eq("pin", [(x, 2.0)], 6.0);
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0)]);
        m.add_eq("e1", [(x, 1.0), (y, 1.0)], 4.0);
        m.add_eq("e2", [(x, 2.0), (y, 2.0)], 8.0); // redundant copy
        let s = optimal(&solve(&m)).clone();
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn stats_report_presolve_folding() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_le("only_x", [(x, 1.0)], 5.0); // folds
        m.add_le("both", [(x, 1.0), (y, 1.0)], 8.0); // row
        let out = solve(&m);
        assert_eq!(out.stats.folded_constraints, 1);
        assert_eq!(out.stats.rows, 1);
        assert!((optimal(&out).objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn nan_model_reports_infeasible_not_panic() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0);
        m.add_le("c", [(x, f64::NAN)], 1.0);
        assert!(matches!(solve(&m).status, Status::Infeasible));
    }
}
