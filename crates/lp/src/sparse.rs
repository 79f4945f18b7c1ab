//! Sparse revised simplex: CSC column storage, a product-form eta basis
//! ([`crate::basis`]), and warm-started re-solves for branch-and-bound.
//!
//! The dense tableau of [`crate::simplex`] updates `B^-1 A` in full on
//! every pivot — `O(rows x cols)` per iteration, which is what makes the
//! paper's Enzyme10 LP slow. The revised method keeps only the original
//! columns (sparse) plus a factorization of the current basis, and per
//! iteration does one BTRAN, one pricing sweep over the nonzeros, and
//! one FTRAN — `O(nnz + m + eta file)`.
//!
//! Differences from the dense standardization that make warm starts
//! possible:
//!
//! * rows are **not** sign-normalized (the matrix is then independent of
//!   the variable bounds, so a parent and a bound-tightened child in
//!   branch-and-bound share the exact same column structure);
//! * artificial variables are **virtual**: one per row, never stored,
//!   materialized as `±e_r` on the fly with the sign chosen per solve
//!   from the right-hand side. Column numbering therefore never shifts.
//!
//! Warm starts: [`solve_sparse`] accepts the optimal basis of a previous
//! solve of a bound-tightened variant of the same model. The parent's
//! optimal basis stays *dual* feasible when only bounds change, so a
//! bounded-variable dual simplex restores primal feasibility in a few
//! pivots, followed by a primal phase-2 cleanup. Any incompatibility or
//! numerical trouble falls back to a cold start — never to a wrong
//! answer.

use crate::basis::EtaBasis;
use crate::model::{ConstraintSense, Model};
use crate::simplex::{
    better_leaving, build_var_maps, internal_costs, presolve, BuildVerdict, ColStatus, IterEnd,
    PricingRule, SimplexConfig, SolveOutput, SolveStats, Status, VarMap,
};
use crate::solution::Solution;

// ---------------------------------------------------------------------
// CSC storage
// ---------------------------------------------------------------------

/// Compressed sparse column matrix.
#[derive(Debug, Clone)]
pub(crate) struct CscMatrix {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// Builds from `(col, row, value)` triplets; rows within a column
    /// keep their triplet order.
    pub(crate) fn from_triplets(cols: usize, triplets: &[(usize, usize, f64)]) -> CscMatrix {
        let mut col_ptr = vec![0usize; cols + 1];
        for &(c, _, _) in triplets {
            col_ptr[c + 1] += 1;
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0usize; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        for &(c, r, v) in triplets {
            let slot = next[c];
            row_idx[slot] = r;
            vals[slot] = v;
            next[c] += 1;
        }
        CscMatrix {
            col_ptr,
            row_idx,
            vals,
        }
    }

    /// Nonzeros of column `j` as `(row, value)` pairs.
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.vals[range].iter().copied())
    }

    pub(crate) fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone)]
pub(crate) struct CsrMatrix {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from `(col, row, value)` triplets already in row order;
    /// columns within a row keep their triplet order.
    fn from_row_major(rows: usize, triplets: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut row_ptr = vec![0usize; rows + 1];
        for &(_, r, _) in triplets {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        debug_assert!(triplets.windows(2).all(|w| w[0].1 <= w[1].1));
        CsrMatrix {
            row_ptr,
            col_idx: triplets.iter().map(|t| t.0).collect(),
            vals: triplets.iter().map(|t| t.2).collect(),
        }
    }

    /// Nonzeros of row `i` as `(col, value)` pairs.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.vals[range].iter().copied())
    }
}

// ---------------------------------------------------------------------
// Standard form (shared presolve + mapping, bound-independent matrix)
// ---------------------------------------------------------------------

/// The model in internal standard form for the revised simplex.
pub(crate) struct Standardized {
    /// Rows after presolve.
    m: usize,
    /// First artificial column (== structural + slack columns; the CSC
    /// matrix covers exactly `[0, art_start)`).
    art_start: usize,
    /// Total columns including the `m` virtual artificials.
    ncols: usize,
    csc: CscMatrix,
    /// The same matrix row by row; see [`Revised::pivot_row`].
    rows: CsrMatrix,
    /// Right-hand side after offset shifting. *Signed* — rows are not
    /// normalized.
    b: Vec<f64>,
    /// Upper bound (span) per real column; lower bounds are all 0.
    upper: Vec<f64>,
    /// Phase-2 internal minimization cost per real column.
    cost: Vec<f64>,
    /// Slack coefficient per row: `+1` for `<=`, `-1` for `>=`, `0` for `=`.
    slack: Vec<f64>,
    var_maps: Vec<VarMap>,
    folded: usize,
}

impl Standardized {
    fn build(model: &Model, tol: f64) -> Result<Standardized, BuildVerdict> {
        let pre = presolve(model, tol)?;
        let (var_maps, mut upper, nstruct) = build_var_maps(&pre.lb, &pre.ub);
        let m = pre.kept.len();
        let art_start = nstruct + m;

        let mut triplets = Vec::new();
        let mut b = Vec::with_capacity(m);
        let mut slack = Vec::with_capacity(m);
        for (r, &ci) in pre.kept.iter().enumerate() {
            let c = &model.constraints()[ci];
            let mut rhs = c.rhs;
            for &(v, coeff) in c.expr.terms() {
                let map = var_maps[v.index()];
                rhs -= coeff * map.offset;
                if coeff * map.sign != 0.0 {
                    triplets.push((map.col, r, coeff * map.sign));
                }
                if let Some(ncol) = map.neg_col {
                    if coeff != 0.0 {
                        triplets.push((ncol, r, -coeff));
                    }
                }
            }
            let scoef = match c.sense {
                ConstraintSense::Le => 1.0,
                ConstraintSense::Ge => -1.0,
                ConstraintSense::Eq => 0.0,
            };
            if scoef != 0.0 {
                triplets.push((nstruct + r, r, scoef));
            }
            slack.push(scoef);
            b.push(rhs);
        }
        // Slack bounds: free upwards for inequalities, pinned for
        // equalities (their empty column must never be priced).
        for &s in &slack {
            upper.push(if s != 0.0 { f64::INFINITY } else { 0.0 });
        }
        let csc = CscMatrix::from_triplets(art_start, &triplets);
        let rows = CsrMatrix::from_row_major(m, &triplets);
        let cost = internal_costs(model, &var_maps, art_start);
        Ok(Standardized {
            m,
            art_start,
            ncols: art_start + m,
            csc,
            rows,
            b,
            upper,
            cost,
            slack,
            var_maps,
            folded: pre.folded,
        })
    }
}

// ---------------------------------------------------------------------
// Warm starts
// ---------------------------------------------------------------------

/// Opaque optimal-basis snapshot from a sparse solve, reusable to
/// warm-start a solve of a bound-tightened variant of the same model
/// (see [`crate::solve_with_warm`]).
#[derive(Debug, Clone)]
pub struct WarmStart {
    ncols: usize,
    basic: Vec<usize>,
    status: Vec<ColStatus>,
    /// Structural signature: bound tightening that changes a variable's
    /// *mapping* (e.g. free -> bounded) changes column structure, which
    /// this detects.
    var_maps: Vec<VarMap>,
}

enum WarmOutcome {
    Done(SolveOutput),
    Fallback,
}

// ---------------------------------------------------------------------
// The revised simplex
// ---------------------------------------------------------------------

struct Revised<'a> {
    std: Standardized,
    model: &'a Model,
    config: SimplexConfig,
    stats: SolveStats,
    m: usize,
    ncols: usize,
    basic: Vec<usize>,
    status: Vec<ColStatus>,
    /// Per-column spans; artificial entries are toggled between 0 and
    /// +inf around phase 1.
    upper: Vec<f64>,
    /// Sign of each row's virtual artificial column.
    art_sign: Vec<f64>,
    beta: Vec<f64>,
    basis: EtaBasis,
}

/// Entry point used by [`crate::solve_with_warm`] for the sparse
/// backend. The model must already be validated.
pub(crate) fn solve_sparse(
    model: &Model,
    config: &SimplexConfig,
    warm: Option<&WarmStart>,
) -> (SolveOutput, Option<WarmStart>) {
    let std = match Standardized::build(model, config.tol) {
        Ok(s) => s,
        Err(BuildVerdict::Infeasible) => {
            let out = SolveOutput {
                status: Status::Infeasible,
                stats: SolveStats::default(),
            };
            return (out, None);
        }
    };
    let mut solver = Revised::new(std, model, config.clone());
    if let Some(ws) = warm {
        if solver.warm_compatible(ws) {
            if let WarmOutcome::Done(out) = solver.run_warm(ws) {
                let snapshot = solver.snapshot_if_optimal(&out);
                return (out, snapshot);
            }
            // Incompatible numerics: fall through to a cold start.
        }
    }
    let out = solver.run_cold();
    let snapshot = solver.snapshot_if_optimal(&out);
    (out, snapshot)
}

impl<'a> Revised<'a> {
    fn new(std: Standardized, model: &'a Model, config: SimplexConfig) -> Revised<'a> {
        let m = std.m;
        let ncols = std.ncols;
        let art_start = std.art_start;
        let mut upper = std.upper.clone();
        upper.resize(ncols, 0.0); // artificials start unusable
        let stats = SolveStats {
            iterations: 0,
            rows: m,
            cols: art_start,
            folded_constraints: std.folded,
        };
        Revised {
            std,
            model,
            config,
            stats,
            m,
            ncols,
            basic: vec![usize::MAX; m],
            status: vec![ColStatus::AtLower; ncols],
            upper,
            art_sign: vec![1.0; m],
            beta: vec![0.0; m],
            basis: EtaBasis::new(m),
        }
    }

    // --- column access (real columns from CSC, artificials virtual) ---

    fn scatter_col(&self, j: usize, x: &mut [f64]) {
        if j < self.std.art_start {
            for (i, v) in self.std.csc.col(j) {
                x[i] += v;
            }
        } else {
            let r = j - self.std.art_start;
            x[r] += self.art_sign[r];
        }
    }

    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.std.art_start {
            self.std.csc.col(j).map(|(i, v)| v * y[i]).sum()
        } else {
            let r = j - self.std.art_start;
            self.art_sign[r] * y[r]
        }
    }

    /// Row `rho` of `B^-1 A`: calls `f(j, alpha_j)` once for every
    /// column a nonzero of `rho` reaches, in no fixed column order, where
    /// `alpha_j = rho . a_j` has the bits `col_dot(j, rho)` gives it
    /// whenever it is nonzero (columns not reached have `alpha_j = 0`).
    ///
    /// The row-wise copy is scattered from `rho`'s nonzero rows in
    /// ascending row order. That is the order `CscMatrix::col` sums each
    /// column in, because [`Standardized::build`] emits its triplets row
    /// by row, and a skipped zero row only adds a zero term, which can
    /// change at most the sign of a zero sum: every coefficient is finite
    /// ([`Model::validate`](crate::Model::validate)), so no `0 * inf`
    /// term is dropped.
    fn pivot_row(&self, rho: &[f64], scratch: &mut PivotRow, mut f: impl FnMut(usize, f64)) {
        let PivotRow { alpha, seen, cols } = scratch;
        for (i, &ri) in rho.iter().enumerate() {
            if ri == 0.0 {
                continue;
            }
            let art = self.std.art_start + i;
            for (j, v) in self.std.rows.row(i).chain([(art, self.art_sign[i])]) {
                if !seen[j] {
                    seen[j] = true;
                    cols.push(j);
                }
                alpha[j] += v * ri;
            }
        }
        // Debug and test builds check every column against the sweep
        // this replaces.
        #[cfg(any(test, debug_assertions))]
        for j in 0..self.ncols {
            let (swept, scattered) = (self.col_dot(j, rho), if seen[j] { alpha[j] } else { 0.0 });
            assert!(
                swept.to_bits() == scattered.to_bits() || (swept == 0.0 && scattered == 0.0),
                "alpha_{j}: column sweep {swept:e}, row scatter {scattered:e}"
            );
        }
        for j in cols.drain(..) {
            seen[j] = false;
            f(j, std::mem::take(&mut alpha[j]));
        }
    }

    // --- basis maintenance ---

    fn refactor(&mut self) -> Result<(), ()> {
        self.config.obs.add("lp.eta_refactors", 1);
        let std = &self.std;
        let art_sign = &self.art_sign;
        let col = |j: usize, f: &mut dyn FnMut(usize, f64)| {
            if j < std.art_start {
                for (i, v) in std.csc.col(j) {
                    f(i, v);
                }
            } else {
                let r = j - std.art_start;
                f(r, art_sign[r]);
            }
        };
        let nnz = |j: usize| {
            if j < std.art_start {
                std.csc.col_nnz(j)
            } else {
                1
            }
        };
        self.basis
            .refactor(&mut self.basic, col, nnz)
            .map_err(|_| ())?;
        self.recompute_beta();
        Ok(())
    }

    /// Recomputes basic values `beta = B^-1 (b - sum_{j at upper} u_j a_j)`.
    fn recompute_beta(&mut self) {
        let mut rhs = self.std.b.clone();
        for j in 0..self.ncols {
            if self.status[j] == ColStatus::AtUpper
                && self.upper[j].is_finite()
                && self.upper[j] > 0.0
            {
                let u = self.upper[j];
                if j < self.std.art_start {
                    for (i, v) in self.std.csc.col(j) {
                        rhs[i] -= v * u;
                    }
                } else {
                    let r = j - self.std.art_start;
                    rhs[r] -= self.art_sign[r] * u;
                }
            }
        }
        self.basis.ftran(&mut rhs);
        self.beta = rhs;
    }

    fn iteration_cap(&self) -> u64 {
        self.config
            .max_iters
            .unwrap_or(50_000 + 50 * (self.m as u64 + self.std.art_start as u64))
    }

    /// Phase objective `sum(costs_j * x_j)` at the current point, where
    /// `priced` lists the columns of nonzero cost in ascending order
    /// ([`priced_columns`]). A nonbasic column sits at a finite bound, so
    /// a zero-cost one adds a zero term, which can change at most the
    /// sign of a zero sum.
    fn phase_objective(&self, costs: &[f64], priced: &[usize]) -> f64 {
        let mut obj = 0.0;
        for r in 0..self.m {
            obj += costs[self.basic[r]] * self.beta[r];
        }
        for &j in priced {
            if self.status[j] == ColStatus::AtUpper {
                obj += costs[j] * self.upper[j];
            }
        }
        obj
    }

    // --- primal simplex (mirrors the dense backend's pivoting rules) ---

    fn iterate(&mut self, costs: &[f64], phase1: bool) -> IterEnd {
        match self.config.pricing {
            PricingRule::Dantzig => self.iterate_dantzig(costs, phase1),
            PricingRule::Devex => self.iterate_devex(costs, phase1),
        }
    }

    fn iterate_dantzig(&mut self, costs: &[f64], phase1: bool) -> IterEnd {
        let tol = self.config.tol;
        let cap = self.iteration_cap();
        let mut local_iters: u64 = 0;
        let mut bland = false;
        let mut stall: u64 = 0;
        let mut best_obj = f64::INFINITY;
        let mut y = vec![0.0; self.m];
        let mut w = vec![0.0; self.m];
        let priced = priced_columns(costs);
        loop {
            if local_iters >= cap {
                return IterEnd::IterationLimit;
            }
            // --- Pricing: y = B^-T c_B, then d_j = c_j - y . a_j ---
            y.iter_mut().for_each(|v| *v = 0.0);
            for r in 0..self.m {
                y[r] = costs[self.basic[r]];
            }
            self.basis.btran(&mut y);
            let mut entering: Option<usize> = None;
            let mut best_score = tol;
            for (j, &cj) in costs.iter().enumerate().take(self.ncols) {
                if self.status[j] == ColStatus::Basic || self.upper[j] <= 0.0 {
                    continue;
                }
                if phase1 && j >= self.std.art_start {
                    // Nonbasic artificials never re-enter in phase 1.
                    continue;
                }
                let dj = cj - self.col_dot(j, &y);
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

            // --- FTRAN the entering column ---
            w.iter_mut().for_each(|v| *v = 0.0);
            self.scatter_col(jin, &mut w);
            self.basis.ftran(&mut w);

            // --- Ratio test (identical rules to the dense backend) ---
            let mut tmax = self.upper[jin]; // bound-flip limit (may be INF)
            let mut leaving: Option<(usize, ColStatus)> = None;
            let mut leave_pivot = 0.0f64;
            for (r, &arj) in w.iter().enumerate() {
                let change = sigma * arj; // basic value changes by -t*change
                if change > tol {
                    let limit = (self.beta[r].max(0.0)) / change;
                    if limit < tmax - 1e-12
                        || (limit < tmax + 1e-12 && better_leaving(arj, leave_pivot, bland))
                    {
                        tmax = limit.max(0.0);
                        leaving = Some((r, ColStatus::AtLower));
                        leave_pivot = arj;
                    }
                } else if change < -tol {
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
                    for (b, &wr) in self.beta.iter_mut().zip(&w) {
                        if wr != 0.0 {
                            *b -= sigma * t * wr;
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
                    let entering_value = match self.status[jin] {
                        ColStatus::AtLower => sigma * t,
                        ColStatus::AtUpper => self.upper[jin] + sigma * t,
                        ColStatus::Basic => unreachable!(),
                    };
                    for (i, (b, &wi)) in self.beta.iter_mut().zip(&w).enumerate() {
                        if i != r && wi != 0.0 {
                            *b -= sigma * t * wi;
                        }
                    }
                    let jout = self.basic[r];
                    self.beta[r] = entering_value;
                    self.status[jout] = hit_bound;
                    self.status[jin] = ColStatus::Basic;
                    self.basic[r] = jin;
                    self.basis.push(r, &w);
                    if self.basis.updates_since_refactor() >= EtaBasis::REFACTOR_LIMIT
                        && self.refactor().is_err()
                    {
                        return IterEnd::IterationLimit; // numerically singular
                    }
                }
            }

            // --- Stall detection -> Bland's rule ---
            let obj = self.phase_objective(costs, &priced);
            if obj < best_obj - 1e-10 * (1.0 + best_obj.abs()) {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
                if stall > self.config.stall_limit {
                    bland = true;
                }
            }
        }
    }

    // --- devex pricing (Forrest-Goldfarb reference weights) ---

    /// Reduced costs `d = c - c_B^T B^-1 A` for every column, computed
    /// from scratch through one BTRAN plus a full column sweep.
    fn compute_reduced_costs(&self, costs: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        for r in 0..self.m {
            y[r] = costs[self.basic[r]];
        }
        self.basis.btran(&mut y);
        (0..self.ncols)
            .map(|j| costs[j] - self.col_dot(j, &y))
            .collect()
    }

    /// Improving-direction score of nonbasic column `j` under reduced
    /// costs `d`, or `None` when the column is not eligible to enter.
    fn price_eligible(&self, j: usize, d: &[f64], phase1: bool, tol: f64) -> Option<f64> {
        if self.status[j] == ColStatus::Basic || self.upper[j] <= 0.0 {
            return None;
        }
        if phase1 && j >= self.std.art_start {
            // Nonbasic artificials never re-enter in phase 1.
            return None;
        }
        let score = match self.status[j] {
            ColStatus::AtLower => -d[j],
            ColStatus::AtUpper => d[j],
            ColStatus::Basic => unreachable!(),
        };
        (score > tol).then_some(score)
    }

    /// Picks the entering column. Under Bland's rule: the smallest
    /// eligible index (full scan). Otherwise: the best devex merit
    /// `d_j^2 / w_j` within the candidate list, rebuilding the list by a
    /// cyclic sectional scan when it runs dry — partial pricing stops at
    /// the first section that yields any candidate (or at the list cap),
    /// and `cursor` carries the scan position across rebuilds so every
    /// column is revisited fairly. Fully deterministic.
    fn price_next(
        &self,
        d: &[f64],
        weights: &[f64],
        cands: &mut Vec<usize>,
        cursor: &mut usize,
        phase1: bool,
        bland: bool,
    ) -> Option<usize> {
        let tol = self.config.tol;
        if bland {
            return (0..self.ncols).find(|&j| self.price_eligible(j, d, phase1, tol).is_some());
        }
        let best_of = |list: &[usize]| -> Option<usize> {
            let mut best: Option<(usize, f64)> = None;
            for &j in list {
                if let Some(score) = self.price_eligible(j, d, phase1, tol) {
                    let merit = score * score / weights[j];
                    if best.is_none_or(|(_, bm)| merit > bm) {
                        best = Some((j, merit));
                    }
                }
            }
            best.map(|(j, _)| j)
        };
        if let Some(j) = best_of(cands) {
            return Some(j);
        }
        cands.clear();
        self.config.obs.add("lp.pricing.candidate_rebuilds", 1);
        let n = self.ncols;
        let section = (n / 8).clamp(64, 4096).min(n);
        const CAND_LIMIT: usize = 64;
        let start = *cursor % n;
        let mut k = 0usize;
        while k < n {
            let j = (start + k) % n;
            k += 1;
            if self.price_eligible(j, d, phase1, tol).is_some() {
                cands.push(j);
                if cands.len() >= CAND_LIMIT {
                    break;
                }
            }
            if k.is_multiple_of(section) && !cands.is_empty() {
                break;
            }
        }
        *cursor = (start + k) % n;
        best_of(cands)
    }

    /// Primal simplex with devex pricing: reduced costs are maintained
    /// incrementally (one BTRAN of the pivot row per pivot replaces the
    /// per-iteration BTRAN-plus-full-sweep of Dantzig pricing), devex
    /// reference weights steer the entering choice, and the reference
    /// framework resets on every refactorization. Because maintained
    /// reduced costs drift, optimality and unboundedness are always
    /// re-verified against freshly computed ones before returning.
    fn iterate_devex(&mut self, costs: &[f64], phase1: bool) -> IterEnd {
        let tol = self.config.tol;
        let cap = self.iteration_cap();
        let mut local_iters: u64 = 0;
        let mut bland = false;
        let mut stall: u64 = 0;
        let mut best_obj = f64::INFINITY;
        let mut w = vec![0.0; self.m];
        let mut rho = vec![0.0; self.m];
        let mut row = PivotRow::new(self.ncols);
        let priced = priced_columns(costs);
        let mut d = self.compute_reduced_costs(costs);
        let mut weights = vec![1.0f64; self.ncols];
        let mut cands: Vec<usize> = Vec::new();
        let mut cursor = 0usize;
        loop {
            if local_iters >= cap {
                return IterEnd::IterationLimit;
            }
            // --- Pricing ---
            let picked = self.price_next(&d, &weights, &mut cands, &mut cursor, phase1, bland);
            let Some(jin) = picked else {
                // No candidate under the maintained reduced costs:
                // confirm against fresh ones before declaring optimal.
                let fresh = self.compute_reduced_costs(costs);
                let drifted =
                    (0..self.ncols).any(|j| self.price_eligible(j, &fresh, phase1, tol).is_some());
                d = fresh;
                cands.clear();
                if !drifted {
                    return IterEnd::Optimal;
                }
                self.config.obs.add("lp.pricing.drift_rescans", 1);
                continue;
            };
            let sigma = if self.status[jin] == ColStatus::AtLower {
                1.0
            } else {
                -1.0
            };

            // --- FTRAN the entering column ---
            w.iter_mut().for_each(|v| *v = 0.0);
            self.scatter_col(jin, &mut w);
            self.basis.ftran(&mut w);

            // --- Ratio test (identical rules to the dense backend) ---
            let mut tmax = self.upper[jin];
            let mut leaving: Option<(usize, ColStatus)> = None;
            let mut leave_pivot = 0.0f64;
            for (r, &arj) in w.iter().enumerate() {
                let change = sigma * arj;
                if change > tol {
                    let limit = (self.beta[r].max(0.0)) / change;
                    if limit < tmax - 1e-12
                        || (limit < tmax + 1e-12 && better_leaving(arj, leave_pivot, bland))
                    {
                        tmax = limit.max(0.0);
                        leaving = Some((r, ColStatus::AtLower));
                        leave_pivot = arj;
                    }
                } else if change < -tol {
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
                // A drifted reduced cost can make a non-improving column
                // look like an unbounded ray; re-verify before giving up.
                let fresh = self.compute_reduced_costs(costs);
                if self.price_eligible(jin, &fresh, phase1, tol).is_some() {
                    return IterEnd::Unbounded;
                }
                d = fresh;
                cands.clear();
                self.config.obs.add("lp.pricing.drift_rescans", 1);
                continue;
            }

            local_iters += 1;
            self.stats.iterations += 1;

            match leaving {
                None => {
                    // Bound flip: basis, duals, and weights unchanged.
                    let t = self.upper[jin];
                    for (b, &wr) in self.beta.iter_mut().zip(&w) {
                        if wr != 0.0 {
                            *b -= sigma * t * wr;
                        }
                    }
                    self.status[jin] = match self.status[jin] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        ColStatus::Basic => unreachable!(),
                    };
                }
                Some((r, hit_bound)) => {
                    // Row r of B^-1 A *before* the basis changes:
                    // rho = B^-T e_r, alpha_j = rho . a_j. One sweep
                    // updates every reduced cost exactly (d_j -=
                    // theta_d * alpha_j) and every devex weight
                    // (w_j = max(w_j, (alpha_j/alpha_q)^2 w_q)).
                    rho.iter_mut().for_each(|v| *v = 0.0);
                    rho[r] = 1.0;
                    self.basis.btran(&mut rho);
                    let alpha_q = w[r];
                    let theta_d = d[jin] / alpha_q;
                    let wq = weights[jin];
                    let status = &self.status;
                    self.pivot_row(&rho, &mut row, |j, alpha| {
                        if j == jin || alpha == 0.0 {
                            return;
                        }
                        d[j] -= theta_d * alpha;
                        if status[j] != ColStatus::Basic {
                            let grow = (alpha / alpha_q) * (alpha / alpha_q) * wq;
                            if grow > weights[j] {
                                weights[j] = grow;
                            }
                        }
                    });
                    d[jin] = 0.0;

                    let t = tmax;
                    let entering_value = match self.status[jin] {
                        ColStatus::AtLower => sigma * t,
                        ColStatus::AtUpper => self.upper[jin] + sigma * t,
                        ColStatus::Basic => unreachable!(),
                    };
                    for (i, (b, &wi)) in self.beta.iter_mut().zip(&w).enumerate() {
                        if i != r && wi != 0.0 {
                            *b -= sigma * t * wi;
                        }
                    }
                    let jout = self.basic[r];
                    self.beta[r] = entering_value;
                    self.status[jout] = hit_bound;
                    self.status[jin] = ColStatus::Basic;
                    self.basic[r] = jin;
                    // The leaving variable joins the nonbasic frame with
                    // the devex weight transferred through the pivot.
                    weights[jout] = (wq / (alpha_q * alpha_q)).max(1.0);
                    self.basis.push(r, &w);
                    if self.basis.updates_since_refactor() >= EtaBasis::REFACTOR_LIMIT {
                        if self.refactor().is_err() {
                            return IterEnd::IterationLimit; // numerically singular
                        }
                        // Reference-framework reset: weights back to 1,
                        // reduced costs recomputed against the fresh
                        // factorization (this is also what keeps the
                        // incremental d numerically honest).
                        d = self.compute_reduced_costs(costs);
                        weights.iter_mut().for_each(|v| *v = 1.0);
                        cands.clear();
                        self.config.obs.add("lp.pricing.devex_resets", 1);
                    }
                }
            }

            // --- Stall detection -> Bland's rule ---
            let obj = self.phase_objective(costs, &priced);
            if obj < best_obj - 1e-10 * (1.0 + best_obj.abs()) {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
                if stall > self.config.stall_limit && !bland {
                    bland = true;
                    // Bland's anti-cycling argument needs trustworthy
                    // reduced-cost signs; refresh once at the switch.
                    d = self.compute_reduced_costs(costs);
                    cands.clear();
                    self.config.obs.add("lp.pricing.bland_switches", 1);
                }
            }
        }
    }

    // --- cold start ---

    fn run_cold(&mut self) -> SolveOutput {
        let tol = self.config.tol;
        let art_start = self.std.art_start;

        // Initial basis: the row's slack when it can sit at a feasible
        // value, otherwise the row's (activated) artificial.
        self.status.iter_mut().for_each(|s| *s = ColStatus::AtLower);
        for j in art_start..self.ncols {
            self.upper[j] = 0.0;
        }
        let mut any_artificial = false;
        for r in 0..self.m {
            let s = self.std.slack[r];
            self.art_sign[r] = if self.std.b[r] < 0.0 { -1.0 } else { 1.0 };
            if s != 0.0 && s * self.std.b[r] >= 0.0 {
                self.basic[r] = art_start - self.m + r; // slack column nstruct + r
            } else {
                self.basic[r] = art_start + r;
                self.upper[art_start + r] = f64::INFINITY;
                any_artificial = true;
            }
        }
        for r in 0..self.m {
            self.status[self.basic[r]] = ColStatus::Basic;
        }
        if self.refactor().is_err() {
            // A ± unit basis cannot be singular; defensive only.
            return self.finish(Status::IterationLimit);
        }

        // --- Phase 1 ---
        if any_artificial {
            let _phase1 = self.config.obs.span("lp.phase1");
            let mut phase1_cost = vec![0.0; self.ncols];
            for c in phase1_cost.iter_mut().skip(art_start) {
                *c = 1.0;
            }
            match self.iterate(&phase1_cost, true) {
                IterEnd::Optimal => {}
                IterEnd::Unbounded => {
                    // Bounded below by zero; reaching here means
                    // numerical trouble.
                    return self.finish(Status::IterationLimit);
                }
                IterEnd::IterationLimit => return self.finish(Status::IterationLimit),
            }
            let infeas = self.phase_objective(&phase1_cost, &priced_columns(&phase1_cost));
            if infeas > tol * (1.0 + self.m as f64) {
                return self.finish(Status::Infeasible);
            }
            // Clamp artificials so they can never re-activate.
            for j in art_start..self.ncols {
                self.upper[j] = 0.0;
            }
        }

        self.run_phase2()
    }

    fn run_phase2(&mut self) -> SolveOutput {
        let _phase2 = self.config.obs.span("lp.phase2");
        let mut phase2_cost = self.std.cost.clone();
        phase2_cost.resize(self.ncols, 0.0);
        match self.iterate(&phase2_cost, false) {
            IterEnd::Optimal => {
                let values = self.extract();
                let objective = self.model.objective().eval(&values);
                self.finish(Status::Optimal(Solution { objective, values }))
            }
            IterEnd::Unbounded => self.finish(Status::Unbounded),
            IterEnd::IterationLimit => self.finish(Status::IterationLimit),
        }
    }

    // --- warm start + dual simplex ---

    fn warm_compatible(&self, ws: &WarmStart) -> bool {
        ws.ncols == self.ncols
            && ws.basic.len() == self.m
            && ws.status.len() == self.ncols
            && ws.var_maps == self.std.var_maps
            && ws.basic.iter().all(|&j| j < self.std.art_start)
    }

    fn run_warm(&mut self, ws: &WarmStart) -> WarmOutcome {
        self.basic.copy_from_slice(&ws.basic);
        self.status.copy_from_slice(&ws.status);
        for j in self.std.art_start..self.ncols {
            self.upper[j] = 0.0;
            self.status[j] = ColStatus::AtLower;
        }
        // A bound that was finite in the parent may have tightened; one
        // that was infinite stays infinite (tightening only). Demote any
        // nonbasic-at-upper column whose span is no longer usable.
        for j in 0..self.std.art_start {
            if self.status[j] == ColStatus::AtUpper
                && !(self.upper[j].is_finite() && self.upper[j] > 0.0)
            {
                self.status[j] = ColStatus::AtLower;
            }
        }
        if self.refactor().is_err() {
            return WarmOutcome::Fallback;
        }
        let mut phase2_cost = self.std.cost.clone();
        phase2_cost.resize(self.ncols, 0.0);
        self.config.obs.add("lp.warm_restores", 1);
        match self.dual_restore(&phase2_cost) {
            DualEnd::Feasible => WarmOutcome::Done(self.run_phase2()),
            DualEnd::Infeasible => WarmOutcome::Done(self.finish(Status::Infeasible)),
            DualEnd::GiveUp => WarmOutcome::Fallback,
        }
    }

    /// Bounded-variable dual simplex: drives primal-infeasible basic
    /// variables to their violated bound while keeping reduced costs
    /// dual feasible. Used to re-optimize after bound tightening.
    fn dual_restore(&mut self, costs: &[f64]) -> DualEnd {
        let tol = self.config.tol;
        let cap = 200 + 2 * self.m as u64;
        let mut iters: u64 = 0;
        let mut y = vec![0.0; self.m];
        let mut rho = vec![0.0; self.m];
        let mut w = vec![0.0; self.m];
        loop {
            // --- Leaving: most primal-infeasible basic variable ---
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below_lower)
            for r in 0..self.m {
                let q = self.basic[r];
                let below = -self.beta[r];
                let above = if self.upper[q].is_finite() {
                    self.beta[r] - self.upper[q]
                } else {
                    f64::NEG_INFINITY
                };
                let (viol, is_low) = if below >= above {
                    (below, true)
                } else {
                    (above, false)
                };
                if viol > tol && leave.as_ref().is_none_or(|&(_, v, _)| viol > v) {
                    leave = Some((r, viol, is_low));
                }
            }
            let Some((r, _, below_lower)) = leave else {
                return DualEnd::Feasible;
            };
            if iters >= cap {
                return DualEnd::GiveUp;
            }

            // Reduced costs (recomputed; dual re-solves take few pivots).
            y.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..self.m {
                y[i] = costs[self.basic[i]];
            }
            self.basis.btran(&mut y);
            // Row r of B^-1 A: rho = B^-T e_r, alpha_j = rho . a_j.
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[r] = 1.0;
            self.basis.btran(&mut rho);

            // --- Entering: dual ratio test, min |d_j / alpha_j| ---
            let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            for (j, &cj) in costs.iter().enumerate().take(self.ncols) {
                if self.status[j] == ColStatus::Basic || self.upper[j] <= 0.0 {
                    continue;
                }
                let alpha = self.col_dot(j, &rho);
                let admissible = match (below_lower, self.status[j]) {
                    // x_q must rise to 0: entering from lower needs
                    // alpha < 0, from upper needs alpha > 0.
                    (true, ColStatus::AtLower) => alpha < -tol,
                    (true, ColStatus::AtUpper) => alpha > tol,
                    // x_q must fall to its upper bound: signs reverse.
                    (false, ColStatus::AtLower) => alpha > tol,
                    (false, ColStatus::AtUpper) => alpha < -tol,
                    (_, ColStatus::Basic) => false,
                };
                if !admissible {
                    continue;
                }
                let dj = cj - self.col_dot(j, &y);
                let ratio = (dj / alpha).abs();
                if enter
                    .as_ref()
                    .is_none_or(|&(_, best, _)| ratio < best - 1e-12)
                {
                    enter = Some((j, ratio, alpha));
                }
            }
            let Some((jin, _, _)) = enter else {
                // Dual unbounded: the tightened model is infeasible.
                return DualEnd::Infeasible;
            };

            // --- Pivot ---
            w.iter_mut().for_each(|v| *v = 0.0);
            self.scatter_col(jin, &mut w);
            self.basis.ftran(&mut w);
            if w[r].abs() < 1e-11 {
                return DualEnd::GiveUp; // numerically degenerate pivot
            }
            let q = self.basic[r];
            let target = if below_lower { 0.0 } else { self.upper[q] };
            // w[r] is alpha_r,jin computed through the (fresher) FTRAN.
            let delta = (self.beta[r] - target) / w[r];
            for (i, (b, &wi)) in self.beta.iter_mut().zip(&w).enumerate() {
                if i != r && wi != 0.0 {
                    *b -= delta * wi;
                }
            }
            self.beta[r] = match self.status[jin] {
                ColStatus::AtLower => delta,
                ColStatus::AtUpper => self.upper[jin] + delta,
                ColStatus::Basic => unreachable!(),
            };
            self.status[q] = if below_lower {
                ColStatus::AtLower
            } else {
                ColStatus::AtUpper
            };
            self.status[jin] = ColStatus::Basic;
            self.basic[r] = jin;
            self.basis.push(r, &w);
            iters += 1;
            self.stats.iterations += 1;
            if self.basis.updates_since_refactor() >= EtaBasis::REFACTOR_LIMIT
                && self.refactor().is_err()
            {
                return DualEnd::GiveUp;
            }
        }
    }

    fn snapshot_if_optimal(&self, out: &SolveOutput) -> Option<WarmStart> {
        if !out.status.is_optimal() {
            return None;
        }
        // A basic artificial (possible at value 0 after a degenerate
        // phase 1) would pin the child's basis to this solve's artificial
        // signs; skip the snapshot in that rare case.
        if self.basic.iter().any(|&j| j >= self.std.art_start) {
            return None;
        }
        Some(WarmStart {
            ncols: self.ncols,
            basic: self.basic.clone(),
            status: self.status.clone(),
            var_maps: self.std.var_maps.clone(),
        })
    }

    /// Reconstructs model-space values from the internal state.
    fn extract(&self) -> Vec<f64> {
        let mut internal = vec![0.0; self.ncols];
        for (j, x) in internal.iter_mut().enumerate() {
            if self.status[j] == ColStatus::AtUpper && self.upper[j].is_finite() {
                *x = self.upper[j];
            }
        }
        for r in 0..self.m {
            internal[self.basic[r]] = self.beta[r];
        }
        let mut values = vec![0.0; self.model.num_vars()];
        for (i, map) in self.std.var_maps.iter().enumerate() {
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

/// The columns of nonzero cost, ascending.
fn priced_columns(costs: &[f64]) -> Vec<usize> {
    (0..costs.len()).filter(|&j| costs[j] != 0.0).collect()
}

/// Scratch space of [`Revised::pivot_row`], zero and empty between calls.
struct PivotRow {
    alpha: Vec<f64>,
    seen: Vec<bool>,
    cols: Vec<usize>,
}

impl PivotRow {
    fn new(ncols: usize) -> PivotRow {
        PivotRow {
            alpha: vec![0.0; ncols],
            seen: vec![false; ncols],
            cols: Vec::new(),
        }
    }
}

enum DualEnd {
    Feasible,
    Infeasible,
    GiveUp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::simplex::{solve_with, solve_with_warm};

    fn optimal(out: &SolveOutput) -> &Solution {
        match &out.status {
            Status::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn csc_from_triplets_roundtrip() {
        let trips = [(0, 0, 1.0), (2, 1, 3.0), (0, 1, 2.0), (2, 0, -1.0)];
        let csc = CscMatrix::from_triplets(3, &trips);
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(csc.col_nnz(1), 0);
        assert_eq!(csc.col(2).collect::<Vec<_>>(), vec![(1, 3.0), (0, -1.0)]);
    }

    #[test]
    fn sparse_solves_textbook_problem() {
        // Same as the dense textbook test: maximize 3x + 5y.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective([(x, 3.0), (y, 5.0)]);
        m.add_le("c1", [(x, 1.0)], 4.0);
        m.add_le("c2", [(y, 2.0)], 12.0);
        m.add_le("c3", [(x, 3.0), (y, 2.0)], 18.0);
        let out = solve_with(&m, &SimplexConfig::default());
        let s = optimal(&out);
        assert!((s.objective - 36.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_resolves_after_tightening() {
        // maximize x + y s.t. x + y <= 10, x - y <= 4.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 20.0);
        let y = m.add_var("y", 0.0, 20.0);
        m.set_objective([(x, 2.0), (y, 1.0)]);
        m.add_le("cap", [(x, 1.0), (y, 1.0)], 10.0);
        m.add_le("gap", [(x, 1.0), (y, -1.0)], 4.0);
        let (out, warm) = solve_with_warm(&m, &SimplexConfig::default(), None);
        let parent_obj = optimal(&out).objective;
        assert!((parent_obj - 17.0).abs() < 1e-6, "obj={parent_obj}");
        let warm = warm.expect("optimal solve yields a warm start");

        // Child: tighten x <= 5 (as branch-and-bound would).
        let mut child = m.clone();
        child.tighten_bounds(x, f64::NEG_INFINITY, 5.0);
        let (warm_out, _) = solve_with_warm(&child, &SimplexConfig::default(), Some(&warm));
        let (cold_out, _) = solve_with_warm(&child, &SimplexConfig::default(), None);
        let wobj = optimal(&warm_out).objective;
        let cobj = optimal(&cold_out).objective;
        assert!((wobj - cobj).abs() < 1e-6, "warm {wobj} vs cold {cobj}");
        assert!(optimal(&warm_out).is_feasible_for(&child, 1e-6));
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0);
        let y = m.add_var("y", 0.0, 10.0);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_ge("floor", [(x, 1.0), (y, 1.0)], 8.0);
        let (_, warm) = solve_with_warm(&m, &SimplexConfig::default(), None);
        let warm = warm.expect("warm start");
        let mut child = m.clone();
        child.tighten_bounds(x, f64::NEG_INFINITY, 2.0);
        child.tighten_bounds(y, f64::NEG_INFINITY, 2.0);
        let (out, _) = solve_with_warm(&child, &SimplexConfig::default(), Some(&warm));
        assert!(matches!(out.status, Status::Infeasible), "{:?}", out.status);
    }

    #[test]
    fn incompatible_warm_start_falls_back_to_cold() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0);
        m.set_objective([(x, 1.0)]);
        m.add_le("c", [(x, 2.0)], 6.0);
        let (_, warm) = solve_with_warm(&m, &SimplexConfig::default(), None);
        let warm = warm.expect("warm start");

        // A structurally different model: the stale basis must be ignored.
        let mut other = Model::new(Sense::Maximize);
        let a = other.add_var("a", 0.0, 4.0);
        let b = other.add_var("b", 0.0, 4.0);
        other.set_objective([(a, 1.0), (b, 1.0)]);
        other.add_le("c", [(a, 1.0), (b, 1.0)], 5.0);
        let (out, _) = solve_with_warm(&other, &SimplexConfig::default(), Some(&warm));
        assert!((optimal(&out).objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn eta_refactorization_survives_long_runs() {
        // A chain LP needing well over REFACTOR_LIMIT pivots end to end.
        let n = 260;
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), 0.0, f64::INFINITY))
            .collect();
        m.set_objective(vars.iter().map(|&v| (v, 1.0)));
        for i in 0..n - 1 {
            m.add_ge(
                format!("link{i}"),
                [(vars[i], 1.0), (vars[i + 1], 1.0)],
                2.0,
            );
        }
        let out = solve_with(&m, &SimplexConfig::default());
        let s = optimal(&out);
        assert!(s.is_feasible_for(&m, 1e-6));
    }
}
