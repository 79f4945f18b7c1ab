//! Basis representation for the sparse revised simplex: a product-form
//! eta file with periodic refactorization.
//!
//! The basis inverse is never formed explicitly. It is kept as a product
//! `B^-1 = E_k^-1 ... E_1^-1` of elementary (eta) matrices, each
//! recording one pivot: the FTRANed entering column `w = B_old^-1 a_j`
//! and the pivot row `r`. Applying an eta inverse is O(nnz(w)):
//!
//! * **FTRAN** (`x := B^-1 x`): apply etas oldest-first;
//!   `x_r := x_r / w_r`, then `x_i -= w_i * x_r` for the off-pivot
//!   entries.
//! * **BTRAN** (`y := B^-T y`): apply eta transposes newest-first; only
//!   the pivot entry changes: `y_r := (y_r - sum_i w_i * y_i) / w_r`.
//!
//! The eta file grows by one per pivot, so work per iteration degrades
//! linearly; after [`EtaBasis::REFACTOR_LIMIT`] updates the caller
//! triggers [`EtaBasis::refactor`], which rebuilds the file from the
//! basic columns themselves (a sparse LU-by-elimination in product
//! form). Refactorization pivots greedily by column sparsity and
//! largest available pivot magnitude, then *reorders the basis heading*
//! so that the column pivoted on row `r` is recorded as basic in row
//! `r` — making the rebuilt eta product exactly the inverse of the
//! reordered heading.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One elementary pivot matrix, stored sparsely.
#[derive(Debug, Clone)]
struct Eta {
    /// Pivot row.
    row: usize,
    /// Pivot element `w_r` (guaranteed away from zero by the caller's
    /// ratio test / the refactorization pivot threshold).
    pivot: f64,
    /// Off-pivot nonzeros `(i, w_i)` of the FTRANed column.
    others: Vec<(usize, f64)>,
}

/// Entries below this magnitude are dropped when an eta is recorded;
/// they are numerical noise and would only bloat the file.
const DROP_TOL: f64 = 1e-13;

/// Pivots below this magnitude during refactorization mean the basis is
/// numerically singular.
const SINGULAR_TOL: f64 = 1e-10;

/// The basis matrix of a revised simplex, as a product of eta matrices.
#[derive(Debug, Clone)]
pub(crate) struct EtaBasis {
    m: usize,
    etas: Vec<Eta>,
    /// Number of etas produced by the last refactorization (the prefix
    /// of `etas` that represents the factorized basis itself).
    base: usize,
}

/// The basis matrix was numerically singular during refactorization.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SingularBasis;

impl EtaBasis {
    /// Updates since the last refactorization after which the caller
    /// should refactorize.
    pub(crate) const REFACTOR_LIMIT: usize = 100;

    pub(crate) fn new(m: usize) -> EtaBasis {
        EtaBasis {
            m,
            etas: Vec::new(),
            base: 0,
        }
    }

    /// Pivots recorded since the last refactorization.
    pub(crate) fn updates_since_refactor(&self) -> usize {
        self.etas.len() - self.base
    }

    /// Solves `B x = x_in` in place (`x := B^-1 x`).
    pub(crate) fn ftran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for eta in &self.etas {
            let xr = x[eta.row];
            if xr != 0.0 {
                let p = xr / eta.pivot;
                x[eta.row] = p;
                for &(i, v) in &eta.others {
                    x[i] -= v * p;
                }
            }
        }
    }

    /// Solves `B^T y = y_in` in place (`y := B^-T y`).
    pub(crate) fn btran(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.m);
        for eta in self.etas.iter().rev() {
            let mut s = 0.0;
            for &(i, v) in &eta.others {
                s += v * y[i];
            }
            y[eta.row] = (y[eta.row] - s) / eta.pivot;
        }
    }

    /// Records the pivot `(row, w)` where `w = B^-1 a_entering` (the
    /// FTRANed entering column, dense).
    pub(crate) fn push(&mut self, row: usize, w: &[f64]) {
        debug_assert!(w[row].abs() > DROP_TOL, "pivot on near-zero element");
        let others: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != row && v.abs() > DROP_TOL)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta {
            row,
            pivot: w[row],
            others,
        });
    }

    /// Rebuilds the eta file from the basic columns and *reorders*
    /// `basic` so that `basic[r]` is the column pivoted on row `r`.
    ///
    /// `col(j, f)` must call `f(row, value)` for every nonzero of column
    /// `j` of the constraint matrix; `nnz(j)` returns its nonzero count
    /// (used to pivot sparse columns first, the classic fill-reducing
    /// heuristic for product-form inverses).
    ///
    /// Singleton columns are peeled off first without touching a dense
    /// buffer: they sort to the front of the `(nnz, col)` order, every
    /// eta recorded before them is then itself a singleton on a distinct
    /// row, so their FTRAN is the identity and their pivot scan is
    /// forced — the recorded eta is identical to the general path's, in
    /// O(1) instead of O(m). A cold-start ± unit basis (all slacks and
    /// artificials) therefore refactorizes in O(m) instead of O(m^2).
    ///
    /// The other columns are eliminated over their nonzero patterns
    /// ([`EtaBasis::eliminate`]); debug and test builds check every eta
    /// against the dense elimination it replaces.
    ///
    /// On success the product of the recorded etas is exactly the
    /// inverse of the (reordered) basis; callers must recompute any
    /// cached basic values afterwards.
    pub(crate) fn refactor<C, N>(
        &mut self,
        basic: &mut [usize],
        col: C,
        nnz: N,
    ) -> Result<(), SingularBasis>
    where
        C: Fn(usize, &mut dyn FnMut(usize, f64)),
        N: Fn(usize) -> usize,
    {
        #[cfg(any(test, debug_assertions))]
        let oracle = {
            let mut dense = EtaBasis::new(self.m);
            let mut heading = basic.to_vec();
            let verdict = dense.peel(&heading, &col, &nnz).and_then(|mut peeled| {
                dense.eliminate_dense(&mut peeled, &col)?;
                heading.copy_from_slice(&peeled.new_basic);
                Ok(())
            });
            (dense, heading, verdict)
        };
        let mut peeled = self.peel(basic, &col, &nnz)?;
        let verdict = self.eliminate(&mut peeled, &col);
        if verdict.is_ok() {
            basic.copy_from_slice(&peeled.new_basic);
            self.base = self.etas.len();
        }
        #[cfg(any(test, debug_assertions))]
        {
            let (dense, heading, dense_verdict) = oracle;
            assert_eq!(
                verdict.is_ok(),
                dense_verdict.is_ok(),
                "refactor verdicts differ"
            );
            if verdict.is_ok() {
                assert_eq!(basic, &heading[..], "refactor headings differ");
                assert_eq!(
                    self.etas.len(),
                    dense.etas.len(),
                    "refactor eta counts differ"
                );
                for (k, (a, b)) in self.etas.iter().zip(&dense.etas).enumerate() {
                    assert!(a.same_bits(b), "eta {k} differs: {a:?} vs {b:?}");
                }
            }
        }
        verdict
    }

    /// Clears the file and records the singleton columns of `basic`;
    /// returns the other columns, sparsest first, with the rows they
    /// left unpivoted.
    fn peel<C, N>(&mut self, basic: &[usize], col: &C, nnz: &N) -> Result<Peeled, SingularBasis>
    where
        C: Fn(usize, &mut dyn FnMut(usize, f64)),
        N: Fn(usize) -> usize,
    {
        debug_assert_eq!(basic.len(), self.m);
        self.etas.clear();
        self.base = 0;

        // Sparsest columns first; ties by column index for determinism.
        let mut order: Vec<usize> = (0..self.m).collect();
        order.sort_by_key(|&k| (nnz(basic[k]), basic[k]));

        let mut pivoted = vec![false; self.m];
        let mut new_basic = vec![usize::MAX; self.m];

        // Peel the leading singleton (and empty) columns.
        let mut split = order.len();
        for (idx, &k) in order.iter().enumerate() {
            let j = basic[k];
            if nnz(j) > 1 {
                split = idx;
                break;
            }
            let mut entry: Option<(usize, f64)> = None;
            col(j, &mut |r, v| entry = Some((r, v)));
            // An empty column, a duplicated singleton row, or a tiny
            // pivot is singular — exactly what the general path's scan
            // over unpivoted rows would conclude.
            let Some((r, v)) = entry else {
                return Err(SingularBasis);
            };
            if pivoted[r] || v.abs() < SINGULAR_TOL {
                return Err(SingularBasis);
            }
            self.etas.push(Eta {
                row: r,
                pivot: v,
                others: Vec::new(),
            });
            pivoted[r] = true;
            new_basic[r] = j;
        }
        Ok(Peeled {
            cols: order[split..].iter().map(|&k| basic[k]).collect(),
            pivoted,
            new_basic,
        })
    }

    /// Eliminates the peeled columns in order, each over its nonzero
    /// pattern instead of all `m` rows, with the dense elimination's
    /// exact arithmetic:
    ///
    /// * the FTRAN applies only the etas whose pivot row is in the
    ///   pattern, in eta order (a heap), which is the order the dense
    ///   FTRAN applies them in; the dense one skips every other eta,
    ///   because its pivot entry is zero. Each eta of the file pivots a
    ///   distinct row, so a row that joins the pattern brings at most
    ///   one eta, and one older than the eta being applied has been
    ///   skipped already;
    /// * the pivot is the largest |x| over the pattern's unpivoted
    ///   rows, ties to the smallest row, starting from the smallest
    ///   unpivoted row as the dense scan does (rows outside the pattern
    ///   are zero, so they never win);
    /// * the eta is recorded from the pattern sorted by row, and only
    ///   the pattern is zeroed afterwards.
    fn eliminate<C>(&mut self, peeled: &mut Peeled, col: &C) -> Result<(), SingularBasis>
    where
        C: Fn(usize, &mut dyn FnMut(usize, f64)),
    {
        let mut x = vec![0.0; self.m];
        let mut in_pattern = vec![false; self.m];
        let mut pattern: Vec<usize> = Vec::new();
        let mut eta_of_row = vec![usize::MAX; self.m];
        for (e, eta) in self.etas.iter().enumerate() {
            eta_of_row[eta.row] = e;
        }
        let mut due: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        let mut first_free = 0;
        for &j in &peeled.cols {
            col(j, &mut |r, v| {
                if !in_pattern[r] {
                    in_pattern[r] = true;
                    pattern.push(r);
                }
                x[r] += v;
            });
            due.extend(
                pattern
                    .iter()
                    .filter(|&&r| eta_of_row[r] != usize::MAX)
                    .map(|&r| Reverse(eta_of_row[r])),
            );
            while let Some(Reverse(e)) = due.pop() {
                let eta = &self.etas[e];
                let xr = x[eta.row];
                if xr == 0.0 {
                    continue;
                }
                let p = xr / eta.pivot;
                x[eta.row] = p;
                for &(i, v) in &eta.others {
                    x[i] -= v * p;
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        pattern.push(i);
                        if eta_of_row[i] != usize::MAX && eta_of_row[i] > e {
                            due.push(Reverse(eta_of_row[i]));
                        }
                    }
                }
            }
            pattern.sort_unstable();
            while peeled.pivoted[first_free] {
                first_free += 1;
            }
            let mut p = first_free;
            for &i in &pattern {
                if !peeled.pivoted[i] && x[i].abs() > x[p].abs() {
                    p = i;
                }
            }
            if x[p].abs() < SINGULAR_TOL {
                return Err(SingularBasis);
            }
            let others = pattern
                .iter()
                .filter(|&&i| i != p && x[i].abs() > DROP_TOL)
                .map(|&i| (i, x[i]))
                .collect();
            eta_of_row[p] = self.etas.len();
            self.etas.push(Eta {
                row: p,
                pivot: x[p],
                others,
            });
            for &i in &pattern {
                x[i] = 0.0;
                in_pattern[i] = false;
            }
            pattern.clear();
            peeled.pivoted[p] = true;
            peeled.new_basic[p] = j;
        }
        Ok(())
    }

    /// The dense elimination [`EtaBasis::eliminate`] replaces: zero all
    /// `m` rows, scatter, FTRAN through the whole file, scan every row
    /// for the pivot, record the eta from every row. Kept as the debug
    /// and test oracle of every refactorization.
    #[cfg(any(test, debug_assertions))]
    fn eliminate_dense<C>(&mut self, peeled: &mut Peeled, col: &C) -> Result<(), SingularBasis>
    where
        C: Fn(usize, &mut dyn FnMut(usize, f64)),
    {
        let mut x = vec![0.0; self.m];
        for &j in &peeled.cols {
            x.iter_mut().for_each(|v| *v = 0.0);
            col(j, &mut |r, v| x[r] += v);
            self.ftran(&mut x);
            // Largest available pivot; ties by smallest row.
            let mut best: Option<usize> = None;
            for (i, &v) in x.iter().enumerate() {
                if !peeled.pivoted[i] && best.is_none_or(|b| v.abs() > x[b].abs()) {
                    best = Some(i);
                }
            }
            let p = best.expect("one unpivoted row per unprocessed column");
            if x[p].abs() < SINGULAR_TOL {
                return Err(SingularBasis);
            }
            self.push(p, &x);
            peeled.pivoted[p] = true;
            peeled.new_basic[p] = j;
        }
        Ok(())
    }
}

/// A refactorization after its singleton peel: the columns left to
/// eliminate, in pivot order, and the rows and heading so far.
struct Peeled {
    cols: Vec<usize>,
    pivoted: Vec<bool>,
    new_basic: Vec<usize>,
}

#[cfg(any(test, debug_assertions))]
impl Eta {
    /// Same row, same pivot bits, same off-pivot rows and bits.
    fn same_bits(&self, other: &Eta) -> bool {
        self.row == other.row
            && self.pivot.to_bits() == other.pivot.to_bits()
            && self.others.len() == other.others.len()
            && self
                .others
                .iter()
                .zip(&other.others)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 dense test matrix (nonsingular, asymmetric).
    const A: [[f64; 3]; 3] = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]];

    fn scatter(j: usize, x: &mut [f64]) {
        for (i, row) in A.iter().enumerate() {
            x[i] += row[j];
        }
    }

    fn col(j: usize, f: &mut dyn FnMut(usize, f64)) {
        for (i, row) in A.iter().enumerate() {
            if row[j] != 0.0 {
                f(i, row[j]);
            }
        }
    }

    fn mat_vec(v: &[f64]) -> Vec<f64> {
        A.iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn refactor_then_ftran_inverts() {
        let mut basis = EtaBasis::new(3);
        let mut basic = vec![0, 1, 2];
        basis.refactor(&mut basic, col, |_| 3).unwrap();
        // B^-1 (B v) == v, modulo the heading permutation: after
        // refactor, basic[r] names the column whose multiplier lands in
        // slot r of the FTRAN result.
        let v = [1.0, -2.0, 0.5];
        let mut x = mat_vec(&v);
        basis.ftran(&mut x);
        for r in 0..3 {
            assert!(
                (x[r] - v[basic[r]]).abs() < 1e-12,
                "x={x:?} basic={basic:?}"
            );
        }
    }

    #[test]
    fn btran_matches_transpose_solve() {
        let mut basis = EtaBasis::new(3);
        let mut basic = vec![0, 1, 2];
        basis.refactor(&mut basic, col, |_| 3).unwrap();
        // y = B^-T c  =>  B^T y = c  =>  y . (B e_j) = c_j.
        let c = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        for r in 0..3 {
            y[r] = c[basic[r]]; // cost of the column basic in row r
        }
        basis.btran(&mut y);
        for (j, &cj) in c.iter().enumerate() {
            let mut col = vec![0.0; 3];
            scatter(j, &mut col);
            let dot: f64 = y.iter().zip(&col).map(|(a, b)| a * b).sum();
            assert!((dot - cj).abs() < 1e-12, "col {j}: {dot} vs {cj}");
        }
    }

    #[test]
    fn push_update_tracks_column_swap() {
        // Start from the identity, swap in column 1 of A at row 1.
        let mut basis = EtaBasis::new(3);
        let mut w = vec![0.0; 3];
        scatter(1, &mut w);
        basis.ftran(&mut w); // identity basis: w = A e_1
        basis.push(1, &w);
        assert_eq!(basis.updates_since_refactor(), 1);
        // New basis B = [e_0, A e_1, e_2]; check B^-1 (A e_1) = e_1.
        let mut x = vec![0.0; 3];
        scatter(1, &mut x);
        basis.ftran(&mut x);
        assert!((x[0]).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2]).abs() < 1e-12);
    }

    #[test]
    fn singular_basis_is_reported() {
        let mut basis = EtaBasis::new(2);
        let mut basic = vec![0, 1];
        // Two copies of the same column.
        let dup = |_: usize, f: &mut dyn FnMut(usize, f64)| {
            f(0, 1.0);
            f(1, 2.0);
        };
        assert!(basis.refactor(&mut basic, dup, |_| 2).is_err());
    }

    #[test]
    fn singleton_fast_path_matches_general_path() {
        // A diagonal-ish heading: columns 0 and 2 are singletons, column
        // 1 is not. The singleton peel must leave exactly the same eta
        // product (checked through FTRAN results) as a basis with the
        // singletons forced through the general path by lying about nnz.
        let c = |j: usize, f: &mut dyn FnMut(usize, f64)| match j {
            0 => f(1, 2.0),
            1 => {
                f(0, 1.0);
                f(2, 3.0);
            }
            _ => f(0, 4.0),
        };
        let mut fast = EtaBasis::new(3);
        let mut fast_basic = vec![0, 1, 2];
        fast.refactor(&mut fast_basic, c, |j| if j == 1 { 2 } else { 1 })
            .unwrap();
        let mut slow = EtaBasis::new(3);
        let mut slow_basic = vec![0, 1, 2];
        // nnz >= 2 everywhere disables the peel but preserves the
        // (nnz, col) sort order of the two singletons vs column 1.
        slow.refactor(&mut slow_basic, c, |j| if j == 1 { 3 } else { 2 })
            .unwrap();
        assert_eq!(fast_basic, slow_basic);
        for trial in 0..3 {
            let mut a = vec![0.0; 3];
            let mut b = vec![0.0; 3];
            a[trial] = 1.0;
            b[trial] = 1.0;
            fast.ftran(&mut a);
            slow.ftran(&mut b);
            assert_eq!(a, b, "ftran of e_{trial} diverged");
        }
    }

    #[test]
    fn duplicate_singleton_rows_are_singular() {
        let mut basis = EtaBasis::new(2);
        let mut basic = vec![0, 1];
        // Two singleton columns on the same row.
        let dup = |_: usize, f: &mut dyn FnMut(usize, f64)| f(0, 1.0);
        assert!(basis.refactor(&mut basic, dup, |_| 1).is_err());
    }

    #[test]
    fn sparse_elimination_matches_dense_on_random_bases() {
        // Seeded sparse bases with fill-in, ties and singleton columns;
        // `refactor` itself checks every eta against the dense
        // elimination in test builds, and FTRAN must invert the result.
        let mut rng = aqua_rational::rng::XorShift64Star::new(0xE7A5);
        for trial in 0..200 {
            let m = 2 + rng.index(40);
            let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|j| {
                    let mut c = vec![(j, [1.0, -2.0, 0.5][rng.index(3)])];
                    for _ in 0..rng.index(4) {
                        let r = rng.index(m);
                        if c.iter().all(|&(i, _)| i != r) {
                            c.push((r, [1.0, -1.0, 3.0, 0.25][rng.index(4)]));
                        }
                    }
                    c.sort_by_key(|&(i, _)| i);
                    c
                })
                .collect();
            if trial % 7 == 0 {
                cols[0] = cols[m - 1].clone(); // singular
            }
            let col = |j: usize, f: &mut dyn FnMut(usize, f64)| {
                cols[j].iter().for_each(|&(i, v)| f(i, v));
            };
            let mut basis = EtaBasis::new(m);
            let mut basic: Vec<usize> = (0..m).collect();
            if basis.refactor(&mut basic, col, |j| cols[j].len()).is_err() {
                continue;
            }
            for (r, &j) in basic.iter().enumerate() {
                let mut x = vec![0.0; m];
                col(j, &mut |i, v| x[i] += v);
                basis.ftran(&mut x);
                for (i, &xi) in x.iter().enumerate() {
                    let want = if i == r { 1.0 } else { 0.0 };
                    assert!((xi - want).abs() < 1e-9, "trial {trial}: column {j}");
                }
            }
        }
    }
}
