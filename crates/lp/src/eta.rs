//! Product-form eta file and the LU-backed basis representation.
//!
//! After a basis exchange `B' = B·E` — column `r` of the identity
//! replaced by the ftran'd entering column `u` — an explicit inverse
//! would rewrite every row of `B⁻¹` (O(m²)). The product form instead
//! **appends one eta vector**: `B'⁻¹ = E⁻¹·B⁻¹`, so a pivot costs
//! O(nnz(u)) and the solves simply run through the eta stack:
//!
//! * ftran: `x = E_k⁻¹ ⋯ E_1⁻¹ · (LU-ftran b)` — etas applied oldest
//!   first after the factor solve;
//! * btran: `y = LU-btran (E_1⁻ᵀ ⋯ E_k⁻ᵀ · c)` — etas applied newest
//!   first before the factor solve.
//!
//! Applying `E⁻¹` touches only the eta's nonzeros, and an eta whose
//! pivot component in the running vector is zero is skipped outright —
//! with the sparse right-hand sides of the synthesis LPs most are.
//!
//! The stack cannot grow forever: each eta adds nonzeros to every later
//! solve and compounds rounding error. [`LuBasis`] therefore triggers
//! refactorization (a fresh [`LuFactors`] run, emptying the stack) on
//! any of three conditions instead of a fixed pivot period:
//!
//! * **eta count** — more than [`MAX_ETAS`] updates since the last
//!   factorization;
//! * **fill-in** — the stack's nonzeros exceed [`FILL_FACTOR`] × the
//!   factor nonzeros, so solves would spend longer in the etas than in
//!   the factors themselves;
//! * **accuracy** — a pivot element below the healthy threshold entered
//!   the file; dividing by a near-zero amplifies accumulated error, and
//!   the next factorization from scratch resets it.

use crate::lu::LuFactors;
use crate::CscMatrix;
use qava_linalg::vecops;

/// Eta-count refactorization threshold: bounds the error-accumulation
/// window between factorizations.
const MAX_ETAS: usize = 64;

/// Fill-in threshold: refactorize when the eta stack holds more than
/// this multiple of the LU factors' nonzeros.
const FILL_FACTOR: usize = 2;

/// Pivot magnitude below which an update is considered accuracy-risky;
/// mirrors `PIVOT_TOL` in the ratio test of [`crate::revised`].
const SHAKY_PIVOT: f64 = 1e-7;

/// One product-form update: the entering column `u` (in basis-slot
/// space) that replaced slot `row`. The pivot component `u[row]` is held
/// apart from the off-pivot nonzeros.
#[derive(Debug, Clone)]
struct Eta {
    row: usize,
    pivot: f64,
    idx: Vec<usize>,
    vals: Vec<f64>,
}

/// A stack of product-form updates since the last factorization.
#[derive(Debug, Clone, Default)]
pub(crate) struct EtaFile {
    etas: Vec<Eta>,
    nnz: usize,
}

impl EtaFile {
    /// Records the basis exchange at `row` with direction `u`;
    /// `support` lists the indices of `u`'s (meaningfully) nonzero
    /// entries in increasing order.
    pub(crate) fn push(&mut self, row: usize, u: &[f64], support: &[usize]) {
        let mut idx = Vec::with_capacity(support.len());
        let mut vals = Vec::with_capacity(support.len());
        for &i in support {
            if i != row {
                idx.push(i);
                vals.push(u[i]);
            }
        }
        self.nnz += idx.len() + 1;
        self.etas.push(Eta { row, pivot: u[row], idx, vals });
    }

    /// Updates since the last [`clear`](Self::clear).
    pub(crate) fn len(&self) -> usize {
        self.etas.len()
    }

    /// Total stored nonzeros (pivots included) — the fill-in measure.
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }

    /// Empties the file (after a refactorization).
    pub(crate) fn clear(&mut self) {
        self.etas.clear();
        self.nnz = 0;
    }

    /// Applies `E_k⁻¹ ⋯ E_1⁻¹` to `x` (the ftran tail): oldest eta
    /// first. Etas whose pivot component of `x` is zero are skipped.
    pub(crate) fn apply(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let xr = x[eta.row];
            if xr == 0.0 {
                continue;
            }
            let t = xr / eta.pivot;
            x[eta.row] = t;
            vecops::scatter_axpy(-t, &eta.idx, &eta.vals, x);
        }
    }

    /// Applies `E_1⁻ᵀ ⋯ E_k⁻ᵀ` to `c` (the btran head): newest eta
    /// first, one gather dot per eta.
    pub(crate) fn apply_transpose(&self, c: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let s = vecops::gather_dot(&eta.idx, &eta.vals, c);
            c[eta.row] = (c[eta.row] - s) / eta.pivot;
        }
    }

    /// Transposed application specialized to a unit start vector `eᵢ` —
    /// the btran behind [`LuBasis::binv_row`],
    /// i.e. the pricing row `ρ = eᵣᵀB⁻¹` of the dual-simplex ratio test.
    /// While the running vector is still the singleton `{i}`, an eta only
    /// acts if its pivot row *is* `i` (a scalar divide) or its off-pivot
    /// support *contains* `i` — an O(log nnz) membership probe on the
    /// sorted index list instead of a full gather dot. The generic
    /// newest-first loop takes over at the first eta that spreads the
    /// support. `c` must hold `eᵢ` on entry.
    pub(crate) fn apply_transpose_unit(&self, i: usize, c: &mut [f64]) {
        let mut k = self.etas.len();
        while k > 0 {
            let eta = &self.etas[k - 1];
            if eta.idx.binary_search(&i).is_ok() {
                break; // support is about to spread beyond {i}
            }
            if eta.row == i {
                c[i] /= eta.pivot;
            }
            k -= 1;
        }
        for eta in self.etas[..k].iter().rev() {
            let s = vecops::gather_dot(&eta.idx, &eta.vals, c);
            c[eta.row] = (c[eta.row] - s) / eta.pivot;
        }
    }
}

/// The LU-factorized basis representation: [`LuFactors`] for the last
/// refactorization point plus the [`EtaFile`] of updates since — the
/// stand-in for `B⁻¹` behind the `lu` backend ([`crate::LuSimplex`]).
/// It answers the queries the simplex loop needs: forward
/// transformation (`B⁻¹·a_j`), backward transformation (`c_Bᵀ·B⁻¹`),
/// single rows of `B⁻¹`, and the basis-exchange update.
#[derive(Debug, Clone)]
pub(crate) struct LuBasis {
    m: usize,
    lu: LuFactors,
    etas: EtaFile,
    /// An accuracy-risky pivot entered the eta file; refactorize at the
    /// next opportunity.
    shaky: bool,
}

impl LuBasis {
    fn solve_scattered(&self, mut x: Vec<f64>) -> Vec<f64> {
        let mut scratch = Vec::new();
        self.lu.ftran(&mut x, &mut scratch);
        self.etas.apply(&mut x);
        x
    }

    /// The representation of the all-artificial identity basis (the
    /// phase-1 starting point).
    pub(crate) fn identity(m: usize) -> Self {
        LuBasis { m, lu: LuFactors::identity(m), etas: EtaFile::default(), shaky: false }
    }

    /// Rebuilds the factors from scratch for the given basis (artificial
    /// columns are `a.cols()..`, stored as unit columns) and empties the
    /// eta file. Returns `false` — leaving the previous state untouched —
    /// when the basis matrix is singular.
    pub(crate) fn refactor(&mut self, a: &CscMatrix, n: usize, basis: &[usize]) -> bool {
        let cols: Vec<(Vec<usize>, Vec<f64>)> =
            basis.iter().map(|&j| crate::revised::basis_col(a, n, j)).collect();
        match LuFactors::factorize(self.m, &cols) {
            Some(lu) => {
                self.lu = lu;
                self.etas.clear();
                self.shaky = false;
                true
            }
            None => false,
        }
    }

    /// `B⁻¹ · v` for a sparse column `v` given as parallel
    /// `(indices, values)` slices.
    pub(crate) fn ftran_col(&self, idx: &[usize], vals: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.m];
        for (&r, &v) in idx.iter().zip(vals) {
            x[r] = v;
        }
        self.solve_scattered(x)
    }

    /// `B⁻¹ · rhs` for a dense right-hand side.
    pub(crate) fn ftran_dense(&self, rhs: &[f64]) -> Vec<f64> {
        self.solve_scattered(rhs.to_vec())
    }

    /// `c_Bᵀ · B⁻¹` for a dense basic-cost vector.
    pub(crate) fn btran_dense(&self, cb: &[f64]) -> Vec<f64> {
        let mut c = cb.to_vec();
        self.etas.apply_transpose(&mut c);
        self.lu.btran(&c)
    }

    /// Row `i` of `B⁻¹` (equivalently `eᵢᵀ·B⁻¹`).
    pub(crate) fn binv_row(&self, i: usize) -> Vec<f64> {
        // Unit-vector btran through the singleton-aware eta fast path
        // (the dual ratio test prices one such row per dual pivot).
        let mut e = vec![0.0; self.m];
        e[i] = 1.0;
        self.etas.apply_transpose_unit(i, &mut e);
        self.lu.btran(&e)
    }

    /// Applies the basis exchange: the variable at `row` leaves and the
    /// column with ftran'd direction `u` enters. `support` lists the
    /// indices `i` with `|u[i]| > EPS` in increasing order, so sparse
    /// directions only touch their own rows.
    pub(crate) fn update(&mut self, row: usize, u: &[f64], support: &[usize]) {
        if u[row].abs() < SHAKY_PIVOT || crate::faults::trip(crate::faults::Site::UpdatePivot) {
            self.shaky = true;
        }
        self.etas.push(row, u, support);
    }

    /// Whether the accumulated updates warrant a refactorization now
    /// (eta count, fill-in, or an accuracy-risky pivot).
    pub(crate) fn should_refactor(&self) -> bool {
        self.shaky
            || self.etas.len() >= MAX_ETAS
            || self.etas.nnz() > FILL_FACTOR * self.lu.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qava_linalg::Matrix;

    fn basis_csc(dense: Vec<Vec<f64>>) -> CscMatrix {
        CscMatrix::from_dense(&Matrix::from_rows(dense))
    }

    /// Reference B⁻¹ for a basis assembled the same way `refactor` does.
    fn dense_inverse(a: &CscMatrix, n: usize, basis: &[usize]) -> Matrix {
        let m = a.rows();
        let mut bm = Matrix::zeros(m, m);
        for (k, &j) in basis.iter().enumerate() {
            if j < n {
                let (idx, vals) = a.col(j);
                for (&r, &v) in idx.iter().zip(vals) {
                    bm[(r, k)] = v;
                }
            } else {
                bm[(j - n, k)] = 1.0;
            }
        }
        bm.inverse().expect("test basis nonsingular")
    }

    #[test]
    fn refactor_and_solves_match_dense_inverse() {
        let a = basis_csc(vec![
            vec![2.0, 0.0, 1.0, 1.0],
            vec![0.0, 3.0, 0.0, -1.0],
            vec![1.0, 1.0, 1.0, 0.0],
        ]);
        let basis = vec![0usize, 3, 2];
        let mut repr = LuBasis::identity(3);
        assert!(repr.refactor(&a, 4, &basis));
        let inv = dense_inverse(&a, 4, &basis);
        let b = vec![1.0, 2.0, -1.0];
        let x = repr.ftran_dense(&b);
        let want = inv.mul_vec(&b);
        for (got, w) in x.iter().zip(&want) {
            assert!((got - w).abs() < 1e-9, "{got} vs {w}");
        }
        let y = repr.btran_dense(&b);
        let want_y = inv.mul_vec_transposed(&b);
        for (got, w) in y.iter().zip(&want_y) {
            assert!((got - w).abs() < 1e-9, "{got} vs {w}");
        }
        for i in 0..3 {
            let row = repr.binv_row(i);
            for (j, got) in row.iter().enumerate() {
                assert!((got - inv[(i, j)]).abs() < 1e-9, "row {i} col {j}");
            }
        }
    }

    #[test]
    fn artificial_columns_are_unit_columns() {
        let a = basis_csc(vec![vec![5.0, 1.0], vec![0.0, 2.0]]);
        // Basis = {column 1, artificial of row 0} (artificials are n..).
        let mut repr = LuBasis::identity(2);
        assert!(repr.refactor(&a, 2, &[1, 2]));
        let inv = dense_inverse(&a, 2, &[1, 2]);
        let x = repr.ftran_col(&[0], &[1.0]);
        let want = inv.mul_vec(&[1.0, 0.0]);
        for (got, w) in x.iter().zip(&want) {
            assert!((got - w).abs() < 1e-9);
        }
    }

    #[test]
    fn eta_updates_track_explicit_reinversion() {
        // Start from the identity basis of a 3-row system, pivot a real
        // column in, and compare every solve against a from-scratch
        // factorization of the updated basis.
        let a = basis_csc(vec![
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 2.0],
        ]);
        let n = 3;
        let mut incremental = LuBasis::identity(3);
        let mut basis = vec![n, n + 1, n + 2];

        // Pivot column 1 into slot 0, then column 2 into slot 2 — the
        // direction u is B⁻¹·a_j with the *current* representation.
        for &(col, slot) in &[(1usize, 0usize), (2, 2)] {
            let (idx, vals) = a.col(col);
            let u = incremental.ftran_col(idx, vals);
            let support: Vec<usize> =
                (0..3).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            incremental.update(slot, &u, &support);
            basis[slot] = col;

            let mut fresh = LuBasis::identity(3);
            assert!(fresh.refactor(&a, n, &basis));
            let b = vec![0.5, -1.0, 2.0];
            let xi = incremental.ftran_dense(&b);
            let xf = fresh.ftran_dense(&b);
            for (g, w) in xi.iter().zip(&xf) {
                assert!((g - w).abs() < 1e-9, "ftran diverged: {g} vs {w}");
            }
            let yi = incremental.btran_dense(&b);
            let yf = fresh.btran_dense(&b);
            for (g, w) in yi.iter().zip(&yf) {
                assert!((g - w).abs() < 1e-9, "btran diverged: {g} vs {w}");
            }
        }
        assert_eq!(incremental.etas.len(), 2);
        assert!(incremental.etas.nnz() >= 2);
    }

    #[test]
    fn unit_btran_fast_path_matches_generic_with_live_etas() {
        // Same update chain as `eta_updates_track_explicit_reinversion`,
        // but checks the binv_row fast path (singleton-skip transposed
        // etas) against the generic dense btran for every pricing row
        // while the eta stack is non-empty.
        let a = basis_csc(vec![
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 2.0],
        ]);
        let mut repr = LuBasis::identity(3);
        for &(col, slot) in &[(1usize, 0usize), (2, 2)] {
            let (idx, vals) = a.col(col);
            let u = repr.ftran_col(idx, vals);
            let support: Vec<usize> =
                (0..3).filter(|&i| u[i].abs() > qava_linalg::EPS).collect();
            repr.update(slot, &u, &support);
        }
        assert_eq!(repr.etas.len(), 2, "fast path must see live etas");
        for i in 0..3 {
            let fast = repr.binv_row(i);
            let mut e = vec![0.0; 3];
            e[i] = 1.0;
            let generic = repr.btran_dense(&e);
            for (g, w) in fast.iter().zip(&generic) {
                assert!((g - w).abs() < 1e-12, "row {i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn refactor_thresholds_fire() {
        let a = basis_csc(vec![vec![1.0]]);
        let mut repr = LuBasis::identity(1);
        assert!(repr.refactor(&a, 1, &[0]));
        assert!(!repr.should_refactor());
        // Eta-count threshold.
        for _ in 0..MAX_ETAS {
            repr.update(0, &[2.0], &[0]);
        }
        assert!(repr.should_refactor());
        assert!(repr.refactor(&a, 1, &[0]), "refactor resets the eta stack");
        assert!(!repr.should_refactor());
        // Accuracy threshold: one tiny pivot is enough.
        repr.update(0, &[1e-9], &[0]);
        assert!(repr.should_refactor());
        // Singular refactorization keeps the incremental state.
        let singular = basis_csc(vec![vec![0.0]]);
        assert!(!repr.refactor(&singular, 1, &[0]));
        assert!(repr.should_refactor(), "state kept after failed refactor");
    }
}
