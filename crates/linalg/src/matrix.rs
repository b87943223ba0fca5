//! Row-major dense matrix with the elimination routines the rest of the
//! workspace needs: linear solves, rank, nullspace bases, least squares and
//! inverses. All pivoting uses partial pivoting with the shared [`crate::EPS`]
//! tolerance.

use crate::{vecops, EPS};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// ```
/// use qava_linalg::Matrix;
/// let m = Matrix::identity(3);
/// assert_eq!(m.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in &rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()` (unless the matrix is empty).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row: width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows).map(|i| vecops::dot(self.row(i), x)).collect()
    }

    /// Transposed matrix–vector product `Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn mul_vec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "mul_vec_transposed: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            vecops::axpy(xi, self.row(i), &mut out);
        }
        out
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.mul_into(other, &mut out);
        out
    }

    /// Matrix product `A·B` written into `out`, reusing its storage.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn mul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "mul: dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.cols), "mul_into: output shape mismatch");
        out.data.fill(0.0);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Reduces the matrix in place to row echelon form with partial pivoting
    /// and returns the pivot column of each pivot row.
    pub fn row_echelon(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut r = 0;
        for c in 0..self.cols {
            if r == self.rows {
                break;
            }
            // Partial pivoting: largest absolute entry in column c below r.
            let (best, mag) = (r..self.rows)
                .map(|i| (i, self[(i, c)].abs()))
                .fold((r, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc });
            if mag <= EPS {
                continue;
            }
            self.swap_rows(r, best);
            let inv = 1.0 / self[(r, c)];
            for j in c..self.cols {
                self[(r, j)] *= inv;
            }
            for i in 0..self.rows {
                if i != r {
                    let f = self[(i, c)];
                    if f.abs() > EPS {
                        for j in c..self.cols {
                            let v = self[(r, j)];
                            self[(i, j)] -= f * v;
                        }
                    }
                }
            }
            pivots.push(c);
            r += 1;
        }
        pivots
    }

    /// Numerical rank via Gaussian elimination.
    pub fn rank(&self) -> usize {
        let mut work = self.clone();
        work.row_echelon().len()
    }

    /// Solves `A·x = b` for square `A`. Returns `None` when `A` is singular
    /// (to working tolerance).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve: matrix must be square");
        assert_eq!(b.len(), self.rows, "solve: rhs length mismatch");
        let n = self.rows;
        let mut aug = Matrix::zeros(n, n + 1);
        for i in 0..n {
            aug.row_mut(i)[..n].copy_from_slice(self.row(i));
            aug[(i, n)] = b[i];
        }
        let pivots = aug.row_echelon();
        if pivots.len() < n {
            return None;
        }
        Some((0..n).map(|i| aug[(i, n)]).collect())
    }

    /// Returns a basis of the nullspace `{x : A·x = 0}` (empty when the map
    /// is injective).
    pub fn nullspace(&self) -> Vec<Vec<f64>> {
        let mut work = self.clone();
        let pivots = work.row_echelon();
        let pivot_set: Vec<bool> = {
            let mut s = vec![false; self.cols];
            for &c in &pivots {
                s[c] = true;
            }
            s
        };
        let mut basis = Vec::new();
        for free in 0..self.cols {
            if pivot_set[free] {
                continue;
            }
            let mut v = vec![0.0; self.cols];
            v[free] = 1.0;
            for (r, &pc) in pivots.iter().enumerate() {
                v[pc] = -work[(r, free)];
            }
            basis.push(v);
        }
        basis
    }

    /// Inverse of a square matrix; `None` when singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse: matrix must be square");
        let n = self.rows;
        let mut aug = Matrix::zeros(n, 2 * n);
        for i in 0..n {
            aug.row_mut(i)[..n].copy_from_slice(self.row(i));
            aug[(i, n + i)] = 1.0;
        }
        let pivots = aug.row_echelon();
        if pivots.len() < n || pivots.iter().enumerate().any(|(r, &c)| r != c) {
            return None;
        }
        let mut inv = Matrix::zeros(n, n);
        for i in 0..n {
            inv.row_mut(i).copy_from_slice(&aug.row(i)[n..]);
        }
        Some(inv)
    }

    /// Minimum-norm least-squares solution of `A·x ≈ b` via normal equations
    /// with a tiny Tikhonov ridge; always returns a vector.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn least_squares(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows, "least_squares: rhs length mismatch");
        let at = self.transpose();
        let mut ata = at.mul(self);
        // Ridge keeps the normal equations solvable for rank-deficient A;
        // it must dominate the elimination pivot tolerance EPS.
        let scale = (0..ata.rows).map(|i| ata[(i, i)].abs()).fold(1.0, f64::max);
        for i in 0..ata.rows {
            ata[(i, i)] += 1e-7 * scale;
        }
        let atb = self.mul_vec_transposed(b);
        ata.solve(&atb).expect("ridge-regularized normal equations are nonsingular")
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, i: usize, j: usize) {
        assert!(i < self.rows && j < self.rows, "swap_rows: index out of bounds");
        if i == j {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(i * self.cols + c, j * self.cols + c);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let m = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.solve(&b).unwrap(), b);
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn singular_solve_is_none() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn rank_of_rank_deficient() {
        let a = Matrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![1.0, 0.0, 1.0],
        ]);
        assert_eq!(a.rank(), 2);
    }

    #[test]
    fn nullspace_annihilates() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 1.0]]);
        let ns = a.nullspace();
        assert_eq!(ns.len(), 1);
        let img = a.mul_vec(&ns[0]);
        assert!(crate::vecops::norm_inf(&img) < 1e-9);
    }

    #[test]
    fn nullspace_of_full_rank_is_empty() {
        let a = Matrix::identity(3);
        assert!(a.nullspace().is_empty());
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(vec![
            vec![4.0, 7.0, 2.0],
            vec![3.0, 5.0, 1.0],
            vec![-1.0, 0.0, 2.0],
        ]);
        let inv = a.inverse().unwrap();
        let prod = a.mul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn inverse_of_singular_is_none() {
        let a = Matrix::from_rows(vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mul_against_hand_computation() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.mul(&b);
        assert_eq!(c, Matrix::from_rows(vec![vec![2.0, 1.0], vec![4.0, 3.0]]));
    }

    #[test]
    fn mul_vec_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 0.0], vec![0.0, 1.0, -1.0]]);
        let x = vec![2.0, 3.0];
        assert_eq!(a.mul_vec_transposed(&x), a.transpose().mul_vec(&x));
    }

    #[test]
    fn least_squares_overdetermined() {
        // Fit y = 2t + 1 through exact points.
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]]);
        let x = a.least_squares(&[1.0, 3.0, 5.0]);
        assert!((x[0] - 2.0).abs() < 1e-5);
        assert!((x[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m[(1, 0)], 3.0);
    }
}
