//! Property tests for the dense linear-algebra kernels the solvers rest
//! on: Gaussian elimination, nullspaces, least squares, inverses — plus
//! the kernel-agreement suite pinning every runtime-selectable SIMD
//! backend (`qava_linalg::kernel`) to the scalar reference semantics.

use proptest::prelude::*;
use qava_linalg::kernel::{self, ScalarKernel, VecKernel};
use qava_linalg::{vecops, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, cols), rows)
        .prop_map(Matrix::from_rows)
}

fn square(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `A · solve(A, b) = b` whenever a solution is reported.
    #[test]
    fn solve_satisfies_system(a in square(3), b in proptest::collection::vec(-5.0f64..5.0, 3)) {
        if let Some(x) = a.solve(&b) {
            let ax = a.mul_vec(&x);
            for (l, r) in ax.iter().zip(&b) {
                prop_assert!((l - r).abs() < 1e-6, "Ax = {ax:?} vs b = {b:?}");
            }
        }
    }

    /// Every reported nullspace vector is annihilated by the matrix, and
    /// rank + nullity = number of columns.
    #[test]
    fn nullspace_annihilates(a in matrix(3, 4)) {
        let ns = a.nullspace();
        for v in &ns {
            let av = a.mul_vec(v);
            prop_assert!(vecops::norm_inf(&av) < 1e-7, "A·v = {av:?}");
            prop_assert!(vecops::norm_inf(v) > 1e-9, "trivial basis vector");
        }
        prop_assert_eq!(a.rank() + ns.len(), 4);
    }

    /// The least-squares residual is orthogonal to the column space:
    /// `Aᵀ(Ax − b) ≈ 0`.
    #[test]
    fn least_squares_normal_equations(
        a in matrix(4, 2),
        b in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        let x = a.least_squares(&b);
        let r: Vec<f64> = a.mul_vec(&x).iter().zip(&b).map(|(l, r)| l - r).collect();
        let atr = a.mul_vec_transposed(&r);
        // The implementation regularizes slightly, so allow a small slack.
        prop_assert!(vecops::norm_inf(&atr) < 1e-3, "Aᵀr = {atr:?}");
    }

    /// `A · A⁻¹ = I` whenever an inverse is reported.
    #[test]
    fn inverse_roundtrip(a in square(3)) {
        if let Some(inv) = a.inverse() {
            let prod = a.mul(&inv);
            for i in 0..3 {
                for j in 0..3 {
                    let want = if i == j { 1.0 } else { 0.0 };
                    prop_assert!((prod[(i, j)] - want).abs() < 1e-6);
                }
            }
        }
    }

    /// Transposition is an involution and distributes over products the
    /// usual way: `(AB)ᵀ = BᵀAᵀ`.
    #[test]
    fn transpose_product_identity(a in matrix(2, 3), b in matrix(3, 2)) {
        let left = a.mul(&b).transpose();
        let right = b.transpose().mul(&a.transpose());
        for i in 0..left.rows() {
            for j in 0..left.cols() {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// `mul_vec_transposed` agrees with explicitly transposing.
    #[test]
    fn mul_vec_transposed_agrees(a in matrix(3, 4), x in proptest::collection::vec(-5.0f64..5.0, 3)) {
        let fast = a.mul_vec_transposed(&x);
        let slow = a.transpose().mul_vec(&x);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f - s).abs() < 1e-12);
        }
    }

    /// Rank is invariant under transposition.
    #[test]
    fn rank_transpose_invariant(a in matrix(3, 4)) {
        prop_assert_eq!(a.rank(), a.transpose().rank());
    }
}

// ---------------------------------------------------------------------
// Kernel agreement: every backend `kernel::available()` lists for this
// CPU must reproduce the scalar baseline on every kernel, across all
// tail lengths, empty inputs, NaN/±inf propagation, and subnormals.
// The contract is split (see `kernel/avx2.rs`): the dense `dot`/`axpy`
// may deviate at ulp scale (SIMD reassociation and FMA contraction are
// the only licensed deviations — orders of magnitude inside the 1e-7
// tolerances any LP verdict is allowed), while the gathered kernels,
// `scatter_axpy`, `norm_inf`, and `scale` must be **bit-exact**: the
// factorized LP engines run on them, and exactness keeps pivot
// trajectories backend-independent on knife-edge degenerate systems.
// ---------------------------------------------------------------------

/// Absolute-or-magnitude-relative agreement bound for one reduction:
/// `mag` is the sum of absolute products flowing into the accumulator.
fn close(a: f64, b: f64, mag: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-12 * (1.0 + mag)
}

/// Every non-scalar backend the running CPU can execute.
fn simd_backends() -> Vec<&'static dyn VecKernel> {
    kernel::available().into_iter().filter(|k| k.name() != "scalar").collect()
}

/// Deterministic but irregular test data.
fn wiggle(i: usize, salt: f64) -> f64 {
    ((i as f64) * 0.7310585 + salt).sin() * 4.0
}

#[test]
fn kernels_agree_on_dense_ops_at_every_tail_length() {
    // 0..=40 crosses every remainder 0–7 of the widest (8-wide) SIMD
    // stride, including the empty slice.
    for k in simd_backends() {
        for len in 0..=40usize {
            let a: Vec<f64> = (0..len).map(|i| wiggle(i, 0.1)).collect();
            let b: Vec<f64> = (0..len).map(|i| wiggle(i, 2.7)).collect();
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            assert!(
                close(k.dot(&a, &b), ScalarKernel.dot(&a, &b), mag),
                "{} dot len {len}",
                k.name()
            );

            let mut y_simd: Vec<f64> = (0..len).map(|i| wiggle(i, 5.3)).collect();
            let mut y_ref = y_simd.clone();
            k.axpy(-1.375, &a, &mut y_simd);
            ScalarKernel.axpy(-1.375, &a, &mut y_ref);
            for (i, (s, r)) in y_simd.iter().zip(&y_ref).enumerate() {
                assert!(close(*s, *r, r.abs()), "{} axpy len {len} slot {i}", k.name());
            }

            assert_eq!(
                k.norm_inf(&a),
                ScalarKernel.norm_inf(&a),
                "{} norm_inf len {len}",
                k.name()
            );

            let mut s_simd = a.clone();
            let mut s_ref = a.clone();
            k.scale(0.8125, &mut s_simd);
            ScalarKernel.scale(0.8125, &mut s_ref);
            assert_eq!(s_simd, s_ref, "{} scale len {len} (exact: one rounding each)", k.name());
        }
    }
}

#[test]
fn kernels_agree_on_gathered_ops_at_every_tail_length() {
    let m = 23usize;
    let x: Vec<f64> = (0..m).map(|i| wiggle(i, 1.9)).collect();
    // A fixed permutation of 0..m: valid gather indices, and pairwise
    // distinct as `scatter_axpy` requires.
    let mut perm: Vec<usize> = (0..m).collect();
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..m).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    for k in simd_backends() {
        for len in 0..=m {
            let idx = &perm[..len];
            let vals: Vec<f64> = (0..len).map(|i| wiggle(i, 8.2)).collect();
            // Bit-exact, not merely close: lane k of a SIMD gather must
            // replay scalar accumulator s_k operation for operation.
            assert_eq!(
                k.gather_dot(idx, &vals, &x).to_bits(),
                ScalarKernel.gather_dot(idx, &vals, &x).to_bits(),
                "{} gather_dot len {len}",
                k.name()
            );

            let mut y_simd = x.clone();
            let mut y_ref = x.clone();
            k.scatter_axpy(2.25, idx, &vals, &mut y_simd);
            ScalarKernel.scatter_axpy(2.25, idx, &vals, &mut y_ref);
            assert_eq!(y_simd, y_ref, "{} scatter_axpy len {len}", k.name());
        }
    }
}

#[test]
fn kernels_agree_on_nan_and_inf_propagation() {
    for k in simd_backends() {
        // One poisoned slot at every lane position of the widest stride:
        // a NaN anywhere must surface as a NaN total, a single ±inf as
        // that infinity, under every backend.
        for slot in 0..16usize {
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a: Vec<f64> = (0..16).map(|i| wiggle(i, 0.4)).collect();
                a[slot] = poison;
                let b: Vec<f64> = (0..16).map(|i| 1.0 + (i as f64) * 0.125).collect();
                let got = k.dot(&a, &b);
                let want = ScalarKernel.dot(&a, &b);
                assert!(close(got, want, 0.0), "{} dot poison {poison} slot {slot}", k.name());

                let mut y_simd = b.clone();
                let mut y_ref = b.clone();
                k.axpy(1.5, &a, &mut y_simd);
                ScalarKernel.axpy(1.5, &a, &mut y_ref);
                assert!(
                    close(y_simd[slot], y_ref[slot], 0.0),
                    "{} axpy poison {poison} slot {slot}",
                    k.name()
                );
            }
        }
        // Mixed infinities annihilate to NaN in every backend.
        let mut a = vec![1.0f64; 12];
        a[2] = f64::INFINITY;
        a[9] = f64::NEG_INFINITY;
        let b = vec![1.0f64; 12];
        assert!(k.dot(&a, &b).is_nan(), "{}: +inf + -inf must be NaN", k.name());
        // norm_inf keeps f64::max's ignore-NaN fold and maps ±inf to +inf.
        let mut n = vec![0.5f64; 13];
        n[4] = f64::NAN;
        n[11] = -3.5;
        assert_eq!(k.norm_inf(&n), 3.5, "{}: norm_inf ignores NaN entries", k.name());
        n[6] = f64::NEG_INFINITY;
        assert_eq!(k.norm_inf(&n), f64::INFINITY, "{}: norm_inf of -inf", k.name());
    }
}

#[test]
fn kernels_agree_exactly_on_subnormals() {
    // Small-integer multiples of the smallest subnormal: every
    // intermediate is exactly representable, so all backends must agree
    // bit-for-bit — this also proves no backend flushes subnormals to
    // zero (no FTZ/DAZ).
    let tiny = f64::from_bits(1); // 2^-1074
    for k in simd_backends() {
        for len in 0..=19usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 + 1.0) * tiny).collect();
            let ones = vec![1.0f64; len];
            assert_eq!(
                k.dot(&a, &ones).to_bits(),
                ScalarKernel.dot(&a, &ones).to_bits(),
                "{} subnormal dot len {len}",
                k.name()
            );
            let mut y_simd = vec![0.0f64; len];
            let mut y_ref = vec![0.0f64; len];
            k.axpy(1.0, &a, &mut y_simd);
            ScalarKernel.axpy(1.0, &a, &mut y_ref);
            assert_eq!(y_simd, y_ref, "{} subnormal axpy len {len}", k.name());
            let mut s = a.clone();
            k.scale(2.0, &mut s);
            for (i, (got, orig)) in s.iter().zip(&a).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    (orig * 2.0).to_bits(),
                    "{} subnormal scale len {len} slot {i}",
                    k.name()
                );
            }
            assert_eq!(
                k.norm_inf(&a),
                ScalarKernel.norm_inf(&a),
                "{} subnormal norm_inf len {len}",
                k.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomized agreement sweep: every available SIMD backend matches
    /// the scalar reference on random dense pairs of every length
    /// across the dispatch cutover and both SIMD strides.
    #[test]
    fn kernels_agree_on_random_dense_slices(
        data in proptest::collection::vec(-9.0f64..9.0, 0..48),
        alpha in -4.0f64..4.0,
    ) {
        let half = data.len() / 2;
        let (a, b) = (&data[..half], &data[half..2 * half]);
        for k in simd_backends() {
            let mag: f64 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
            prop_assert!(
                close(k.dot(a, b), ScalarKernel.dot(a, b), mag),
                "{} dot len {}", k.name(), half
            );
            let mut y_simd = b.to_vec();
            let mut y_ref = b.to_vec();
            k.axpy(alpha, a, &mut y_simd);
            ScalarKernel.axpy(alpha, a, &mut y_ref);
            for (s, r) in y_simd.iter().zip(&y_ref) {
                prop_assert!(close(*s, *r, r.abs()), "{} axpy len {}", k.name(), half);
            }
            prop_assert_eq!(k.norm_inf(a), ScalarKernel.norm_inf(a));
        }
    }
}
