//! Portable scalar baseline: the four-wide unrolled loops every target
//! compiles. These bodies are the reference semantics for the whole
//! kernel layer — a SIMD backend is correct exactly when it agrees with
//! them on every input (within reassociation/FMA rounding, pinned by the
//! property tests in `tests/prop.rs`).
//!
//! The unroll pattern is deliberate: four independent accumulators break
//! the serial dependence of a naive fold so the FP pipelines stay full,
//! and the chunked slices give the compiler bounds-check-free bodies it
//! can lower to whatever vector width the build target guarantees.

use super::VecKernel;

/// The portable baseline kernel (always available, always selectable).
#[derive(Debug, Clone, Copy)]
pub struct ScalarKernel;

impl VecKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        dot(a, b)
    }

    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        axpy(alpha, x, y);
    }

    fn gather_dot(&self, idx: &[usize], vals: &[f64], x: &[f64]) -> f64 {
        gather_dot(idx, vals, x)
    }

    fn scatter_axpy(&self, alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]) {
        scatter_axpy(alpha, idx, vals, y);
    }

    fn norm_inf(&self, x: &[f64]) -> f64 {
        norm_inf(x)
    }

    fn scale(&self, alpha: f64, x: &mut [f64]) {
        scale(alpha, x);
    }
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        s0 += xa[0] * xb[0];
        s1 += xa[1] * xb[1];
        s2 += xa[2] * xb[2];
        s3 += xa[3] * xb[3];
    }
    let tail: f64 = ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| x * y).sum();
    (s0 + s1) + (s2 + s3) + tail
}

pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact_mut(4);
    for (xs, ys) in cx.by_ref().zip(cy.by_ref()) {
        ys[0] += alpha * xs[0];
        ys[1] += alpha * xs[1];
        ys[2] += alpha * xs[2];
        ys[3] += alpha * xs[3];
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

pub(crate) fn gather_dot(idx: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(idx.len(), vals.len());
    let mut ci = idx.chunks_exact(4);
    let mut cv = vals.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (is, vs) in ci.by_ref().zip(cv.by_ref()) {
        s0 += vs[0] * x[is[0]];
        s1 += vs[1] * x[is[1]];
        s2 += vs[2] * x[is[2]];
        s3 += vs[3] * x[is[3]];
    }
    let tail: f64 = ci
        .remainder()
        .iter()
        .zip(cv.remainder())
        .map(|(&r, &v)| v * x[r])
        .sum();
    (s0 + s1) + (s2 + s3) + tail
}

pub(crate) fn scatter_axpy(alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]) {
    debug_assert_eq!(idx.len(), vals.len());
    let mut ci = idx.chunks_exact(4);
    let mut cv = vals.chunks_exact(4);
    for (is, vs) in ci.by_ref().zip(cv.by_ref()) {
        y[is[0]] += alpha * vs[0];
        y[is[1]] += alpha * vs[1];
        y[is[2]] += alpha * vs[2];
        y[is[3]] += alpha * vs[3];
    }
    for (&r, &v) in ci.remainder().iter().zip(cv.remainder()) {
        y[r] += alpha * v;
    }
}

pub(crate) fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

pub(crate) fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}
