//! aarch64 NEON backend: 2-lane `f64` vectors with fused multiply-add.
//!
//! NEON has no gather/scatter, so the sparse kernels build their vector
//! lanes with ordinary (bounds-checked) indexing and vectorize the
//! multiply-accumulate — with separate mul + add so they stay
//! **bit-exact** with the scalar baseline (the same two-contract split
//! as the AVX2 backend; see the numerics section of `avx2.rs`). The
//! dense kernels (`dot`/`axpy`/`norm_inf`/
//! `scale`) run fully vectorized with `vfmaq_f64`. AdvSIMD is mandatory
//! on AArch64, but selection still goes through
//! `is_aarch64_feature_detected!("neon")` for symmetry with the x86
//! path, and every intrinsic body carries
//! `#[target_feature(enable = "neon")]` — the same safety architecture
//! as the AVX2 backend (see `avx2.rs`): the instance is only handed out
//! after detection succeeds.
//!
//! `norm_inf` keeps `f64::max`'s ignore-NaN semantics with an explicit
//! compare-and-select (`vcgtq`/`vbslq`) instead of `vmaxq_f64`, whose
//! IEEE `maxNum` NaN handling differs from the scalar baseline's fold.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::*;

use super::VecKernel;

/// The NEON kernel; constructed only behind runtime feature detection.
#[derive(Debug, Clone, Copy)]
pub struct NeonKernel;

impl VecKernel for NeonKernel {
    fn name(&self) -> &'static str {
        "neon"
    }

    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        // SAFETY: selection guarantees neon (module docs).
        unsafe { dot(a, b) }
    }

    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: selection guarantees neon (module docs).
        unsafe { axpy(alpha, x, y) }
    }

    fn gather_dot(&self, idx: &[usize], vals: &[f64], x: &[f64]) -> f64 {
        // SAFETY: selection guarantees neon (module docs).
        unsafe { gather_dot(idx, vals, x) }
    }

    fn scatter_axpy(&self, alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]) {
        // SAFETY: selection guarantees neon (module docs).
        unsafe { scatter_axpy(alpha, idx, vals, y) }
    }

    fn norm_inf(&self, x: &[f64]) -> f64 {
        // SAFETY: selection guarantees neon (module docs).
        unsafe { norm_inf(x) }
    }

    fn scale(&self, alpha: f64, x: &mut [f64]) {
        // SAFETY: selection guarantees neon (module docs).
        unsafe { scale(alpha, x) }
    }
}

#[target_feature(enable = "neon")]
unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0usize;
    while i + 4 <= n {
        acc0 = vfmaq_f64(acc0, vld1q_f64(pa.add(i)), vld1q_f64(pb.add(i)));
        acc1 = vfmaq_f64(acc1, vld1q_f64(pa.add(i + 2)), vld1q_f64(pb.add(i + 2)));
        i += 4;
    }
    if i + 2 <= n {
        acc0 = vfmaq_f64(acc0, vld1q_f64(pa.add(i)), vld1q_f64(pb.add(i)));
        i += 2;
    }
    let mut s = vaddvq_f64(vaddq_f64(acc0, acc1));
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

#[target_feature(enable = "neon")]
unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    let va = vdupq_n_f64(alpha);
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        vst1q_f64(py.add(i), vfmaq_f64(vld1q_f64(py.add(i)), va, vld1q_f64(px.add(i))));
        vst1q_f64(
            py.add(i + 2),
            vfmaq_f64(vld1q_f64(py.add(i + 2)), va, vld1q_f64(px.add(i + 2))),
        );
        i += 4;
    }
    if i + 2 <= n {
        vst1q_f64(py.add(i), vfmaq_f64(vld1q_f64(py.add(i)), va, vld1q_f64(px.add(i))));
        i += 2;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

#[target_feature(enable = "neon")]
unsafe fn gather_dot(idx: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    // Lane construction through ordinary indexing keeps the bounds
    // checks (and their panics) of the scalar baseline. Separate
    // mul + add (no FMA), two 2-lane accumulators standing in for the
    // baseline's four, and the `(s0+s1)+(s2+s3)+tail` reduction keep
    // the result **bit-exact** with it — see the numerics section of
    // `avx2.rs` for why the gathered kernels pin exactness.
    let n = idx.len().min(vals.len());
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0usize;
    while i + 4 <= n {
        let g0 = [x[idx[i]], x[idx[i + 1]]];
        let g1 = [x[idx[i + 2]], x[idx[i + 3]]];
        acc0 = vaddq_f64(acc0, vmulq_f64(vld1q_f64(vals.as_ptr().add(i)), vld1q_f64(g0.as_ptr())));
        acc1 = vaddq_f64(
            acc1,
            vmulq_f64(vld1q_f64(vals.as_ptr().add(i + 2)), vld1q_f64(g1.as_ptr())),
        );
        i += 4;
    }
    let mut tail = 0.0;
    while i < n {
        tail += vals[i] * x[idx[i]];
        i += 1;
    }
    vaddvq_f64(acc0) + vaddvq_f64(acc1) + tail
}

#[target_feature(enable = "neon")]
unsafe fn scatter_axpy(alpha: f64, idx: &[usize], vals: &[f64], y: &mut [f64]) {
    let n = idx.len().min(vals.len());
    let va = vdupq_n_f64(alpha);
    let mut i = 0usize;
    let mut prod = [0.0f64; 2];
    while i + 2 <= n {
        vst1q_f64(prod.as_mut_ptr(), vmulq_f64(va, vld1q_f64(vals.as_ptr().add(i))));
        y[idx[i]] += prod[0];
        y[idx[i + 1]] += prod[1];
        i += 2;
    }
    while i < n {
        y[idx[i]] += alpha * vals[i];
        i += 1;
    }
}

#[target_feature(enable = "neon")]
unsafe fn norm_inf(x: &[f64]) -> f64 {
    let mut acc = vdupq_n_f64(0.0);
    let p = x.as_ptr();
    let mut i = 0usize;
    while i + 2 <= x.len() {
        let v = vabsq_f64(vld1q_f64(p.add(i)));
        // Compare-and-select: a NaN lane compares false and keeps the
        // accumulator, matching `f64::max`'s ignore-NaN fold.
        acc = vbslq_f64(vcgtq_f64(v, acc), v, acc);
        i += 2;
    }
    let mut m = vgetq_lane_f64::<0>(acc).max(vgetq_lane_f64::<1>(acc));
    while i < x.len() {
        m = m.max(x[i].abs());
        i += 1;
    }
    m
}

#[target_feature(enable = "neon")]
unsafe fn scale(alpha: f64, x: &mut [f64]) {
    let va = vdupq_n_f64(alpha);
    let p = x.as_mut_ptr();
    let n = x.len();
    let mut i = 0usize;
    while i + 2 <= n {
        vst1q_f64(p.add(i), vmulq_f64(va, vld1q_f64(p.add(i))));
        i += 2;
    }
    while i < n {
        x[i] *= alpha;
        i += 1;
    }
}
