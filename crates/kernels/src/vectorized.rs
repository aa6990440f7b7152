//! Unrolled / vectorizable inner loops — the paper's `CMP`-class
//! optimization ("inner loop unrolling + vectorization").
//!
//! Rust has no stable portable-SIMD, so vectorization is expressed
//! the way high-performance C does it before intrinsics: a 4-way
//! unrolled loop with independent accumulators, which the compiler
//! auto-vectorizes into gather + FMA sequences at `opt-level=3`
//! (and which already breaks the loop-carried dependence that limits
//! the scalar loop on in-order cores).
//!
//! The loop exists once, with its bounds checks elided: kernels reach
//! it only through the `spmv_sparse::Validated` CSR witness that
//! [`crate::baseline::CsrKernel`] is built from.

/// 4-way unrolled sparse dot product with independent accumulators
/// and bounds checks elided — the `CMP`-class fast path.
///
/// indexing-ok: the reduction reads a fixed `[f64; 4]` at constant
/// indices.
///
/// # Safety
/// `cols.len() == vals.len()` and every entry of `cols` indexes in
/// bounds of `x` — guaranteed when the row comes from a
/// `spmv_sparse::Validated` CSR witness and `x.len() == ncols`.
#[inline(always)]
pub unsafe fn row_sum_unrolled_unchecked(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let n = cols.len();
    let mut acc = [0.0f64; 4];
    let chunks = n / 4;
    for k in 0..chunks {
        let b = 4 * k;
        for (lane, a) in acc.iter_mut().enumerate() {
            // SAFETY: b + lane < 4 * chunks <= n == cols.len() ==
            // vals.len(); the validated column is < x.len() (contract).
            *a += unsafe {
                *vals.get_unchecked(b + lane)
                    * *x.get_unchecked(*cols.get_unchecked(b + lane) as usize)
            };
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for k in 4 * chunks..n {
        // SAFETY: k < n; the validated column is < x.len() (contract).
        sum +=
            unsafe { *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize) };
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn scalar(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        cols.iter().zip(vals).map(|(&c, &v)| v * x[c as usize]).sum()
    }

    /// Runs the unrolled loop after checking its contract.
    fn unrolled(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        assert_eq!(cols.len(), vals.len());
        assert!(cols.iter().all(|&c| (c as usize) < x.len()));
        // SAFETY: lengths match and every column is < x.len() (checked above).
        unsafe { row_sum_unrolled_unchecked(cols, vals, x) }
    }

    fn random_row(len: usize, ncols: usize, seed: u64) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cols: Vec<u32> = (0..len).map(|_| rng.gen_range(0..ncols) as u32).collect();
        let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x: Vec<f64> = (0..ncols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (cols, vals, x)
    }

    #[test]
    fn unrolled_matches_scalar_for_all_remainders() {
        for len in 0..20 {
            let (cols, vals, x) = random_row(len, 64, len as u64);
            let s = scalar(&cols, &vals, &x);
            assert!((unrolled(&cols, &vals, &x) - s).abs() < 1e-12, "len {len}");
        }
    }

    #[test]
    fn long_rows_match_within_fp_reassociation() {
        let (cols, vals, x) = random_row(10_000, 4096, 99);
        let s = scalar(&cols, &vals, &x);
        assert!((unrolled(&cols, &vals, &x) - s).abs() < 1e-9);
    }

    #[test]
    fn empty_row_is_zero() {
        assert_eq!(unrolled(&[], &[], &[1.0]), 0.0);
    }
}
