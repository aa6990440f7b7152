//! Monomorphized explicit-SIMD microkernel menu.
//!
//! The compiler-autovectorized loops in [`crate::vectorized`] leave
//! the vector shape to LLVM: one fixed unroll, whatever ISA the
//! default target enables. This module spells the shapes out — a
//! *menu* of row-sum microkernels parameterized over vector width
//! ([`Lanes`]: 4 or 8 `f64` lanes) and independent-accumulator count
//! (1, 2 or 4 vector accumulators), each available as
//!
//! * an explicit `core::arch` implementation (AVX2 `vgatherdpd` +
//!   `vfmadd` for 4 lanes, AVX-512 for 8), selected only when runtime
//!   feature detection proves the ISA present, and
//! * a **bitwise-identical** scalar model: same lane striping, same
//!   fused multiply-adds (`f64::mul_add`), same split-halves
//!   reduction order — so the fallback is not merely "close", it
//!   produces the exact same bits, and CI can force it everywhere
//!   with `SPMV_FORCE_SCALAR=1` without perturbing a single result.
//!
//! Each shape has one body: the scalar model (`model_body`) and,
//! where the ISA exists, its intrinsics transcription. Both read
//! without bounds checks. [`MicroSpec::row_sum`] is the checked entry:
//! it verifies the contract, then runs the same body.
//!
//! Safety follows the workspace's validated-witness design: the
//! unchecked entry points carry the same contract as
//! [`crate::baseline::InnerLoop::row_sum_unchecked`] (columns in
//! bounds of `x`, proven once by `spmv_sparse::Validated`), plus the
//! gather-specific requirement that columns fit in `i32`
//! ([`gather_compatible`]). A [`MicroSpec`] with `simd == true` can
//! only be constructed through [`MicroSpec::simd`], which performs
//! the feature detection — so holding one *is* the proof that the
//! intrinsics may run on this machine.
//!
//! The menu itself ([`menu`]) is a list of [`KernelSpec`]s: it
//! extends beyond CSR row kernels to the other format axes the tuner
//! searches over, SELL-C-σ slice heights and delta-compressed indices.

use std::fmt;
use std::sync::OnceLock;

use crate::baseline::InnerLoop;
use crate::variant::{Format, KernelSpec};

#[cfg(target_arch = "x86_64")]
mod x86;

/// Vector width of a microkernel, in `f64` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lanes {
    /// 4 lanes (256-bit: AVX2 gather + FMA).
    X4,
    /// 8 lanes (512-bit: AVX-512F gather + FMA).
    X8,
}

impl Lanes {
    /// Number of `f64` lanes.
    pub fn width(self) -> usize {
        match self {
            Lanes::X4 => 4,
            Lanes::X8 => 8,
        }
    }
}

/// One microkernel configuration from the menu.
///
/// Fields are private so that `simd == true` is a construction-time
/// proof: [`MicroSpec::simd`] only returns such a spec after runtime
/// feature detection succeeds (and `SPMV_FORCE_SCALAR` is unset), so
/// the unsafe dispatch never has to re-check the ISA.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroSpec {
    lanes: Lanes,
    accs: u8,
    simd: bool,
}

impl fmt::Debug for MicroSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// Accumulator counts offered by the menu.
pub const ACCUMULATORS: [u8; 3] = [1, 2, 4];

/// Whether `SPMV_FORCE_SCALAR` is set (read once per process): the
/// CI switch that forces every [`MicroSpec::simd`] construction to
/// fail, so the whole suite runs on the bitwise-identical scalar
/// models.
pub fn scalar_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        matches!(std::env::var("SPMV_FORCE_SCALAR").ok().as_deref(), Some("1") | Some("true"))
    })
}

/// Whether the explicit gather kernels can address `x`: the AVX2 /
/// AVX-512 gathers take signed 32-bit indices, so every column must
/// fit in `i32`.
pub fn gather_compatible(ncols: usize) -> bool {
    ncols <= i32::MAX as usize
}

impl MicroSpec {
    /// A scalar-model spec (always available on every platform).
    ///
    /// # Panics
    /// Panics when `accs` is not one of [`ACCUMULATORS`].
    pub fn scalar(lanes: Lanes, accs: u8) -> MicroSpec {
        assert!(ACCUMULATORS.contains(&accs), "accumulator count must be 1, 2 or 4");
        MicroSpec { lanes, accs, simd: false }
    }

    /// An explicit-SIMD spec, or `None` when the required ISA is not
    /// present on this machine, the platform is not x86-64, or
    /// `SPMV_FORCE_SCALAR` demands the scalar fallback.
    ///
    /// # Panics
    /// Panics when `accs` is not one of [`ACCUMULATORS`].
    pub fn simd(lanes: Lanes, accs: u8) -> Option<MicroSpec> {
        assert!(ACCUMULATORS.contains(&accs), "accumulator count must be 1, 2 or 4");
        if scalar_forced() || !simd_available(lanes) {
            return None;
        }
        Some(MicroSpec { lanes, accs, simd: true })
    }

    /// The scalar twin of this spec: same lanes and accumulators,
    /// bitwise-identical results, no intrinsics.
    pub fn scalar_fallback(self) -> MicroSpec {
        MicroSpec { simd: false, ..self }
    }

    /// Vector width.
    pub fn lanes(self) -> Lanes {
        self.lanes
    }

    /// Independent accumulator (vector) count.
    pub fn accs(self) -> usize {
        self.accs as usize
    }

    /// Whether this spec dispatches to explicit intrinsics.
    pub fn is_simd(self) -> bool {
        self.simd
    }

    /// Stable identifier used in spans, traces and bench output
    /// (e.g. `avx2-a2`, `avx512-a4`, `scalar8-a1`).
    pub fn id(self) -> String {
        match (self.simd, self.lanes) {
            (true, Lanes::X4) => format!("avx2-a{}", self.accs),
            (true, Lanes::X8) => format!("avx512-a{}", self.accs),
            (false, _) => format!("scalar{}-a{}", self.lanes.width(), self.accs),
        }
    }

    /// Computes the dot product of one sparse row with `x`, fully
    /// checked: verifies the lengths and every column bound (and, for
    /// a SIMD spec, that the gather can address `x`), panicking on a
    /// violation, then runs [`MicroSpec::row_sum_unchecked`].
    ///
    /// witness-ok: the length and column-bound asserts below
    /// re-establish the entire `Validated` invariant locally before
    /// the unchecked path is entered.
    pub fn row_sum(self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        // One O(n) verification pass, mirroring what a Validated
        // witness proves once.
        assert!(cols.iter().all(|&c| (c as usize) < x.len()), "column index out of bounds of x");
        assert!(!self.simd || gather_compatible(x.len()), "x too long for a 32-bit gather");
        // SAFETY: lengths and column bounds were just checked, and a
        // SIMD spec's columns are < x.len() <= i32::MAX; `simd == true`
        // proves ISA support (construction).
        unsafe { self.row_sum_unchecked(cols, vals, x) }
    }

    /// [`MicroSpec::row_sum`] with bounds checks elided.
    ///
    /// # Safety
    /// `cols.len() == vals.len()` and every entry of `cols` indexes
    /// in bounds of `x` — guaranteed when the row comes from a
    /// `spmv_sparse::Validated` CSR witness and `x.len() == ncols`.
    /// For SIMD specs, every column must additionally fit in `i32`
    /// (see [`gather_compatible`]); ISA availability is proven by
    /// construction.
    #[inline(always)]
    pub unsafe fn row_sum_unchecked(self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // SAFETY: the caller's contract covers lengths, column
            // bounds and i32 range; `simd` is only ever set by
            // `MicroSpec::simd` after `is_x86_feature_detected!`
            // proved the target features present.
            return unsafe {
                match (self.lanes, self.accs) {
                    (Lanes::X4, 1) => x86::row_sum_avx2_a1(cols, vals, x),
                    (Lanes::X4, 2) => x86::row_sum_avx2_a2(cols, vals, x),
                    (Lanes::X4, _) => x86::row_sum_avx2_a4(cols, vals, x),
                    (Lanes::X8, 1) => x86::row_sum_avx512_a1(cols, vals, x),
                    (Lanes::X8, 2) => x86::row_sum_avx512_a2(cols, vals, x),
                    (Lanes::X8, _) => x86::row_sum_avx512_a4(cols, vals, x),
                }
            };
        }
        // SAFETY: contract forwarded unchanged to the scalar model.
        unsafe { dispatch_model_unchecked(self.lanes, self.accs, cols, vals, x) }
    }
}

/// Runtime ISA detection for one vector width (always `false` off
/// x86-64).
fn simd_available(lanes: Lanes) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match lanes {
            Lanes::X4 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            Lanes::X8 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lanes;
        false
    }
}

/// Monomorphization dispatch for the scalar model.
///
/// # Safety
/// Same contract as [`MicroSpec::row_sum_unchecked`] (scalar part).
#[inline(always)]
unsafe fn dispatch_model_unchecked(
    lanes: Lanes,
    accs: u8,
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
) -> f64 {
    // SAFETY: each arm forwards the caller's contract unchanged.
    unsafe {
        match (lanes, accs) {
            (Lanes::X4, 1) => model_body::<4, 1>(cols, vals, x),
            (Lanes::X4, 2) => model_body::<4, 2>(cols, vals, x),
            (Lanes::X4, _) => model_body::<4, 4>(cols, vals, x),
            (Lanes::X8, 1) => model_body::<8, 1>(cols, vals, x),
            (Lanes::X8, 2) => model_body::<8, 2>(cols, vals, x),
            (Lanes::X8, _) => model_body::<8, 4>(cols, vals, x),
        }
    }
}

/// Split-halves horizontal reduction: the scalar transcription of the
/// SIMD extract/add ladder, so both sides reduce in the same order.
/// `lanes.len()` must be 4 or 8.
///
/// indexing-ok: every index is below the lane count its `match` arm
/// just established; `q` is a fixed `[f64; 4]`.
#[inline(always)]
fn hreduce(lanes: &[f64]) -> f64 {
    match lanes.len() {
        4 => (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]),
        8 => {
            let q = [
                lanes[0] + lanes[4],
                lanes[1] + lanes[5],
                lanes[2] + lanes[6],
                lanes[3] + lanes[7],
            ];
            (q[0] + q[2]) + (q[1] + q[3])
        }
        n => unreachable!("unsupported lane count {n}"),
    }
}

/// The scalar model: `W`-lane, `A`-accumulator sparse dot product
/// with fused multiply-adds.
///
/// This is the *definition* of every microkernel's semantics — the
/// SIMD implementations in [`x86`] transcribe exactly this lane
/// striping, accumulator combine and reduction order, which is what
/// makes the fallback bitwise-identical:
///
/// * element `p` of block `k` lands in accumulator `p / W % A`, lane
///   `p % W`, via one fused `mul_add` (single rounding, like
///   `vfmadd`);
/// * accumulator vectors fold into accumulator 0 in index order,
///   lane-wise;
/// * lanes reduce split-halves ([`hreduce`], matching the
///   extract-high/add ladder);
/// * the tail (fewer than `W * A` elements) appends sequential
///   `mul_add`s to the reduced sum.
///
/// Its element reads are unchecked; [`MicroSpec::row_sum`] verifies
/// the contract before running it.
///
/// indexing-ok: the remaining indexed accesses (`acc[0]`,
/// `acc[1..]`, `accv[l]`) hit fixed-size `[[f64; W]; A]` accumulators
/// below their const bounds.
///
/// # Safety
/// `cols.len() == vals.len()` and every entry of `cols` indexes in
/// bounds of `x` (Validated-witness contract).
#[inline(always)]
unsafe fn model_body<const W: usize, const A: usize>(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let n = cols.len();
    let block = W * A;
    let nblocks = n / block;
    let mut acc = [[0.0f64; W]; A];
    for k in 0..nblocks {
        let b = k * block;
        for (j, accv) in acc.iter_mut().enumerate() {
            for (l, a) in accv.iter_mut().enumerate() {
                let p = b + j * W + l;
                // SAFETY: p < block * nblocks <= n == cols.len() ==
                // vals.len(); the validated column is < x.len().
                *a = unsafe {
                    vals.get_unchecked(p)
                        .mul_add(*x.get_unchecked(*cols.get_unchecked(p) as usize), *a)
                };
            }
        }
    }
    let mut lanes = acc[0];
    for accv in &acc[1..] {
        for (l, a) in lanes.iter_mut().enumerate() {
            *a += accv[l];
        }
    }
    let mut sum = hreduce(&lanes);
    for p in block * nblocks..n {
        // SAFETY: p < n; the validated column is < x.len().
        sum = unsafe {
            vals.get_unchecked(p).mul_add(*x.get_unchecked(*cols.get_unchecked(p) as usize), sum)
        };
    }
    sum
}

/// All microkernel specs runnable for a matrix with `ncols` columns
/// on this machine: every scalar model, plus every explicit-SIMD
/// configuration whose ISA is present (and whose gather can address
/// the columns).
pub fn specs_for(ncols: usize) -> Vec<MicroSpec> {
    let mut out = Vec::new();
    for lanes in [Lanes::X4, Lanes::X8] {
        for accs in ACCUMULATORS {
            out.push(MicroSpec::scalar(lanes, accs));
        }
    }
    if gather_compatible(ncols) {
        for lanes in [Lanes::X4, Lanes::X8] {
            for accs in ACCUMULATORS {
                if let Some(spec) = MicroSpec::simd(lanes, accs) {
                    out.push(spec);
                }
            }
        }
    }
    out
}

/// The candidate every search measures first: the plain 4-lane,
/// single-accumulator scalar model on CSR.
pub fn baseline() -> KernelSpec {
    KernelSpec::csr(InnerLoop::Micro(MicroSpec::scalar(Lanes::X4, 1)))
}

/// SELL-C-σ slice heights offered by the menu.
pub const SELL_CHUNKS: [usize; 3] = [4, 8, 16];

/// The full menu for a matrix: a trimmed scalar baseline pair, the
/// classic unrolled CSR loop, every available explicit-SIMD CSR spec,
/// the SELL slice heights (σ = 32 × C) and the delta-compressed
/// format, all under the nnz-balanced schedule. The scalar set is
/// deliberately small — the wide-scalar models exist as fallback
/// twins, not as serious contenders, so the search only times the two
/// shapes the compiler could plausibly autovectorize differently. The
/// unrolled loop (separate multiply and add, no FMA contraction) is
/// the `vec` variant's, kept so the compiler's autovectorization
/// competes against the explicit kernels on the matrices where gather
/// overhead loses.
pub fn menu(ncols: usize) -> Vec<KernelSpec> {
    let mut out = vec![
        baseline(),
        KernelSpec::csr(InnerLoop::Micro(MicroSpec::scalar(Lanes::X8, 2))),
        KernelSpec::csr(InnerLoop::Unrolled),
    ];
    if gather_compatible(ncols) {
        for lanes in [Lanes::X4, Lanes::X8] {
            for accs in ACCUMULATORS {
                if let Some(spec) = MicroSpec::simd(lanes, accs) {
                    out.push(KernelSpec::csr(InnerLoop::Micro(spec)));
                }
            }
        }
    }
    for chunk in SELL_CHUNKS {
        out.push(KernelSpec::of(Format::Sell { chunk, sigma: 32 * chunk }));
    }
    out.push(KernelSpec::of(Format::Delta));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_row(len: usize, ncols: usize, seed: u64) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cols: Vec<u32> = (0..len).map(|_| rng.gen_range(0..ncols) as u32).collect();
        let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x: Vec<f64> = (0..ncols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (cols, vals, x)
    }

    fn all_scalar_specs() -> Vec<MicroSpec> {
        let mut out = Vec::new();
        for lanes in [Lanes::X4, Lanes::X8] {
            for accs in ACCUMULATORS {
                out.push(MicroSpec::scalar(lanes, accs));
            }
        }
        out
    }

    #[test]
    fn scalar_models_match_reference_sum() {
        for len in [0usize, 1, 3, 4, 7, 8, 15, 16, 31, 32, 33, 100] {
            let (cols, vals, x) = random_row(len, 64, len as u64);
            let reference: f64 = cols.iter().zip(&vals).map(|(&c, &v)| v * x[c as usize]).sum();
            for spec in all_scalar_specs() {
                // SAFETY: random_row keeps every column < 64 == x.len().
                let got = unsafe { spec.row_sum_unchecked(&cols, &vals, &x) };
                assert!(
                    (got - reference).abs() < 1e-12,
                    "{spec:?} len {len}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn simd_specs_match_their_scalar_twins_bitwise() {
        for lanes in [Lanes::X4, Lanes::X8] {
            for accs in ACCUMULATORS {
                let Some(simd) = MicroSpec::simd(lanes, accs) else { continue };
                let scalar = simd.scalar_fallback();
                assert!(!scalar.is_simd());
                for len in [0usize, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 200, 1021] {
                    let (cols, vals, x) = random_row(len, 512, (len as u64) << 8 | accs as u64);
                    let a = simd.row_sum(&cols, &vals, &x);
                    let b = scalar.row_sum(&cols, &vals, &x);
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{simd:?} vs {scalar:?} len {len}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_row_is_exactly_zero() {
        for spec in all_scalar_specs() {
            assert_eq!(spec.row_sum(&[], &[], &[1.0]), 0.0);
        }
    }

    #[test]
    fn row_sum_rejects_out_of_bounds_columns() {
        let mut specs = vec![MicroSpec::scalar(Lanes::X4, 1)];
        specs.extend(MicroSpec::simd(Lanes::X4, 1));
        for spec in specs {
            let payload = std::panic::catch_unwind(|| spec.row_sum(&[9], &[1.0], &[1.0; 4]))
                .expect_err("an out-of-bounds column must panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(msg.contains("out of bounds"), "{spec:?}: {msg}");
        }
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let mut ids: Vec<String> = specs_for(1024).iter().map(|s| s.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate microkernel ids");
        assert_eq!(MicroSpec::scalar(Lanes::X8, 4).id(), "scalar8-a4");
    }

    #[test]
    fn menu_contains_baseline_sell_and_delta() {
        let m = menu(4096);
        assert_eq!(m[0], baseline());
        assert!(m.iter().any(|e| e.format == Format::Sell { chunk: 8, sigma: 256 }));
        assert!(m.iter().any(|e| e.format == Format::Delta));
        let mut ids: Vec<String> = m.iter().map(|e| e.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate menu ids");
    }

    #[test]
    fn gather_gate_excludes_huge_column_counts() {
        assert!(gather_compatible(1 << 20));
        assert!(!gather_compatible(usize::MAX));
        let m = menu(usize::MAX);
        assert!(m.iter().all(|e| match e.inner {
            InnerLoop::Micro(s) => !s.is_simd(),
            _ => true,
        }));
    }
}
