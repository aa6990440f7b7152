//! Host kernel specs and the one builder that lowers them onto
//! executable kernels.
//!
//! The paper's optimizer output is a *set* of optimizations (one per
//! detected bottleneck class, applied jointly). [`KernelVariant`]
//! captures such a set and is the simulator's and the experiments'
//! vocabulary; it lowers onto a [`KernelSpec`] (format × inner loop ×
//! schedule), the configuration the tuner's menu also speaks.
//! [`build_kernel`] performs the required format conversion — timing
//! it, because preprocessing cost is what the paper's Table 4
//! amortization study charges each optimizer for — and returns a
//! ready-to-run [`SpmvKernel`].

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use spmv_sparse::{Csr, DecomposedCsr, DeltaCsr, SellCs, ValidateFormat, Validated};

use crate::baseline::{CsrKernel, InnerLoop};
use crate::compressed::DeltaKernel;
use crate::decomposed::DecomposedKernel;
use crate::schedule::{Schedule, ThreadTimes};
use crate::sliced::SellKernel;

/// One optimization from the paper's pool (Fig. 1 / Table "classes to
/// optimizations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Optimization {
    /// Inner-loop unrolling + vectorization (`CMP`, and part of `MB`).
    Vectorize,
    /// Software prefetching of `x` (`ML`).
    Prefetch,
    /// Column-index delta compression (`MB`).
    Compress,
    /// Long-row matrix decomposition (`IMB`, uneven row lengths).
    Decompose,
    /// `auto`/guided scheduling (`IMB`, computational unevenness).
    AutoSchedule,
    /// SELL-C-σ sliced-ELL storage (Kreutzer et al., cited by the
    /// paper's related work) — an *extension* optimization, not in the
    /// paper's original pool: SIMD-lockstep chunks with σ-window row
    /// sorting, an alternative `IMB` treatment for moderately skewed
    /// matrices. It demonstrates the plug-and-play property: a new
    /// treatment slots in without touching any classifier.
    SlicedEll,
}

impl Optimization {
    /// The paper's original pool, in its Fig. 1 order. Sweep helpers
    /// ([`KernelVariant::all_singles`] and
    /// [`KernelVariant::singles_and_pairs`]) iterate exactly this set
    /// so the trivial-optimizer candidate counts match the paper
    /// (5 and 15).
    pub const ALL: [Optimization; 5] = [
        Optimization::Vectorize,
        Optimization::Prefetch,
        Optimization::Compress,
        Optimization::Decompose,
        Optimization::AutoSchedule,
    ];

    /// The extended pool including post-paper additions.
    pub const EXTENDED: [Optimization; 6] = [
        Optimization::Vectorize,
        Optimization::Prefetch,
        Optimization::Compress,
        Optimization::Decompose,
        Optimization::AutoSchedule,
        Optimization::SlicedEll,
    ];

    fn bit(self) -> u8 {
        match self {
            Optimization::Vectorize => 1 << 0,
            Optimization::Prefetch => 1 << 1,
            Optimization::Compress => 1 << 2,
            Optimization::Decompose => 1 << 3,
            Optimization::AutoSchedule => 1 << 4,
            Optimization::SlicedEll => 1 << 5,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Optimization::Vectorize => "vec",
            Optimization::Prefetch => "pref",
            Optimization::Compress => "comp",
            Optimization::Decompose => "decomp",
            Optimization::AutoSchedule => "auto",
            Optimization::SlicedEll => "sell",
        }
    }
}

/// A set of jointly applied optimizations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KernelVariant {
    bits: u8,
}

impl KernelVariant {
    /// The unoptimized baseline (plain CSR, nnz-balanced static).
    pub const BASELINE: KernelVariant = KernelVariant { bits: 0 };

    /// Variant with a single optimization.
    pub fn single(opt: Optimization) -> KernelVariant {
        KernelVariant { bits: opt.bit() }
    }

    /// Variant from any collection of optimizations.
    pub fn of(opts: &[Optimization]) -> KernelVariant {
        let mut bits = 0;
        for o in opts {
            bits |= o.bit();
        }
        KernelVariant { bits }
    }

    /// Adds an optimization (idempotent).
    #[must_use]
    pub fn with(self, opt: Optimization) -> KernelVariant {
        KernelVariant { bits: self.bits | opt.bit() }
    }

    /// Whether the set contains `opt`.
    pub fn contains(self, opt: Optimization) -> bool {
        self.bits & opt.bit() != 0
    }

    /// Whether the set is empty (baseline).
    pub fn is_baseline(self) -> bool {
        self.bits == 0
    }

    /// Iterates the contained optimizations.
    pub fn iter(self) -> impl Iterator<Item = Optimization> {
        Optimization::EXTENDED.into_iter().filter(move |o| self.contains(*o))
    }

    /// Number of contained optimizations.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty. Alias of [`Self::is_baseline`].
    pub fn is_empty(self) -> bool {
        self.is_baseline()
    }

    /// All 5 single-optimization variants (the paper's
    /// "trivial-single" sweep).
    pub fn all_singles() -> Vec<KernelVariant> {
        Optimization::ALL.iter().map(|&o| KernelVariant::single(o)).collect()
    }

    /// All singles plus all unordered pairs — 15 variants, the
    /// paper's "trivial-combined" sweep.
    pub fn singles_and_pairs() -> Vec<KernelVariant> {
        let mut out = Self::all_singles();
        for i in 0..Optimization::ALL.len() {
            for j in i + 1..Optimization::ALL.len() {
                out.push(KernelVariant::of(&[Optimization::ALL[i], Optimization::ALL[j]]));
            }
        }
        out
    }
}

impl fmt::Debug for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_baseline() {
            return write!(f, "baseline");
        }
        let mut first = true;
        for o in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{}", o.label())?;
            first = false;
        }
        Ok(())
    }
}

/// A runnable SpMV kernel (object-safe).
///
/// All implementations execute on the persistent worker pool of
/// [`crate::engine`]: the kernel holds a precomputed
/// [`Plan`](crate::engine::Plan), so `run`/`run_timed` pay neither
/// thread-spawn latency nor partition recomputation, and the reported
/// [`ThreadTimes`] cover pure compute only.
pub trait SpmvKernel: Send + Sync {
    /// Computes `y = A * x` and reports per-thread busy times.
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes;

    /// Computes `y = A * x`.
    fn run(&self, x: &[f64], y: &mut [f64]) {
        let _ = self.run_timed(x, y);
    }

    /// Runs the kernel `reps` times back-to-back on the warm pool and
    /// returns the best wall-clock seconds together with the
    /// per-thread busy times of that best run — the pooled timing
    /// entry point adopted by the host profiler and the benches
    /// (best-of-reps is the paper's warm-cache measurement
    /// convention).
    fn run_repeated(&self, x: &[f64], y: &mut [f64], reps: usize) -> (f64, ThreadTimes) {
        let mut best = f64::INFINITY;
        let mut best_times = ThreadTimes { seconds: Vec::new() };
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let times = self.run_timed(x, y);
            let dt = t0.elapsed().as_secs_f64();
            if dt < best {
                best = dt;
                best_times = times;
            }
        }
        (best, best_times)
    }

    /// Descriptive name for experiment output.
    fn name(&self) -> String;

    /// Number of rows of the underlying matrix.
    fn nrows(&self) -> usize;

    /// Number of columns of the underlying matrix.
    fn ncols(&self) -> usize;

    /// Bytes occupied by the kernel's matrix representation.
    fn format_bytes(&self) -> usize;

    /// Converts an execution time into GFLOP/s (`2 * nnz` flops per
    /// SpMV, the paper's convention).
    fn gflops(&self, seconds: f64, nnz: usize) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        2.0 * nnz as f64 / seconds / 1e9
    }

    /// Effective bytes moved per nonzero under this kernel's storage
    /// format: the format's own footprint plus the `x`/`y` vectors,
    /// per original nonzero. This is the per-variant traffic figure
    /// the benchmark trajectory records next to GFLOP/s — compression
    /// shows up here as fewer bytes per nonzero.
    fn effective_bytes_per_nnz(&self, nnz: usize) -> f64 {
        (self.format_bytes() + (self.nrows() + self.ncols()) * 8) as f64 / nnz.max(1) as f64
    }
}

/// Storage format of a [`KernelSpec`].
///
/// Decomposition and delta compression do not fit every
/// matrix. [`build_kernel`] checks that inside the timed build and
/// falls back, reporting the format that actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Plain CSR.
    Csr,
    /// Two-phase long-row decomposition at the automatic threshold.
    /// A matrix without long rows falls back to delta-compressed CSR
    /// when `or_delta` is set, else to plain CSR.
    Decomposed {
        /// Fall back to [`Format::Delta`] instead of [`Format::Csr`].
        or_delta: bool,
    },
    /// SELL-C-σ sliced ELL.
    Sell {
        /// Slice height `C` (rows per SIMD-lockstep chunk).
        chunk: usize,
        /// Row-sorting window `σ` (`σ >= C`).
        sigma: usize,
    },
    /// Delta-compressed column indices (1/2/4-byte deltas per row).
    /// A matrix whose deltas cannot be encoded falls back to CSR.
    Delta,
}

/// One host kernel configuration: storage format × inner loop ×
/// row schedule. Both the paper's optimization sets (lowered from
/// [`KernelVariant`]) and the tuner's menu candidates
/// ([`crate::micro::menu`]) are specs, built by [`build_kernel`].
///
/// The inner loop is the row kernel of the CSR and decomposed
/// formats; the SELL and delta kernels carry their own loops
/// and ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Storage format.
    pub format: Format,
    /// Row kernel of the CSR-like formats.
    pub inner: InnerLoop,
    /// Row-to-thread scheduling policy.
    pub schedule: Schedule,
}

impl KernelSpec {
    /// `format` with the scalar inner loop under the paper's
    /// nnz-balanced static schedule.
    pub fn of(format: Format) -> KernelSpec {
        KernelSpec { format, inner: InnerLoop::Scalar, schedule: Schedule::NnzBalanced }
    }

    /// Plain CSR running `inner` under the nnz-balanced schedule.
    pub fn csr(inner: InnerLoop) -> KernelSpec {
        KernelSpec { inner, ..KernelSpec::of(Format::Csr) }
    }

    /// Stable identifier of a menu candidate or a single-optimization
    /// spec the shortlist can time, used in traces and bench output
    /// (`csr/avx2-a2`, `csr/unrolled`, `sell/c8`, `delta`,
    /// `csr/prefetch`, `csr/guided`, `decomposed`, and `csr/scalar`,
    /// what `decomposed` runs on a matrix without long rows). Other
    /// specs are identified by their `Debug` form.
    pub fn id(&self) -> String {
        match (self.format, self.inner, self.schedule) {
            (Format::Csr, InnerLoop::Micro(m), Schedule::NnzBalanced) => format!("csr/{}", m.id()),
            (Format::Csr, InnerLoop::Unrolled, Schedule::NnzBalanced) => "csr/unrolled".into(),
            (Format::Csr, InnerLoop::Prefetch, Schedule::NnzBalanced) => "csr/prefetch".into(),
            (Format::Csr, InnerLoop::Scalar, Schedule::NnzBalanced) => "csr/scalar".into(),
            (Format::Csr, InnerLoop::Scalar, Schedule::Guided) => "csr/guided".into(),
            (Format::Sell { chunk, sigma }, _, Schedule::NnzBalanced) if sigma == 32 * chunk => {
                format!("sell/c{chunk}")
            }
            (Format::Delta, _, Schedule::NnzBalanced) => "delta".into(),
            (Format::Decomposed { or_delta: false }, InnerLoop::Scalar, Schedule::NnzBalanced) => {
                "decomposed".into()
            }
            _ => format!("{self:?}"),
        }
    }
}

/// Lowers an optimization set onto a spec (the joint-application
/// rules, documented in DESIGN.md):
/// * `Decompose` selects the two-phase decomposed format;
/// * otherwise `SlicedEll` selects SELL-8-256;
/// * otherwise `Compress` selects delta-compressed CSR;
/// * `Decompose + Compress` keeps the decomposition and skips
///   compression (the paper never co-selects MB with IMB-by-long-rows;
///   the fallback preserves correctness); on a matrix without long
///   rows it compresses instead (`Decompose + SlicedEll`, which no
///   caller builds, falls back to CSR or delta only);
/// * `Vectorize` and `Prefetch` pick the inner-loop flavor;
/// * `AutoSchedule` switches the row schedule to guided.
impl From<KernelVariant> for KernelSpec {
    fn from(v: KernelVariant) -> KernelSpec {
        let or_delta = v.contains(Optimization::Compress);
        let format = if v.contains(Optimization::Decompose) {
            Format::Decomposed { or_delta }
        } else if v.contains(Optimization::SlicedEll) {
            // C = 8 lanes with a 256-row sorting window: the standard
            // SELL-8-256 configuration for AVX-512-class machines.
            Format::Sell { chunk: 8, sigma: 256 }
        } else if or_delta {
            Format::Delta
        } else {
            Format::Csr
        };
        let schedule = if v.contains(Optimization::AutoSchedule) {
            Schedule::Guided
        } else {
            Schedule::NnzBalanced
        };
        let inner = InnerLoop::from_flags(
            v.contains(Optimization::Vectorize),
            v.contains(Optimization::Prefetch),
        );
        KernelSpec { format, inner, schedule }
    }
}

/// A built kernel plus the preprocessing cost spent building it.
pub struct BuiltKernel {
    /// The runnable kernel.
    pub kernel: Box<dyn SpmvKernel>,
    /// Seconds spent on format conversion / setup (the `t_pre`
    /// component charged by the Table 4 amortization analysis).
    pub prep_seconds: f64,
    /// The spec that actually ran: a format the matrix could not take
    /// is replaced by its fallback (see [`Format`]).
    pub spec: KernelSpec,
}

/// Builds the kernel `spec` describes for the verified matrix `a` (a
/// [`KernelVariant`] is lowered through `From`), timing the format
/// conversion. CSR kernels share `a` (they clone the witness, never the
/// matrix, and do not re-check it); the other formats own the
/// converted copy they build from it.
///
/// Preprocessing time is measured through kernel construction: a
/// converted format pays its one-time O(nnz) structural verification
/// there, and that cost belongs to `t_pre` just like the conversion
/// and the fallback checks themselves.
///
/// # Panics
/// When a [`Format::Sell`] spec has `chunk == 0` or `sigma < chunk`,
/// or a conversion yields a format that fails verification (a bug in
/// the conversion, since `a` is verified).
pub fn build_kernel(
    a: &Validated<Arc<Csr>>,
    spec: impl Into<KernelSpec>,
    nthreads: usize,
) -> BuiltKernel {
    let t0 = Instant::now();
    let (kernel, spec) = lower(a, spec.into(), nthreads);
    let prep_seconds = t0.elapsed().as_secs_f64();
    // Process-wide preprocessing telemetry, so amortization studies
    // can read total conversion cost without threading a recorder
    // through every call site.
    spmv_telemetry::metrics::preprocessing().add(prep_seconds);
    BuiltKernel { kernel, prep_seconds, spec }
}

/// Verifies a format converted from a verified CSR.
fn verified<F: ValidateFormat>(format: F) -> Validated<F> {
    Validated::new(format).expect("conversion of a verified CSR verifies")
}

/// The untimed body of [`build_kernel`]: converts the format (or
/// falls back) and returns the kernel with the spec it runs.
fn lower(
    a: &Validated<Arc<Csr>>,
    spec: KernelSpec,
    nthreads: usize,
) -> (Box<dyn SpmvKernel>, KernelSpec) {
    let KernelSpec { format, inner, schedule } = spec;
    let fallback = |or_delta: bool| KernelSpec {
        format: if or_delta { Format::Delta } else { Format::Csr },
        ..spec
    };
    match format {
        Format::Csr => (Box::new(CsrKernel::with_options(a, nthreads, schedule, inner)), spec),
        Format::Decomposed { or_delta } => match DecomposedCsr::auto_threshold(a, nthreads) {
            Some(threshold) => {
                let d = verified(DecomposedCsr::split(a, threshold).expect("threshold >= 1"));
                (Box::new(DecomposedKernel::new(d, nthreads, schedule, inner)), spec)
            }
            None => lower(a, fallback(or_delta), nthreads),
        },
        Format::Sell { chunk, sigma } => {
            let s = SellCs::from_csr(a, chunk, sigma).expect("SELL spec needs 1 <= chunk <= sigma");
            (Box::new(SellKernel::new(verified(s), nthreads, schedule)), spec)
        }
        Format::Delta => match DeltaCsr::from_csr(a) {
            Ok(d) => (Box::new(DeltaKernel::new(verified(d), nthreads, schedule)), spec),
            Err(_) => lower(a, fallback(false), nthreads),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;

    #[test]
    fn variant_set_operations() {
        let v = KernelVariant::BASELINE.with(Optimization::Vectorize).with(Optimization::Prefetch);
        assert!(v.contains(Optimization::Vectorize));
        assert!(v.contains(Optimization::Prefetch));
        assert!(!v.contains(Optimization::Compress));
        assert_eq!(v.len(), 2);
        assert!(!v.is_baseline());
        assert_eq!(v.to_string(), "vec+pref");
        assert_eq!(KernelVariant::BASELINE.to_string(), "baseline");
    }

    #[test]
    fn with_is_idempotent() {
        let v = KernelVariant::single(Optimization::Compress);
        assert_eq!(v.with(Optimization::Compress), v);
    }

    #[test]
    fn trivial_sweeps_have_paper_counts() {
        // Paper §IV-D: "one that runs all single optimizations (total
        // of 5 in our case) and one that also includes combinations of
        // 2 (total of 15 in our case)".
        assert_eq!(KernelVariant::all_singles().len(), 5);
        assert_eq!(KernelVariant::singles_and_pairs().len(), 15);
    }

    #[test]
    fn every_variant_builds_and_matches_reference() {
        let a = Validated::new(Arc::new(gen::circuit(1200, 2, 0.4, 5, 3).unwrap())).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        for variant in KernelVariant::singles_and_pairs() {
            let built = build_kernel(&a, variant, 3);
            let mut y = vec![0.0; a.nrows()];
            built.kernel.run(&x, &mut y);
            for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
                assert!((u - v).abs() < 1e-9, "{variant}: row {i} {u} vs {v}");
            }
            assert!(built.prep_seconds >= 0.0);
        }
    }

    #[test]
    fn decompose_falls_back_without_long_rows() {
        let a = Validated::new(Arc::new(gen::banded(400, 3, 1.0, 1).unwrap())).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::Decompose), 4);
        assert!(built.kernel.name().starts_with("csr"), "got {}", built.kernel.name());
        assert_eq!(built.spec.format, Format::Csr);
        // With compression requested too, the fallback compresses.
        let v = KernelVariant::of(&[Optimization::Decompose, Optimization::Compress]);
        let built = build_kernel(&a, v, 4);
        assert!(built.kernel.name().starts_with("delta"), "got {}", built.kernel.name());
        assert_eq!(built.spec, KernelSpec::of(Format::Delta));
    }

    #[test]
    fn decompose_used_when_long_rows_exist() {
        let a = Validated::new(Arc::new(gen::circuit(4000, 3, 0.5, 4, 9).unwrap())).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::Decompose), 4);
        assert!(built.kernel.name().starts_with("decomposed"), "got {}", built.kernel.name());
        assert_eq!(built.spec, KernelVariant::single(Optimization::Decompose).into());
    }

    #[test]
    fn compress_builds_delta_kernel_with_prep_time() {
        let a = Validated::new(Arc::new(gen::banded(2000, 8, 1.0, 4).unwrap())).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::Compress), 2);
        assert!(built.kernel.name().starts_with("delta"));
        assert!(built.kernel.format_bytes() < a.footprint_bytes());
    }

    #[test]
    fn auto_schedule_selects_guided() {
        let a = Validated::new(Arc::new(gen::banded(200, 2, 1.0, 5).unwrap())).unwrap();
        let built = build_kernel(&a, KernelVariant::single(Optimization::AutoSchedule), 2);
        assert!(built.kernel.name().contains("Guided"));
    }

    #[test]
    fn single_optimization_specs_have_short_ids() {
        let ids: Vec<String> = Optimization::ALL
            .iter()
            .map(|&o| KernelSpec::from(KernelVariant::single(o)).id())
            .collect();
        assert_eq!(ids, ["csr/unrolled", "csr/prefetch", "delta", "decomposed", "csr/guided"]);
        assert_eq!(KernelSpec::csr(InnerLoop::Scalar).id(), "csr/scalar");
        // Off-table specs keep their Debug form.
        let guided_delta = KernelSpec::from(KernelVariant::of(&[
            Optimization::Compress,
            Optimization::AutoSchedule,
        ]));
        assert_eq!(guided_delta.id(), format!("{guided_delta:?}"));
    }
}
