//! # spmv-kernels
//!
//! Executable parallel SpMV kernels for the `spmv-tune` workspace:
//! the baseline CSR kernel of the paper (static, nnz-balanced 1-D row
//! partitioning) plus the paper's optimization pool:
//!
//! | paper class | optimization | module |
//! |---|---|---|
//! | `MB` | column-index delta compression + vectorization | [`compressed`] |
//! | `ML` | software prefetching of `x` | [`prefetch`] |
//! | `IMB` | long-row decomposition / `auto` scheduling | [`decomposed`], [`schedule`] |
//! | `CMP` | inner-loop unrolling + vectorization | [`vectorized`] |
//!
//! [`micro`] extends the `CMP` pool with a menu of explicitly
//! vectorized row kernels (`core::arch` AVX2/AVX-512 behind runtime
//! detection, each with a bitwise-identical scalar fallback) that the
//! tuner's menu search selects from per matrix.
//!
//! Every host kernel is described by one [`variant::KernelSpec`]
//! (storage format × inner loop × schedule), and
//! [`variant::build_kernel`] is the one builder: it performs any
//! required format conversion (falling back when the matrix cannot
//! take the format) and reports its preprocessing time — the quantity
//! amortized in the paper's Table 4 study. The paper's optimization
//! sets ([`variant::KernelVariant`]) and the tuner's menu
//! ([`micro::menu`]) are both lists of specs.
//!
//! All kernels execute on the persistent worker pool of [`engine`]:
//! threads are created once per thread count and parked between
//! calls, and each kernel holds a precomputed [`engine::Plan`] so
//! repeated invocations pay neither spawn latency nor partition
//! recomputation. Kernels honour an explicit thread count and capture
//! per-thread busy times — the measurement behind the paper's `P_IMB`
//! bound — timed around pure compute only.

pub mod baseline;
pub mod compressed;
pub mod decomposed;
pub mod engine;
pub mod micro;
pub mod prefetch;
pub mod schedule;
pub mod sliced;
pub mod spmm;
pub mod variant;
pub mod vectorized;

pub use engine::{ExecEngine, Plan};
pub use micro::MicroSpec;
pub use schedule::{Schedule, ThreadTimes};
pub use spmm::{SpmmKernel, MAX_BATCH};
pub use variant::{
    build_kernel, BuiltKernel, Format, KernelSpec, KernelVariant, Optimization, SpmvKernel,
};
