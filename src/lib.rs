//! # spmv-tune
//!
//! Facade crate of the `spmv-tune` workspace: a matrix- and
//! architecture-adaptive SpMV optimizer reproducing
//! *Elafrou, Goumas, Koziris — "Performance Analysis and Optimization
//! of Sparse Matrix-Vector Multiplication on Modern Multi- and
//! Many-Core Processors" (IPDPS 2017)*.
//!
//! The workspace re-exported here:
//!
//! * [`sparse`] — formats ([`sparse::Csr`], delta-compressed CSR,
//!   long-row decomposition, SELL-C-σ), generators, MatrixMarket
//!   I/O, structural features (paper Table 2);
//! * [`machine`] — machine models with KNC / KNL / Broadwell presets
//!   (paper Table 1), cache simulator, STREAM microbenchmark;
//! * [`kernels`] — parallel SpMV kernels: baseline CSR plus the
//!   optimization pool (vectorization, software prefetch, index
//!   compression, decomposition, guided scheduling);
//! * [`sim`] — deterministic performance simulator producing the
//!   per-class bounds (`P_MB`, `P_ML`, `P_IMB`, `P_CMP`, `P_peak`) of
//!   paper §III-B;
//! * [`mod@reference`] — the MKL comparison baselines (plain CSR and
//!   the Inspector-Executor) as simulator cost models;
//! * [`tuner`] — the paper's contribution: bottleneck classification
//!   (profile-guided rules and a CART feature-guided classifier) and
//!   the one tuner, `menu::search`, whose `Policy` picks the paper's
//!   optimizer or the serving menu search;
//! * [`solvers`] — CG / BiCGSTAB / GMRES iterative solvers used for
//!   the amortization study (paper §IV-D).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use spmv_tune::prelude::*;
//!
//! // A small FEM-like matrix, verified once and shared with the
//! // kernel built for it.
//! let a = Validated::new(Arc::new(spmv_tune::sparse::gen::banded(2_000, 8, 0.9, 42).unwrap())).unwrap();
//!
//! // Pick a platform (here: Knights Landing with flat HBM).
//! let machine = MachineModel::knl();
//!
//! // Let the feature-guided optimizer classify the matrix and build
//! // its treatment for 2 threads (best of 3 reps if it times any).
//! let (plan, built) = search(&a, Policy::FeatureGuided, &machine, 2, 3);
//! println!("classes {}, kernel {}", plan.classes, plan.spec.id());
//!
//! // Run SpMV through the tuned kernel.
//! let x = vec![1.0; a.ncols()];
//! let mut y = vec![0.0; a.nrows()];
//! built.kernel.run(&x, &mut y);
//! # assert_eq!(plan.spec, built.spec);
//! # assert!(y.iter().all(|v| v.is_finite()));
//! ```

pub use spmv_kernels as kernels;
pub use spmv_machine as machine;
pub use spmv_ref as reference;
pub use spmv_sim as sim;
pub use spmv_solvers as solvers;
pub use spmv_sparse as sparse;
pub use spmv_tuner as tuner;

/// Commonly used items, importable with one `use`.
pub mod prelude {
    pub use spmv_kernels::schedule::Schedule;
    pub use spmv_kernels::variant::{KernelVariant, Optimization};
    pub use spmv_machine::model::MachineModel;
    pub use spmv_sparse::{Coo, Csr, DecomposedCsr, DeltaCsr, FeatureVector, Validated};
    pub use spmv_tuner::class::{Bottleneck, ClassSet};
    pub use spmv_tuner::menu::{search, KernelPlan, Policy};
}
