//! # spmv-tuner
//!
//! The paper's contribution: a lightweight, matrix- and
//! architecture-adaptive SpMV optimizer that treats optimization
//! selection as a multiclass, multilabel classification problem over
//! performance *bottlenecks* (not optimizations):
//!
//! * [`class`] — the four bottleneck classes `MB`, `ML`, `IMB`, `CMP`
//!   (§III-A);
//! * [`bounds`] — collection of the per-class performance bounds by
//!   real micro-benchmark runs on the host (§III-B; the paper's
//!   platforms take theirs from the `spmv-sim` cost model);
//! * [`profile`] — the rule-based profile-guided classifier with its
//!   grid-searched `T_ML` / `T_IMB` hyper-parameters (§III-C);
//! * [`dtree`] — a from-scratch CART decision tree (Gini impurity,
//!   label-powerset multi-label handling);
//! * [`featclf`] — the feature-guided classifier trained on Table 2
//!   structural features, with Leave-One-Out cross-validation and the
//!   Exact / Partial match ratios of §IV-B;
//! * [`optimizer`] — end-to-end optimizers: profile-guided,
//!   feature-guided and the two trivial sweeps, producing runnable
//!   kernels via `spmv-kernels`;
//! * [`amortize`] — the solver-iteration amortization model of §IV-D
//!   (`N_iters,min = t_pre / (t_MKL − t_optimizer)`), where a tuned
//!   kernel's `t_pre` ([`TunedSpmv::prep_seconds`]) includes its
//!   classification or sweep;
//! * [`menu`] — the microkernel menu search: classify the matrix with
//!   the host micro-benchmarks, time only the shortlist its classes
//!   map to (through the paper's [`pool::OptimizationPool`]) over
//!   `spmv_kernels::micro`'s menu and the pool's treatments, and
//!   return the kernel it timed fastest with one [`menu::KernelPlan`]
//!   recording the decision, both kept by the caller;
//! * [`pool`] — the class→optimization mapping (§III-E) as a
//!   configurable value, the only copy of that table, demonstrating
//!   the plug-and-play extension property.

pub mod amortize;
pub mod bounds;
pub mod class;
pub mod dtree;
pub mod featclf;
pub mod menu;
pub mod optimizer;
pub mod partitioned;
pub mod pool;
pub mod profile;

pub use class::{Bottleneck, ClassSet};
pub use featclf::FeatureGuidedClassifier;
pub use menu::KernelPlan;
pub use optimizer::{Optimizer, TunedSpmv};
pub use partitioned::PartitionedMlDetector;
pub use pool::OptimizationPool;
pub use profile::{ProfileClassifier, Thresholds};
