//! # spmv-ref
//!
//! MKL reference baselines — the comparison points of the paper's
//! evaluation (§IV-C). Intel MKL is closed-source and x86-binary only,
//! and the paper's platforms (KNC, KNL, Broadwell) are simulated here,
//! so the baselines exist only as cost-model entries (substitutions
//! documented in DESIGN.md): [`simulate`] models `mkl_dcsrmv()` as
//! plain CSR under equal-row static partitioning, and the MKL
//! Inspector-Executor `mkl_sparse_d_mv()` as an nnz-rebalanced,
//! vectorized traversal that pays an inspection (and, on regular
//! matrices, a conversion) cost for the amortization study.

pub mod simulate;
