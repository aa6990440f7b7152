//! Cross-crate integration: the full tuning pipeline on real
//! (host-executed) kernels, for every policy and archetype.

use std::sync::Arc;

use spmv_tune::prelude::*;
use spmv_tune::sparse::gen;

fn archetypes() -> Vec<(&'static str, Validated<Arc<Csr>>)> {
    [
        ("banded", gen::banded(3_000, 8, 0.9, 1)),
        ("stencil", gen::stencil_2d(50, 60)),
        ("random", gen::random_uniform(2_000, 10, 2)),
        ("powerlaw", gen::powerlaw(2_500, 7, 1.9, 3)),
        ("circuit", gen::circuit(3_000, 2, 0.4, 5, 4)),
        ("blockdense", gen::block_dense(512, 64, 1, 5)),
    ]
    .map(|(name, a)| (name, Validated::new(Arc::new(a.unwrap())).unwrap()))
    .into()
}

fn reference(a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    a.spmv(x, &mut y);
    y
}

fn check(kernel: &dyn spmv_tune::kernels::variant::SpmvKernel, a: &Csr, tag: &str) {
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
    let expect = reference(a, &x);
    let mut y = vec![0.0; a.nrows()];
    kernel.run(&x, &mut y);
    for (i, (u, v)) in y.iter().zip(&expect).enumerate() {
        assert!((u - v).abs() < 1e-9, "{tag}: row {i}, {u} vs {v}");
    }
}

#[test]
fn every_strategy_produces_correct_kernels_on_every_archetype() {
    let machine = MachineModel::host();
    let policies = [
        (Policy::FeatureGuided, 3),
        (Policy::ProfileGuided, 3),
        (Policy::TrivialSingle, 2),
        (Policy::Menu, 2),
    ];
    for (name, a) in archetypes() {
        for (policy, nthreads) in policies {
            let (plan, built) = search(&a, policy, &machine, nthreads, 3);
            let tag = format!("{name}/{policy:?}");
            assert_eq!(plan.spec, built.spec, "{tag}");
            check(&*built.kernel, &a, &tag);
        }
    }
}

#[test]
fn trivial_combined_strategy_correct_on_skewed_matrix() {
    let machine = MachineModel::host();
    let a = Validated::new(Arc::new(gen::circuit(5_000, 3, 0.3, 5, 9).unwrap())).unwrap();
    let (plan, built) = search(&a, Policy::TrivialCombined, &machine, 2, 3);
    check(&*built.kernel, &a, "trivial-combined/circuit");
    assert_eq!(plan.classes, spmv_tune::tuner::class::ClassSet::EMPTY);
}

#[test]
fn many_core_model_detects_more_bottlenecks_than_multicore() {
    // The same irregular matrix: feature-guided classification for
    // KNL (many-core) should contain ML; for a 4-thread host model it
    // should not.
    let a = Validated::new(Arc::new(gen::random_uniform(60_000, 12, 7).unwrap())).unwrap();
    let classes =
        |machine: &MachineModel| search(&a, Policy::FeatureGuided, machine, 2, 3).0.classes;
    let classes_knl = classes(&MachineModel::knl());
    let mut small = MachineModel::host();
    small.cores = 4;
    small.threads_per_core = 1;
    let classes_host = classes(&small);
    use spmv_tune::tuner::class::Bottleneck;
    assert!(classes_knl.contains(Bottleneck::ML), "{classes_knl}");
    assert!(!classes_host.contains(Bottleneck::ML), "{classes_host}");
}

#[test]
fn tuned_kernel_plugs_into_solvers() {
    let a = Validated::new(Arc::new(gen::stencil_2d(40, 40).unwrap())).unwrap();
    let machine = MachineModel::host();
    let (_, built) = search(&a, Policy::FeatureGuided, &machine, 2, 3);
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let mut b = vec![0.0; n];
    a.spmv(&x_true, &mut b);
    let mut x = vec![0.0; n];
    let kernel = &*built.kernel;
    let stats = spmv_tune::solvers::cg(&kernel, &b, &mut x, None, 1e-10, 4_000);
    assert!(stats.converged, "residual {}", stats.residual);
    for (u, v) in x.iter().zip(&x_true) {
        assert!((u - v).abs() < 1e-6);
    }
}

#[test]
fn matrixmarket_roundtrip_feeds_the_optimizer() {
    let a = gen::powerlaw(1_500, 6, 2.0, 11).unwrap();
    let mut buf = Vec::new();
    spmv_tune::sparse::mm::write_csr(&mut buf, &a).unwrap();
    let b =
        Validated::new(Arc::new(spmv_tune::sparse::mm::read_csr(buf.as_slice()).unwrap())).unwrap();
    assert_eq!(a, **b);
    let (_, built) = search(&b, Policy::FeatureGuided, &MachineModel::host(), 2, 3);
    check(&*built.kernel, &b, "mm-roundtrip");
}

#[test]
fn amortization_accounting_is_consistent() {
    use spmv_tune::tuner::amortize::{min_iterations, Amortization};
    // Trivial sweep must cost more prep than feature-guided on the
    // same matrix (host timings, coarse but ordinal).
    let a = Validated::new(Arc::new(gen::banded(20_000, 16, 0.9, 5).unwrap())).unwrap();
    let machine = MachineModel::host();
    let (feat, _) = search(&a, Policy::FeatureGuided, &machine, 2, 3);
    let (sweep, _) = search(&a, Policy::TrivialCombined, &machine, 2, 3);
    assert!(
        sweep.search_seconds > feat.search_seconds,
        "sweep {} vs feat {}",
        sweep.search_seconds,
        feat.search_seconds
    );
    // And the amortization formula orders them accordingly for any
    // fixed gain.
    let n_feat = min_iterations(feat.search_seconds, 1e-3, 0.5e-3);
    let n_sweep = min_iterations(sweep.search_seconds, 1e-3, 0.5e-3);
    match (n_feat, n_sweep) {
        (Amortization::After(a_), Amortization::After(b_)) => assert!(a_ <= b_),
        other => panic!("unexpected {other:?}"),
    }
}
