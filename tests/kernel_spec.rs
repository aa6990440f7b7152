//! Host-kernel spec equivalence and golden kernel names.
//!
//! The paper's optimization sets (`KernelVariant`) and the tuner's
//! menu speak one spec vocabulary (`KernelSpec`) and share one
//! builder. These tests pin that down: the classic variants that
//! build the same kernel as a menu candidate lower onto the very same
//! spec, and every kernel name the builder produces for the paper's
//! sweeps and for the menu matches a golden table recorded before the
//! two builders were merged.

use std::sync::Arc;

use spmv_tune::kernels::micro::menu;
use spmv_tune::kernels::variant::{build_kernel, KernelSpec, KernelVariant, Optimization};
use spmv_tune::sparse::{gen, Csr, Validated};

/// (matrix, variant label or `menu:<id>`, `SpmvKernel::name()`),
/// built on 3 threads. Menu rows cover every SIMD entry; hosts
/// without the ISA (or under `SPMV_FORCE_SCALAR=1`) offer a subset.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("circuit", "vec", "csr[Unrolled,NnzBalanced]"),
    ("circuit", "pref", "csr[Prefetch,NnzBalanced]"),
    ("circuit", "comp", "delta[U8,NnzBalanced]"),
    ("circuit", "decomp", "decomposed[2 long rows,NnzBalanced]"),
    ("circuit", "auto", "csr[Scalar,Guided]"),
    ("circuit", "vec+pref", "csr[UnrolledPrefetch,NnzBalanced]"),
    ("circuit", "vec+comp", "delta[U8,NnzBalanced]"),
    ("circuit", "vec+decomp", "decomposed[2 long rows,NnzBalanced]"),
    ("circuit", "vec+auto", "csr[Unrolled,Guided]"),
    ("circuit", "pref+comp", "delta[U8,NnzBalanced]"),
    ("circuit", "pref+decomp", "decomposed[2 long rows,NnzBalanced]"),
    ("circuit", "pref+auto", "csr[Prefetch,Guided]"),
    ("circuit", "comp+decomp", "decomposed[2 long rows,NnzBalanced]"),
    ("circuit", "comp+auto", "delta[U8,Guided]"),
    ("circuit", "decomp+auto", "decomposed[2 long rows,Guided]"),
    ("circuit", "sell", "sell-8-256[NnzBalanced]"),
    ("circuit", "menu:csr/scalar4-a1", "csr[Micro(scalar4-a1),NnzBalanced]"),
    ("circuit", "menu:csr/scalar8-a2", "csr[Micro(scalar8-a2),NnzBalanced]"),
    ("circuit", "menu:csr/unrolled", "csr[Unrolled,NnzBalanced]"),
    ("circuit", "menu:csr/avx2-a1", "csr[Micro(avx2-a1),NnzBalanced]"),
    ("circuit", "menu:csr/avx2-a2", "csr[Micro(avx2-a2),NnzBalanced]"),
    ("circuit", "menu:csr/avx2-a4", "csr[Micro(avx2-a4),NnzBalanced]"),
    ("circuit", "menu:csr/avx512-a1", "csr[Micro(avx512-a1),NnzBalanced]"),
    ("circuit", "menu:csr/avx512-a2", "csr[Micro(avx512-a2),NnzBalanced]"),
    ("circuit", "menu:csr/avx512-a4", "csr[Micro(avx512-a4),NnzBalanced]"),
    ("circuit", "menu:sell/c4", "sell-4-128[NnzBalanced]"),
    ("circuit", "menu:sell/c8", "sell-8-256[NnzBalanced]"),
    ("circuit", "menu:sell/c16", "sell-16-512[NnzBalanced]"),
    ("circuit", "menu:delta", "delta[U8,NnzBalanced]"),
    ("banded", "vec", "csr[Unrolled,NnzBalanced]"),
    ("banded", "pref", "csr[Prefetch,NnzBalanced]"),
    ("banded", "comp", "delta[U8,NnzBalanced]"),
    ("banded", "decomp", "csr[Scalar,NnzBalanced]"),
    ("banded", "auto", "csr[Scalar,Guided]"),
    ("banded", "vec+pref", "csr[UnrolledPrefetch,NnzBalanced]"),
    ("banded", "vec+comp", "delta[U8,NnzBalanced]"),
    ("banded", "vec+decomp", "csr[Unrolled,NnzBalanced]"),
    ("banded", "vec+auto", "csr[Unrolled,Guided]"),
    ("banded", "pref+comp", "delta[U8,NnzBalanced]"),
    ("banded", "pref+decomp", "csr[Prefetch,NnzBalanced]"),
    ("banded", "pref+auto", "csr[Prefetch,Guided]"),
    ("banded", "comp+decomp", "delta[U8,NnzBalanced]"),
    ("banded", "comp+auto", "delta[U8,Guided]"),
    ("banded", "decomp+auto", "csr[Scalar,Guided]"),
    ("banded", "sell", "sell-8-256[NnzBalanced]"),
    ("banded", "menu:csr/scalar4-a1", "csr[Micro(scalar4-a1),NnzBalanced]"),
    ("banded", "menu:csr/scalar8-a2", "csr[Micro(scalar8-a2),NnzBalanced]"),
    ("banded", "menu:csr/unrolled", "csr[Unrolled,NnzBalanced]"),
    ("banded", "menu:csr/avx2-a1", "csr[Micro(avx2-a1),NnzBalanced]"),
    ("banded", "menu:csr/avx2-a2", "csr[Micro(avx2-a2),NnzBalanced]"),
    ("banded", "menu:csr/avx2-a4", "csr[Micro(avx2-a4),NnzBalanced]"),
    ("banded", "menu:csr/avx512-a1", "csr[Micro(avx512-a1),NnzBalanced]"),
    ("banded", "menu:csr/avx512-a2", "csr[Micro(avx512-a2),NnzBalanced]"),
    ("banded", "menu:csr/avx512-a4", "csr[Micro(avx512-a4),NnzBalanced]"),
    ("banded", "menu:sell/c4", "sell-4-128[NnzBalanced]"),
    ("banded", "menu:sell/c8", "sell-8-256[NnzBalanced]"),
    ("banded", "menu:sell/c16", "sell-16-512[NnzBalanced]"),
    ("banded", "menu:delta", "delta[U8,NnzBalanced]"),
];

fn matrices() -> [(&'static str, Validated<Arc<Csr>>); 2] {
    [
        ("circuit", Validated::new(Arc::new(gen::circuit(1200, 2, 0.4, 5, 3).unwrap())).unwrap()),
        ("banded", Validated::new(Arc::new(gen::banded(400, 3, 1.0, 1).unwrap())).unwrap()),
    ]
}

fn golden(matrix: &str, key: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|(m, k, _)| *m == matrix && *k == key)
        .map(|(_, _, name)| *name)
        .unwrap_or_else(|| panic!("no golden name for {matrix} / {key}"))
}

fn menu_spec(ncols: usize, id: &str) -> KernelSpec {
    menu(ncols).into_iter().find(|s| s.id() == id).unwrap_or_else(|| panic!("no menu entry {id}"))
}

#[test]
fn classic_variants_lower_onto_menu_specs() {
    // Banded: every delta encodes, so `comp` keeps its format.
    let a = Validated::new(Arc::new(gen::banded(400, 3, 1.0, 1).unwrap())).unwrap();
    for (opt, id) in [
        (Optimization::Vectorize, "csr/unrolled"),
        (Optimization::Compress, "delta"),
        (Optimization::SlicedEll, "sell/c8"),
    ] {
        let variant = KernelVariant::single(opt);
        let spec = menu_spec(a.ncols(), id);
        assert_eq!(KernelSpec::from(variant), spec, "{variant} vs {id}");
        let classic = build_kernel(&a, variant, 3);
        let entry = build_kernel(&a, spec, 3);
        assert_eq!(classic.spec, spec, "{variant} fell back");
        assert_eq!(entry.spec, spec, "{id} fell back");
        assert_eq!(classic.kernel.name(), entry.kernel.name());
    }
}

#[test]
fn kernel_names_match_the_golden_table() {
    for (m, a) in matrices() {
        let mut variants = KernelVariant::singles_and_pairs();
        variants.push(KernelVariant::single(Optimization::SlicedEll));
        for v in variants {
            let built = build_kernel(&a, v, 3);
            assert_eq!(built.kernel.name(), golden(m, &v.to_string()), "{m} / {v}");
        }
        for spec in menu(a.ncols()) {
            let built = build_kernel(&a, spec, 3);
            let key = format!("menu:{}", spec.id());
            assert_eq!(built.kernel.name(), golden(m, &key), "{m} / {key}");
        }
    }
}
