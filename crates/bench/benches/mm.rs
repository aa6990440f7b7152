//! Criterion: the parse stage of registration — `mm::read_csr` on
//! uploads shaped like servebench's large workloads (the 70 000-row
//! band and `web_google` at scale 0.37, serialized by
//! `mm::write_csr`), with bytes/s throughput. Beside each upload it
//! times an f64-only reference: `str::parse::<f64>` over the same
//! upload's value fields, located before timing. Host steal moves
//! absolute times by tens of percent between runs, so compare the
//! ratio `read_csr` ÷ reference within one run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use spmv_sparse::gen::suite::suite_by_name;
use spmv_sparse::gen::{banded, powerlaw, Archetype};
use spmv_sparse::{mm, Csr};

/// The two uploads of servebench's `large-digest` workload (seed 1).
fn uploads() -> Vec<(&'static str, Vec<u8>)> {
    let band = banded(70_000, 7, 0.9, 1).expect("banded generator");
    let preset = suite_by_name("web_google").expect("web_google preset");
    let Archetype::Powerlaw { n, avg_deg, alpha } = preset.archetype else {
        panic!("web_google is a power-law preset");
    };
    let rows = (n as f64 * 0.37).round() as usize;
    let web = powerlaw(rows, avg_deg, alpha, 1).expect("power-law generator");
    let text = |a: &Csr| {
        let mut out = Vec::new();
        mm::write_csr(&mut out, a).expect("serialize");
        out
    };
    vec![("band-70000x7", text(&band)), ("web_google-0.37", text(&web))]
}

/// The value field of every entry line (the third field after the
/// banner, comment and size lines `write_csr` emits).
fn value_fields(text: &[u8]) -> Vec<&str> {
    let text = std::str::from_utf8(text).expect("write_csr emits UTF-8");
    text.lines().skip(3).map(|line| line.split(' ').nth(2).expect("value field")).collect()
}

fn bench_read_csr(c: &mut Criterion) {
    let mut group = c.benchmark_group("mm/read_csr");
    for (name, text) in uploads() {
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &text, |b, text| {
            b.iter(|| black_box(mm::read_csr(black_box(text.as_slice())).expect("valid upload")));
        });
        let fields = value_fields(&text);
        let id = BenchmarkId::new("f64-only", name);
        group.bench_with_input(id, &fields, |b, fields| {
            b.iter(|| {
                let mut sum = 0.0;
                for f in black_box(fields) {
                    sum += f.parse::<f64>().expect("valid value");
                }
                sum
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_read_csr
}
criterion_main!(benches);
