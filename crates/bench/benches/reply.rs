//! Criterion: the reply path after the kernel — `digest` for
//! `digest=1` replies and `encode_hex` for full vectors — at the row
//! counts of servebench's large workloads (the 70 000-row band and
//! `web_google` at 170 200 rows), so a reply-path regression shows up
//! without the serving benchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use spmv_serve::service::encode_hex;
use spmv_serve::{build_x, digest};

const ROWS: [usize; 2] = [70_000, 170_200];

fn bench_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("reply/digest");
    for n in ROWS {
        let y = build_x("seed 1", n).expect("valid spec");
        group.throughput(Throughput::Bytes(8 * n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &y, |b, y| {
            b.iter(|| black_box(digest(black_box(y))));
        });
    }
    group.finish();
}

fn bench_encode_hex(c: &mut Criterion) {
    let mut group = c.benchmark_group("reply/encode_hex");
    for n in ROWS {
        let y = build_x("seed 1", n).expect("valid spec");
        // Bytes written: 17 per element.
        group.throughput(Throughput::Bytes(17 * n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &y, |b, y| {
            b.iter(|| black_box(encode_hex(black_box(y))));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_digest, bench_encode_hex
}
criterion_main!(benches);
