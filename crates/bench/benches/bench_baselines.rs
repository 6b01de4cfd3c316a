//! Criterion benchmarks for the Table-3 CPU comparators (real wall-clock on
//! the host — absolute numbers depend on the machine; the ordering
//! out-of-place ≥ GKK in-place ≫ sequential in-place is the reproduced
//! shape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ipt_baselines::{
    transpose_in_place_gkk, transpose_in_place_pipt, transpose_in_place_seq, transpose_oop_par,
};
use ipt_core::Matrix;
use std::hint::black_box;

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu-baselines");
    g.sample_size(10);
    let (r, cl) = (1440usize, 360usize);
    let bytes = (r * cl * 4) as u64;
    g.throughput(Throughput::Bytes(2 * bytes));
    let m = Matrix::pattern_f32(r, cl);
    let threads = ipt_core::pool::threads();

    g.bench_function(BenchmarkId::new("oop-parallel", format!("{r}x{cl}")), |b| {
        b.iter(|| black_box(transpose_oop_par(&m).len()));
    });
    g.bench_function(BenchmarkId::new("gkk-in-place", format!("{r}x{cl}")), |b| {
        b.iter_batched(
            || m.clone(),
            |x| black_box(transpose_in_place_gkk(x, threads).len()),
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function(BenchmarkId::new("pipt-in-place", format!("{r}x{cl}")), |b| {
        b.iter_batched(
            || m.clone(),
            |x| black_box(transpose_in_place_pipt(x).len()),
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();

    // The sequential Windley walker is minutes-slow at 1440×360; bench it
    // on a smaller matrix so the suite stays runnable.
    let mut g = c.benchmark_group("cpu-baselines-slow");
    g.sample_size(10);
    let small = Matrix::pattern_f32(360, 90);
    g.throughput(Throughput::Bytes(2 * 360 * 90 * 4));
    g.bench_function("seq-in-place/360x90", |b| {
        b.iter_batched(
            || small.clone(),
            |x| black_box(transpose_in_place_seq(x).len()),
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
