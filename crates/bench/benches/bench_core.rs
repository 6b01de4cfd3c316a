//! Criterion benchmarks for the host-side core: cycle mathematics, the
//! elementary / staged in-place transposition engines, and each host stage
//! on its own (real wall-clock, not simulated time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ipt_core::full::{plan_auto, Algorithm};
use ipt_core::{C2rGeometry, Matrix, TileHeuristic, TransposePerm};
use std::hint::black_box;

fn bench_cycle_math(c: &mut Criterion) {
    let mut g = c.benchmark_group("cycle-math");
    for &(r, cl) in &[(720usize, 180usize), (1440, 360)] {
        let perm = TransposePerm::new(r, cl);
        g.bench_with_input(BenchmarkId::new("cycle_count", format!("{r}x{cl}")), &perm, |b, p| {
            b.iter(|| black_box(p.cycle_count()));
        });
        g.bench_with_input(BenchmarkId::new("leaders", format!("{r}x{cl}")), &perm, |b, p| {
            b.iter(|| {
                black_box(ipt_core::elementary::parallel::find_cycle_leaders(p).len())
            });
        });
    }
    g.finish();
}

fn bench_plans(c: &mut Criterion) {
    let mut g = c.benchmark_group("staged-transpose-cpu");
    g.sample_size(10);
    let (r, cl) = (1440usize, 360usize);
    let bytes = (r * cl * 4) as u64;
    g.throughput(Throughput::Bytes(2 * bytes));
    let m = Matrix::pattern_f32(r, cl);
    for algo in [Algorithm::ThreeStage, Algorithm::FourStage, Algorithm::FourStageFused] {
        let plan = plan_auto(r, cl, algo, &TileHeuristic::default());
        g.bench_function(BenchmarkId::new("seq", algo.name()), |b| {
            b.iter_batched(
                || m.as_slice().to_vec(),
                |mut data| {
                    plan.execute_seq(&mut data);
                    data
                },
                criterion::BatchSize::LargeInput,
            );
        });
        g.bench_function(BenchmarkId::new("par", algo.name()), |b| {
            b.iter_batched(
                || m.as_slice().to_vec(),
                |mut data| {
                    plan.execute_par(&mut data);
                    data
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// One in-place pass over a fresh copy of `m` per iteration. The copy is
/// returned, so freeing it is not timed.
fn bench_pass(
    g: &mut criterion::BenchmarkGroup,
    name: &str,
    m: &Matrix<f32>,
    pass: impl Fn(&mut [f32]),
) {
    g.bench_function(name, |b| {
        b.iter_batched(
            || m.as_slice().to_vec(),
            |mut data| {
                pass(&mut data);
                data
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

/// The C2R passes on their own: phase 1 (a no-op when gcd is 1), the row
/// shuffle, and the column shuffle's rotation and row permutation.
fn c2r_passes(g: &mut criterion::BenchmarkGroup, m: &Matrix<f32>) {
    let geom = C2rGeometry::new(m.rows(), m.cols());
    bench_pass(g, "c2r-rotate", m, |d| geom.rotate_columns(d));
    bench_pass(g, "c2r-row-shuffle", m, |d| geom.shuffle_rows(d));
    bench_pass(g, "c2r-col-rotate", m, |d| geom.rotate_columns_up(d));
    bench_pass(g, "c2r-row-permute", m, |d| geom.permute_rows(d));
}

/// Every host stage on its own at 1440x360: the three 3-stage stages
/// (100! and 0100! follow cycles, 0010! runs as BS tiles) and the C2R
/// passes (gcd 360, so the rotate pass runs).
fn bench_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("host-stage");
    g.sample_size(10);
    let (r, cl) = (1440usize, 360usize);
    g.throughput(Throughput::Bytes(2 * (r * cl * 4) as u64));
    let m = Matrix::pattern_f32(r, cl);
    let plan = plan_auto(r, cl, Algorithm::ThreeStage, &TileHeuristic::default());
    for stage in &plan.stages {
        bench_pass(&mut g, &stage.code.to_string(), &m, |d| stage.op.apply_par(d));
    }
    c2r_passes(&mut g, &m);
    g.finish();
}

/// C2R at perfbench's `host-inplace` shape, 7919x1637 (gcd 1, 52 MB): the
/// array is far beyond L2, so the column passes pay their strided traffic.
fn bench_c2r_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("host-c2r-7919x1637");
    g.sample_size(10);
    let (r, cl) = (7919usize, 1637usize);
    g.throughput(Throughput::Bytes(2 * (r * cl * 4) as u64));
    let m = Matrix::pattern_f32(r, cl);
    c2r_passes(&mut g, &m);
    bench_pass(&mut g, "c2r-par", &m, |d| ipt_core::transpose_c2r_par(d, r, cl));
    g.finish();
}

criterion_group!(benches, bench_cycle_math, bench_plans, bench_stages, bench_c2r_large);
criterion_main!(benches);
