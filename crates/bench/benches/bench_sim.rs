//! Criterion benchmarks of the simulation *engine* itself — serial
//! round-robin vs the pooled parallel engine on the `repro simperf`
//! workload set.
//!
//! Criterion's wall-clock here is simulator speed (an engineering metric,
//! never a checked baseline — CI uploads the criterion output as an
//! artifact instead). The regression gate lives in `repro simperf --check`
//! which routes wall numbers through the wide `wall_*` channel.
//!
//! Pin `RAYON_NUM_THREADS` when comparing runs: the parallel engine sizes
//! its worker pool from it (falling back to the host's core count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DeviceSpec, EngineMode, Sim};
use ipt_bench::workloads::Scale;
use ipt_core::InstancedTranspose;
use ipt_gpu::bs::BsKernel;
use ipt_gpu::opts::FlagLayout;
use ipt_gpu::pttwac010::Pttwac010;
use std::hint::black_box;

/// One BS launch (512 tiles of 32×32) under `engine`, fresh sim each call.
fn run_bs(dev: &DeviceSpec, engine: EngineMode) -> f64 {
    let (instances, rows, cols) = (512, 32, 32);
    let op = InstancedTranspose::new(instances, rows, cols, 1);
    let mut sim = Sim::new(dev.clone(), op.total_len() + 64);
    sim.set_engine_mode(engine);
    let data = sim.alloc(op.total_len());
    sim.upload_u32(data, &(0..op.total_len() as u32).collect::<Vec<_>>());
    let k = BsKernel { data, instances, rows, cols, super_size: 1, wg_size: 256 };
    sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).expect("bs launch").time_s
}

/// One 010! launch (256 tiles of 32×32) under `engine`, fresh sim each call.
fn run_010(dev: &DeviceSpec, engine: EngineMode) -> f64 {
    let (instances, rows, cols) = (256, 32, 32);
    let op = InstancedTranspose::new(instances, rows, cols, 1);
    let mut sim = Sim::new(dev.clone(), op.total_len() + 64);
    sim.set_engine_mode(engine);
    let data = sim.alloc(op.total_len());
    sim.upload_u32(data, &(0..op.total_len() as u32).collect::<Vec<_>>());
    let k = Pttwac010 {
        data,
        instances,
        rows,
        cols,
        wg_size: 256,
        flags: FlagLayout::SpreadPadded { factor: 8 },
        backoff: None,
    };
    sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).expect("010 launch").time_s
}

fn bench_engines(c: &mut Criterion) {
    let dev = DeviceSpec::tesla_k20();
    let parallel = EngineMode::parallel_auto();
    println!(
        "engine: parallel pool uses {} worker threads (RAYON_NUM_THREADS to pin)",
        parallel.resolved_threads()
    );
    let mut g = c.benchmark_group("sim-engine");
    g.sample_size(10);
    for (name, engine) in [("serial", EngineMode::Serial), ("parallel", parallel)] {
        g.bench_function(BenchmarkId::new("bs-512x32x32", name), |b| {
            b.iter(|| black_box(run_bs(&dev, engine)));
        });
        g.bench_function(BenchmarkId::new("010-256x32x32", name), |b| {
            b.iter(|| black_box(run_010(&dev, engine)));
        });
    }
    g.finish();
}

fn bench_simperf_set(c: &mut Criterion) {
    // The full `repro simperf` reduced pipeline (both engines + the
    // bit-identity assertion), so criterion history tracks the same code
    // path the CI gate runs.
    let dev = DeviceSpec::tesla_k20();
    let mut g = c.benchmark_group("simperf-pipeline");
    g.sample_size(10);
    g.bench_function("reduced", |b| {
        b.iter(|| {
            let (rows, summary) =
                ipt_bench::experiments::simperf::run(&dev, Scale::Reduced);
            black_box((rows.len(), summary.wall_gain_x))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_engines, bench_simperf_set);
criterion_main!(benches);
