//! Shared runners for the experiment harness: verified simulated kernel
//! executions and wall-clock measurement of the CPU baselines.

use gpu_sim::{DeviceSpec, KernelStats, Sim};
use ipt_core::{InstancedTranspose, Matrix};
use ipt_gpu::opts::{FlagLayout, Variant100};
use ipt_gpu::pttwac010::Pttwac010;
use ipt_gpu::pttwac100::Pttwac100;
use std::time::Instant;

/// Run a `010!` tile-transposition workload (the Fig. 6 / §7.1 kernel) and
/// verify the result. Returns the kernel stats and the payload bytes.
///
/// # Panics
/// Panics on infeasible launches or incorrect results.
#[must_use]
pub fn run_010(
    dev: &DeviceSpec,
    instances: usize,
    m: usize,
    n: usize,
    wg_size: usize,
    flags: FlagLayout,
) -> (KernelStats, f64) {
    let op = InstancedTranspose::new(instances, m, n, 1);
    let mut sim = Sim::new(dev.clone(), op.total_len() + 8);
    let buf = sim.alloc(op.total_len());
    let data: Vec<u32> = (0..op.total_len() as u32).collect();
    sim.upload_u32(buf, &data);
    let k = Pttwac010 { data: buf, instances, rows: m, cols: n, wg_size, flags, backoff: None };
    let stats = sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).expect("feasible 010 launch");
    let mut want = data;
    op.apply_seq(&mut want);
    assert_eq!(sim.download_u32(buf), want, "010! kernel incorrect");
    (stats, (op.total_len() * 4) as f64)
}

/// Run a `100!` super-element workload (the §7.2 / Fig. 7 kernel) and
/// verify. `variant` may be `Auto`.
///
/// # Panics
/// Panics on infeasible launches or incorrect results.
#[must_use]
pub fn run_100(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    super_size: usize,
    variant: Variant100,
    wg_size: usize,
) -> (KernelStats, f64) {
    let total = rows * cols * super_size;
    let flag_words = Pttwac100::flag_words(rows * cols);
    let mut sim = Sim::new(dev.clone(), total + flag_words + 8);
    let data = sim.alloc(total);
    let flags = sim.alloc(flag_words);
    let v: Vec<u32> = (0..total as u32).collect();
    sim.upload_u32(data, &v);
    sim.zero(flags);
    let k = Pttwac100 {
        data,
        flags,
        instances: 1,
        rows,
        cols,
        super_size,
        variant: variant.resolve(super_size, dev.simd_width),
        wg_size,
        fuse_tile: None,
        backoff: None,
    };
    let stats = sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).expect("feasible 100 launch");
    let op = InstancedTranspose::new(1, rows, cols, super_size);
    let mut want = v;
    op.apply_seq(&mut want);
    assert_eq!(sim.download_u32(data), want, "100! kernel incorrect");
    (stats, (total * 4) as f64)
}

/// Median wall-clock seconds of `runs` executions of `f` (each run gets a
/// fresh clone of `input`). The result of the last run is verified by the
/// caller via the returned value.
pub fn measure_median<T: Clone, R>(input: &T, runs: usize, mut f: impl FnMut(T) -> R) -> (f64, R) {
    assert!(runs >= 1);
    // One untimed warm-up run (page faults, rayon pool spin-up).
    let _ = f(input.clone());
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let x = input.clone();
        let t0 = Instant::now();
        let r = f(x);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.expect("runs >= 1"))
}

/// Paper-convention throughput.
#[must_use]
pub fn gbps(bytes: f64, secs: f64) -> f64 {
    2.0 * bytes / secs / 1e9
}

/// Deterministic test matrix for CPU measurements.
#[must_use]
pub fn host_matrix(rows: usize, cols: usize) -> Matrix<f32> {
    Matrix::pattern_f32(rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_010_verifies() {
        let dev = DeviceSpec::tesla_k20();
        let (stats, bytes) = run_010(&dev, 8, 16, 64, 128, FlagLayout::Packed);
        assert!(stats.time_s > 0.0);
        assert_eq!(bytes, (8 * 16 * 64 * 4) as f64);
    }

    #[test]
    fn run_100_verifies() {
        let dev = DeviceSpec::tesla_k20();
        let (stats, _) = run_100(&dev, 32, 25, 16, Variant100::Auto, 256);
        assert!(stats.time_s > 0.0);
    }

    #[test]
    fn median_of_runs() {
        let (t, v) = measure_median(&41u32, 3, |x| x + 1);
        assert!(t >= 0.0);
        assert_eq!(v, 42);
    }

    #[test]
    fn gbps_convention() {
        // 1 GB moved in 1 s = 2 GB/s by the paper's read+write convention.
        assert!((gbps(1e9, 1.0) - 2.0).abs() < 1e-12);
    }
}
