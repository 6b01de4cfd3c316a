//! Device kernels for the coprime (general-dimension) decomposition —
//! the extension the paper's footnote 6 points at (Catanzaro et al.,
//! PPoPP 2014 [25]). It is the `c = 1` slice of the C2R decomposition;
//! its closed forms live next to `ipt_core::c2r::C2rGeometry`. The planner
//! never picks these kernels: they stay as the measured rival that the
//! batched [`crate::c2r`] kernels beat (the `dominance` experiment).
//!
//! * [`CoprimeRowScramble`] — phase 1: one work-group per matrix row; the
//!   row is staged through local memory, permuted by
//!   `q ↦ (q·M + r) mod N`, and written back. Global traffic fully
//!   coalesced; the local gather pays bank conflicts.
//! * [`CoprimeColShuffle`] — phase 2: one work-group per matrix column;
//!   the column is staged through local memory and permuted by the gather
//!   `J ↦ (J·N + c) mod M`. The stride-N global accesses are inherently
//!   uncoalesced — the honest cost of arbitrary dimensions, and still far
//!   better than the single-stage whole-matrix chase (see the `primes`
//!   experiment).

use gpu_sim::{Buffer, Coordination, Grid, Kernel, LaneAddrs, LaneWrites, Step, WarpCtx};
use ipt_core::c2r::{is_coprime_shape, minv_for, phase1_src_col, phase2_src_row};

/// Phase-1 kernel: row scramble.
#[derive(Debug, Clone)]
pub struct CoprimeRowScramble {
    /// The matrix buffer (`rows × cols` row-major words).
    pub data: Buffer,
    /// Matrix rows (M).
    pub rows: usize,
    /// Matrix cols (N).
    pub cols: usize,
    /// Work-items per work-group.
    pub wg_size: usize,
    /// `M⁻¹ mod N`, precomputed once at construction — the single
    /// `ipt_core::c2r::minv_for` call for the whole launch (a real
    /// kernel receives it as a launch parameter, not per-thread work).
    minv: usize,
}

impl CoprimeRowScramble {
    /// Build the kernel, precomputing the modular inverse from
    /// `ipt_core::c2r` — the one source of truth for the mathematics.
    ///
    /// # Panics
    /// Panics if `rows` and `cols` are not coprime.
    #[must_use]
    pub fn new(data: Buffer, rows: usize, cols: usize, wg_size: usize) -> Self {
        Self { data, rows, cols, wg_size, minv: minv_for(rows, cols) }
    }
}

/// Per-warp state: which row (grid-stride), phase, and word cursor.
pub struct RowState {
    row: usize,
    phase: u8,
    iter: usize,
}

impl Kernel for CoprimeRowScramble {
    type State = RowState;

    fn name(&self) -> String {
        format!("coprime-rows {}x{}", self.rows, self.cols)
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: self.rows.min(4096), wg_size: self.wg_size }
    }

    // Grid-stride over whole rows (`st.row += num_wgs`): each work-group
    // touches only rows ≡ wg_id (mod num_wgs) — disjoint footprints.
    fn coordination(&self) -> Coordination {
        Coordination::WgLocal
    }

    fn regs_per_thread(&self) -> usize {
        16
    }

    fn local_mem_words(&self, _dev: &gpu_sim::DeviceSpec) -> usize {
        self.cols
    }

    fn init(&self, wg_id: usize, _warp: usize) -> RowState {
        RowState { row: wg_id, phase: 0, iter: 0 }
    }

    fn step(&self, st: &mut RowState, ctx: &mut WarpCtx<'_>) -> Step {
        if st.row >= self.rows {
            return Step::Done;
        }
        let n = self.cols;
        let base = st.row * n;
        let warp_off = ctx.warp_id * ctx.device().simd_width;
        let w0 = st.iter * ctx.wg_size + warp_off;
        match st.phase {
            0 => {
                // Stage the row into local memory (coalesced read).
                if w0 < n {
                    let addrs = LaneAddrs::from_fn(ctx.lanes, |l| {
                        let q = w0 + l;
                        (q < n).then_some(base + q)
                    });
                    let vals = ctx.global_read(self.data, &addrs);
                    let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                        let q = w0 + l;
                        (q < n).then_some((q, vals.get(l)))
                    });
                    ctx.local_write(&writes);
                }
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= n {
                    st.phase = 1;
                    st.iter = 0;
                    Step::Barrier
                } else {
                    Step::Continue
                }
            }
            _ => {
                // Permuted write-back (local gather, coalesced global write).
                if w0 < n {
                    let addrs = LaneAddrs::from_fn(ctx.lanes, |l| {
                        let q_out = w0 + l;
                        (q_out < n).then(|| phase1_src_col(st.row, q_out, self.rows, n, self.minv))
                    });
                    let vals = ctx.local_read(&addrs);
                    ctx.alu(6.0); // modular index arithmetic
                    let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                        let q_out = w0 + l;
                        (q_out < n).then_some((base + q_out, vals.get(l)))
                    });
                    ctx.global_write(self.data, &writes);
                }
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= n {
                    // Next row for this work-group (grid stride).
                    st.row += ctx.num_wgs;
                    st.phase = 0;
                    st.iter = 0;
                    if st.row >= self.rows {
                        Step::Done
                    } else {
                        Step::Barrier
                    }
                } else {
                    Step::Continue
                }
            }
        }
    }
}

/// Phase-2 kernel: column shuffle.
#[derive(Debug, Clone)]
pub struct CoprimeColShuffle {
    /// The matrix buffer.
    pub data: Buffer,
    /// Matrix rows (M).
    pub rows: usize,
    /// Matrix cols (N).
    pub cols: usize,
    /// Work-items per work-group.
    pub wg_size: usize,
}

/// Per-warp state for the column kernel.
pub struct ColState {
    col: usize,
    phase: u8,
    iter: usize,
}

impl Kernel for CoprimeColShuffle {
    type State = ColState;

    fn name(&self) -> String {
        format!("coprime-cols {}x{}", self.rows, self.cols)
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: self.cols.min(4096), wg_size: self.wg_size }
    }

    // Grid-stride over whole columns: each work-group permutes only columns
    // ≡ wg_id (mod num_wgs), so global footprints never overlap.
    fn coordination(&self) -> Coordination {
        Coordination::WgLocal
    }

    fn regs_per_thread(&self) -> usize {
        16
    }

    fn local_mem_words(&self, _dev: &gpu_sim::DeviceSpec) -> usize {
        self.rows
    }

    fn init(&self, wg_id: usize, _warp: usize) -> ColState {
        ColState { col: wg_id, phase: 0, iter: 0 }
    }

    fn step(&self, st: &mut ColState, ctx: &mut WarpCtx<'_>) -> Step {
        if st.col >= self.cols {
            return Step::Done;
        }
        let (m, n) = (self.rows, self.cols);
        let warp_off = ctx.warp_id * ctx.device().simd_width;
        let r0 = st.iter * ctx.wg_size + warp_off;
        match st.phase {
            0 => {
                // Stage the column (stride-N reads: uncoalesced, costed).
                if r0 < m {
                    let addrs = LaneAddrs::from_fn(ctx.lanes, |l| {
                        let r = r0 + l;
                        (r < m).then_some(r * n + st.col)
                    });
                    let vals = ctx.global_read(self.data, &addrs);
                    let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                        let r = r0 + l;
                        (r < m).then_some((r, vals.get(l)))
                    });
                    ctx.local_write(&writes);
                }
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= m {
                    st.phase = 1;
                    st.iter = 0;
                    Step::Barrier
                } else {
                    Step::Continue
                }
            }
            _ => {
                if r0 < m {
                    let addrs = LaneAddrs::from_fn(ctx.lanes, |l| {
                        let j_out = r0 + l;
                        (j_out < m).then(|| phase2_src_row(j_out, st.col, m, n))
                    });
                    let vals = ctx.local_read(&addrs);
                    ctx.alu(4.0);
                    let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                        let j_out = r0 + l;
                        (j_out < m).then_some((j_out * n + st.col, vals.get(l)))
                    });
                    ctx.global_write(self.data, &writes);
                }
                st.iter += 1;
                if st.iter * ctx.wg_size + warp_off >= m {
                    st.col += ctx.num_wgs;
                    st.phase = 0;
                    st.iter = 0;
                    if st.col >= self.cols {
                        Step::Done
                    } else {
                        Step::Barrier
                    }
                } else {
                    Step::Continue
                }
            }
        }
    }
}

/// Run the two-phase coprime transposition on the device and return the
/// per-phase stats. `data` is reinterpreted as row-major `cols × rows`
/// afterwards.
///
/// # Errors
/// Propagates infeasible launches (a row or column must fit local memory).
pub fn transpose_coprime_on_device(
    sim: &gpu_sim::Sim,
    data: Buffer,
    rows: usize,
    cols: usize,
    wg_size: usize,
) -> Result<gpu_sim::PipelineStats, gpu_sim::LaunchError> {
    assert!(is_coprime_shape(rows, cols), "coprime dimensions required");
    let noop = &ipt_obs::NoopRecorder;
    let s1 = sim.launch(&CoprimeRowScramble::new(data, rows, cols, wg_size), noop, 0.0)?;
    let s2 = sim.launch(&CoprimeColShuffle { data, rows, cols, wg_size }, noop, 0.0)?;
    Ok(gpu_sim::PipelineStats { stages: vec![s1, s2], overhead_s: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Sim};
    use ipt_core::Matrix;

    fn run(dev: DeviceSpec, rows: usize, cols: usize) -> (Vec<u32>, gpu_sim::PipelineStats) {
        let mut sim = Sim::new(dev, rows * cols + 8);
        let buf = sim.alloc(rows * cols);
        let m = Matrix::iota(rows, cols);
        sim.upload_u32(buf, m.as_slice());
        let stats = transpose_coprime_on_device(&sim, buf, rows, cols, 256).unwrap();
        (sim.download_u32(buf), stats)
    }

    #[test]
    fn transposes_coprime_shapes_on_device() {
        for &(r, c) in &[(5usize, 3usize), (127, 64), (61, 45), (97, 101), (2, 9)] {
            let (got, _) = run(DeviceSpec::tesla_k20(), r, c);
            assert_eq!(got, Matrix::iota(r, c).transposed().into_vec(), "{r}x{c}");
        }
    }

    #[test]
    fn works_on_amd_and_phi() {
        for dev in [DeviceSpec::hd7750(), DeviceSpec::xeon_phi()] {
            let (got, _) = run(dev, 31, 45);
            assert_eq!(got, Matrix::iota(31, 45).transposed().into_vec());
        }
    }

    #[test]
    fn beats_single_stage_on_prime_dims() {
        // The point of the extension: prime×prime at staged-like speed
        // instead of the single-stage chase.
        use ipt_core::stages::StagePlan;
        use ipt_gpu_test_util::run_plan_gbps;
        let (r, c) = (509usize, 251usize);
        let dev = DeviceSpec::tesla_k20();
        let (_, stats) = run(dev.clone(), r, c);
        let bytes = (r * c * 4) as f64;
        let coprime_gbps = stats.throughput_gbps(bytes);
        let single = run_plan_gbps(&dev, r, c, &StagePlan::single_stage(r, c));
        assert!(
            coprime_gbps > 2.0 * single,
            "coprime {coprime_gbps:.1} GB/s should beat single-stage {single:.1} GB/s"
        );
    }

    /// Minimal helper mirroring pipeline::transpose_on_device for plans.
    mod ipt_gpu_test_util {
        use gpu_sim::{DeviceSpec, Sim};
        use ipt_core::stages::StagePlan;
        use ipt_core::Matrix;

        pub fn run_plan_gbps(dev: &DeviceSpec, r: usize, c: usize, plan: &StagePlan) -> f64 {
            let opts = crate::opts::GpuOptions::tuned_for(dev);
            let mut sim =
                Sim::new(dev.clone(), r * c + crate::pipeline::plan_flag_words(plan) + 64);
            let mut data = Matrix::iota(r, c).into_vec();
            let stats =
                crate::pipeline::transpose_on_device(&mut sim, &mut data, r, c, plan, &opts)
                    .unwrap();
            stats.throughput_gbps((r * c * 4) as f64)
        }
    }

    #[test]
    fn row_kernel_is_coalesced() {
        let (r, c) = (63usize, 128usize);
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), r * c + 8);
        let buf = sim.alloc(r * c);
        sim.upload_u32(buf, Matrix::iota(r, c).as_slice());
        let row = CoprimeRowScramble::new(buf, r, c, 256);
        let s1 = sim.launch(&row, &ipt_obs::NoopRecorder, 0.0).unwrap();
        assert!(s1.coalescing_efficiency() > 0.9, "{}", s1.coalescing_efficiency());
    }
}
