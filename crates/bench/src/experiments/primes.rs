//! **Extension (paper footnote 6)** — prime / coprime dimensions.
//!
//! The paper's only acknowledged limitation (§7.4): "when the algorithm
//! cannot choose a good tile size (e.g., prime-number dimensions), the
//! throughput would be degraded", pointing at Catanzaro et al. \[25\] for a
//! decomposition without that limitation. This experiment measures the
//! two-phase coprime decomposition against the paper's own fallback (the
//! single-stage pass) on prime-dimension matrices on the simulated K20,
//! and the host C2R engine, which at `gcd = 1` is the same decomposition,
//! on the host CPU. Host numbers are wall clock, so their keys carry the
//! `wall_` prefix and gate on the wide wall channel of `repro --check`.

use crate::common::{gbps, host_matrix, measure_median};
use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::StagePlan;
use ipt_core::{transpose_matrix_c2r, Matrix};
use ipt_gpu::coprime::transpose_coprime_on_device;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use serde::Serialize;

/// One prime-shape row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Matrix rows (prime or coprime to cols).
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// Simulated K20: coprime decomposition (GB/s).
    pub gpu_coprime_gbps: f64,
    /// Simulated K20: single-stage fallback (GB/s).
    pub gpu_single_stage_gbps: f64,
    /// Host CPU: parallel C2R, the coprime decomposition at `c = 1`
    /// (GB/s, wall clock).
    pub wall_cpu_c2r_gbps: f64,
    /// Host CPU: single-threaded Windley walker (GB/s, wall clock).
    pub wall_cpu_seq_gbps: f64,
}

/// Prime-dimension shapes (both dims prime, or prime × power-of-two).
#[must_use]
pub fn shapes() -> Vec<(usize, usize)> {
    vec![(1009, 251), (509, 521), (997, 512), (251, 1013), (761, 128)]
}

/// Run the comparison.
#[must_use]
pub fn run(dev: &DeviceSpec) -> Vec<Row> {
    let opts = GpuOptions::tuned_for(dev);
    shapes()
        .into_iter()
        .map(|(r, c)| {
            let bytes = (r * c * 4) as f64;

            // Simulated coprime decomposition (verified).
            let mut sim = Sim::new(dev.clone(), r * c + 8);
            let buf = sim.alloc(r * c);
            let mat = Matrix::iota(r, c);
            sim.upload_u32(buf, mat.as_slice());
            let stats = transpose_coprime_on_device(&sim, buf, r, c, 256).expect("launch");
            assert_eq!(
                sim.download_u32(buf),
                mat.transposed().into_vec(),
                "device coprime incorrect"
            );
            let gpu_coprime_gbps = stats.throughput_gbps(bytes);

            // Simulated single-stage fallback.
            let plan = StagePlan::single_stage(r, c);
            let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(&plan) + 64);
            let mut data = mat.as_slice().to_vec();
            let stats = transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts)
                .expect("verified single-stage run");
            let gpu_single_stage_gbps = stats.throughput_gbps(bytes);

            // Host CPU measurements.
            let m = host_matrix(r, c);
            let (t, out) = measure_median(&m, 3, transpose_matrix_c2r);
            assert_eq!(out, m.transposed());
            let wall_cpu_c2r_gbps = gbps(bytes, t);
            let (t, out) = measure_median(&m, 1, ipt_baselines::transpose_in_place_seq);
            assert_eq!(out, m.transposed());
            let wall_cpu_seq_gbps = gbps(bytes, t);

            Row {
                rows: r,
                cols: c,
                gpu_coprime_gbps,
                gpu_single_stage_gbps,
                wall_cpu_c2r_gbps,
                wall_cpu_seq_gbps,
            }
        })
        .collect()
}

/// Render the text report.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.rows, r.cols),
                format!("{:.2}", r.gpu_coprime_gbps),
                format!("{:.2}", r.gpu_single_stage_gbps),
                format!("x{:.1}", r.gpu_coprime_gbps / r.gpu_single_stage_gbps),
                format!("{:.2}", r.wall_cpu_c2r_gbps),
                format!("{:.3}", r.wall_cpu_seq_gbps),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "Extension: prime/coprime dimensions (coprime decomposition vs the paper's fallback)",
        &["matrix", "GPU coprime", "GPU 1-stage", "speedup", "CPU C2R", "CPU seq"],
        &table,
    );
    let avg: f64 = rows.iter().map(|r| r.gpu_coprime_gbps / r.gpu_single_stage_gbps).sum::<f64>()
        / rows.len() as f64;
    out.push_str(&format!(
        "\naverage speedup over the paper's prime-dimension fallback: x{avg:.1}\n\
         (the paper's §7.4 limitation, removed per its footnote-6 reference [25])\n"
    ));
    out
}
