//! **Scheme dominance sweep** — the C2R/R2C decomposition (Catanzaro,
//! Keller & Garland) against every rival scheme, per shape.
//!
//! The paper's §7.4 limitation is the prime-shape slow path: when no good
//! tile exists the staged algorithm degrades, and the old planner fell back
//! to coprime cycle-following (or the single-stage pass) instead. This
//! experiment is the gate that the C2R scheme actually removed that slow
//! path:
//!
//! * per sweep shape it measures the C2R device pipeline against coprime
//!   cycle-following (where launchable), the planner's staged plan (where a
//!   tile exists), and the single-stage `100!` fallback, all
//!   correctness-asserted. The coprime kernels and the single-stage plan
//!   are built directly: no [`Scheme`] names them, so the planner cannot
//!   pick them;
//! * it probes the planner over the sweep grid **plus paper-class prime
//!   shapes** (the 7919×104729 family, far too large to simulate) and
//!   records each decision; the summary keeps counting probes named
//!   `coprime` or `single-stage`, which must stay 0;
//! * `passed` requires C2R to beat coprime on **every** contested
//!   (gcd = 1, coprime-launchable) shape.
//!
//! `repro dominance` exits 1 when the gate fails; the committed
//! `bench_out/dominance.json` baseline additionally gates throughput drift
//! under `repro --check`.

use crate::workloads::Scale;
use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::StagePlan;
use ipt_core::{decide_scheme, Matrix, Scheme, TileHeuristic};
use ipt_gpu::coprime::transpose_coprime_on_device;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_gpu::{c2r_scratch_words, transpose_c2r_on_device, TransposeError};
use serde::Serialize;

/// One sweep shape: every rival measured on the simulated device.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// gcd(rows, cols) — 1 on the prime/near-prime shapes.
    pub gcd: usize,
    /// What `decide_scheme` picks for this shape.
    pub planner: String,
    /// C2R decomposition (GB/s) — total over every shape.
    pub c2r_gbps: f64,
    /// Coprime cycle-following (GB/s); `None` when gcd > 1 or the kernels
    /// cannot launch (a row longer than the scratchpad).
    pub coprime_gbps: Option<f64>,
    /// The planner's staged plan (GB/s); `None` when no tile exists.
    pub staged_gbps: Option<f64>,
    /// Single-stage `100!` fallback (GB/s) — the paper's own prime-shape
    /// answer.
    pub single_gbps: Option<f64>,
    /// Fastest scheme on this shape.
    pub winner: String,
}

/// One planner probe: shapes too large to simulate still get a decision.
#[derive(Debug, Clone, Serialize)]
pub struct Probe {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// The decided scheme's name.
    pub scheme: String,
}

/// Sweep verdict: the dominance gate.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Shapes measured.
    pub shapes: usize,
    /// Shapes where coprime launched and contested C2R (gcd = 1).
    pub contested: usize,
    /// Contested shapes where C2R won.
    pub c2r_wins: usize,
    /// Worst C2R-over-coprime ratio across contested shapes (> 1 means
    /// C2R dominated everywhere).
    pub min_speedup_vs_coprime: f64,
    /// gcd = 1 shapes where the coprime kernels could not even launch
    /// (line longer than the scratchpad) while C2R still ran.
    pub coprime_infeasible: usize,
    /// Planner probes (sweep grid + paper-class prime shapes).
    pub probes: usize,
    /// Probes that resolved to coprime cycle-following (must be 0).
    pub probe_coprime: usize,
    /// Probes that resolved to the single-stage fallback (must be 0).
    pub probe_single_stage: usize,
    /// The gate: C2R won every contest and no probe hit a slow path.
    pub passed: bool,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 { a } else { gcd(b, a % b) }
}

/// The measured sweep grid: prime / near-prime shapes (the slow path under
/// test), one composite shape where the staged family is at its best, and
/// one long-line prime shape that forces the C2R scratch path and defeats
/// the coprime kernels entirely.
#[must_use]
pub fn shapes(scale: Scale) -> Vec<(usize, usize)> {
    let mut v = vec![(1009, 251), (509, 521), (761, 128), (480, 360), (61, 13001)];
    if scale == Scale::Full {
        v.extend([(997, 512), (251, 1013), (720, 480)]);
    }
    v
}

/// Planner-only probes: the paper-class prime shapes (7919×104729 is
/// ~830 M words — nothing to simulate, but the *decision* must already be
/// right) plus smaller prime-shape variants.
#[must_use]
pub fn probe_shapes(scale: Scale) -> Vec<(usize, usize)> {
    let mut v = shapes(scale);
    v.extend([(7919, 104_729), (104_729, 7919), (7919, 512), (104_729, 3)]);
    v
}

/// Measure the C2R device pipeline, correctness-asserted.
fn measure_c2r(dev: &DeviceSpec, r: usize, c: usize) -> f64 {
    let wg = 256.min(dev.max_threads_per_wg);
    let scratch = c2r_scratch_words(dev, r, c, wg);
    let mut sim = Sim::new(dev.clone(), r * c + scratch + 8);
    let buf = sim.alloc(r * c);
    let mat = Matrix::iota(r, c);
    sim.upload_u32(buf, mat.as_slice());
    let stats = transpose_c2r_on_device(&mut sim, buf, r, c, wg).expect("c2r launch");
    assert_eq!(sim.download_u32(buf), mat.transposed().into_vec(), "device c2r incorrect");
    stats.throughput_gbps((r * c * 4) as f64)
}

/// Measure coprime cycle-following; `None` when gcd > 1 or the launch is
/// infeasible on this device.
fn measure_coprime(dev: &DeviceSpec, r: usize, c: usize) -> Option<f64> {
    if gcd(r, c) != 1 {
        return None;
    }
    let mut sim = Sim::new(dev.clone(), r * c + 8);
    let buf = sim.alloc(r * c);
    let mat = Matrix::iota(r, c);
    sim.upload_u32(buf, mat.as_slice());
    let stats = transpose_coprime_on_device(&sim, buf, r, c, 256).ok()?;
    assert_eq!(sim.download_u32(buf), mat.transposed().into_vec(), "device coprime incorrect");
    Some(stats.throughput_gbps((r * c * 4) as f64))
}

/// Measure a staged plan, correctness-asserted; `None` when it cannot
/// launch on this device.
fn measure_plan(dev: &DeviceSpec, r: usize, c: usize, plan: &StagePlan) -> Option<f64> {
    let opts = GpuOptions::tuned_for(dev);
    let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(plan) + 64);
    let mut data = Matrix::iota(r, c).into_vec();
    let stats = match transpose_on_device(&mut sim, &mut data, r, c, plan, &opts) {
        Ok(stats) => stats,
        Err(TransposeError::Verify(e)) => panic!("device {} incorrect: {e}", plan.name),
        Err(_) => return None,
    };
    Some(stats.throughput_gbps((r * c * 4) as f64))
}

/// Run the sweep and the planner probes.
#[must_use]
pub fn run(dev: &DeviceSpec, scale: Scale) -> (Vec<Row>, Vec<Probe>, Summary) {
    let heuristic = TileHeuristic::default();
    let rows: Vec<Row> = shapes(scale)
        .into_iter()
        .map(|(r, c)| {
            let decision = decide_scheme(r, c, &heuristic);
            let c2r_gbps = measure_c2r(dev, r, c);
            let coprime_gbps = measure_coprime(dev, r, c);
            let staged_gbps = match decision.scheme {
                Scheme::Staged | Scheme::GcdTiled | Scheme::SquareTiled => decision
                    .staged_plan(r, c)
                    .and_then(|plan| measure_plan(dev, r, c, &plan)),
                _ => None,
            };
            let single_gbps = measure_plan(dev, r, c, &StagePlan::single_stage(r, c));
            let mut candidates = vec![("c2r", c2r_gbps)];
            candidates.extend(coprime_gbps.map(|g| ("coprime", g)));
            candidates.extend(staged_gbps.map(|g| ("staged", g)));
            candidates.extend(single_gbps.map(|g| ("single-stage", g)));
            let winner = candidates
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|&(n, _)| n.to_string())
                .unwrap_or_default();
            Row {
                rows: r,
                cols: c,
                gcd: gcd(r, c),
                planner: decision.scheme.name().to_string(),
                c2r_gbps,
                coprime_gbps,
                staged_gbps,
                single_gbps,
                winner,
            }
        })
        .collect();

    let probes: Vec<Probe> = probe_shapes(scale)
        .into_iter()
        .map(|(r, c)| Probe {
            rows: r,
            cols: c,
            scheme: decide_scheme(r, c, &heuristic).scheme.name().to_string(),
        })
        .collect();

    let contested: Vec<&Row> = rows.iter().filter(|r| r.coprime_gbps.is_some()).collect();
    let c2r_wins = contested
        .iter()
        .filter(|r| r.coprime_gbps.is_some_and(|g| r.c2r_gbps > g))
        .count();
    let min_speedup_vs_coprime = contested
        .iter()
        .filter_map(|r| r.coprime_gbps.map(|g| r.c2r_gbps / g))
        .fold(f64::INFINITY, f64::min);
    let min_speedup_vs_coprime =
        if min_speedup_vs_coprime.is_finite() { min_speedup_vs_coprime } else { 0.0 };
    let coprime_infeasible =
        rows.iter().filter(|r| r.gcd == 1 && r.coprime_gbps.is_none()).count();
    let probe_coprime = probes.iter().filter(|p| p.scheme == "coprime").count();
    let probe_single_stage = probes.iter().filter(|p| p.scheme == "single-stage").count();
    let summary = Summary {
        shapes: rows.len(),
        contested: contested.len(),
        c2r_wins,
        min_speedup_vs_coprime,
        coprime_infeasible,
        probes: probes.len(),
        probe_coprime,
        probe_single_stage,
        passed: !contested.is_empty()
            && c2r_wins == contested.len()
            && probe_coprime == 0
            && probe_single_stage == 0,
    };
    (rows, probes, summary)
}

fn opt(g: Option<f64>) -> String {
    g.map_or_else(|| "—".to_string(), |g| format!("{g:.2}"))
}

/// Render the text report.
#[must_use]
pub fn render(rows: &[Row], probes: &[Probe], summary: &Summary) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.rows, r.cols),
                r.gcd.to_string(),
                r.planner.clone(),
                format!("{:.2}", r.c2r_gbps),
                opt(r.coprime_gbps),
                opt(r.staged_gbps),
                opt(r.single_gbps),
                r.winner.clone(),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "Dominance: C2R decomposition vs rival schemes per shape (— = not launchable)",
        &["matrix", "gcd", "planner", "C2R", "coprime", "staged", "1-stage", "winner"],
        &table,
    );
    out.push_str(&format!(
        "\nC2R vs coprime: won {}/{} contested shapes, worst ratio x{:.2}; \
         {} gcd=1 shape(s) where coprime cannot launch at all\n",
        summary.c2r_wins, summary.contested, summary.min_speedup_vs_coprime,
        summary.coprime_infeasible,
    ));
    let fallbacks: Vec<String> = probes
        .iter()
        .filter(|p| p.scheme == "coprime" || p.scheme == "single-stage")
        .map(|p| format!("{}x{} -> {}", p.rows, p.cols, p.scheme))
        .collect();
    out.push_str(&format!(
        "planner probes ({} shapes incl. 7919x104729-class): {} coprime, {} single-stage \
         fallback(s){}\n",
        summary.probes,
        summary.probe_coprime,
        summary.probe_single_stage,
        if fallbacks.is_empty() {
            String::new()
        } else {
            format!("  [{}]", fallbacks.join(", "))
        },
    ));
    out.push_str(&format!(
        "gate: {}  [C2R must win every contested shape; no probe may fall back to \
         coprime or single-stage]\n",
        if summary.passed { "PASS" } else { "FAIL" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_grid_covers_the_paper_class_shape_and_resolves_to_c2r_or_staged() {
        for scale in [Scale::Reduced, Scale::Full] {
            let probes = probe_shapes(scale);
            assert!(probes.contains(&(7919, 104_729)));
            let heuristic = TileHeuristic::default();
            for (r, c) in probes {
                let d = decide_scheme(r, c, &heuristic);
                assert!(
                    matches!(
                        d.scheme,
                        Scheme::C2R | Scheme::Staged | Scheme::GcdTiled | Scheme::SquareTiled
                    ),
                    "{r}x{c} resolved to {}",
                    d.scheme.name()
                );
            }
        }
    }

    #[test]
    fn sweep_has_both_contested_and_scratch_shapes() {
        let s = shapes(Scale::Reduced);
        assert!(s.iter().any(|&(r, c)| gcd(r, c) == 1));
        assert!(s.iter().any(|&(r, c)| gcd(r, c) > 1));
        // The long-line shape must overflow the K20 scratchpad for the
        // coprime row kernel, so the sweep exercises "coprime cannot even
        // launch" territory.
        assert!(s.iter().any(|&(_, c)| c > 12_288));
    }
}
