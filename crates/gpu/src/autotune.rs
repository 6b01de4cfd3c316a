//! Tile-size search on the device (§7.4): exhaustive and pruned.
//!
//! The throughput surface over `(m, n)` is what Figure 8 plots; the paper's
//! pruning heuristic (`m, n ∈ [50, 100]`, `m·n` under the shared-memory
//! capacity) recovers ≥ 80 % of the exhaustive best.

use crate::opts::GpuOptions;
use crate::pipeline::{plan_flag_words, transpose_on_device};
use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::tiles::{all_tiles, TileHeuristic};
use ipt_core::Matrix;
use ipt_obs::{Counter, Recorder};
use serde::Serialize;

/// One measured tile configuration.
#[derive(Debug, Clone, Copy)]
pub struct TilePoint {
    /// The tile.
    pub tile: TileConfig,
    /// Simulated device-side throughput (paper convention), GB/s.
    pub gbps: f64,
}

/// The winning tile, in serialisable form (for [`TuneLog`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TileChoice {
    /// Tile rows `m`.
    pub m: usize,
    /// Tile cols `n`.
    pub n: usize,
    /// Measured device-side throughput, GB/s.
    pub gbps: f64,
}

/// What an autotuning search did — how many candidates the §7.4 pruning
/// kept, dropped, or found infeasible, and which tile won. Serialises into
/// `BenchReport` rows so pruning effectiveness is auditable after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct TuneLog {
    /// Candidates actually measured (the pruned-in / capped-in set).
    pub considered: usize,
    /// Of the considered, how many produced a feasible measurement.
    pub measured: usize,
    /// Of the considered, how many were infeasible on the device.
    pub rejected_infeasible: usize,
    /// Divisor tiles excluded before measurement (the pruning's savings).
    pub pruned_out: usize,
    /// The winner, if any candidate measured.
    pub chosen: Option<TileChoice>,
}

impl TuneLog {
    fn finish<R: Recorder>(mut self, best: Option<&TilePoint>, rec: &R, scope: &str) -> Self {
        self.chosen = best.map(|p| TileChoice { m: p.tile.m, n: p.tile.n, gbps: p.gbps });
        rec.add(scope, Counter::AutotuneConsidered, self.considered as u64);
        rec.add(scope, Counter::AutotuneRejectedInfeasible, self.rejected_infeasible as u64);
        rec.add(scope, Counter::AutotunePruned, self.pruned_out as u64);
        if let Some(c) = &self.chosen {
            rec.gauge(scope, "chosen_gbps", c.gbps);
            rec.event(0.0, "autotune_chosen", &format!("{scope}: ({}, {}) at {:.3} GB/s", c.m, c.n, c.gbps));
        }
        self
    }
}

/// Count the full divisor-tile universe the searches select from.
fn tile_universe(rows: usize, cols: usize) -> usize {
    all_tiles(rows, cols).iter().filter(|t| t.m > 1 && t.n > 1).count()
}

/// Measure `candidates`, recording one gauge per measured tile and one
/// counter tick per infeasible rejection.
#[allow(clippy::too_many_arguments)]
fn measure_candidates<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    candidates: &[TileConfig],
    opts: &GpuOptions,
    rec: &R,
    scope: &str,
    log: &mut TuneLog,
) -> Vec<TilePoint> {
    let mut out = Vec::with_capacity(candidates.len());
    for &t in candidates {
        log.considered += 1;
        match measure_tile(dev, rows, cols, t, opts) {
            Some(p) => {
                log.measured += 1;
                if rec.enabled() {
                    rec.gauge(&format!("{scope}:{}x{}", t.m, t.n), "gbps", p.gbps);
                }
                out.push(p);
            }
            None => {
                log.rejected_infeasible += 1;
                if rec.enabled() {
                    rec.event(0.0, "autotune_infeasible", &format!("{scope}: ({}, {})", t.m, t.n));
                }
            }
        }
    }
    out.sort_by(|a, b| b.gbps.total_cmp(&a.gbps));
    out
}

/// Measure the 3-stage throughput of one tile on a fresh simulator.
///
/// Returns `None` for infeasible configurations (e.g. stage-2 tile that
/// fits neither local memory nor local flags and whose 100!-fallback cannot
/// launch) and for a run whose result does not verify, so such a tile is
/// never chosen.
#[must_use]
pub fn measure_tile(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    tile: TileConfig,
    opts: &GpuOptions,
) -> Option<TilePoint> {
    let plan = StagePlan::three_stage(rows, cols, tile).ok()?;
    let mut sim = Sim::new(dev.clone(), rows * cols + plan_flag_words(&plan) + 64);
    let mut data = Matrix::iota(rows, cols).into_vec();
    let stats = transpose_on_device(&mut sim, &mut data, rows, cols, &plan, opts).ok()?;
    let bytes = ipt_core::check::bytes_f64(rows, cols, 4);
    Some(TilePoint { tile, gbps: stats.throughput_gbps(bytes) })
}

/// Exhaustively measure every divisor tile of `rows × cols` (optionally
/// capped to `max_dim` per dimension to keep sweeps tractable), sorted by
/// descending throughput, with the search's [`TuneLog`]; every measurement
/// is recorded onto `rec`. `pruned_out` counts divisor tiles the `max_dim`
/// cap excluded.
#[must_use]
pub fn exhaustive_search<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    max_dim: usize,
    opts: &GpuOptions,
    rec: &R,
) -> (Vec<TilePoint>, TuneLog) {
    let candidates: Vec<TileConfig> = all_tiles(rows, cols)
        .into_iter()
        .filter(|t| t.m > 1 && t.n > 1 && t.m <= max_dim && t.n <= max_dim)
        .collect();
    let mut log = TuneLog {
        pruned_out: tile_universe(rows, cols).saturating_sub(candidates.len()),
        ..TuneLog::default()
    };
    let scope = "autotune:exhaustive";
    let out = measure_candidates(dev, rows, cols, &candidates, opts, rec, scope, &mut log);
    let log = log.finish(out.first(), rec, scope);
    (out, log)
}

/// Measure only the §7.4 pruned candidates, sorted by descending
/// throughput, with the search's [`TuneLog`]; every measurement is recorded
/// onto `rec`. `pruned_out` counts divisor tiles the §7.4 heuristic refused
/// to measure — the pruning's savings.
#[must_use]
pub fn pruned_search<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    heuristic: &TileHeuristic,
    opts: &GpuOptions,
    rec: &R,
) -> (Vec<TilePoint>, TuneLog) {
    let candidates = heuristic.pruned_candidates(rows, cols);
    let mut log = TuneLog {
        pruned_out: tile_universe(rows, cols).saturating_sub(candidates.len()),
        ..TuneLog::default()
    };
    let scope = "autotune:pruned";
    let out = measure_candidates(dev, rows, cols, &candidates, opts, rec, scope, &mut log);
    let log = log.finish(out.first(), rec, scope);
    (out, log)
}

/// Pick a tile for `rows × cols`, deterministically, never panicking.
///
/// Runs [`pruned_search`] first; when the §7.4 candidate set measures
/// empty (prime dimensions, degenerate bands, every candidate infeasible),
/// falls back to [`TileHeuristic::select`]'s nearest-divisor choice without
/// measurement — the fallback is recorded in the returned [`TuneLog`]
/// (`measured == 0`, `chosen.gbps == 0.0`) and as an `autotune_fallback`
/// trace event, so serving-layer plans built from it stay auditable.
/// Returns `(None, log)` only when the shape has no usable tile at all.
#[must_use]
pub fn choose_tile<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    heuristic: &TileHeuristic,
    opts: &GpuOptions,
    rec: &R,
) -> (Option<TileConfig>, TuneLog) {
    let (points, mut log) = pruned_search(dev, rows, cols, heuristic, opts, rec);
    if let Some(best) = points.first() {
        return (Some(best.tile), log);
    }
    match heuristic.select(rows, cols) {
        Some(tile) => {
            rec.event(
                0.0,
                "autotune_fallback",
                &format!("{rows}x{cols}: pruned set empty, heuristic tile ({}, {})", tile.m, tile.n),
            );
            log.chosen = Some(TileChoice { m: tile.m, n: tile.n, gbps: 0.0 });
            (Some(tile), log)
        }
        None => {
            rec.event(0.0, "autotune_fallback", &format!("{rows}x{cols}: no feasible tile"));
            (None, log)
        }
    }
}

/// Measure the C2R pipeline throughput at one work-group size on a fresh
/// simulator. `None` when the device cannot launch it (wg over the device
/// limit, or scratch for a long-line shape does not fit).
fn measure_c2r_wg(dev: &DeviceSpec, rows: usize, cols: usize, wg: usize) -> Option<f64> {
    if wg > dev.max_threads_per_wg {
        return None;
    }
    let scratch = crate::c2r::c2r_scratch_words(dev, rows, cols, wg);
    let mut sim = Sim::new(dev.clone(), rows * cols + scratch + 8);
    let data = sim.alloc(rows * cols);
    sim.upload_u32(data, Matrix::iota(rows, cols).as_slice());
    let stats = crate::c2r::transpose_c2r_on_device(&mut sim, data, rows, cols, wg).ok()?;
    Some(stats.throughput_gbps(ipt_core::check::bytes_f64(rows, cols, 4)))
}

/// Autotune the work-group size for a [`Scheme::C2R`] plan: sweep the
/// candidate sizes the device admits, measure the full pipeline on each,
/// and return the fastest together with the search's [`TuneLog`] (the
/// winner is recorded as a degenerate `(wg, 1)` tile choice so the same
/// serialisable log covers both search families). Deterministic and
/// total — when nothing measures (every candidate infeasible), returns the
/// largest admissible candidate so the recovery chain still has a sane
/// launch configuration to fail over from.
///
/// [`Scheme::C2R`]: ipt_core::Scheme::C2R
#[must_use]
pub fn choose_c2r_wg<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    rec: &R,
) -> (usize, TuneLog) {
    let candidates: Vec<usize> =
        [64usize, 128, 256].into_iter().filter(|&w| w <= dev.max_threads_per_wg).collect();
    let fallback = candidates.last().copied().unwrap_or(dev.max_threads_per_wg.max(1));
    let mut log = TuneLog::default();
    let scope = "autotune:c2r-wg";
    let mut best: Option<(usize, f64)> = None;
    for wg in candidates {
        log.considered += 1;
        match measure_c2r_wg(dev, rows, cols, wg) {
            Some(gbps) => {
                log.measured += 1;
                if rec.enabled() {
                    rec.gauge(&format!("{scope}:{wg}"), "gbps", gbps);
                }
                if best.is_none_or(|(_, b)| gbps > b) {
                    best = Some((wg, gbps));
                }
            }
            None => {
                log.rejected_infeasible += 1;
                if rec.enabled() {
                    rec.event(0.0, "autotune_infeasible", &format!("{scope}: wg {wg}"));
                }
            }
        }
    }
    rec.add(scope, Counter::AutotuneConsidered, log.considered as u64);
    rec.add(scope, Counter::AutotuneRejectedInfeasible, log.rejected_infeasible as u64);
    match best {
        Some((wg, gbps)) => {
            log.chosen = Some(TileChoice { m: wg, n: 1, gbps });
            rec.gauge(scope, "chosen_gbps", gbps);
            rec.event(0.0, "autotune_chosen", &format!("{scope}: wg {wg} at {gbps:.3} GB/s"));
            (wg, log)
        }
        None => {
            rec.event(0.0, "autotune_fallback", &format!("{scope}: nothing measured, wg {fallback}"));
            (fallback, log)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::GpuOptions;
    use ipt_obs::NoopRecorder;

    // A scaled-down 7200×1800 with the same 4:1 aspect and rich divisor
    // structure.
    const ROWS: usize = 720;
    const COLS: usize = 180;

    #[test]
    fn c2r_wg_sweep_is_deterministic_and_respects_device_limits() {
        let dev = DeviceSpec::hd7750(); // admits wg ≤ 256
        let (wg, log) = choose_c2r_wg(&dev, 127, 61, &NoopRecorder);
        assert!(wg <= dev.max_threads_per_wg);
        assert!(log.measured >= 1, "at least one candidate must measure");
        assert_eq!(log.chosen.map(|c| c.m), Some(wg), "log records the winner");
        let (again, _) = choose_c2r_wg(&dev, 127, 61, &NoopRecorder);
        assert_eq!(wg, again, "sweep is deterministic");
    }

    #[test]
    fn exhaustive_finds_points() {
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let pts = exhaustive_search(&dev, ROWS, COLS, 96, &opts, &NoopRecorder).0;
        assert!(pts.len() > 10);
        // Sorted descending.
        for w in pts.windows(2) {
            assert!(w[0].gbps >= w[1].gbps);
        }
    }

    #[test]
    fn pruned_heuristic_recovers_most_of_best() {
        // §7.4: the pruned set yields at least 80 % of the exhaustive best.
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let all = exhaustive_search(&dev, ROWS, COLS, 181, &opts, &NoopRecorder).0;
        let h = TileHeuristic { shared_capacity_words: 3600, preferred_lo: 30, preferred_hi: 100 };
        let pruned = pruned_search(&dev, ROWS, COLS, &h, &opts, &NoopRecorder).0;
        assert!(!pruned.is_empty());
        let best = all[0].gbps;
        let pruned_best = pruned[0].gbps;
        assert!(
            pruned_best >= 0.8 * best,
            "pruned {pruned_best} vs exhaustive {best}"
        );
    }

    #[test]
    fn tune_log_accounts_for_every_candidate() {
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let rec = ipt_obs::TraceRecorder::new();
        let h = TileHeuristic { shared_capacity_words: 3600, preferred_lo: 30, preferred_hi: 100 };
        let (pts, log) = pruned_search(&dev, ROWS, COLS, &h, &opts, &rec);
        assert_eq!(log.considered, log.measured + log.rejected_infeasible);
        assert_eq!(log.measured, pts.len());
        assert!(log.pruned_out > 0, "the §7.4 heuristic must actually prune");
        let chosen = log.chosen.expect("some candidate must measure");
        assert_eq!(chosen.gbps, pts[0].gbps);
        assert_eq!(
            rec.counter("autotune:pruned", Counter::AutotuneConsidered),
            log.considered as u64
        );
        assert_eq!(
            rec.counter("autotune:pruned", Counter::AutotunePruned),
            log.pruned_out as u64
        );
        // One throughput gauge per measured candidate.
        let gauges = rec.gauges();
        let measured_gauges = gauges
            .iter()
            .filter(|(scope, name, _)| scope.starts_with("autotune:pruned:") && *name == "gbps")
            .count();
        assert_eq!(measured_gauges, log.measured);
    }

    #[test]
    fn choose_tile_measures_when_candidates_exist() {
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let h = TileHeuristic { shared_capacity_words: 3600, preferred_lo: 30, preferred_hi: 100 };
        let (tile, log) = choose_tile(&dev, ROWS, COLS, &h, &opts, &NoopRecorder);
        let tile = tile.expect("720x180 has pruned candidates");
        assert!(log.measured > 0);
        let chosen = log.chosen.expect("measured search records a winner");
        assert_eq!((chosen.m, chosen.n), (tile.m, tile.n));
        assert!(chosen.gbps > 0.0);
        // Determinism: same inputs, same tile.
        let (again, _) = choose_tile(&dev, ROWS, COLS, &h, &opts, &NoopRecorder);
        assert_eq!(again, Some(tile));
    }

    #[test]
    fn choose_tile_falls_back_without_measurement_on_empty_pruned_set() {
        // A band nothing divides into: the §7.4 preferred window [50, 100]
        // contains no divisor of 48 or 36, so the pruned set is empty, but
        // the heuristic still has feasible tiles to select from.
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let h = TileHeuristic::default();
        assert!(h.pruned_candidates(48, 36).is_empty(), "precondition: empty pruned set");
        let rec = ipt_obs::TraceRecorder::new();
        let (tile, log) = choose_tile(&dev, 48, 36, &h, &opts, &rec);
        let tile = tile.expect("48x36 has feasible tiles");
        assert_eq!(Some(tile), h.select(48, 36), "fallback is the heuristic's pick");
        assert_eq!(log.measured, 0, "fallback tile is unmeasured");
        assert_eq!(log.chosen.map(|c| c.gbps), Some(0.0));
        assert!(
            rec.events().iter().any(|e| e.name == "autotune_fallback"),
            "fallback must be observable"
        );
    }

    #[test]
    fn choose_tile_reports_prime_shapes_as_untileable() {
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let (tile, log) =
            choose_tile(&dev, 127, 61, &TileHeuristic::default(), &opts, &NoopRecorder);
        assert_eq!(tile, None, "prime dims have no nontrivial divisor tile");
        assert_eq!(log.chosen, None);
    }

    #[test]
    fn bigger_tiles_beat_tiny_tiles() {
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let tiny = measure_tile(&dev, ROWS, COLS, TileConfig::new(4, 4), &opts).unwrap();
        let good = measure_tile(&dev, ROWS, COLS, TileConfig::new(48, 36), &opts).unwrap();
        assert!(good.gbps > tiny.gbps, "good {} vs tiny {}", good.gbps, tiny.gbps);
    }
}
