//! End-to-end in-place transposition drivers: pick an algorithm and a tile,
//! build the plan, execute.
//!
//! This is the host-side (pure CPU) entry point. The GPU-simulated execution
//! of the same plans lives in the `ipt-gpu` crate.

use crate::c2r::c2r;
use crate::matrix::Matrix;
use crate::pool::{Par, Pool, Seq};
use crate::scheme::{decide_scheme, transpose_square_in_place, Scheme};
use crate::stages::{PlanError, StagePlan, TileConfig};
use crate::tiles::TileHeuristic;

/// Which staged algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// One whole-matrix cycle-following pass (locality-poor baseline).
    SingleStage,
    /// The paper's 3-stage algorithm: `100! → 0010! → 0100!`.
    ThreeStage,
    /// Gustavson/Karlsson 4-stage: `0100! → 0010! → 1000! → 0100!`.
    FourStage,
    /// 4-stage with stages 2–3 fused.
    FourStageFused,
}

impl Algorithm {
    /// All algorithm variants (for sweeps).
    pub const ALL: [Algorithm; 4] =
        [Self::SingleStage, Self::ThreeStage, Self::FourStage, Self::FourStageFused];

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SingleStage => "single-stage",
            Self::ThreeStage => "3-stage",
            Self::FourStage => "4-stage",
            Self::FourStageFused => "4-stage-fused",
        }
    }

    /// Build the plan for this algorithm.
    ///
    /// # Errors
    /// Propagates tile divisibility failures (never fails for
    /// [`Algorithm::SingleStage`]).
    pub fn plan(self, rows: usize, cols: usize, tile: TileConfig) -> Result<StagePlan, PlanError> {
        match self {
            Self::SingleStage => Ok(StagePlan::single_stage(rows, cols)),
            Self::ThreeStage => StagePlan::three_stage(rows, cols, tile),
            Self::FourStage => StagePlan::four_stage(rows, cols, tile),
            Self::FourStageFused => StagePlan::four_stage_fused(rows, cols, tile),
        }
    }
}

/// Plan an in-place transposition with automatic tile selection via
/// [`decide_scheme`]: use the requested algorithm when the shape supports a
/// tiled staged plan, otherwise degrade deterministically to the
/// single-stage pass (the typed reason lives on the
/// [`crate::scheme::PlanDecision`] for callers that want it). Never panics.
#[must_use]
pub fn plan_auto(rows: usize, cols: usize, algo: Algorithm, heuristic: &TileHeuristic) -> StagePlan {
    if algo == Algorithm::SingleStage {
        return StagePlan::single_stage(rows, cols);
    }
    let decision = decide_scheme(rows, cols, heuristic);
    match (decision.scheme, decision.tile) {
        (Scheme::Staged | Scheme::GcdTiled | Scheme::SquareTiled, Some(tile)) => algo
            .plan(rows, cols, tile)
            .unwrap_or_else(|_| StagePlan::single_stage(rows, cols)),
        _ => StagePlan::single_stage(rows, cols),
    }
}

/// Transpose `matrix` in place on `E`, routed by [`decide_scheme`]: row
/// and column vectors flip their shape, squares swap pairwise, shapes with
/// no usable tile take the C2R decomposition, and the rest run `algo`'s
/// plan with an automatically selected tile.
fn transpose_in_place<T: Copy, E: Pool<T>>(matrix: Matrix<T>, algo: Algorithm) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    let data = matrix.as_mut_slice();
    match decide_scheme(rows, cols, &TileHeuristic::default()).scheme {
        // Row/column vectors (and empties): the storage is already the
        // transpose — only the shape flips.
        Scheme::Identity => {}
        Scheme::SquareTiled => transpose_square_in_place(data, rows),
        Scheme::C2R => c2r::<T, E>(data, rows, cols, 1),
        _ => plan_auto(rows, cols, algo, &TileHeuristic::default()).execute::<T, E>(data),
    }
    matrix.assume_transposed_shape()
}

/// Transpose `matrix` in place (same backing storage) sequentially and
/// return it with the flipped shape. [`decide_scheme`] routes the shape:
/// degenerate shapes (`1 × n`, `m × 1`) and squares short-circuit, shapes
/// with no usable tile take
/// [`transpose_c2r_seq`](crate::c2r::transpose_c2r_seq), and the rest run
/// `algo`'s staged plan.
#[must_use]
pub fn transpose_in_place_seq<T: Copy>(matrix: Matrix<T>, algo: Algorithm) -> Matrix<T> {
    transpose_in_place::<T, Seq>(matrix, algo)
}

/// Transpose `matrix` in place on the host pool ([`crate::pool`]) and
/// return it with the flipped shape, routed as [`transpose_in_place_seq`]
/// (C2R shapes take [`transpose_c2r_par`](crate::c2r::transpose_c2r_par)).
#[must_use]
pub fn transpose_in_place_par<T: Copy + Send + Sync>(matrix: Matrix<T>, algo: Algorithm) -> Matrix<T> {
    transpose_in_place::<T, Par>(matrix, algo)
}

/// Transpose **any** rectangular matrix in place — no divisibility
/// requirements. Removes the §7.4 prime-dimension limitation by following
/// [`decide_scheme`]:
///
/// * a heuristic tile exists → the 3-stage algorithm,
/// * no heuristic tile but `1 < c² ≤` [`crate::scheme::GCD_TILE_MAX_LEN`]
///   (`c = gcd(M, N)`) → the 3-stage algorithm with the always-legal
///   `(c, c)` tile,
/// * any other untileable shape → the C2R decomposition ([`crate::c2r`]),
/// * row/column vectors and squares → their short-circuits.
#[must_use]
pub fn transpose_in_place_any<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    transpose_in_place_par(matrix, Algorithm::ThreeStage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c2r::transpose_c2r_seq;

    #[test]
    fn auto_transpose_all_algorithms() {
        for &(r, c) in &[(6, 15), (15, 6), (64, 48), (60, 60), (100, 36)] {
            let mat = Matrix::iota(r, c);
            let want = mat.transposed();
            for algo in Algorithm::ALL {
                let got = transpose_in_place_seq(mat.clone(), algo);
                assert_eq!(got, want, "{} {r}x{c} seq", algo.name());
                let got = transpose_in_place_par(mat.clone(), algo);
                assert_eq!(got, want, "{} {r}x{c} par", algo.name());
            }
        }
    }

    #[test]
    fn prime_dims_fall_back_to_single_stage() {
        let plan = plan_auto(7919, 13, Algorithm::ThreeStage, &TileHeuristic::default());
        // 13 has no divisor in range and 7919 is prime → fallback.
        // (13 divides itself, 7919 prime: select() may still find something
        // feasible like (7919, 13)? 7919·13 tile too big → None → fallback.)
        assert_eq!(plan.name, "single-stage");
        // It still transposes correctly (small prime case to keep test fast):
        let mat = Matrix::iota(31, 13);
        let got = transpose_in_place_seq(mat.clone(), Algorithm::ThreeStage);
        assert_eq!(got, mat.transposed());
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::ThreeStage.name(), "3-stage");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn any_route_dispatch() {
        // transpose_in_place_any follows decide_scheme on every shape class.
        let h = TileHeuristic::default();
        assert_eq!(decide_scheme(720, 180, &h).scheme, Scheme::Staged);
        assert_eq!(decide_scheme(7919, 4099, &h).scheme, Scheme::C2R); // both prime
        assert_eq!(decide_scheme(1, 999, &h).scheme, Scheme::Identity);
        // 61·67 × 61·71: no heuristic tile, gcd 61 → the (61, 61) gcd tile.
        let d = decide_scheme(61 * 67, 61 * 71, &h);
        assert_eq!(d.scheme, Scheme::GcdTiled);
        assert_eq!(d.tile, Some(TileConfig::new(61, 61)));
        for (r, c) in [(720, 180), (127, 61), (2 * 53, 2 * 59), (1, 17), (9, 9)] {
            let m = Matrix::iota(r, c);
            assert_eq!(transpose_in_place_any(m.clone()), m.transposed(), "{r}x{c}");
        }
    }

    #[test]
    fn c2r_shapes_are_planned_c2r_and_transpose_on_every_algorithm() {
        // decide_scheme gives these C2R (no heuristic tile, and gcd 1 or a
        // gcd tile over GCD_TILE_MAX_LEN): every algorithm must return the
        // C2R result rather than run plan_auto's single-stage plan.
        let h = TileHeuristic::default();
        for (r, c) in [(127usize, 61usize), (7919, 13), (7 * 521, 521)] {
            assert_eq!(decide_scheme(r, c, &h).scheme, Scheme::C2R, "{r}x{c}");
            let m = Matrix::iota(r, c);
            let mut want = m.as_slice().to_vec();
            transpose_c2r_seq(&mut want, r, c);
            for algo in Algorithm::ALL {
                assert_eq!(transpose_in_place_seq(m.clone(), algo).as_slice(), &want[..]);
                assert_eq!(transpose_in_place_par(m.clone(), algo).as_slice(), &want[..]);
            }
        }
    }

    #[test]
    fn any_transposes_every_shape_class() {
        for &(r, c) in &[
            (720, 180),   // staged
            (127, 61),    // coprime (prime × prime)
            (2 * 53, 2 * 59), // gcd tile
            (1, 17),      // trivial
            (97, 128),    // coprime (prime × power of two)
        ] {
            let m = Matrix::iota(r, c);
            assert_eq!(transpose_in_place_any(m.clone()), m.transposed(), "{r}x{c}");
        }
    }

    #[test]
    fn degenerate_shapes_short_circuit_and_round_trip() {
        for &(r, c) in &[(1, 1), (1, 257), (509, 1), (1, 7919)] {
            let m = Matrix::iota(r, c);
            for algo in Algorithm::ALL {
                let got = transpose_in_place_seq(m.clone(), algo);
                assert_eq!(got, m.transposed(), "{} {r}x{c}", algo.name());
                assert_eq!((got.rows(), got.cols()), (c, r));
                let back = transpose_in_place_par(got, algo);
                assert_eq!(back, m, "round trip {r}x{c}");
            }
        }
    }

    #[test]
    fn square_shapes_short_circuit_and_round_trip() {
        // 61 prime (no feasible square tile), 60 richly composite.
        for n in [2usize, 31, 60, 61] {
            let m = Matrix::iota(n, n);
            let got = transpose_in_place_par(m.clone(), Algorithm::ThreeStage);
            assert_eq!(got, m.transposed(), "{n}x{n}");
            assert_eq!(transpose_in_place_seq(got, Algorithm::ThreeStage), m);
        }
    }

    #[test]
    fn shapes_flip() {
        let got = transpose_in_place_seq(Matrix::iota(6, 15), Algorithm::ThreeStage);
        assert_eq!((got.rows(), got.cols()), (15, 6));
    }
}
