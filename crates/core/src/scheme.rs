//! Total, deterministic transposition-scheme selection.
//!
//! [`decide_scheme`] classifies **every** `rows × cols` shape into an
//! executable scheme — it never panics and never silently degrades. This
//! fixes two planning bugs inherited from the paper's §7.4 heuristic:
//!
//! * **Degenerate shapes.** `1 × n`, `m × 1` and `n × n` used to take the
//!   full 3-stage path (the heuristic happily returns a `(1, d)` tile for a
//!   row vector). A row/column vector is already its own transpose in
//!   memory — the correct plan is the in-memory identity — and a square
//!   matrix wants the pairwise-swap / square-tiled path whose cycles all
//!   have length ≤ 2.
//! * **Prime / non-factorable dims.** When [`TileHeuristic::select`] returns
//!   `None` (e.g. `7919 × 104_729`, both prime), the old
//!   [`crate::full::plan_auto`] silently fell back to the single-stage pass
//!   with no record of why. The decision now carries a typed
//!   [`FallbackReason`] and prefers the deterministic alternatives first:
//!   the C2R three-pass decomposition when `gcd = 1` (strictly faster than
//!   the old coprime cycle-following route — see the `dominance`
//!   experiment), the always-legal `(c, c)` gcd sub-tile when
//!   `1 < c² ≤` [`GCD_TILE_MAX_LEN`] (staged degradation), and the C2R
//!   decomposition again — never the single-stage whole-matrix chase — when
//!   the gcd tile is oversized. [`Scheme::Coprime`] and
//!   [`Scheme::SingleStage`] remain addressable as explicit rival schemes
//!   (benchmarks, snapshots), but [`decide_scheme`] no longer routes any
//!   infeasible-tile shape to them.

use crate::numtheory::gcd;
use crate::stages::{StagePlan, TileConfig};
use crate::tiles::{usize_divisors, TileHeuristic};

/// Largest `c × c` gcd tile the staged algorithm will attempt: beyond this
/// the stage-2 flag array (one bit per tile element in the PTTWAC-010
/// kernel) exceeds the local-memory budget (~393k bits), and
/// [`decide_scheme`] sends the shape to [`Scheme::C2R`].
pub const GCD_TILE_MAX_LEN: usize = 262_144;

/// How a shape will be transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// `rows ≤ 1` or `cols ≤ 1`: the storage already equals its transpose —
    /// nothing moves.
    Identity,
    /// `rows == cols`: pairwise swaps (host) or the BS-tiled square path
    /// (GPU); every transposition cycle has length ≤ 2.
    SquareTiled,
    /// The paper's staged algorithm with a heuristic §7.4 tile.
    Staged,
    /// Staged algorithm with the always-legal `(c, c)` tile, `c = gcd`.
    GcdTiled,
    /// Coprime dimensions: the two-phase row-scramble/column-shuffle
    /// decomposition (after Catanzaro et al.). Kept as an explicit rival
    /// scheme; the planner now prefers [`Scheme::C2R`], which generalizes
    /// it to every shape.
    Coprime,
    /// The full C2R/R2C decomposition (Catanzaro, Keller & Garland, PPoPP
    /// 2014): column rotate → row shuffle → column shuffle. Total over all
    /// shapes, no claim flags, no atomics, perfect load balance — the
    /// planner's choice for every infeasible-tile shape that the gcd tile
    /// cannot cover.
    C2R,
    /// Conservative whole-matrix cycle-following pass.
    SingleStage,
}

impl Scheme {
    /// Stable display / provenance name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Identity => "identity",
            Self::SquareTiled => "square-tiled",
            Self::Staged => "staged",
            Self::GcdTiled => "gcd-tiled",
            Self::Coprime => "coprime",
            Self::C2R => "c2r",
            Self::SingleStage => "single-stage",
        }
    }

    /// Inverse of [`Scheme::name`] — used when deserializing archived
    /// provenance (plan-cache snapshots). `None` for unknown names.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "identity" => Some(Self::Identity),
            "square-tiled" => Some(Self::SquareTiled),
            "staged" => Some(Self::Staged),
            "gcd-tiled" => Some(Self::GcdTiled),
            "coprime" => Some(Self::Coprime),
            "c2r" => Some(Self::C2R),
            "single-stage" => Some(Self::SingleStage),
            _ => None,
        }
    }
}

/// Why [`decide_scheme`] picked the scheme it did — recorded provenance, so
/// a fallback is never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// The scheme is the first-choice plan for this shape, not a fallback.
    Preferred,
    /// `rows * cols ≤ 1`: nothing to transpose.
    TrivialMatrix,
    /// `rows == 1`: a row vector is its own transpose in memory.
    DegenerateRow,
    /// `cols == 1`: a column vector is its own transpose in memory.
    DegenerateCol,
    /// `rows == cols`: the square short-circuit applies.
    SquareShape,
    /// [`TileHeuristic::select`] found no feasible tile for this shape
    /// (the paper's prime-dimension limitation, §7.4).
    NoFeasibleTile {
        /// The untileable row count.
        rows: usize,
        /// The untileable column count.
        cols: usize,
    },
}

impl FallbackReason {
    /// Human-readable explanation for logs and reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Preferred => "preferred scheme for this shape".to_string(),
            Self::TrivialMatrix => "trivial matrix (at most one element)".to_string(),
            Self::DegenerateRow => "row vector: transpose is the in-memory identity".to_string(),
            Self::DegenerateCol => {
                "column vector: transpose is the in-memory identity".to_string()
            }
            Self::SquareShape => "square matrix: all cycles have length <= 2".to_string(),
            Self::NoFeasibleTile { rows, cols } => {
                format!("no feasible heuristic tile for {rows}x{cols} (section 7.4 limitation)")
            }
        }
    }

    /// Did the planner deviate from the shape's first-choice staged plan?
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        !matches!(self, Self::Preferred)
    }
}

/// The complete, typed planning decision for one shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDecision {
    /// Selected scheme.
    pub scheme: Scheme,
    /// Why — [`FallbackReason::Preferred`] unless a short-circuit or
    /// fallback fired.
    pub reason: FallbackReason,
    /// The tile backing a staged scheme, when one exists.
    pub tile: Option<TileConfig>,
}

impl PlanDecision {
    /// The staged plan realising this decision, or `None` for schemes that
    /// execute outside the staged machinery ([`Scheme::Identity`],
    /// [`Scheme::Coprime`], [`Scheme::C2R`]). Never panics: a square or
    /// tiled scheme whose tile is unavailable degrades to the single-stage
    /// plan.
    #[must_use]
    pub fn staged_plan(&self, rows: usize, cols: usize) -> Option<StagePlan> {
        match self.scheme {
            Scheme::Identity | Scheme::Coprime | Scheme::C2R => None,
            Scheme::Staged | Scheme::GcdTiled | Scheme::SquareTiled => match self.tile {
                Some(t) => Some(
                    StagePlan::three_stage(rows, cols, t)
                        .unwrap_or_else(|_| StagePlan::single_stage(rows, cols)),
                ),
                None => Some(StagePlan::single_stage(rows, cols)),
            },
            Scheme::SingleStage => Some(StagePlan::single_stage(rows, cols)),
        }
    }
}

/// Best square tile edge for an `n × n` matrix: the divisor `t > 1` of `n`
/// whose `t × t` tile fits in shared memory, preferring the heuristic's
/// `[preferred_lo, preferred_hi]` band and larger edges among equals.
/// `None` when `n` has no such divisor (large prime edge).
#[must_use]
pub fn square_tile(n: usize, heuristic: &TileHeuristic) -> Option<TileConfig> {
    let mut best: Option<TileConfig> = None;
    for t in usize_divisors(n) {
        if t <= 1 {
            continue;
        }
        let cand = TileConfig::new(t, t);
        if !heuristic.feasible(cand) {
            continue;
        }
        match best {
            None => best = Some(cand),
            Some(b) => {
                if heuristic.badness(cand) < heuristic.badness(b) {
                    best = Some(cand);
                }
            }
        }
    }
    best
}

/// Classify a shape. Total and deterministic: every `(rows, cols)` —
/// including zero, degenerate, square, prime and otherwise non-factorable
/// shapes — maps to an executable scheme with a typed reason. Never panics.
#[must_use]
pub fn decide_scheme(rows: usize, cols: usize, heuristic: &TileHeuristic) -> PlanDecision {
    if rows == 0 || cols == 0 || (rows == 1 && cols == 1) {
        return PlanDecision {
            scheme: Scheme::Identity,
            reason: FallbackReason::TrivialMatrix,
            tile: None,
        };
    }
    if rows <= 1 {
        return PlanDecision {
            scheme: Scheme::Identity,
            reason: FallbackReason::DegenerateRow,
            tile: None,
        };
    }
    if cols <= 1 {
        return PlanDecision {
            scheme: Scheme::Identity,
            reason: FallbackReason::DegenerateCol,
            tile: None,
        };
    }
    if rows == cols {
        return PlanDecision {
            scheme: Scheme::SquareTiled,
            reason: FallbackReason::SquareShape,
            tile: square_tile(rows, heuristic),
        };
    }
    if let Some(tile) = heuristic.select(rows, cols) {
        return PlanDecision {
            scheme: Scheme::Staged,
            reason: FallbackReason::Preferred,
            tile: Some(tile),
        };
    }
    // No heuristic tile: deterministic fallback chain with a recorded
    // reason. Coprime shapes (gcd = 1) take the C2R decomposition — never
    // the old coprime cycle-following route (its c = 1 slice, but with the
    // slower unbatched kernels). Non-coprime shapes degrade through the
    // staged machinery first: the (c, c) gcd tile keeps the tuned staged
    // kernels in play. Only when that tile is oversized does the shape go
    // to C2R — the single-stage whole-matrix chase is no longer reachable
    // from this branch.
    let reason = FallbackReason::NoFeasibleTile { rows, cols };
    let c = gcd(rows as u64, cols as u64) as usize;
    if c > 1 && c * c <= GCD_TILE_MAX_LEN {
        return PlanDecision {
            scheme: Scheme::GcdTiled,
            reason,
            tile: Some(TileConfig::new(c, c)),
        };
    }
    PlanDecision { scheme: Scheme::C2R, reason, tile: None }
}

/// Transpose a square `n × n` matrix in place by pairwise swaps, blocked for
/// cache locality. The square short-circuit behind [`Scheme::SquareTiled`]
/// on the host: `O(n²)` swaps, no staging, no scratch.
pub fn transpose_square_in_place<T>(data: &mut [T], n: usize) {
    assert_eq!(
        data.len() as u128,
        (n as u128) * (n as u128),
        "square transpose needs exactly n*n elements"
    );
    const B: usize = 32;
    let mut bi = 0;
    while bi < n {
        let mut bj = bi;
        while bj < n {
            for i in bi..(bi + B).min(n) {
                let j0 = if bi == bj { i + 1 } else { bj };
                for j in j0..(bj + B).min(n) {
                    data.swap(i * n + j, j * n + i);
                }
            }
            bj += B;
        }
        bi += B;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn degenerate_shapes_short_circuit() {
        let h = TileHeuristic::default();
        let d = decide_scheme(1, 999, &h);
        assert_eq!(d.scheme, Scheme::Identity);
        assert_eq!(d.reason, FallbackReason::DegenerateRow);
        assert!(d.staged_plan(1, 999).is_none());

        let d = decide_scheme(512, 1, &h);
        assert_eq!(d.scheme, Scheme::Identity);
        assert_eq!(d.reason, FallbackReason::DegenerateCol);

        let d = decide_scheme(1, 1, &h);
        assert_eq!(d.reason, FallbackReason::TrivialMatrix);
        let d = decide_scheme(0, 7, &h);
        assert_eq!(d.scheme, Scheme::Identity);
        assert_eq!(d.reason, FallbackReason::TrivialMatrix);
    }

    #[test]
    fn square_shapes_take_the_square_path() {
        let h = TileHeuristic::default();
        let d = decide_scheme(60, 60, &h);
        assert_eq!(d.scheme, Scheme::SquareTiled);
        assert_eq!(d.reason, FallbackReason::SquareShape);
        assert_eq!(d.tile, Some(TileConfig::new(60, 60)));

        // 47 is prime but 47² = 2209 fits shared memory → full-edge tile.
        let d = decide_scheme(47, 47, &h);
        assert_eq!(d.tile, Some(TileConfig::new(47, 47)));

        // 61 is prime and 61² = 3721 exceeds the 3600-word budget → no tile,
        // but the decision is still typed and the plan degrades cleanly.
        let d = decide_scheme(61, 61, &h);
        assert_eq!(d.scheme, Scheme::SquareTiled);
        assert_eq!(d.tile, None);
        assert_eq!(d.staged_plan(61, 61).unwrap().name, "single-stage");
    }

    #[test]
    fn paper_class_prime_shape_gets_typed_c2r_fallback() {
        let h = TileHeuristic::default();
        // The exact shape from the issue: both dims prime, no feasible tile.
        let d = decide_scheme(7919, 104_729, &h);
        assert_eq!(d.scheme, Scheme::C2R);
        assert_eq!(d.reason, FallbackReason::NoFeasibleTile { rows: 7919, cols: 104_729 });
        assert!(d.reason.is_fallback());
        assert!(d.reason.describe().contains("7919x104729"));
        assert!(d.staged_plan(7919, 104_729).is_none(), "C2R executes outside staging");
    }

    #[test]
    fn no_infeasible_tile_shape_resolves_to_coprime_or_single_stage() {
        // Regression for the prime-shape slow path: sweep shapes on both
        // sides of the gcd split and assert the NoFeasibleTile branch never
        // lands on the coprime cycle-following route or the single-stage
        // chase anymore.
        let h = TileHeuristic::default();
        for (r, c) in [
            (7919usize, 104_729usize), // gcd 1, both prime
            (127, 61),                 // gcd 1, small primes
            (1009, 4096),              // gcd 1, prime × power of two
            (61 * 67, 61 * 71),        // gcd 61 → staged degradation
        ] {
            let d = decide_scheme(r, c, &h);
            if !matches!(d.reason, FallbackReason::NoFeasibleTile { .. }) {
                continue; // heuristic found a tile; nothing to regress
            }
            assert_ne!(d.scheme, Scheme::Coprime, "{r}x{c} took the slow coprime path");
            assert_ne!(d.scheme, Scheme::SingleStage, "{r}x{c} took the single-stage chase");
        }
    }

    #[test]
    fn non_coprime_infeasible_shapes_stay_staged() {
        // Satellite regression: the gcd > 1 side of the split must take the
        // staged-degradation path (gcd tile), not a non-staged scheme.
        let h = TileHeuristic::default();
        let (r, c) = (61 * 67, 61 * 71);
        let d = decide_scheme(r, c, &h);
        assert!(matches!(d.reason, FallbackReason::NoFeasibleTile { .. }));
        assert_eq!(d.scheme, Scheme::GcdTiled);
        assert_eq!(d.tile, Some(TileConfig::new(61, 61)));
        assert_eq!(d.staged_plan(r, c).unwrap().name, "3-stage");
    }

    #[test]
    fn gcd_tile_fallback_is_deterministic() {
        let h = TileHeuristic::default();
        // 61·67 × 61·71: every divisor pair exceeds the 3600-word budget
        // (the smallest is 61·61 = 3721), so select() fails; gcd 61 → the
        // always-legal (61, 61) sub-tile.
        let (r, c) = (61 * 67, 61 * 71);
        let d = decide_scheme(r, c, &h);
        assert_eq!(d.scheme, Scheme::GcdTiled);
        assert_eq!(d.tile, Some(TileConfig::new(61, 61)));
        assert!(matches!(d.reason, FallbackReason::NoFeasibleTile { .. }));
        // Same inputs → same decision, always.
        assert_eq!(d, decide_scheme(r, c, &h));
    }

    #[test]
    fn oversized_gcd_falls_back_to_c2r() {
        // Starve the heuristic so select() fails, with gcd 1024 → c² > 262144:
        // the gcd tile is oversized, and the shape goes to the total C2R
        // decomposition instead of the old single-stage chase.
        let h = TileHeuristic { shared_capacity_words: 1, ..Default::default() };
        let d = decide_scheme(1024 * 3, 1024 * 5, &h);
        assert_eq!(d.scheme, Scheme::C2R);
        assert!(matches!(d.reason, FallbackReason::NoFeasibleTile { .. }));
        assert!(d.staged_plan(1024 * 3, 1024 * 5).is_none());
    }

    #[test]
    fn preferred_staged_shapes_are_not_fallbacks() {
        let h = TileHeuristic::default();
        let d = decide_scheme(720, 180, &h);
        assert_eq!(d.scheme, Scheme::Staged);
        assert_eq!(d.reason, FallbackReason::Preferred);
        assert!(!d.reason.is_fallback());
        assert!(d.tile.is_some());
        assert_eq!(d.staged_plan(720, 180).unwrap().name, "3-stage");
    }

    #[test]
    fn square_swap_matches_reference() {
        for n in [1usize, 2, 3, 31, 32, 33, 61, 100] {
            let m = Matrix::iota(n, n);
            let mut data = m.as_slice().to_vec();
            transpose_square_in_place(&mut data, n);
            assert_eq!(&data, m.transposed().as_slice(), "n = {n}");
        }
    }

    #[test]
    fn scheme_names_are_stable() {
        assert_eq!(Scheme::Identity.name(), "identity");
        assert_eq!(Scheme::SquareTiled.name(), "square-tiled");
        assert_eq!(Scheme::Staged.name(), "staged");
        assert_eq!(Scheme::GcdTiled.name(), "gcd-tiled");
        assert_eq!(Scheme::Coprime.name(), "coprime");
        assert_eq!(Scheme::C2R.name(), "c2r");
        assert_eq!(Scheme::SingleStage.name(), "single-stage");
        for s in [
            Scheme::Identity,
            Scheme::SquareTiled,
            Scheme::Staged,
            Scheme::GcdTiled,
            Scheme::Coprime,
            Scheme::C2R,
            Scheme::SingleStage,
        ] {
            assert_eq!(Scheme::by_name(s.name()), Some(s), "{} round-trips", s.name());
        }
    }
}
