//! Tile-size selection (§7.4 of the paper).
//!
//! The throughput of a staged transposition depends critically on the tile
//! `(m, n)`: stages 1 and 3 move super-elements of size `n` resp. `m` (bigger
//! is better), while stage 2 wants the whole `m × n` tile to fit in on-chip
//! memory so the fast barrier-sync kernel can be used. The paper's pruning
//! heuristic: *pick `m, n` between 50 and 100 with `m·n` below the shared
//! memory capacity* — this lands within 80 % of the exhaustive best.

use crate::numtheory::divisors;
use crate::stages::TileConfig;

/// Divisors of `n` as `usize`, ascending.
#[must_use]
pub fn usize_divisors(n: usize) -> Vec<usize> {
    divisors(n as u64).into_iter().map(|d| d as usize).collect()
}

/// All legal tile configurations for an `M × N` matrix: every `(m, n)` with
/// `m | M` and `n | N`. Includes the trivial tiles (1 and the full
/// dimension).
#[must_use]
pub fn all_tiles(rows: usize, cols: usize) -> Vec<TileConfig> {
    let ms = usize_divisors(rows);
    let ns = usize_divisors(cols);
    let mut out = Vec::with_capacity(ms.len() * ns.len());
    for &m in &ms {
        for &n in &ns {
            out.push(TileConfig::new(m, n));
        }
    }
    out
}

/// The paper's preferred range for each tile dimension.
pub const PREFERRED_RANGE: std::ops::RangeInclusive<usize> = 50..=100;

/// The paper's on-chip tile budget in words (`m·n < 3600`, the K20's
/// shared memory after double-buffering overheads): the default
/// [`TileHeuristic::shared_capacity_words`], and the largest instance the
/// host runs as a BS tile ([`crate::elementary`]).
pub const SHARED_CAPACITY_WORDS: usize = 3600;

/// Selection policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct TileHeuristic {
    /// On-chip (shared/local) memory capacity in **words** available to one
    /// work-group for the stage-2 tile (paper: `m·n < 3600` words ≈ the K20
    /// budget after double-buffering overheads).
    pub shared_capacity_words: usize,
    /// Preferred low end for m and n (paper: 50).
    pub preferred_lo: usize,
    /// Preferred high end for m and n (paper: 100).
    pub preferred_hi: usize,
}

impl Default for TileHeuristic {
    fn default() -> Self {
        Self { shared_capacity_words: SHARED_CAPACITY_WORDS, preferred_lo: 50, preferred_hi: 100 }
    }
}

impl TileHeuristic {
    /// Is the tile usable at all (stage-2 tile fits in shared memory)?
    #[must_use]
    pub fn feasible(&self, t: TileConfig) -> bool {
        t.tile_len() <= self.shared_capacity_words
    }

    /// Heuristic badness: 0 for a tile with both dimensions inside the
    /// preferred range; otherwise the summed distance of each dimension to
    /// the range, with a mild preference for larger tiles among equals
    /// (stages 1/3 like big super-elements).
    #[must_use]
    pub fn badness(&self, t: TileConfig) -> (usize, std::cmp::Reverse<usize>) {
        let dist = |x: usize| {
            if x < self.preferred_lo {
                self.preferred_lo - x
            } else { x.saturating_sub(self.preferred_hi) }
        };
        (dist(t.m) + dist(t.n), std::cmp::Reverse(t.tile_len()))
    }

    /// Pick the best feasible tile for an `M × N` matrix, or `None` when no
    /// non-trivial factorisation exists (e.g. both dimensions prime and too
    /// large — the paper's acknowledged limitation; callers fall back to the
    /// single-stage plan).
    #[must_use]
    pub fn select(&self, rows: usize, cols: usize) -> Option<TileConfig> {
        let mut best: Option<TileConfig> = None;
        for t in all_tiles(rows, cols) {
            // Trivial tiles degenerate a staged plan into (nearly) the
            // single-stage pass; require genuine tiling in both dims unless
            // the dimension itself is tiny.
            if (t.m == 1 && rows > 1) || (t.n == 1 && cols > 1) {
                continue;
            }
            if t.m == rows && rows > self.shared_capacity_words {
                continue;
            }
            if !self.feasible(t) {
                continue;
            }
            match best {
                None => best = Some(t),
                Some(b) => {
                    if self.badness(t) < self.badness(b) {
                        best = Some(t);
                    }
                }
            }
        }
        best
    }

    /// The pruned candidate set of §7.4: feasible tiles with both dimensions
    /// in the preferred range. Autotuners search this instead of the full
    /// divisor product. May be empty for awkward dimensions.
    #[must_use]
    pub fn pruned_candidates(&self, rows: usize, cols: usize) -> Vec<TileConfig> {
        all_tiles(rows, cols)
            .into_iter()
            .filter(|&t| {
                self.feasible(t)
                    && (self.preferred_lo..=self.preferred_hi).contains(&t.m)
                    && (self.preferred_lo..=self.preferred_hi).contains(&t.n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tiles_counts() {
        // 12 = {1,2,3,4,6,12} (6 divisors), 8 = {1,2,4,8} (4)
        assert_eq!(all_tiles(12, 8).len(), 24);
    }

    #[test]
    fn paper_matrix_preferred_tiles_exist() {
        // 7200×1800: the paper reports best (m,n) = (32,72) for the 3-stage
        // algorithm; both 32|7200... (7200 = 32·225) and 72|1800 (1800 = 72·25).
        let h = TileHeuristic::default();
        let tiles = all_tiles(7200, 1800);
        assert!(tiles.contains(&TileConfig::new(32, 72)));
        let sel = h.select(7200, 1800).expect("tile must exist");
        assert!(h.feasible(sel));
        // The heuristic must land in the preferred band when possible:
        // 7200 and 1800 both have divisors inside [50,100].
        assert!(PREFERRED_RANGE.contains(&sel.m), "m = {}", sel.m);
        assert!(PREFERRED_RANGE.contains(&sel.n), "n = {}", sel.n);
        assert!(sel.tile_len() <= 3600);
    }

    #[test]
    fn pruned_candidates_subset_of_all() {
        let h = TileHeuristic::default();
        let pruned = h.pruned_candidates(7200, 1800);
        assert!(!pruned.is_empty());
        for t in &pruned {
            assert!(h.feasible(*t));
            assert!((50..=100).contains(&t.m));
            assert!((50..=100).contains(&t.n));
            assert_eq!(7200 % t.m, 0);
            assert_eq!(1800 % t.n, 0);
        }
    }

    #[test]
    fn prime_dimensions_have_no_tile() {
        let h = TileHeuristic::default();
        // 7919 and 104729 are prime: only divisors 1 and the dimension, and
        // a full-dimension tile of that size exceeds shared capacity.
        assert_eq!(h.select(7919, 104_729), None);
    }

    #[test]
    fn small_matrix_selects_full_tile() {
        let h = TileHeuristic::default();
        // 6×15 is tiny; any feasible non-trivial tile is fine.
        let t = h.select(6, 15).expect("small matrix always tileable");
        assert!(t.m > 1 || t.n > 1);
        assert!(h.feasible(t));
    }

    #[test]
    fn infeasible_tiles_are_rejected() {
        let h = TileHeuristic { shared_capacity_words: 10, ..Default::default() };
        if let Some(t) = h.select(64, 64) {
            assert!(t.tile_len() <= 10);
        }
    }

    #[test]
    fn badness_prefers_range_then_size() {
        let h = TileHeuristic::default();
        let in_range = TileConfig::new(60, 60);
        let out_range = TileConfig::new(8, 8);
        assert!(h.badness(in_range) < h.badness(out_range));
        let big = TileConfig::new(60, 60);
        let small = TileConfig::new(50, 50);
        assert!(h.badness(big) < h.badness(small), "larger tile preferred in-range");
    }
}
