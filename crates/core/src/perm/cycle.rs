//! The transposition permutation and its cycle structure.
//!
//! Transposing a row-major `rows × cols` matrix in place moves the element at
//! linear offset `k` to offset
//!
//! ```text
//! k' = k·rows mod (rows·cols − 1)        for 0 ≤ k < rows·cols − 1
//! k' = rows·cols − 1                     for k = rows·cols − 1
//! ```
//!
//! (Equation (1) of the paper.) This permutation factors into disjoint
//! cycles; the paper's running example is the 5×3 matrix with cycles
//! `(0)(1 5 11 13 9 3)(7)(2 10 8 12 4 6)(14)`.
//!
//! Cycle structure determines available parallelism (one cycle = one
//! independent chain of shifts) and load balance (Cate & Twigg: the longest
//! cycle is always a multiple of every other cycle length).

use crate::numtheory::{divisors, gcd, multiplicative_order, pow_mod, totient};

/// `k·f mod m` for `k < m` and `f ≤ m + 1`. While `m ≤ u32::MAX` the
/// product is below `2^64`, so one `u64` division suffices; only larger
/// moduli (arrays past 2^32 elements) pay for the `u128` one.
#[inline]
fn mul_mod(k: usize, f: usize, m: usize) -> usize {
    if m as u64 <= u64::from(u32::MAX) {
        ((k as u64 * f as u64) % m as u64) as usize
    } else {
        ((k as u128 * f as u128) % m as u128) as usize
    }
}

/// The permutation induced by in-place transposition of a row-major
/// `rows × cols` array (elements may be super-elements of any fixed size —
/// the permutation acts on super-element indices).
///
/// ```
/// use ipt_core::TransposePerm;
/// // The paper's 5×3 example: cycle (1 5 11 13 9 3).
/// let p = TransposePerm::new(5, 3);
/// assert_eq!(p.dest(1), 5);
/// assert_eq!(p.cycle_from(1), vec![1, 5, 11, 13, 9, 3]);
/// assert_eq!(p.cycle_count(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransposePerm {
    /// Number of rows of the *source* matrix.
    pub rows: usize,
    /// Number of columns of the *source* matrix.
    pub cols: usize,
}

impl TransposePerm {
    /// Create the permutation for a `rows × cols` transposition.
    ///
    /// # Panics
    /// Panics if `rows == 0 || cols == 0`, or if `rows·cols` overflows
    /// `usize` (the index arithmetic would silently wrap — see
    /// [`crate::check`]).
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::try_new(rows, cols)
            .unwrap_or_else(|| panic!("degenerate or oversized matrix {rows}x{cols}"))
    }

    /// Non-panicking constructor: `None` when a dimension is zero or the
    /// element count `rows·cols` does not fit `usize` (on which every
    /// cycle-following index computation would wrap).
    #[must_use]
    pub fn try_new(rows: usize, cols: usize) -> Option<Self> {
        if rows == 0 || cols == 0 {
            return None;
        }
        let words = crate::check::checked_words(rows, cols)?;
        usize::try_from(words).ok()?;
        Some(Self { rows, cols })
    }

    /// Total number of elements `rows·cols`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the permutation acts on an empty or 1-element set.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The modulus `M = rows·cols − 1` of Equation (1).
    #[inline]
    #[must_use]
    pub fn modulus(&self) -> usize {
        self.len() - 1
    }

    /// Destination offset of the element currently at offset `k`
    /// (Equation (1)): where the element *moves to*.
    #[inline]
    #[must_use]
    pub fn dest(&self, k: usize) -> usize {
        debug_assert!(k < self.len());
        let m = self.modulus();
        if m == 0 || k == m {
            return k;
        }
        mul_mod(k, self.rows, m)
    }

    /// Source offset: which element moves *into* offset `k` (inverse
    /// permutation). `src(dest(k)) == k`.
    #[inline]
    #[must_use]
    pub fn src(&self, k: usize) -> usize {
        debug_assert!(k < self.len());
        let m = self.modulus();
        if m == 0 || k == m {
            return k;
        }
        // Inverse of multiplication by `rows` mod m is multiplication by
        // `cols`, because rows·cols ≡ 1 (mod rows·cols − 1).
        mul_mod(k, self.cols, m)
    }

    /// Jump `t` steps along the cycle through `k` in `O(log t)`:
    /// `dest^t(k) = k · rows^t mod (rows·cols − 1)`.
    ///
    /// This is what makes a-priori cycle splitting cheap (Gustavson/Karlsson
    /// split long cycles among threads without walking them).
    #[must_use]
    pub fn dest_pow(&self, k: usize, t: u64) -> usize {
        debug_assert!(k < self.len());
        let m = self.modulus() as u64;
        if m == 0 || k as u64 == m {
            return k;
        }
        let step = pow_mod(self.rows as u64, t, m);
        ((k as u128 * step as u128) % m as u128) as usize
    }

    /// Length of the cycle containing offset `k`.
    ///
    /// For `k` with `g = gcd(k, M)`, the cycle length is the multiplicative
    /// order of `rows` modulo `M/g`. Fixed points (`k ∈ {0, M}`) have
    /// length 1.
    #[must_use]
    pub fn cycle_len(&self, k: usize) -> u64 {
        debug_assert!(k < self.len());
        let m = self.modulus() as u64;
        if m == 0 || k == 0 || k as u64 == m {
            return 1;
        }
        let g = gcd(k as u64, m);
        multiplicative_order(self.rows as u64 % (m / g), m / g)
            .expect("rows is invertible mod M/g because rows·cols ≡ 1 (mod M)")
    }

    /// Number of disjoint cycles, by the Cate–Twigg theorem:
    ///
    /// `#cycles = 2 + Σ_{d | M, d > 1} φ(d) / ord_d(rows)`
    ///
    /// where the `2` counts the fixed points `0` and `M`, and elements with
    /// `gcd(k, M) = M/d` split into `φ(d)/ord_d(rows)` cycles of length
    /// `ord_d(rows)` each. Runs in time polynomial in the number of divisors
    /// of `M` — no cycle walking.
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        let m = self.modulus() as u64;
        if m == 0 {
            return 1; // single element, single trivial cycle
        }
        let mut count = 2; // fixed points 0 and M
        for d in divisors(m) {
            if d == 1 {
                continue;
            }
            let ord = multiplicative_order(self.rows as u64 % d, d)
                .expect("rows coprime to every divisor of M");
            count += totient(d) / ord;
        }
        count
    }

    /// Length of the longest cycle: `ord_M(rows)` (attained by every `k`
    /// coprime to `M`, e.g. `k = 1`). Every other cycle length divides it.
    #[must_use]
    pub fn max_cycle_len(&self) -> u64 {
        let m = self.modulus() as u64;
        if m == 0 {
            return 1;
        }
        multiplicative_order(self.rows as u64 % m, m).expect("rows coprime to M")
    }

    /// True if `k` is the *leader* (minimum offset) of its cycle.
    ///
    /// Walks the cycle and returns early when a smaller offset is met, so the
    /// aggregate cost of testing all `k` equals Σ over cycles of
    /// O(len²) in the worst case but is far cheaper in practice (most
    /// elements bail on the first step).
    #[must_use]
    pub fn is_leader(&self, k: usize) -> bool {
        let mut cur = self.dest(k);
        while cur != k {
            if cur < k {
                return false;
            }
            cur = self.dest(cur);
        }
        true
    }

    /// Iterate the offsets of one cycle starting at `k` (first element `k`,
    /// following `dest`).
    #[must_use]
    pub fn cycle_from(&self, k: usize) -> Vec<usize> {
        let mut out = vec![k];
        let mut cur = self.dest(k);
        while cur != k {
            out.push(cur);
            cur = self.dest(cur);
        }
        out
    }

    /// All cycle leaders with their cycle lengths, ascending by leader.
    ///
    /// Cost: one `is_leader` scan over all offsets. Suitable for matrices up
    /// to tens of millions of elements; analysis-grade, not kernel-grade.
    #[must_use]
    pub fn leaders(&self) -> Vec<(usize, u64)> {
        (0..self.len())
            .filter(|&k| self.is_leader(k))
            .map(|k| (k, self.cycle_len(k)))
            .collect()
    }

    /// Full cycle decomposition as a list of cycles (each starting at its
    /// leader). The paper's 5×3 example yields
    /// `[(0), (1 5 11 13 9 3), (2 10 8 12 4 6), (7), (14)]`.
    #[must_use]
    pub fn cycles(&self) -> Vec<Vec<usize>> {
        self.leaders()
            .into_iter()
            .map(|(k, _)| self.cycle_from(k))
            .collect()
    }

    /// The permutation as an explicit destination table (`table[k] = dest(k)`).
    /// For tests and small-matrix tooling.
    #[must_use]
    pub fn to_table(&self) -> Vec<usize> {
        (0..self.len()).map(|k| self.dest(k)).collect()
    }
}

/// Statistics of a cycle decomposition, used for load-imbalance analysis
/// (§4 of the paper: "the length of the longest cycle is always several
/// times the lengths of other cycles").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStats {
    /// Number of disjoint cycles (including fixed points).
    pub count: u64,
    /// Longest cycle length.
    pub max_len: u64,
    /// Number of fixed points (always 2 for non-degenerate matrices).
    pub fixed_points: u64,
    /// Total number of elements moved (excludes fixed points).
    pub moved: u64,
}

impl TransposePerm {
    /// Closed-form cycle statistics (no walking).
    #[must_use]
    pub fn stats(&self) -> CycleStats {
        let n = self.len() as u64;
        if n <= 1 {
            return CycleStats { count: n.max(1), max_len: 1, fixed_points: n, moved: 0 };
        }
        // Fixed points beyond {0, M} exist iff dest(k) == k for other k,
        // i.e. k(rows−1) ≡ 0 mod M. Count k in (0, M) with M | k(rows−1):
        // they are multiples of M/gcd(M, rows−1), so gcd(M, rows−1) − 1 of
        // them (excluding k = 0 and k = M themselves).
        let m = self.modulus() as u64;
        let extra_fixed = gcd(m, self.rows as u64 - 1) - 1;
        let fixed = 2 + extra_fixed;
        CycleStats {
            count: self.cycle_count(),
            max_len: self.max_cycle_len(),
            fixed_points: fixed,
            moved: n - fixed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force cycle decomposition from the destination table.
    fn brute_cycles(rows: usize, cols: usize) -> Vec<Vec<usize>> {
        let p = TransposePerm::new(rows, cols);
        let n = p.len();
        let mut seen = vec![false; n];
        let mut cycles = Vec::new();
        for k in 0..n {
            if seen[k] {
                continue;
            }
            let mut cyc = vec![k];
            seen[k] = true;
            let mut cur = p.dest(k);
            while cur != k {
                seen[cur] = true;
                cyc.push(cur);
                cur = p.dest(cur);
            }
            cycles.push(cyc);
        }
        cycles
    }

    #[test]
    fn paper_5x3_example() {
        let p = TransposePerm::new(5, 3);
        assert_eq!(p.dest(1), 5);
        assert_eq!(p.dest(5), 11);
        assert_eq!(p.dest(11), 13);
        assert_eq!(p.dest(13), 9);
        assert_eq!(p.dest(9), 3);
        assert_eq!(p.dest(3), 1);
        let cycles = p.cycles();
        assert_eq!(
            cycles,
            vec![
                vec![0],
                vec![1, 5, 11, 13, 9, 3],
                vec![2, 10, 8, 12, 4, 6],
                vec![7],
                vec![14],
            ]
        );
        assert_eq!(p.cycle_count(), 5);
        assert_eq!(p.max_cycle_len(), 6);
    }

    #[test]
    fn dest_is_transpose_mapping() {
        // dest must agree with the definitional mapping (i,j) -> (j,i).
        for &(rows, cols) in &[(5, 3), (3, 5), (4, 4), (7, 2), (1, 9), (9, 1), (6, 8)] {
            let p = TransposePerm::new(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    let k = i * cols + j;
                    let kp = j * rows + i;
                    assert_eq!(p.dest(k), kp, "({rows}x{cols}) element ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn src_inverts_dest() {
        for &(rows, cols) in &[(5, 3), (3, 5), (4, 4), (13, 7), (2, 2), (1, 1)] {
            let p = TransposePerm::new(rows, cols);
            for k in 0..p.len() {
                assert_eq!(p.src(p.dest(k)), k);
                assert_eq!(p.dest(p.src(k)), k);
            }
        }
    }

    #[test]
    fn dest_is_bijection() {
        for &(rows, cols) in &[(5, 3), (6, 4), (7, 7), (2, 9)] {
            let p = TransposePerm::new(rows, cols);
            let mut hit = vec![false; p.len()];
            for k in 0..p.len() {
                let d = p.dest(k);
                assert!(!hit[d], "collision at {d}");
                hit[d] = true;
            }
        }
    }

    #[test]
    fn dest_pow_matches_iteration() {
        let p = TransposePerm::new(7, 5);
        for k in 0..p.len() {
            let mut cur = k;
            for t in 0..40u64 {
                assert_eq!(p.dest_pow(k, t), cur, "k={k} t={t}");
                cur = p.dest(cur);
            }
        }
    }

    #[test]
    fn cycle_count_matches_brute_force() {
        for rows in 1..14 {
            for cols in 1..14 {
                let p = TransposePerm::new(rows, cols);
                let brute = brute_cycles(rows, cols).len() as u64;
                assert_eq!(p.cycle_count(), brute, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn cycle_len_matches_brute_force() {
        for &(rows, cols) in &[(5, 3), (6, 4), (9, 2), (8, 8), (12, 5)] {
            let p = TransposePerm::new(rows, cols);
            for cyc in brute_cycles(rows, cols) {
                for &k in &cyc {
                    assert_eq!(p.cycle_len(k), cyc.len() as u64, "{rows}x{cols} k={k}");
                }
            }
        }
    }

    #[test]
    fn max_cycle_divides_no_other_exceeds() {
        for rows in 2..12 {
            for cols in 2..12 {
                let p = TransposePerm::new(rows, cols);
                let max = p.max_cycle_len();
                for (_, len) in p.leaders() {
                    assert!(len <= max, "{rows}x{cols}");
                    // Cate–Twigg: every cycle length divides the longest.
                    assert_eq!(max % len, 0, "{rows}x{cols} len={len} max={max}");
                }
            }
        }
    }

    #[test]
    fn square_matrix_cycles_are_swaps() {
        // Square case: cycles are transpositions of symmetric pairs plus
        // diagonal fixed points.
        let p = TransposePerm::new(6, 6);
        for cyc in p.cycles() {
            assert!(cyc.len() <= 2, "square cycles have length ≤ 2: {cyc:?}");
        }
        // #cycles = n(n−1)/2 pairs + n fixed points
        assert_eq!(p.cycle_count() as usize, 6 * 5 / 2 + 6);
    }

    #[test]
    fn stats_consistency() {
        for &(rows, cols) in &[(5, 3), (7, 4), (16, 16), (31, 2)] {
            let p = TransposePerm::new(rows, cols);
            let s = p.stats();
            let cycles = brute_cycles(rows, cols);
            assert_eq!(s.count as usize, cycles.len());
            assert_eq!(s.max_len as usize, cycles.iter().map(Vec::len).max().unwrap());
            let fixed = cycles.iter().filter(|c| c.len() == 1).count() as u64;
            assert_eq!(s.fixed_points, fixed, "{rows}x{cols}");
            assert_eq!(s.moved, (p.len() as u64) - fixed);
        }
    }

    #[test]
    fn leaders_are_cycle_minima() {
        let p = TransposePerm::new(9, 4);
        for (k, _) in p.leaders() {
            let cyc = p.cycle_from(k);
            assert_eq!(*cyc.iter().min().unwrap(), k);
        }
    }

    #[test]
    fn construction_is_checked_at_the_overflow_boundary() {
        // Zero dims are rejected, not wrapped into nonsense.
        assert_eq!(TransposePerm::try_new(0, 5), None);
        assert_eq!(TransposePerm::try_new(5, 0), None);
        // Just past the u32 element-count boundary: construction must
        // succeed on 64-bit and index math must stay exact (a 32-bit wrap
        // would make dest(1) = 65_536·65_537·… nonsense).
        if usize::BITS >= 64 {
            let p = TransposePerm::try_new(65_536, 65_537).expect("fits u64");
            assert_eq!(p.len() as u64, 4_295_032_832);
            // dest(1) = rows, exact — and the last element is a fixed point.
            assert_eq!(p.dest(1), 65_536);
            assert_eq!(p.dest(p.modulus()), p.modulus());
            assert_eq!(p.src(p.dest(12_345_678_901 % p.len())), 12_345_678_901 % p.len());
            // usize::MAX × 2 elements cannot be represented → typed refusal.
            assert_eq!(TransposePerm::try_new(usize::MAX, 2), None);
        }
    }

    #[test]
    fn dest_and_src_agree_across_the_u64_u128_switch() {
        // Modulus u32::MAX (65536² − 1) takes the u64 path, modulus
        // u32::MAX + 1 (641 · 6700417 − 1) the u128 one; both must match
        // the exact u128 arithmetic, including the largest products.
        if usize::BITS < 64 {
            return;
        }
        for (rows, cols) in [(65_536usize, 65_536usize), (641, 6_700_417), (6_700_417, 641)] {
            let p = TransposePerm::new(rows, cols);
            let m = p.modulus();
            assert!(m as u64 == u64::from(u32::MAX) || m as u64 == u64::from(u32::MAX) + 1);
            let exact = |k: usize, f: usize| ((k as u128 * f as u128) % m as u128) as usize;
            for k in [1, 2, rows - 1, rows, cols + 3, m / 2, m - 2, m - 1] {
                assert_eq!(p.dest(k), exact(k, rows), "{rows}x{cols} dest({k})");
                assert_eq!(p.src(k), exact(k, cols), "{rows}x{cols} src({k})");
                assert_eq!(p.src(p.dest(k)), k);
            }
            assert_eq!(p.dest(m), m, "last element is fixed");
        }
    }

    #[test]
    fn degenerate_sizes() {
        let p = TransposePerm::new(1, 1);
        assert_eq!(p.dest(0), 0);
        assert_eq!(p.cycle_count(), 1);
        let p = TransposePerm::new(1, 5);
        // 1×N transposition is the identity on linear storage.
        for k in 0..5 {
            assert_eq!(p.dest(k), k);
        }
        let p = TransposePerm::new(5, 1);
        for k in 0..5 {
            assert_eq!(p.dest(k), k);
        }
    }
}
