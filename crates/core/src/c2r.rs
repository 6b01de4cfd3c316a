//! The C2R/R2C decomposition of Catanzaro, Keller & Garland (PPoPP 2014)
//! — the general-shape rival to the staged algorithm, and the fix for the
//! paper's own §7.4 limitation. Where [`crate::coprime`] covers only
//! `gcd(M, N) = 1`, this decomposition is **total**: any row-major `M × N`
//! matrix transposes in place as three independent line permutations
//!
//! 1. **column rotate** — within column `q`, rotate down by `⌊q/b⌋`
//!    (identity when `c = 1`, so the pass is skipped there),
//! 2. **row shuffle** — within each row, a modular gather permutation,
//! 3. **column shuffle** — within each column, a modular gather
//!    permutation,
//!
//! where `c = gcd(M, N)`, `a = M/c`, `b = N/c`. Every line permutes
//! independently of every other line of its pass, so there are no
//! per-element claim flags, no atomics, and perfect load balance; the
//! scratch requirement is one panel per worker — never a second matrix.
//!
//! ## Host engine
//!
//! Column passes run over panels one cache line wide (`W = 64 /
//! size_of::<T>()` columns): the panel is copied out row-major (`W·M`
//! elements of scratch, or one `N`-element row for the row pass if that
//! is longer), then rewritten row by row. Every line walks its index map
//! incrementally — the rotate pass computes one shift per column, the row
//! shuffle steps the scatter form `d(q) = (q·M + (i − ⌊q/b⌋) mod M) mod N`
//! by adding `M mod N`, and the column shuffle steps `t += N` — so no pass
//! divides per element. The closed-form gathers below remain the
//! specification the walks are tested against.
//!
//! ## Derivation (gather forms)
//!
//! Element `(r, q)` of the `M × N` source must end at linear offset
//! `t = q·M + r` of the `N × M` result. Phase 1 scatters
//! `(r, q) → ((r + ⌊q/b⌋) mod M, q)`. Writing `q = x·b + y` with
//! `x ∈ [0, c)`, `y ∈ [0, b)`, the phase-2 gather for output `(i, j)`
//! solves `(q·M + r) mod N = j` with `r = (i − x) mod M`: reducing mod
//! `c` gives `x = (i − j) mod c`, then `r` follows, and
//! `y = (((j − r) mod N)/c · a⁻¹) mod b` (the difference is always
//! divisible by `c`). Phase 3 gathers output row `J` of column `j` from
//! row `(t mod M + ⌊(t div M)/b⌋) mod M` with `t = J·N + j`. For
//! `c = 1` these collapse exactly to the two coprime-phase formulas of
//! [`crate::coprime`] — the coprime module is the `c = 1` slice of this
//! one.
//!
//! ```
//! use ipt_core::{Matrix, transpose_matrix_c2r};
//! let a = Matrix::iota(7919, 104); // prime rows — untileable
//! let t = transpose_matrix_c2r(a.clone());
//! assert_eq!(t, a.transposed());
//! ```

use crate::matrix::Matrix;
use crate::numtheory::{gcd, mod_inverse};
use crate::pool::{Band, Par, Pool, Seq};

/// The shape-derived constants all three passes share. Cheap to build
/// (one gcd + one extended Euclid) and `Copy`, so kernels embed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct C2rGeometry {
    /// Matrix rows (M).
    pub m: usize,
    /// Matrix cols (N).
    pub n: usize,
    /// `gcd(M, N)`.
    pub c: usize,
    /// `M / c`.
    pub a: usize,
    /// `N / c`.
    pub b: usize,
    /// `a⁻¹ mod b` (`0` when `b = 1`).
    pub a_inv: usize,
}

impl C2rGeometry {
    /// Derive the decomposition constants for an `M × N` matrix. Total for
    /// every `M, N ≥ 1`; the modular inverse always exists because
    /// `gcd(a, b) = 1` by construction.
    ///
    /// # Panics
    /// Panics on a zero dimension (the planner maps those to identity).
    #[must_use]
    pub fn new(m_rows: usize, n_cols: usize) -> Self {
        assert!(m_rows > 0 && n_cols > 0, "degenerate shape {m_rows}x{n_cols}");
        let c = gcd(m_rows as u64, n_cols as u64) as usize;
        let (a, b) = (m_rows / c, n_cols / c);
        let a_inv = mod_inverse(a as u64 % b.max(1) as u64, b as u64)
            .expect("a and b are coprime by construction") as usize;
        Self { m: m_rows, n: n_cols, c, a, b, a_inv }
    }

    /// Does phase 1 do anything? The rotation amount `⌊q/b⌋` is zero for
    /// every column exactly when `c = 1` (then `b = N > q`).
    #[must_use]
    pub fn needs_rotate(&self) -> bool {
        self.c > 1 && self.m > 1
    }

    /// Phase-1 gather: the element that ends at row `i` of column `q` comes
    /// from row `(i − ⌊q/b⌋) mod M` (the scatter is a downward rotate by
    /// `⌊q/b⌋`).
    #[inline]
    #[must_use]
    pub fn rotate_src_row(&self, i: usize, q: usize) -> usize {
        debug_assert!(i < self.m && q < self.n);
        let shift = (q / self.b) % self.m;
        (i + self.m - shift) % self.m
    }

    /// Phase-2 gather: the element that ends at column `j` of row `i` came
    /// (post-rotate) from column `x·b + y` — see the module derivation.
    /// All intermediates are `u128`-checked: the widest product,
    /// `z · a_inv`, is bounded by `b² ≤ N²`, which can overflow narrower
    /// arithmetic on pathological shapes.
    #[inline]
    #[must_use]
    pub fn row_shuffle_src_col(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.m && j < self.n);
        let (m, n, c, b) = (self.m, self.n, self.c, self.b);
        let x = (i % c + c - j % c) % c;
        let r = (i + m - x) % m;
        let diff = (j + n - r % n) % n;
        debug_assert_eq!(diff % c, 0, "j ≡ r (mod c) by construction");
        let z = diff / c;
        let y = ((z as u128 * self.a_inv as u128) % b.max(1) as u128) as usize;
        x * b + y
    }

    /// Phase-3 gather: the element that ends at row `J` of column `j`
    /// (linear offset `t = J·N + j`) sits at row
    /// `(t mod M + ⌊(t div M)/b⌋) mod M` of the same column.
    #[inline]
    #[must_use]
    pub fn col_shuffle_src_row(&self, j_out: usize, col: usize) -> usize {
        debug_assert!(j_out < self.m && col < self.n);
        let t = j_out as u128 * self.n as u128 + col as u128;
        let r = (t % self.m as u128) as usize;
        let q = (t / self.m as u128) as usize;
        (r + (q / self.b) % self.m) % self.m
    }
}

impl C2rGeometry {
    /// Phase 1 in place over a row-major `M × N` buffer, sequentially:
    /// rotate column `q` down by `⌊q/b⌋` (an identity pass when `c = 1`).
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn rotate_columns<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        col_pass::<T, Seq, _>(data, self, 1, |q| RotateWalk::new(self, q));
    }

    /// Phase 2 in place over a row-major `M × N` buffer, sequentially.
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn shuffle_rows<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        row_pass::<T, Seq>(data, self, 1);
    }

    /// Phase 3 in place over a row-major `M × N` buffer, sequentially.
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn shuffle_columns<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        col_pass::<T, Seq, _>(data, self, 1, |j| ShuffleWalk::new(self, j));
    }
}

/// `x mod m` for `x < 2m`.
#[inline(always)]
fn wrap(x: usize, m: usize) -> usize {
    if x >= m {
        x - m
    } else {
        x
    }
}

/// An incremental walk down one line: each `step` yields the next index of
/// the line's permutation with additions and compares only.
trait Walk: Copy {
    fn step(&mut self) -> usize;
}

/// Phase-1 gather down column `q`: output row `i` reads row
/// `(i − ⌊q/b⌋) mod M`. One shift per column (`⌊q/b⌋ < c ≤ M`), then a
/// wrapping counter.
#[derive(Clone, Copy)]
struct RotateWalk {
    src: usize,
    m: usize,
}

impl RotateWalk {
    fn new(g: &C2rGeometry, q: usize) -> Self {
        let shift = q / g.b;
        Self { src: (g.m - shift) % g.m, m: g.m }
    }
}

impl Walk for RotateWalk {
    #[inline]
    fn step(&mut self) -> usize {
        let s = self.src;
        self.src = wrap(s + 1, self.m);
        s
    }
}

/// Phase-2 scatter along row `i`: the element at column `q` moves to
/// `d(q) = (q·M + (i − ⌊q/b⌋) mod M) mod N`. Stepping `q` adds `M mod N`
/// to `q·M mod N`, and every `b` columns lowers `(i − ⌊q/b⌋) mod M` (kept
/// with its residue mod `N`) by one.
#[derive(Clone, Copy)]
struct RowWalk {
    /// `q·M mod N`.
    qm: usize,
    /// `(i − ⌊q/b⌋) mod M`.
    r: usize,
    /// `r mod N`.
    r_mod_n: usize,
    /// `q mod b`.
    y: usize,
    m: usize,
    n: usize,
    b: usize,
    m_mod_n: usize,
    /// `(M − 1) mod N`, where `r` wraps to.
    top_mod_n: usize,
}

impl RowWalk {
    fn new(g: &C2rGeometry, i: usize) -> Self {
        Self {
            qm: 0,
            r: i,
            r_mod_n: i % g.n,
            y: 0,
            m: g.m,
            n: g.n,
            b: g.b,
            m_mod_n: g.m % g.n,
            top_mod_n: (g.m - 1) % g.n,
        }
    }
}

impl Walk for RowWalk {
    #[inline]
    fn step(&mut self) -> usize {
        let d = wrap(self.qm + self.r_mod_n, self.n);
        self.qm = wrap(self.qm + self.m_mod_n, self.n);
        self.y += 1;
        if self.y == self.b {
            self.y = 0;
            if self.r == 0 {
                self.r = self.m - 1;
                self.r_mod_n = self.top_mod_n;
            } else {
                self.r -= 1;
                self.r_mod_n = if self.r_mod_n == 0 { self.n - 1 } else { self.r_mod_n - 1 };
            }
        }
        d
    }
}

/// Phase-3 gather down column `j`: output row `J` reads row
/// `(t mod M + ⌊t/L⌋) mod M` with `t = J·N + j` and `L = M·b` — the
/// closed form of [`C2rGeometry::col_shuffle_src_row`], since
/// `⌊(t div M)/b⌋ = ⌊t/L⌋ < c ≤ M`. Each step adds `N` to `t`.
#[derive(Clone, Copy)]
struct ShuffleWalk {
    /// `t mod M`.
    t_mod_m: usize,
    /// `t mod L`.
    t_mod_l: usize,
    /// `⌊t/L⌋`.
    t_div_l: usize,
    m: usize,
    n: usize,
    l: usize,
    n_mod_m: usize,
}

impl ShuffleWalk {
    fn new(g: &C2rGeometry, j: usize) -> Self {
        Self {
            t_mod_m: j % g.m,
            t_mod_l: j,
            t_div_l: 0,
            m: g.m,
            n: g.n,
            l: g.m * g.b,
            n_mod_m: g.n % g.m,
        }
    }
}

impl Walk for ShuffleWalk {
    #[inline]
    fn step(&mut self) -> usize {
        let row = wrap(self.t_mod_m + self.t_div_l, self.m);
        self.t_mod_m = wrap(self.t_mod_m + self.n_mod_m, self.m);
        // N ≤ L, so one subtraction keeps `t mod L` reduced.
        self.t_mod_l += self.n;
        if self.t_mod_l >= self.l {
            self.t_mod_l -= self.l;
            self.t_div_l += 1;
        }
        row
    }
}

/// Columns per panel of a column pass: one 64-byte cache line of
/// elements, each `ew` consecutive `T`s (at least one column).
fn panel_width<T>(ew: usize) -> usize {
    (64 / (std::mem::size_of::<T>().max(1) * ew)).max(1)
}

/// Copy element `si` of `src` over element `di` of `dst` (elements of
/// `ew` `T`s).
#[inline(always)]
fn put<T: Copy>(dst: &mut [T], di: usize, src: &[T], si: usize, ew: usize) {
    if ew == 1 {
        dst[di] = src[si];
    } else {
        dst[di * ew..(di + 1) * ew].copy_from_slice(&src[si * ew..(si + 1) * ew]);
    }
}

/// One column pass over the panel of columns starting at `q0` (the
/// worker's band): copy the panel row-major into `panel` (one cache line
/// per row), then rewrite it row by row, column `q` taking the panel row
/// its walk names.
fn col_panel<T: Copy, W: Walk>(
    band: &mut Band<'_, T>,
    g: &C2rGeometry,
    ew: usize,
    q0: usize,
    panel: &mut Vec<T>,
    walk: &impl Fn(usize) -> W,
) {
    const MAX_WIDTH: usize = 64;
    let width = panel_width::<T>(ew).min(g.n - q0);
    debug_assert!(width <= MAX_WIDTH);
    let m = g.m;
    panel.clear();
    for r in 0..m {
        band.read_row(r, panel);
    }
    let mut walks = [walk(q0); MAX_WIDTH];
    for (w, slot) in walks.iter_mut().enumerate().take(width).skip(1) {
        *slot = walk(q0 + w);
    }
    for k in 0..m {
        for (w, wk) in walks[..width].iter_mut().enumerate() {
            let src = wk.step() * width + w;
            // One-`T` elements skip the `ew` loop, which would dominate the pass.
            if ew == 1 {
                band.set(k, w, panel[src]);
            } else {
                for e in 0..ew {
                    band.set(k, w * ew + e, panel[src * ew + e]);
                }
            }
        }
    }
}

/// A column pass on `E`, one panel per task. Scratch: one panel
/// (`width·M` elements) per worker.
fn col_pass<T: Copy, E: Pool<T>, W: Walk>(
    data: &mut [T],
    g: &C2rGeometry,
    ew: usize,
    walk: impl Fn(usize) -> W + Sync + Send,
) {
    let width = panel_width::<T>(ew);
    E::bands(data, g.n * ew, width * ew, || Vec::with_capacity(width * g.m * ew), |panel, p, band| {
        col_panel(band, g, ew, p * width, panel, &walk);
    });
}

/// Phase 2 on row `i`: stage the row into `tmp`, then scatter it through
/// the row walk.
fn shuffle_row<T: Copy>(row: &mut [T], g: &C2rGeometry, i: usize, ew: usize, tmp: &mut Vec<T>) {
    tmp.clear();
    tmp.extend_from_slice(row);
    let mut walk = RowWalk::new(g, i);
    for q in 0..g.n {
        put(row, walk.step(), tmp, q, ew);
    }
}

/// The row pass on `E`, one row per task. Scratch: one row per worker.
fn row_pass<T: Copy, E: Pool<T>>(data: &mut [T], g: &C2rGeometry, ew: usize) {
    let len = g.n * ew;
    E::chunks(data, len, || Vec::with_capacity(len), |tmp, i, row| shuffle_row(row, g, i, ew, tmp));
}

/// The three passes on `E` over elements of `ew` consecutive `T`s.
pub(crate) fn c2r<T: Copy, E: Pool<T>>(data: &mut [T], m_rows: usize, n_cols: usize, ew: usize) {
    assert!(ew >= 1, "elements must be at least one word wide");
    assert_eq!(data.len(), m_rows * n_cols * ew);
    let g = C2rGeometry::new(m_rows, n_cols);
    if g.needs_rotate() {
        col_pass::<T, E, _>(data, &g, ew, |q| RotateWalk::new(&g, q));
    }
    row_pass::<T, E>(data, &g, ew);
    col_pass::<T, E, _>(data, &g, ew, |j| ShuffleWalk::new(&g, j));
}

/// Sequential in-place C2R transposition of a row-major `M × N` buffer.
/// Total: any `M, N ≥ 1`. Scratch: one column panel (`W·M` elements,
/// `W = 64 / size_of::<T>()`), or one row if that is longer.
///
/// # Panics
/// Panics if `data.len() != m_rows·n_cols` or a dimension is zero.
pub fn transpose_c2r_seq<T: Copy>(data: &mut [T], m_rows: usize, n_cols: usize) {
    c2r::<T, Seq>(data, m_rows, n_cols, 1);
}

/// C2R on the host pool: column panels, then rows, then column panels in
/// parallel — each worker keeps one panel (or row) of scratch.
///
/// # Panics
/// As [`transpose_c2r_seq`].
pub fn transpose_c2r_par<T: Copy + Send + Sync>(data: &mut [T], m_rows: usize, n_cols: usize) {
    c2r::<T, Par>(data, m_rows, n_cols, 1);
}

/// Sequential C2R over `elem_words`-word elements stored as flat `u32`
/// words — the host reference the recovery chain compares wide-element
/// (`f64`-class) payloads against. `elem_words = 1` is exactly
/// [`transpose_c2r_seq`].
///
/// # Panics
/// Panics if `elem_words` is zero or `data.len()` is not
/// `m_rows·n_cols·elem_words`.
pub fn transpose_c2r_seq_elems(
    data: &mut [u32],
    m_rows: usize,
    n_cols: usize,
    elem_words: usize,
) {
    c2r::<u32, Seq>(data, m_rows, n_cols, elem_words);
}

/// [`transpose_c2r_seq_elems`] on the host pool.
///
/// # Panics
/// As [`transpose_c2r_seq_elems`].
pub fn transpose_c2r_par_elems(
    data: &mut [u32],
    m_rows: usize,
    n_cols: usize,
    elem_words: usize,
) {
    c2r::<u32, Par>(data, m_rows, n_cols, elem_words);
}

/// Convenience wrapper over [`Matrix`].
///
/// # Panics
/// As [`transpose_c2r_seq`] (zero dimensions only).
#[must_use]
pub fn transpose_matrix_c2r<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    let (m, n) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    transpose_c2r_par(matrix.as_mut_slice(), m, n);
    matrix.assume_transposed_shape()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coprime::{minv_for, phase1_src_col, phase2_src_row};
    use crate::pool::tests::{iota, Elem};

    /// c = 1, c > 1, degenerate, square, prime — the planner's whole range.
    const SHAPES: &[(usize, usize)] = &[
        (1, 1),
        (1, 7),
        (7, 1),
        (2, 8),
        (8, 2),
        (4, 6),
        (6, 4),
        (5, 3),
        (9, 9),
        (12, 18),
        (16, 16),
        (30, 42),
        (61, 45),
        (97, 101),
        (122, 183),
        (127, 61),
    ];

    #[test]
    fn geometry_basics() {
        let g = C2rGeometry::new(4, 6);
        assert_eq!((g.c, g.a, g.b), (2, 2, 3));
        assert_eq!(g.a_inv, 2, "2·2 = 4 ≡ 1 (mod 3)");
        assert!(g.needs_rotate());
        assert!(!C2rGeometry::new(5, 3).needs_rotate(), "c = 1 rotate is identity");
        assert!(!C2rGeometry::new(1, 6).needs_rotate(), "single row");
    }

    #[test]
    fn reduces_to_coprime_formulas_when_c_is_1() {
        for &(m, n) in &[(5usize, 3usize), (127, 61), (8, 9), (31, 45)] {
            let g = C2rGeometry::new(m, n);
            assert_eq!(g.c, 1);
            let minv = minv_for(m, n);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        g.row_shuffle_src_col(i, j),
                        phase1_src_col(i, j, m, n, minv),
                        "{m}x{n} i={i} j={j}"
                    );
                }
            }
            for col in 0..n {
                for j_out in 0..m {
                    assert_eq!(
                        g.col_shuffle_src_row(j_out, col),
                        phase2_src_row(j_out, col, m, n),
                        "{m}x{n} J={j_out} col={col}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_pass_is_a_per_line_bijection() {
        for &(m, n) in SHAPES {
            let g = C2rGeometry::new(m, n);
            for q in 0..n {
                let mut seen = vec![false; m];
                for i in 0..m {
                    let s = g.rotate_src_row(i, q);
                    assert!(!seen[s], "rotate {m}x{n} col {q} repeats row {s}");
                    seen[s] = true;
                }
            }
            for i in 0..m {
                let mut seen = vec![false; n];
                for j in 0..n {
                    let s = g.row_shuffle_src_col(i, j);
                    assert!(!seen[s], "row-shuffle {m}x{n} row {i} repeats col {s}");
                    seen[s] = true;
                }
            }
            for col in 0..n {
                let mut seen = vec![false; m];
                for j_out in 0..m {
                    let s = g.col_shuffle_src_row(j_out, col);
                    assert!(!seen[s], "col-shuffle {m}x{n} col {col} repeats row {s}");
                    seen[s] = true;
                }
            }
        }
    }

    /// `SHAPES` plus the b = 1 (`N | M`) and a = 1 (`M | N`) classes and
    /// single rows and columns.
    const WALK_SHAPES: &[(usize, usize)] =
        &[(12, 4), (4, 12), (35, 7), (7, 35), (1, 9), (9, 1), (1, 1), (64, 48), (7919, 13)];

    #[test]
    fn incremental_walks_equal_the_closed_form_gathers() {
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES) {
            let g = C2rGeometry::new(m, n);
            for q in 0..n {
                let mut w = RotateWalk::new(&g, q);
                for i in 0..m {
                    assert_eq!(w.step(), g.rotate_src_row(i, q), "rotate {m}x{n} q={q} i={i}");
                }
                let mut w = ShuffleWalk::new(&g, q);
                for j_out in 0..m {
                    assert_eq!(
                        w.step(),
                        g.col_shuffle_src_row(j_out, q),
                        "col-shuffle {m}x{n} col={q} J={j_out}"
                    );
                }
            }
            // The row walk is the scatter form: the gather must invert it.
            for i in 0..m {
                let mut w = RowWalk::new(&g, i);
                for q in 0..n {
                    let d = w.step();
                    assert_eq!(g.row_shuffle_src_col(i, d), q, "row {m}x{n} i={i} q={q}");
                }
            }
        }
    }

    #[test]
    fn passes_match_the_closed_form_gathers() {
        // Each public pass equals its gather applied out of place, on
        // shapes narrower and wider than one panel (16 u32 columns).
        for &(m, n) in &[(12usize, 18usize), (30, 42), (6, 4), (97, 101), (40, 16), (8, 2)] {
            let g = C2rGeometry::new(m, n);
            let orig: Vec<u32> = (0..(m * n) as u32).collect();
            let gather = |src: &dyn Fn(usize, usize) -> usize| -> Vec<u32> {
                let mut out = vec![0u32; m * n];
                for r in 0..m {
                    for q in 0..n {
                        out[r * n + q] = orig[src(r, q)];
                    }
                }
                out
            };
            let mut got = orig.clone();
            g.rotate_columns(&mut got);
            assert_eq!(got, gather(&|i, q| g.rotate_src_row(i, q) * n + q), "rotate {m}x{n}");
            let mut got = orig.clone();
            g.shuffle_rows(&mut got);
            assert_eq!(got, gather(&|i, j| i * n + g.row_shuffle_src_col(i, j)), "row {m}x{n}");
            let mut got = orig.clone();
            g.shuffle_columns(&mut got);
            let want = gather(&|j_out, col| g.col_shuffle_src_row(j_out, col) * n + col);
            assert_eq!(got, want, "col {m}x{n}");
        }
    }

    #[test]
    fn seq_transposes_every_shape() {
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES) {
            let mat = Matrix::iota(m, n);
            let mut data = mat.as_slice().to_vec();
            transpose_c2r_seq(&mut data, m, n);
            assert_eq!(data, mat.transposed().into_vec(), "{m}x{n}");
        }
    }

    #[test]
    fn par_matches_seq() {
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES) {
            let mat = Matrix::pattern_f32(m, n);
            let mut a = mat.as_slice().to_vec();
            transpose_c2r_seq(&mut a, m, n);
            let mut b = mat.as_slice().to_vec();
            transpose_c2r_par(&mut b, m, n);
            assert_eq!(a, b, "{m}x{n}");
        }
        // Panels are 64, 8 and 5 columns wide at these widths.
        fn at_width<T: Elem>() {
            for &(m, n) in SHAPES.iter().chain(WALK_SHAPES) {
                let mut a: Vec<T> = iota(m * n);
                transpose_c2r_seq(&mut a, m, n);
                let mut b: Vec<T> = iota(m * n);
                transpose_c2r_par(&mut b, m, n);
                assert_eq!(a, b, "{m}x{n}");
            }
        }
        at_width::<u8>();
        at_width::<u64>();
        at_width::<[u32; 3]>();
    }

    #[test]
    fn paper_class_prime_rows() {
        // 7919 is the 1000th prime — the class the issue names; the column
        // count stays modest so the test runs in milliseconds.
        let (m, n) = (7919usize, 104usize);
        let mat = Matrix::iota(m, n);
        let got = transpose_matrix_c2r(mat.clone());
        assert_eq!(got, mat.transposed());
    }

    #[test]
    fn double_transpose_roundtrip() {
        for &(m, n) in &[(45usize, 61usize), (12, 18), (6, 4)] {
            let mat = Matrix::pattern_f32(m, n);
            let t = transpose_matrix_c2r(mat.clone());
            let back = transpose_matrix_c2r(t);
            assert_eq!(back, mat, "{m}x{n}");
        }
    }

    #[test]
    fn elems_paths_match_the_packed_wide_reference() {
        // 2-word elements through the flat-u32 helpers must agree with the
        // generic-T path over packed u64 elements, on every shape class.
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES) {
            let packed: Vec<u64> =
                (0..m * n).map(|k| (k as u64) << 32 | (k as u64 ^ 0x5a5a)).collect();
            let mut want_packed = packed.clone();
            transpose_c2r_seq(&mut want_packed, m, n);
            let want: Vec<u32> = want_packed
                .iter()
                .flat_map(|v| [*v as u32, (*v >> 32) as u32])
                .collect();
            let flat: Vec<u32> =
                packed.iter().flat_map(|v| [*v as u32, (*v >> 32) as u32]).collect();
            let mut seq = flat.clone();
            transpose_c2r_seq_elems(&mut seq, m, n, 2);
            assert_eq!(seq, want, "seq {m}x{n}");
            let mut par = flat.clone();
            transpose_c2r_par_elems(&mut par, m, n, 2);
            assert_eq!(par, want, "par {m}x{n}");
            // Width 1 collapses to the word path.
            let mat = Matrix::iota(m, n);
            let mut one = mat.as_slice().to_vec();
            transpose_c2r_seq_elems(&mut one, m, n, 1);
            assert_eq!(one, mat.transposed().into_vec(), "ew=1 {m}x{n}");
            // 3-word elements against the generic path over `[u32; 3]`.
            let mut want3: Vec<[u32; 3]> = iota(m * n);
            let flat3: Vec<u32> = want3.concat();
            transpose_c2r_seq(&mut want3, m, n);
            let want3 = want3.concat();
            let mut seq = flat3.clone();
            transpose_c2r_seq_elems(&mut seq, m, n, 3);
            assert_eq!(seq, want3, "seq ew=3 {m}x{n}");
            let mut par = flat3;
            transpose_c2r_par_elems(&mut par, m, n, 3);
            assert_eq!(par, want3, "par ew=3 {m}x{n}");
        }
    }

    #[test]
    fn wide_elements_transpose_too() {
        // T is generic: a u64 payload models 2-word elements.
        let (m, n) = (24usize, 36usize);
        let src: Vec<u64> = (0..m * n).map(|k| (k as u64) << 32 | 0xabcd).collect();
        let mut data = src.clone();
        transpose_c2r_seq(&mut data, m, n);
        let mut want = vec![0u64; m * n];
        for r in 0..m {
            for q in 0..n {
                want[q * m + r] = src[r * n + q];
            }
        }
        assert_eq!(data, want);
    }
}
