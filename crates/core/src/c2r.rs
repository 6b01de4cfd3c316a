//! The C2R/R2C decomposition of Catanzaro, Keller & Garland (PPoPP 2014)
//! — the general-shape rival to the staged algorithm, and the fix for the
//! paper's own §7.4 limitation. The decomposition is **total**: any
//! row-major `M × N` matrix transposes in place as three independent line
//! permutations
//!
//! 1. **column rotate** — within column `q`, rotate down by `⌊q/b⌋`
//!    (identity when `c = 1`, so the pass is skipped there),
//! 2. **row shuffle** — within each row, a modular gather permutation,
//! 3. **column shuffle** — within each column, a modular gather
//!    permutation,
//!
//! where `c = gcd(M, N)`, `a = M/c`, `b = N/c`. Every line permutes
//! independently of every other line of its pass, so there are no
//! per-element claim flags, no atomics, and perfect load balance; a
//! worker's scratch is a panel, a row and a bitmap — never a second matrix.
//!
//! ## Host engine
//!
//! The host runs the column shuffle in the form Catanzaro et al. give it:
//! its gather row is `(p(J) + j) mod M` with the row bijection
//! `p(J) = (J·N + ⌊J/a⌋) mod M`, so the pass is a rotation of column `j`
//! up by `j mod M` followed by a permutation of whole rows through `p`,
//! which follows `p`'s cycles with rows as super-elements. The row shuffle
//! scatters element `q` of row `i` to `(e(q) + ρ) mod N` through one
//! `N`-entry table `e(q) = (q·M − ⌊q/b⌋) mod N`, with `ρ = i` for
//! `q < (i + 1)·b` and `ρ = i + M` after. Both column rotations run over
//! panels one cache line wide (`W = 64 / size_of::<T>()` columns): the
//! panel is copied out row-major (`W·M` elements of scratch), then
//! rewritten row by row, in segments between the rows where a column's
//! source wraps. No pass divides per element. The closed-form gathers
//! below remain the specification the host passes are tested against;
//! the device kernels (`ipt_gpu::c2r`) evaluate them directly.
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
//! `c = 1` these collapse exactly to the two-phase coprime decomposition
//! (a row scramble, then a column shuffle), whose closed forms
//! [`phase1_src_col`] and [`phase2_src_row`] drive the coprime device
//! kernels (`ipt_gpu::coprime`), the rival the `dominance` experiment
//! measures C2R against.
//!
//! ```
//! use ipt_core::{Matrix, transpose_matrix_c2r};
//! let a = Matrix::iota(7919, 104); // prime rows — untileable
//! let t = transpose_matrix_c2r(a.clone());
//! assert_eq!(t, a.transposed());
//! ```

use crate::elementary::parallel::cycle_shift;
use crate::elementary::IndexPerm;
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

    /// The phase-2 scatter table: `e(q) = (q·M − ⌊q/b⌋) mod N`. Element
    /// `q` of row `i` moves to column `(e(q) + ρ) mod N`, with `ρ = i` for
    /// `q < (i + 1)·b` and `ρ = i + M` after.
    #[must_use]
    pub fn row_scatter_base(&self, q: usize) -> usize {
        debug_assert!(q < self.n);
        let qm = (q as u128 * self.m as u128 % self.n as u128) as usize;
        (qm + self.n - q / self.b) % self.n
    }

    /// The first step of phase 3 as a gather: the element that ends at row
    /// `i` of column `j` comes from row `(i + j) mod M` (column `j` rotates
    /// up by `j mod M`).
    #[inline]
    #[must_use]
    pub fn col_rotate_src_row(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.m && j < self.n);
        (i + j % self.m) % self.m
    }

    /// The second step of phase 3: output row `J` is the whole rotated row
    /// `p(J) = (J·N + ⌊J/a⌋) mod M`, a bijection on rows. Then
    /// `col_shuffle_src_row(J, j) = col_rotate_src_row(p(J), j)`.
    #[inline]
    #[must_use]
    pub fn row_perm_src(&self, j_out: usize) -> usize {
        debug_assert!(j_out < self.m);
        let t = j_out as u128 * self.n as u128 + (j_out / self.a) as u128;
        (t % self.m as u128) as usize
    }
}

/// Coprime phase 1, the row scramble (the row shuffle at `c = 1`), as a
/// gather: the element that ends in column `q_out` of row `r` comes from
/// column `(q_out − r)·M⁻¹ mod N`.
#[inline]
#[must_use]
pub fn phase1_src_col(r: usize, q_out: usize, m_rows: usize, n_cols: usize, minv: usize) -> usize {
    debug_assert!(r < m_rows && q_out < n_cols);
    let diff = (q_out + n_cols - r % n_cols) % n_cols;
    (diff * minv) % n_cols
}

/// Coprime phase 2, the column shuffle at `c = 1`, as a gather: the
/// element that ends in (final) row `j_out` of column `c` comes from row
/// `(j_out·N + c) mod M`.
#[inline]
#[must_use]
pub fn phase2_src_row(j_out: usize, c: usize, m_rows: usize, n_cols: usize) -> usize {
    debug_assert!(c < n_cols);
    (j_out * n_cols + c) % m_rows
}

/// The modular inverse `M⁻¹ mod N` [`phase1_src_col`] needs.
///
/// # Panics
/// Panics if `gcd(M, N) != 1`.
#[must_use]
pub fn minv_for(m_rows: usize, n_cols: usize) -> usize {
    mod_inverse(m_rows as u64 % n_cols.max(1) as u64, n_cols as u64)
        .expect("coprime dimensions required") as usize
}

/// Is this a `c = 1` shape with both dimensions above 1, the domain of
/// the coprime closed forms?
#[must_use]
pub fn is_coprime_shape(m_rows: usize, n_cols: usize) -> bool {
    m_rows > 1 && n_cols > 1 && gcd(m_rows as u64, n_cols as u64) == 1
}

impl C2rGeometry {
    /// Phase 1 in place over a row-major `M × N` buffer, sequentially:
    /// rotate column `q` down by `⌊q/b⌋`. Nothing to do when `c = 1`.
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn rotate_columns<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        if self.needs_rotate() {
            col_pass::<T, Seq>(data, self, 1, |q| pre_rotate_start(self, q));
        }
    }

    /// Phase 2 in place over a row-major `M × N` buffer, sequentially.
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn shuffle_rows<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        row_pass::<T, Seq>(data, self, 1);
    }

    /// Phase 3 in place over a row-major `M × N` buffer, sequentially:
    /// [`Self::rotate_columns_up`], then [`Self::permute_rows`].
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn shuffle_columns<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        col_shuffle::<T, Seq>(data, self, 1);
    }

    /// The column rotation of phase 3, sequentially: rotate column `j` up
    /// by `j mod M`.
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn rotate_columns_up<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        col_pass::<T, Seq>(data, self, 1, |j| j % self.m);
    }

    /// The row permutation of phase 3, sequentially: output row `J` takes
    /// row `p(J)` ([`Self::row_perm_src`]).
    ///
    /// # Panics
    /// Panics if `data.len() != M·N`.
    pub fn permute_rows<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.m * self.n);
        cycle_shift::<T, Seq>(data, &RowPerm::new(self), self.n);
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

/// Columns in the widest panel: 64 one-byte elements.
const MAX_WIDTH: usize = 64;

/// A walk down the rows of a rotated panel `width` columns wide: column
/// `w` of output row `k` reads panel element `k·width + off[w]`, from row
/// `(start(w) + k) mod M`. Each `off[w]` drops by `M·width` at the row
/// where its column's source wraps to row 0, so the rows run in segments
/// between the wraps and no element pays a wrap test.
struct RotateWalk {
    off: [usize; MAX_WIDTH],
    /// `(M − start(w), w)`, sorted: where column `w` wraps.
    wraps: [(usize, usize); MAX_WIDTH],
    width: usize,
    m: usize,
}

impl RotateWalk {
    fn new(m: usize, width: usize, start: impl Fn(usize) -> usize) -> Self {
        assert!(width <= MAX_WIDTH);
        let (mut off, mut wraps) = ([0; MAX_WIDTH], [(0, 0); MAX_WIDTH]);
        for w in 0..width {
            let s = start(w);
            debug_assert!(s < m);
            off[w] = s * width + w;
            wraps[w] = (m - s, w);
        }
        wraps[..width].sort_unstable();
        Self { off, wraps, width, m }
    }

    /// `f(k, off)` for every output row `k`, in order.
    #[inline]
    fn rows(mut self, mut f: impl FnMut(usize, &[usize])) {
        let (width, mut k) = (self.width, 0);
        for &(until, w) in &self.wraps[..width] {
            for k in k..until {
                f(k, &self.off[..width]);
            }
            k = until;
            self.off[w] = self.off[w].wrapping_sub(self.m * width);
        }
        for k in k..self.m {
            f(k, &self.off[..width]);
        }
    }
}

/// Phase 1's first source row for column `q`: `(−⌊q/b⌋) mod M`.
fn pre_rotate_start(g: &C2rGeometry, q: usize) -> usize {
    (g.m - q / g.b) % g.m
}

/// `p` and its inverse as an [`IndexPerm`] over whole rows. Writing
/// `J = u·a + v` (`u < c`, `v < a`), `p(J) = c·((v·b) mod a) + u`, since
/// `a·N ≡ 0` and `v·N = c·(v·b)` modulo `M = c·a`; the inverse reads
/// `u = R mod c` and `v = (⌊R/c⌋·b⁻¹) mod a` back off row `R`.
struct RowPerm {
    m: usize,
    c: usize,
    a: usize,
    b: usize,
    /// `b⁻¹ mod a` (`0` when `a = 1`).
    b_inv: usize,
}

impl RowPerm {
    fn new(g: &C2rGeometry) -> Self {
        let b_inv = mod_inverse(g.b as u64 % g.a as u64, g.a as u64)
            .expect("a and b are coprime by construction") as usize;
        Self { m: g.m, c: g.c, a: g.a, b: g.b, b_inv }
    }
}

impl IndexPerm for RowPerm {
    fn len(&self) -> usize {
        self.m
    }

    fn dest(&self, r: usize) -> usize {
        let v = (r / self.c) as u128 * self.b_inv as u128 % self.a as u128;
        (r % self.c) * self.a + v as usize
    }

    fn src(&self, j_out: usize) -> usize {
        let v = (j_out % self.a) as u128 * self.b as u128 % self.a as u128;
        self.c * v as usize + j_out / self.a
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

/// One column rotation over the panel of columns starting at `q0` (the
/// worker's band): copy the panel row-major into `panel` (one cache line
/// per row), then rewrite the band row by row, column `q` of output row
/// `k` taking panel row `(start(q) + k) mod M`.
fn col_panel<T: Copy>(
    band: &mut Band<'_, T>,
    g: &C2rGeometry,
    ew: usize,
    q0: usize,
    panel: &mut Vec<T>,
    start: &impl Fn(usize) -> usize,
) {
    let width = panel_width::<T>(ew).min(g.n - q0);
    panel.clear();
    for r in 0..g.m {
        band.read_row(r, panel);
    }
    RotateWalk::new(g.m, width, |w| start(q0 + w)).rows(|k, off| {
        let (row, at) = (band.row_mut(k), k * width);
        // One-`T` elements skip the `ew` loop, which would dominate the pass.
        if ew == 1 {
            for (x, &o) in row.iter_mut().zip(off) {
                *x = panel[at.wrapping_add(o)];
            }
        } else {
            for (x, &o) in row.chunks_exact_mut(ew).zip(off) {
                let src = at.wrapping_add(o) * ew;
                x.copy_from_slice(&panel[src..src + ew]);
            }
        }
    });
}

/// A column rotation on `E`, one panel per task; column `q`'s output row
/// 0 reads row `start(q)`. Scratch: one panel (`width·M` elements) per
/// worker.
fn col_pass<T: Copy, E: Pool<T>>(
    data: &mut [T],
    g: &C2rGeometry,
    ew: usize,
    start: impl Fn(usize) -> usize + Sync + Send,
) {
    let width = panel_width::<T>(ew);
    E::bands(data, g.n * ew, width * ew, || Vec::with_capacity(width * g.m * ew), |panel, p, band| {
        col_panel(band, g, ew, p * width, panel, &start);
    });
}

/// Phase 2 on row `i`: stage the row into `tmp`, then scatter it through
/// the table `e` ([`C2rGeometry::row_scatter_base`]) and the row's two
/// rotations.
fn shuffle_row<T: Copy>(
    row: &mut [T],
    g: &C2rGeometry,
    i: usize,
    ew: usize,
    e: &[usize],
    tmp: &mut Vec<T>,
) {
    tmp.clear();
    tmp.extend_from_slice(row);
    let n = g.n;
    let split = ((i + 1) * g.b).min(n);
    for (rho, qs) in [(i % n, 0..split), ((i + g.m) % n, split..n)] {
        for q in qs {
            put(row, wrap(e[q] + rho, n), tmp, q, ew);
        }
    }
}

/// The row pass on `E`, one row per task. Scratch: one row and the
/// `N`-entry table per worker.
fn row_pass<T: Copy, E: Pool<T>>(data: &mut [T], g: &C2rGeometry, ew: usize) {
    let len = g.n * ew;
    let init = || (Vec::with_capacity(len), (0..g.n).map(|q| g.row_scatter_base(q)).collect::<Vec<_>>());
    E::chunks(data, len, init, |(tmp, e), i, row| shuffle_row(row, g, i, ew, e, tmp));
}

/// Phase 3 on `E`: the column rotation, then the row permutation `p`,
/// which follows `p`'s cycles with whole rows as super-elements. Scratch:
/// one panel per worker, then one row and an `M`-entry visited bitmap.
fn col_shuffle<T: Copy, E: Pool<T>>(data: &mut [T], g: &C2rGeometry, ew: usize) {
    col_pass::<T, E>(data, g, ew, |j| j % g.m);
    cycle_shift::<T, E>(data, &RowPerm::new(g), g.n * ew);
}

/// The three passes on `E` over elements of `ew` consecutive `T`s.
pub(crate) fn c2r<T: Copy, E: Pool<T>>(data: &mut [T], m_rows: usize, n_cols: usize, ew: usize) {
    assert!(ew >= 1, "elements must be at least one word wide");
    assert_eq!(data.len(), m_rows * n_cols * ew);
    let g = C2rGeometry::new(m_rows, n_cols);
    if g.needs_rotate() {
        col_pass::<T, E>(data, &g, ew, |q| pre_rotate_start(&g, q));
    }
    row_pass::<T, E>(data, &g, ew);
    col_shuffle::<T, E>(data, &g, ew);
}

/// Sequential in-place C2R transposition of a row-major `M × N` buffer.
/// Total: any `M, N ≥ 1`. Scratch: one column panel (`W·M` elements,
/// `W = 64 / size_of::<T>()`), one row with an `N`-entry table, and an
/// `M`-entry visited bitmap.
///
/// # Panics
/// Panics if `data.len() != m_rows·n_cols` or a dimension is zero.
pub fn transpose_c2r_seq<T: Copy>(data: &mut [T], m_rows: usize, n_cols: usize) {
    c2r::<T, Seq>(data, m_rows, n_cols, 1);
}

/// C2R on the host pool: column panels, rows, column panels and row
/// cycles in parallel — each worker keeps its own panel, row and table.
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

    /// `c = 1` shapes: primes against primes, powers of two and odd
    /// composites, edges as small as 2, in both orientations.
    const COPRIME_SHAPES: &[(usize, usize)] = &[
        (5, 3),
        (3, 5),
        (2, 9),
        (9, 2),
        (127, 64),
        (61, 45),
        (997, 8),
        (128, 127),
        (253, 16),
    ];

    #[test]
    fn phase_formulas_invert_each_other() {
        for &(m, n) in &[(5usize, 3usize), (8, 9), (127, 64), (31, 45)] {
            let minv = minv_for(m, n);
            for r in 0..m {
                for q in 0..n {
                    let q1 = (q * m + r) % n; // scatter form of phase 1
                    assert_eq!(phase1_src_col(r, q1, m, n, minv), q, "{m}x{n} r={r} q={q}");
                }
            }
        }
    }

    #[test]
    fn coprime_shape_guard() {
        assert!(is_coprime_shape(127, 61));
        assert!(!is_coprime_shape(6, 4));
        assert!(!is_coprime_shape(1, 7), "1×n is trivial, not a coprime shape");
        assert!(COPRIME_SHAPES.iter().all(|&(m, n)| is_coprime_shape(m, n)));
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
            // Every panel width from one column to the widest, on every band.
            for width in [1, 5, 16, MAX_WIDTH] {
                for q0 in (0..n).step_by(width) {
                    let width = width.min(n - q0);
                    // (panel row, column) that output row `k` of column `w` reads.
                    let read = |k: usize, off: &[usize], w: usize| {
                        let at = (k * width).wrapping_add(off[w]);
                        (at / width, at % width)
                    };
                    let mut rows = 0;
                    RotateWalk::new(m, width, |w| pre_rotate_start(&g, q0 + w)).rows(|k, off| {
                        assert_eq!(k, rows, "rotate {m}x{n} rows in order");
                        rows += 1;
                        for w in 0..width {
                            let want = (g.rotate_src_row(k, q0 + w), w);
                            assert_eq!(read(k, off, w), want, "rotate {m}x{n} q={} i={k}", q0 + w);
                        }
                    });
                    assert_eq!(rows, m);
                    // The column shuffle's rotation, then its row permutation.
                    let mut rotated = vec![vec![0; width]; m];
                    RotateWalk::new(m, width, |w| (q0 + w) % m).rows(|k, off| {
                        for (w, src) in rotated[k].iter_mut().enumerate() {
                            let (r, col) = read(k, off, w);
                            assert_eq!(col, w, "col-rotate {m}x{n} stays in its column");
                            *src = r;
                        }
                    });
                    for j_out in 0..m {
                        for (w, &src) in rotated[g.row_perm_src(j_out)].iter().enumerate() {
                            assert_eq!(
                                src,
                                g.col_shuffle_src_row(j_out, q0 + w),
                                "col-shuffle {m}x{n} col={} J={j_out}",
                                q0 + w
                            );
                        }
                    }
                }
            }
            // The row pass is the scatter form: the gather must invert it.
            let e: Vec<usize> = (0..n).map(|q| g.row_scatter_base(q)).collect();
            for i in 0..m {
                let mut row: Vec<u32> = (0..n as u32).collect();
                shuffle_row(&mut row, &g, i, 1, &e, &mut Vec::new());
                for (d, &q) in row.iter().enumerate() {
                    assert_eq!(g.row_shuffle_src_col(i, d), q as usize, "row {m}x{n} i={i} q={q}");
                }
            }
        }
    }

    /// `c > 1`, `b > 1` and `N ∤ M`: the rows where the row pass's second
    /// rotation differs from its first.
    const SPLIT_SHAPES: &[(usize, usize)] =
        &[(12, 18), (422, 633), (6, 4), (30, 42), (20, 50), (50, 20), (36, 60)];

    #[test]
    fn row_scatter_is_one_table_and_a_rotation() {
        let mut second_rotation_moves = 0;
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES).chain(SPLIT_SHAPES) {
            let g = C2rGeometry::new(m, n);
            let e: Vec<usize> = (0..n).map(|q| g.row_scatter_base(q)).collect();
            for i in 0..m {
                let mut row: Vec<u32> = (0..n as u32).collect();
                shuffle_row(&mut row, &g, i, 1, &e, &mut Vec::new());
                for q in 0..n {
                    // The closed-form scatter, d(q) = (q·M + (i − ⌊q/b⌋) mod M) mod N.
                    let r = (i + m - q / g.b) % m;
                    let d = (q * m + r) % n;
                    assert_eq!(row[d] as usize, q, "scatter {m}x{n} i={i} q={q}");
                    assert_eq!(g.row_shuffle_src_col(i, d), q, "gather {m}x{n} i={i} q={q}");
                    if q >= (i + 1) * g.b && (i + m) % n != i % n {
                        second_rotation_moves += 1;
                    }
                }
            }
        }
        assert!(second_rotation_moves > 0, "no shape reached the second rotation");
    }

    #[test]
    fn column_shuffle_is_a_rotation_then_a_row_permutation() {
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES).chain(SPLIT_SHAPES) {
            let g = C2rGeometry::new(m, n);
            let p = RowPerm::new(&g);
            let mut seen = vec![false; m];
            for j_out in 0..m {
                let r = g.row_perm_src(j_out);
                assert!(!seen[r], "p {m}x{n} repeats row {r}");
                seen[r] = true;
                assert_eq!(p.src(j_out), r, "factored p {m}x{n} J={j_out}");
                assert_eq!(p.dest(r), j_out, "p⁻¹ {m}x{n} R={r}");
                for j in 0..n {
                    assert_eq!(
                        g.col_rotate_src_row(r, j),
                        g.col_shuffle_src_row(j_out, j),
                        "{m}x{n} J={j_out} j={j}"
                    );
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
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES).chain(COPRIME_SHAPES) {
            let mat = Matrix::iota(m, n);
            let mut data = mat.as_slice().to_vec();
            transpose_c2r_seq(&mut data, m, n);
            assert_eq!(data, mat.transposed().into_vec(), "{m}x{n}");
        }
    }

    #[test]
    fn par_matches_seq() {
        for &(m, n) in SHAPES.iter().chain(WALK_SHAPES).chain(COPRIME_SHAPES) {
            let mat = Matrix::pattern_f32(m, n);
            let mut a = mat.as_slice().to_vec();
            transpose_c2r_seq(&mut a, m, n);
            let mut b = mat.as_slice().to_vec();
            transpose_c2r_par(&mut b, m, n);
            assert_eq!(a, b, "{m}x{n}");
        }
        // Panels are 64, 8 and 5 columns wide at these widths.
        fn at_width<T: Elem>() {
            for &(m, n) in SHAPES.iter().chain(WALK_SHAPES).chain(COPRIME_SHAPES) {
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
