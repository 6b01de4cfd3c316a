//! Elementary tiled transpositions — the building blocks of staged full
//! transposition (§4 of the paper).
//!
//! Every elementary transposition the paper uses (`010!`, `100!`, `0100!`,
//! `0010!`, `1000!`) is an instance of one unified operation: view the array
//! as `instances × rows × cols × super_size` and, **independently within each
//! instance**, permute the `rows × cols` grid of contiguous super-elements to
//! `cols × rows` order. Concretely:
//!
//! | paper op | instances | rows | cols | super | view transform |
//! |----------|-----------|------|------|-------|----------------|
//! | `010!`   | A         | m    | n    | 1     | `A×m×n → A×n×m` |
//! | `100!`   | 1         | N    | M′   | m     | `N×M′×m → M′×N×m` |
//! | `0100!`  | M′        | m    | N′   | n     | `M′×m×N′×n → M′×N′×m×n` |
//! | `0010!`  | M′·N′     | m    | n    | 1     | `…×m×n → …×n×m` |
//! | `1000!`  | 1         | M′   | N′   | m·n   | `M′×N′×(mn) → N′×M′×(mn)` |
//!
//! The data movement inside one instance takes one of two forms:
//!
//! * **BS tile** — a scalar instance (`super_size == 1`) of at most
//!   [`SHARED_CAPACITY_WORDS`] elements is the host form of the paper's
//!   barrier-synchronised stage-2 kernel (§5, Figure 1): the tile is loaded
//!   row-major into a tile buffer and stored back transposed. Scratch: one
//!   tile.
//! * **cycle following** — everything else (super-element stages, the
//!   whole-matrix pass, tiles over the budget) follows the cycles of
//!   `k ↦ k·rows mod (rows·cols − 1)` on super-element indices
//!   ([`TransposePerm`]).
//!
//! This module provides the in-place cycle engine over any bijective
//! index map, an out-of-place reference, and the instanced wrapper, all
//! run over the [`crate::pool`] seam; [`parallel`] holds P-IPT.

use crate::perm::cycle::TransposePerm;
use crate::pool::{Disjoint, Par, Pool, Seq};
use crate::tiles::SHARED_CAPACITY_WORDS;

pub mod parallel;

/// A bijective map on super-element indices `0..len`, the abstract interface
/// of the in-place shifting engine.
///
/// Implementors must guarantee `dest` is a bijection and `src` its inverse.
pub trait IndexPerm: Sync {
    /// Number of super-elements the permutation acts on.
    fn len(&self) -> usize;
    /// Where the super-element currently at `k` must move to.
    fn dest(&self, k: usize) -> usize;
    /// Which super-element moves into position `k` (inverse of `dest`).
    fn src(&self, k: usize) -> usize;

    /// True if the map has no elements (default: `len() == 0`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl IndexPerm for TransposePerm {
    fn len(&self) -> usize {
        TransposePerm::len(self)
    }
    fn dest(&self, k: usize) -> usize {
        TransposePerm::dest(self, k)
    }
    fn src(&self, k: usize) -> usize {
        TransposePerm::src(self, k)
    }
}

/// Shift super-elements of `super_size` contiguous `T`s within `data`
/// according to `perm`, in place, following cycles sequentially.
///
/// Berman-style bookkeeping: one visited bit per super-element (O(len)
/// time) plus a single temporary super-element. For the zero-workspace
/// flavour (leaders recomputed by walking — Windley 1959, and the reason
/// sequential in-place transposition like `mkl_simatcopy` is so slow) see
/// [`cycle_shift_seq_minimal`].
///
/// # Panics
/// Panics if `data.len() != perm.len() * super_size`.
pub fn cycle_shift_seq<T: Copy>(data: &mut [T], perm: &impl IndexPerm, super_size: usize) {
    let mut visited = vec![false; perm.len()];
    cycle_shift_seq_with(data, perm, super_size, &mut visited);
}

/// [`cycle_shift_seq`] with a caller-provided visited bitmap, so repeated
/// shifts over same-shaped chunks reuse one allocation. The bitmap is
/// cleared on entry.
///
/// # Panics
/// As [`cycle_shift_seq`]; additionally if `visited.len() != perm.len()`.
pub fn cycle_shift_seq_with<T: Copy>(
    data: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
    visited: &mut Vec<bool>,
) {
    assert!(super_size > 0, "super_size must be positive");
    assert_eq!(data.len(), perm.len() * super_size, "data/permutation size mismatch");
    assert_eq!(visited.len(), perm.len(), "visited bitmap size mismatch");
    visited.fill(false);
    let n = perm.len();
    let (mut data, mut tmp) = (Disjoint::new(data), Vec::with_capacity(super_size));
    for leader in 0..n {
        if visited[leader] {
            continue;
        }
        visited[leader] = true;
        if perm.dest(leader) == leader {
            continue; // fixed point
        }
        move_cycle(&mut data, perm, super_size, leader, &mut tmp, Some(visited));
    }
}

/// [`cycle_shift_seq`] with zero workspace beyond one super-element:
/// leaders are recomputed by walking each cycle (worst-case superlinear —
/// this is why purely sequential in-place transposition is slow).
///
/// # Panics
/// Panics if `data.len() != perm.len() * super_size`.
pub fn cycle_shift_seq_minimal<T: Copy>(data: &mut [T], perm: &impl IndexPerm, super_size: usize) {
    assert!(super_size > 0, "super_size must be positive");
    assert_eq!(data.len(), perm.len() * super_size, "data/permutation size mismatch");
    let n = perm.len();
    let (mut data, mut tmp) = (Disjoint::new(data), Vec::with_capacity(super_size));
    for leader in 0..n {
        if perm.dest(leader) == leader {
            continue; // fixed point
        }
        // Leader test: walk the cycle, bail if any member is smaller.
        let mut cur = perm.dest(leader);
        let mut is_leader = true;
        while cur != leader {
            if cur < leader {
                is_leader = false;
                break;
            }
            cur = perm.dest(cur);
        }
        if !is_leader {
            continue;
        }
        move_cycle(&mut data, perm, super_size, leader, &mut tmp, None);
    }
}

/// The cycle mover: shift the cycle through `leader`,
/// `data'[x] = data[src(x)]`, walked backwards from the leader so a single
/// temporary super-element (`tmp`) suffices. Marks members in `visited`
/// when provided.
pub(crate) fn move_cycle<T: Copy>(
    data: &mut Disjoint<'_, T>,
    perm: &impl IndexPerm,
    s: usize,
    leader: usize,
    tmp: &mut Vec<T>,
    mut visited: Option<&mut Vec<bool>>,
) {
    let mut cur = leader;
    let mut prev = perm.src(cur);
    if s == 1 {
        // Scalar fast path: range-based copies cost more than the move.
        let saved = data.read(leader);
        while prev != leader {
            if let Some(v) = visited.as_deref_mut() {
                v[prev] = true;
            }
            data.write(cur, data.read(prev));
            cur = prev;
            prev = perm.src(cur);
        }
        data.write(cur, saved);
        return;
    }
    tmp.clear();
    data.load(leader * s, s, tmp);
    while prev != leader {
        if let Some(v) = visited.as_deref_mut() {
            v[prev] = true;
        }
        data.copy(prev * s, cur * s, s);
        cur = prev;
        prev = perm.src(cur);
    }
    data.store(cur * s, tmp);
}

/// BS on the host (paper §5, Figure 1): load the `rows × cols` tile
/// row-major into `tile`, then store it back transposed. `tile` is the
/// worker's on-chip buffer; it holds at most one tile.
fn transpose_tile<T: Copy>(chunk: &mut [T], rows: usize, cols: usize, tile: &mut Vec<T>) {
    tile.clear();
    tile.extend_from_slice(chunk);
    // Four output rows (tile columns) at a time, so each tile row is read
    // four contiguous elements at once.
    let mut strips = chunk.chunks_exact_mut(4 * rows);
    for (s, strip) in (&mut strips).enumerate() {
        let (o0, rest) = strip.split_at_mut(rows);
        let (o1, rest) = rest.split_at_mut(rows);
        let (o2, o3) = rest.split_at_mut(rows);
        for (r, tile_row) in tile.chunks_exact(cols).enumerate() {
            let v = &tile_row[4 * s..4 * s + 4];
            (o0[r], o1[r], o2[r], o3[r]) = (v[0], v[1], v[2], v[3]);
        }
    }
    let c0 = cols / 4 * 4;
    for (c, out_row) in strips.into_remainder().chunks_exact_mut(rows).enumerate() {
        let col = &tile[c0 + c..];
        for (r, slot) in out_row.iter_mut().enumerate() {
            *slot = col[r * cols];
        }
    }
}

/// Out-of-place reference for the same operation: `dst[dest(k)] = src_data[k]`.
///
/// # Panics
/// Panics on size mismatches.
pub fn cycle_shift_oop<T: Copy>(
    src_data: &[T],
    dst: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
) {
    assert!(super_size > 0);
    assert_eq!(src_data.len(), perm.len() * super_size);
    assert_eq!(dst.len(), src_data.len());
    for k in 0..perm.len() {
        let d = perm.dest(k);
        dst[d * super_size..(d + 1) * super_size]
            .copy_from_slice(&src_data[k * super_size..(k + 1) * super_size]);
    }
}

/// The unified elementary tiled transposition: `instances` independent
/// in-place transpositions of `rows × cols` grids of super-elements of
/// `super_size` scalars each, over contiguous chunks of the array.
///
/// ```
/// use ipt_core::InstancedTranspose;
/// // 100!: view 4×3 super-elements of 2 words, transpose in place.
/// let op = InstancedTranspose::new(1, 4, 3, 2);
/// let mut data: Vec<u32> = (0..24).collect();
/// op.apply_seq(&mut data);
/// assert_eq!(&data[0..6], &[0, 1, 6, 7, 12, 13]); // first output row
/// op.inverse().apply_seq(&mut data);
/// assert_eq!(data, (0..24).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstancedTranspose {
    /// Number of independent contiguous instances.
    pub instances: usize,
    /// Rows of each instance's super-element grid (source orientation).
    pub rows: usize,
    /// Columns of each instance's super-element grid (source orientation).
    pub cols: usize,
    /// Scalars per super-element (contiguous, moved as a unit).
    pub super_size: usize,
}

impl InstancedTranspose {
    /// Construct, validating all dimensions are positive.
    #[must_use]
    pub fn new(instances: usize, rows: usize, cols: usize, super_size: usize) -> Self {
        assert!(
            instances > 0 && rows > 0 && cols > 0 && super_size > 0,
            "degenerate InstancedTranspose {instances}x{rows}x{cols}x{super_size}"
        );
        Self { instances, rows, cols, super_size }
    }

    /// Scalars per instance chunk.
    #[inline]
    #[must_use]
    pub fn instance_len(&self) -> usize {
        self.rows * self.cols * self.super_size
    }

    /// Total scalars the operation acts on.
    #[inline]
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.instances * self.instance_len()
    }

    /// The per-instance permutation on super-element indices.
    #[inline]
    #[must_use]
    pub fn perm(&self) -> TransposePerm {
        TransposePerm::new(self.rows, self.cols)
    }

    /// Global scalar-index map of the whole operation (for verification and
    /// stage-plan composition): where the scalar at offset `k` moves to.
    #[must_use]
    pub fn dest_scalar(&self, k: usize) -> usize {
        debug_assert!(k < self.total_len());
        let il = self.instance_len();
        let (inst, within) = (k / il, k % il);
        let (se, s) = (within / self.super_size, within % self.super_size);
        let d = self.perm().dest(se);
        inst * il + d * self.super_size + s
    }

    /// Does each instance run as a BS tile (a scalar transpose within the
    /// on-chip tile budget) rather than by cycle following?
    #[inline]
    #[must_use]
    pub(crate) fn is_tile_stage(&self) -> bool {
        self.super_size == 1 && self.rows * self.cols <= SHARED_CAPACITY_WORDS
    }

    /// Execute in place on `E`, one task per instance, or per cycle of a
    /// single cycle-following instance.
    pub(crate) fn apply<T: Copy, E: Pool<T>>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.total_len(), "data length mismatch");
        let (il, rows, cols, s) = (self.instance_len(), self.rows, self.cols, self.super_size);
        let perm = self.perm();
        if self.is_tile_stage() {
            E::chunks(data, il, || Vec::with_capacity(il), |tile, _, chunk| {
                transpose_tile(chunk, rows, cols, tile);
            });
        } else if self.instances == 1 {
            parallel::cycle_shift::<T, E>(data, &perm, s);
        } else {
            E::chunks(data, il, || vec![false; IndexPerm::len(&perm)], |visited, _, chunk| {
                cycle_shift_seq_with(chunk, &perm, s, visited);
            });
        }
    }

    /// Execute in place, sequentially.
    ///
    /// # Panics
    /// Panics if `data.len() != self.total_len()`.
    pub fn apply_seq<T: Copy>(&self, data: &mut [T]) {
        self.apply::<T, Seq>(data);
    }

    /// Execute in place on the host pool.
    ///
    /// # Panics
    /// Panics if `data.len() != self.total_len()`.
    pub fn apply_par<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        self.apply::<T, Par>(data);
    }

    /// Execute out of place into `dst` (reference semantics).
    pub fn apply_oop<T: Copy>(&self, src: &[T], dst: &mut [T]) {
        assert_eq!(src.len(), self.total_len());
        assert_eq!(dst.len(), self.total_len());
        let perm = self.perm();
        let il = self.instance_len();
        for (s, d) in src.chunks_exact(il).zip(dst.chunks_exact_mut(il)) {
            cycle_shift_oop(s, d, &perm, self.super_size);
        }
    }

    /// The inverse operation (undoes this transposition).
    #[must_use]
    pub fn inverse(&self) -> Self {
        Self { instances: self.instances, rows: self.cols, cols: self.rows, super_size: self.super_size }
    }
}

/// The fused stage-2+3 operation of the 4-stage algorithm
/// (Karlsson/Gustavson fusion): in a `rows_outer × cols_outer` grid of
/// `rows_inner × cols_inner` tiles, simultaneously transpose the grid *and*
/// each tile: `(a, b, c, d) ↦ (b, a, d, c)` on the 4-D view.
///
/// Unlike [`InstancedTranspose`] the moved unit is a scalar, and the index
/// map is not a plain 2-D transposition, so it implements [`IndexPerm`]
/// directly and is executed by the generic engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedTileTranspose {
    /// Outer grid rows (M′).
    pub rows_outer: usize,
    /// Outer grid cols (N′).
    pub cols_outer: usize,
    /// Tile rows (m).
    pub rows_inner: usize,
    /// Tile cols (n).
    pub cols_inner: usize,
}

impl FusedTileTranspose {
    /// Construct, validating dimensions.
    #[must_use]
    pub fn new(rows_outer: usize, cols_outer: usize, rows_inner: usize, cols_inner: usize) -> Self {
        assert!(rows_outer > 0 && cols_outer > 0 && rows_inner > 0 && cols_inner > 0);
        Self { rows_outer, cols_outer, rows_inner, cols_inner }
    }

    #[inline]
    fn decompose(&self, k: usize) -> (usize, usize, usize, usize) {
        let tile = self.rows_inner * self.cols_inner;
        let (outer, within) = (k / tile, k % tile);
        let (a, b) = (outer / self.cols_outer, outer % self.cols_outer);
        let (c, d) = (within / self.cols_inner, within % self.cols_inner);
        (a, b, c, d)
    }

    /// Execute in place, sequentially.
    pub fn apply_seq<T: Copy>(&self, data: &mut [T]) {
        parallel::cycle_shift::<T, Seq>(data, self, 1);
    }

    /// Execute in place with cycle-level parallelism.
    pub fn apply_par<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        parallel::cycle_shift::<T, Par>(data, self, 1);
    }
}

impl IndexPerm for FusedTileTranspose {
    fn len(&self) -> usize {
        self.rows_outer * self.cols_outer * self.rows_inner * self.cols_inner
    }

    fn dest(&self, k: usize) -> usize {
        let (a, b, c, d) = self.decompose(k);
        // (a,b,c,d) → (b,a,d,c) over shape (cols_outer, rows_outer,
        // cols_inner, rows_inner) in the destination.
        ((b * self.rows_outer + a) * self.cols_inner + d) * self.rows_inner + c
    }

    fn src(&self, k: usize) -> usize {
        // Destination shape is (cols_outer, rows_outer, cols_inner,
        // rows_inner); invert the map.
        let tile = self.rows_inner * self.cols_inner;
        let (outer, within) = (k / tile, k % tile);
        let (b, a) = (outer / self.rows_outer, outer % self.rows_outer);
        let (d, c) = (within / self.rows_inner, within % self.rows_inner);
        ((a * self.cols_outer + b) * self.rows_inner + c) * self.cols_inner + d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn cycle_shift_seq_matches_oop() {
        for &(rows, cols, s) in &[(5, 3, 1), (3, 5, 2), (4, 4, 3), (7, 2, 4), (1, 6, 2), (6, 1, 5)] {
            let perm = TransposePerm::new(rows, cols);
            let data: Vec<u32> = (0..(rows * cols * s) as u32).collect();
            let mut inplace = data.clone();
            cycle_shift_seq(&mut inplace, &perm, s);
            let mut oop = vec![0u32; data.len()];
            cycle_shift_oop(&data, &mut oop, &perm, s);
            assert_eq!(inplace, oop, "{rows}x{cols} super={s}");
        }
    }

    #[test]
    fn instanced_is_transpose_per_instance() {
        let op = InstancedTranspose::new(3, 4, 5, 2);
        let mut data: Vec<u32> = (0..op.total_len() as u32).collect();
        let orig = data.clone();
        op.apply_seq(&mut data);
        // Verify against the 4-D definition: out[inst][c][r][s] = in[inst][r][c][s]
        let il = op.instance_len();
        for inst in 0..3 {
            for r in 0..4 {
                for c in 0..5 {
                    for s in 0..2 {
                        let src = inst * il + (r * 5 + c) * 2 + s;
                        let dst = inst * il + (c * 4 + r) * 2 + s;
                        assert_eq!(data[dst], orig[src], "inst={inst} r={r} c={c} s={s}");
                    }
                }
            }
        }
    }

    #[test]
    fn instanced_010_is_matrix_transpose() {
        // instances=1, super=1 must equal plain matrix transposition.
        let m = Matrix::iota(7, 4);
        let op = InstancedTranspose::new(1, 7, 4, 1);
        let mut data = m.as_slice().to_vec();
        op.apply_seq(&mut data);
        assert_eq!(data, m.transposed().into_vec());
    }

    #[test]
    fn dest_scalar_matches_oop() {
        let op = InstancedTranspose::new(2, 3, 4, 2);
        let data: Vec<u32> = (0..op.total_len() as u32).collect();
        let mut oop = vec![0u32; data.len()];
        op.apply_oop(&data, &mut oop);
        for k in 0..data.len() {
            assert_eq!(oop[op.dest_scalar(k)], data[k]);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let op = InstancedTranspose::new(2, 5, 3, 2);
        let mut data: Vec<u32> = (0..op.total_len() as u32).collect();
        let orig = data.clone();
        op.apply_seq(&mut data);
        assert_ne!(data, orig);
        op.inverse().apply_seq(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn fused_matches_two_step() {
        // Fusion must equal 0010! followed by 1000!.
        let (mp, np, m, n) = (3, 4, 2, 5);
        let fused = FusedTileTranspose::new(mp, np, m, n);
        let mut a: Vec<u32> = (0..fused.len() as u32).collect();
        let mut b = a.clone();
        fused.apply_seq(&mut a);
        InstancedTranspose::new(mp * np, m, n, 1).apply_seq(&mut b); // 0010!
        InstancedTranspose::new(1, mp, np, m * n).apply_seq(&mut b); // 1000!
        assert_eq!(a, b);
    }

    #[test]
    fn fused_src_inverts_dest() {
        let fused = FusedTileTranspose::new(3, 4, 2, 5);
        for k in 0..fused.len() {
            assert_eq!(fused.src(fused.dest(k)), k);
            assert_eq!(fused.dest(fused.src(k)), k);
        }
    }

    /// Every execution form of `op` on `orig`: the public seq/par paths,
    /// the cycle engine run on each instance, and the out-of-place
    /// reference — all must agree.
    fn assert_forms_agree<T: Copy + PartialEq + std::fmt::Debug + Send + Sync>(
        op: &InstancedTranspose,
        orig: &[T],
    ) {
        let mut oop = orig.to_vec();
        op.apply_oop(orig, &mut oop);
        let mut cycle = orig.to_vec();
        for chunk in cycle.chunks_exact_mut(op.instance_len()) {
            cycle_shift_seq(chunk, &op.perm(), op.super_size);
        }
        let mut seq = orig.to_vec();
        op.apply_seq(&mut seq);
        let mut par = orig.to_vec();
        op.apply_par(&mut par);
        assert_eq!(cycle, oop, "cycle path {op:?}");
        assert_eq!(seq, oop, "apply_seq {op:?}");
        assert_eq!(par, oop, "apply_par {op:?}");
    }

    #[test]
    fn tile_stage_matches_cycle_path_and_oop_on_both_sides_of_the_budget() {
        // (instances, rows, cols, super_size, runs as a BS tile)
        for &(i, r, c, s, tile) in &[
            (3, 60, 60, 1, true),    // exactly the 3600-element budget
            (2, 50, 72, 1, true),    // a Table-2 tile
            (2, 1, 3600, 1, true),   // one row
            (4, 7, 5, 1, true),
            (2, 13, 277, 1, false),  // 3601 elements: over the budget
            (2, 60, 61, 1, false),
            (3, 7, 5, 2, false),     // super-elements keep the cycle engine
            (2, 60, 60, 3, false),
        ] {
            let op = InstancedTranspose::new(i, r, c, s);
            assert_eq!(op.is_tile_stage(), tile, "{op:?}");
            let words: Vec<u32> = (0..op.total_len() as u32).collect();
            assert_forms_agree(&op, &words);
            let wide: Vec<u64> = (0..op.total_len() as u64).map(|k| k << 32 | (k ^ 0x5a5a)).collect();
            assert_forms_agree(&op, &wide);
        }
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn wrong_length_panics() {
        let op = InstancedTranspose::new(1, 3, 3, 1);
        let mut data = vec![0u32; 8];
        op.apply_seq(&mut data);
    }
}
