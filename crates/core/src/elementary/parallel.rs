//! Multi-threaded execution of elementary transpositions on the host CPU.
//!
//! Two orthogonal sources of parallelism (mirroring §4 of the paper):
//!
//! 1. **Instances** — the `instances` chunks of an [`InstancedTranspose`] are
//!    independent; they parallelise perfectly (`par_chunks_exact_mut`).
//! 2. **Cycles** — within a single instance, disjoint cycles never overlap.
//!    This is the P-IPT strategy: one task per cycle. It suffers the load
//!    imbalance the paper describes (one cycle is often several times longer
//!    than all others); rayon's work stealing mitigates but cannot remove a
//!    single dominant cycle. The Gustavson/Karlsson a-priori cycle *splitting*
//!    that fixes this lives in `ipt-baselines::gkk`.

use rayon::prelude::*;

use super::{cycle_shift_seq, transpose_tile, FusedTileTranspose, IndexPerm, InstancedTranspose};

/// Enumerate cycle leaders (minimum offset of each cycle) and cycle lengths
/// in a single O(len) pass using a visited bitmap (Berman-style bookkeeping,
/// one bit per element).
///
/// Fixed points are excluded — they need no movement.
#[must_use]
pub fn find_cycle_leaders(perm: &impl IndexPerm) -> Vec<(usize, usize)> {
    let n = perm.len();
    let mut visited = vec![false; n];
    let mut out = Vec::new();
    for k in 0..n {
        if visited[k] {
            continue;
        }
        visited[k] = true;
        let mut cur = perm.dest(k);
        if cur == k {
            continue; // fixed point
        }
        let mut len = 1usize;
        while cur != k {
            visited[cur] = true;
            cur = perm.dest(cur);
            len += 1;
        }
        out.push((k, len));
    }
    out
}

/// Unsafe shared-slice handle allowing disjoint cycles to be shifted from
/// multiple threads. Soundness: the caller must only touch index sets that
/// are pairwise disjoint across threads — cycles of a permutation are.
struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    fn new(data: &mut [T]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len() }
    }

    /// Copy super-element `from` over super-element `to`.
    ///
    /// # Safety
    /// Caller guarantees both ranges are in bounds and no other thread
    /// accesses them concurrently.
    unsafe fn copy_super(&self, from: usize, to: usize, s: usize) {
        debug_assert!(from * s + s <= self.len && to * s + s <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(from * s), self.ptr.add(to * s), s) };
    }

    unsafe fn read_super(&self, k: usize, s: usize, buf: &mut Vec<T>) {
        buf.clear();
        unsafe { buf.extend_from_slice(std::slice::from_raw_parts(self.ptr.add(k * s), s)) };
    }

    unsafe fn write_super(&self, k: usize, s: usize, buf: &[T]) {
        unsafe {
            std::ptr::copy_nonoverlapping(buf.as_ptr(), self.ptr.add(k * s), s);
        }
    }
}

/// Shift one cycle (identified by any member `leader`) backwards with a
/// single temporary super-element.
///
/// # Safety
/// The cycle through `leader` must not be touched by any other thread.
unsafe fn shift_cycle<T: Copy>(
    data: &SharedSlice<T>,
    perm: &impl IndexPerm,
    leader: usize,
    super_size: usize,
) {
    let mut tmp = Vec::with_capacity(super_size);
    unsafe {
        data.read_super(leader, super_size, &mut tmp);
        let mut cur = leader;
        let mut prev = perm.src(cur);
        while prev != leader {
            data.copy_super(prev, cur, super_size);
            cur = prev;
            prev = perm.src(cur);
        }
        data.write_super(cur, super_size, &tmp);
    }
}

/// Cycle-parallel in-place shift: one rayon task per cycle (P-IPT). Under
/// the offline rayon shim (`shims/rayon`) the tasks run sequentially on
/// the calling thread.
///
/// # Panics
/// Panics if `data.len() != perm.len() * super_size`.
pub fn cycle_shift_par<T: Copy + Send + Sync>(
    data: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
) {
    assert!(super_size > 0);
    assert_eq!(data.len(), perm.len() * super_size, "data/permutation size mismatch");
    let leaders = find_cycle_leaders(perm);
    let shared = SharedSlice::new(data);
    // Longest cycles first so the dominant cycle starts immediately and the
    // small ones fill in around it (greedy longest-processing-time order).
    let mut leaders = leaders;
    leaders.sort_unstable_by_key(|&(_, len)| std::cmp::Reverse(len));
    leaders.par_iter().for_each(|&(leader, _len)| {
        // SAFETY: cycles are pairwise disjoint index sets.
        unsafe { shift_cycle(&shared, perm, leader, super_size) };
    });
}

impl InstancedTranspose {
    /// Execute in place with rayon: instances in parallel, each worker
    /// holding one tile buffer on a BS stage; a single cycle-following
    /// instance falls back to cycle-level parallelism.
    ///
    /// # Panics
    /// Panics if `data.len() != self.total_len()`.
    pub fn apply_par<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.total_len(), "data length mismatch");
        let il = self.instance_len();
        if self.is_tile_stage() {
            data.par_chunks_exact_mut(il).for_each_init(
                || Vec::with_capacity(il),
                |tile, chunk| transpose_tile(chunk, self.rows, self.cols, tile),
            );
            return;
        }
        let perm = self.perm();
        if self.instances > 1 {
            data.par_chunks_exact_mut(il).for_each(|chunk| {
                cycle_shift_seq(chunk, &perm, self.super_size);
            });
        } else {
            cycle_shift_par(data, &perm, self.super_size);
        }
    }
}

impl FusedTileTranspose {
    /// Execute in place with cycle-level parallelism.
    pub fn apply_par<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        cycle_shift_par(data, self, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::cycle::TransposePerm;

    #[test]
    fn leaders_match_transpose_perm_leaders() {
        for &(r, c) in &[(5, 3), (7, 4), (6, 6), (2, 9), (1, 5)] {
            let p = TransposePerm::new(r, c);
            let fast: Vec<(usize, usize)> = find_cycle_leaders(&p);
            let slow: Vec<(usize, usize)> = p
                .leaders()
                .into_iter()
                .filter(|&(_, len)| len > 1)
                .map(|(k, len)| (k, len as usize))
                .collect();
            assert_eq!(fast, slow, "{r}x{c}");
        }
    }

    #[test]
    fn par_shift_matches_seq() {
        for &(r, c, s) in &[(5, 3, 1), (3, 5, 2), (16, 48, 1), (48, 16, 4), (61, 7, 3)] {
            let p = TransposePerm::new(r, c);
            let orig: Vec<u32> = (0..(r * c * s) as u32).collect();
            let mut seq = orig.clone();
            cycle_shift_seq(&mut seq, &p, s);
            let mut par = orig.clone();
            cycle_shift_par(&mut par, &p, s);
            assert_eq!(seq, par, "{r}x{c} super={s}");
        }
    }

    #[test]
    fn instanced_par_matches_seq_multi_instance() {
        for &(i, r, c, s) in &[(4, 5, 3, 2), (16, 8, 8, 1), (3, 2, 9, 4), (1, 12, 7, 2)] {
            let op = InstancedTranspose::new(i, r, c, s);
            let orig: Vec<u32> = (0..op.total_len() as u32).collect();
            let mut seq = orig.clone();
            op.apply_seq(&mut seq);
            let mut par = orig.clone();
            op.apply_par(&mut par);
            assert_eq!(seq, par, "{i}x{r}x{c}x{s}");
        }
    }

    #[test]
    fn fused_par_matches_seq() {
        let f = FusedTileTranspose::new(4, 5, 3, 2);
        let orig: Vec<u32> = (0..f.len() as u32).collect();
        let mut seq = orig.clone();
        f.apply_seq(&mut seq);
        let mut par = orig.clone();
        f.apply_par(&mut par);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_shift_large_stress() {
        // A larger matrix with a long dominant cycle exercises the
        // work-stealing path under real thread contention.
        let p = TransposePerm::new(720, 180);
        let orig: Vec<u32> = (0..p.len() as u32).collect();
        let mut par = orig.clone();
        cycle_shift_par(&mut par, &p, 1);
        let mut expect = vec![0u32; orig.len()];
        super::super::cycle_shift_oop(&orig, &mut expect, &p, 1);
        assert_eq!(par, expect);
    }
}
