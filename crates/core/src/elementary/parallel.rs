//! P-IPT on the host: within one instance, disjoint cycles never overlap,
//! so each cycle is an independent pool task (§4 of the paper; instances
//! are spread by `InstancedTranspose::apply`). It suffers the load
//! imbalance the paper describes: one cycle is often several times longer
//! than all others, and work stealing cannot split it. The
//! Gustavson/Karlsson a-priori cycle *splitting* that fixes this lives in
//! `ipt-baselines::gkk`.

use super::{cycle_shift_seq, move_cycle, IndexPerm};
use crate::pool::{Par, Pool};

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

/// The in-place cycle shift on `E`: the visited-bitmap walk
/// ([`cycle_shift_seq`]) on one worker, [`cycle_shift_par`] on the pool.
#[allow(unsafe_code)]
pub(crate) fn cycle_shift<T: Copy, E: Pool<T>>(
    data: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
) {
    if !E::PARALLEL {
        cycle_shift_seq(data, perm, super_size);
        return;
    }
    assert!(super_size > 0, "super_size must be positive");
    assert_eq!(data.len(), perm.len() * super_size, "data/permutation size mismatch");
    let mut leaders = find_cycle_leaders(perm);
    // Longest cycles first so the dominant cycle starts immediately and the
    // small ones fill in around it (greedy longest-processing-time order).
    leaders.sort_unstable_by_key(|&(_, len)| std::cmp::Reverse(len));
    // SAFETY: the task for a leader moves only the members of that
    // leader's cycle, and the cycles of a permutation are pairwise
    // disjoint.
    unsafe {
        E::disjoint(data, &leaders, || Vec::with_capacity(super_size), |tmp, &(leader, _), cells| {
            move_cycle(cells, perm, super_size, leader, tmp, None);
        });
    }
}

/// Cycle-parallel in-place shift on the host pool: one task per cycle,
/// longest first (P-IPT), each worker holding one temporary super-element.
///
/// # Panics
/// Panics if `data.len() != perm.len() * super_size`.
pub fn cycle_shift_par<T: Copy + Send + Sync>(
    data: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
) {
    cycle_shift::<T, Par>(data, perm, super_size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementary::{FusedTileTranspose, InstancedTranspose};
    use crate::perm::cycle::TransposePerm;
    use crate::pool::tests::{iota, Elem};

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
        fn at_width<T: Elem>() {
            for &(r, c, s) in &[(5, 3, 1), (3, 5, 2), (16, 48, 1), (48, 16, 4), (61, 7, 3)] {
                let p = TransposePerm::new(r, c);
                let orig: Vec<T> = iota(r * c * s);
                let mut seq = orig.clone();
                cycle_shift_seq(&mut seq, &p, s);
                let mut par = orig.clone();
                cycle_shift_par(&mut par, &p, s);
                assert_eq!(seq, par, "{r}x{c} super={s}");
            }
        }
        at_width::<u8>();
        at_width::<u32>();
        at_width::<u64>();
        at_width::<[u32; 3]>();
    }

    #[test]
    fn instanced_par_matches_seq_multi_instance() {
        fn at_width<T: Elem>() {
            for &(i, r, c, s) in &[(4, 5, 3, 2), (16, 8, 8, 1), (3, 2, 9, 4), (1, 12, 7, 2)] {
                let op = InstancedTranspose::new(i, r, c, s);
                let orig: Vec<T> = iota(op.total_len());
                let mut seq = orig.clone();
                op.apply_seq(&mut seq);
                let mut par = orig.clone();
                op.apply_par(&mut par);
                assert_eq!(seq, par, "{i}x{r}x{c}x{s}");
            }
        }
        at_width::<u8>();
        at_width::<u32>();
        at_width::<u64>();
        at_width::<[u32; 3]>();
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
