//! The host work-distribution seam. Host passes draw on two sources of
//! parallelism (§4 of the paper): independent pieces of one array and
//! disjoint index sets within it. Each pass is written once, generic over
//! a [`Pool`], and instantiated twice: [`Seq`] runs it on the calling
//! thread, [`Par`] on the host pool (rayon's, used nowhere else; the
//! offline `shims/rayon` runs every task on the calling thread). Workers
//! write disjoint parts of one slice through [`Disjoint`], the one
//! raw-pointer handle, never through a `&mut [T]` over the whole slice.

#![allow(unsafe_code)]

use std::marker::PhantomData;

use rayon::prelude::*;

/// Workers in the host pool that [`Par`] runs on.
#[must_use]
pub fn threads() -> usize {
    rayon::current_num_threads()
}

/// Where a host pass runs. Each method runs `f` once per piece of work,
/// with the scratch that `init` built for the worker taking it. The
/// provided bodies run on the calling thread ([`Seq`]); [`Par`] overrides
/// `chunks` and `disjoint` with the host pool.
pub trait Pool<T> {
    /// True when work is spread over the host pool.
    const PARALLEL: bool = false;

    /// `f(scratch, i, chunk)` on every `size`-element chunk `i` of `data`
    /// (the last may be shorter).
    fn chunks<S, I, F>(data: &mut [T], size: usize, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, usize, &mut [T]) + Sync + Send,
    {
        let mut scratch = init();
        for (i, chunk) in data.chunks_mut(size).enumerate() {
            f(&mut scratch, i, chunk);
        }
    }

    /// `f(scratch, item, cells)` on every item, each worker reaching `data`
    /// through its own handle `cells`.
    ///
    /// # Safety
    /// Distinct items must touch disjoint index sets of `data`.
    unsafe fn disjoint<S, It, I, F>(data: &mut [T], items: &[It], init: I, f: F)
    where
        It: Sync,
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, &It, &mut Disjoint<'_, T>) + Sync + Send,
    {
        let (mut cells, mut scratch) = (Disjoint::new(data), init());
        for item in items {
            f(&mut scratch, item, &mut cells);
        }
    }

    /// `f(scratch, b, band)` on every band `b` of `width` columns of the
    /// row-major `data` with rows `row_len` long (the last band may be
    /// narrower). Safe: a [`Band`] reaches only its own columns.
    ///
    /// # Panics
    /// Panics unless `width > 0` and `data` is whole rows of `row_len > 0`.
    fn bands<S, I, F>(data: &mut [T], row_len: usize, width: usize, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, usize, &mut Band<'_, T>) + Sync + Send,
    {
        assert!(width > 0 && row_len > 0 && data.len().is_multiple_of(row_len), "ragged bands");
        let rows = data.len() / row_len;
        let bands: Vec<usize> = (0..row_len.div_ceil(width)).collect();
        // SAFETY: band `b` reaches only columns `b·width..(b + 1)·width` of
        // each row (clipped to the row), and bands do not overlap.
        unsafe {
            Self::disjoint(data, &bands, init, |scratch, &b, cells| {
                assert_eq!(cells.len, rows * row_len, "a band's handle must cover the grid");
                let start = b * width;
                let width = width.min(row_len - start);
                f(scratch, b, &mut Band { cells: cells.share(), start, width, row_len, rows });
            });
        }
    }
}

/// The calling thread alone: one worker.
pub struct Seq;

impl<T> Pool<T> for Seq {}

/// The host pool.
pub struct Par;

impl<T: Send + Sync> Pool<T> for Par {
    const PARALLEL: bool = true;

    fn chunks<S, I, F>(data: &mut [T], size: usize, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, usize, &mut [T]) + Sync + Send,
    {
        data.par_chunks_mut(size).enumerate().for_each_init(init, |s, (i, chunk)| f(s, i, chunk));
    }

    unsafe fn disjoint<S, It, I, F>(data: &mut [T], items: &[It], init: I, f: F)
    where
        It: Sync,
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, &It, &mut Disjoint<'_, T>) + Sync + Send,
    {
        let cells = Disjoint::new(data);
        items.par_iter().for_each_init(init, |s, item| f(s, item, &mut cells.share()));
    }
}

/// A handle on a slice: bounds-checked element access through a raw
/// pointer. Writes need `&mut`, so a handle is as exclusive as the
/// `&mut [T]` it was made from; only [`Pool::disjoint`] hands several
/// workers handles on one slice, under its safety contract.
pub struct Disjoint<'a, T> {
    ptr: *mut T,
    len: usize,
    _data: PhantomData<&'a mut [T]>,
}

// SAFETY: the fields are a pointer into, and the length of, a `&'a mut [T]`.
// Through `&Disjoint` other threads can only read, which `T: Sync` allows;
// values written from other threads need `T: Send`. Writes need `&mut`,
// and several writers on one slice exist only under the `Pool::disjoint`
// contract.
unsafe impl<T: Send + Sync> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    /// A handle on all of `data`.
    pub fn new(data: &'a mut [T]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len(), _data: PhantomData }
    }

    /// A second handle on the same slice, for another worker or a band.
    fn share(&self) -> Self {
        Self { ptr: self.ptr, len: self.len, _data: PhantomData }
    }
}

impl<T: Copy> Disjoint<'_, T> {
    /// Panics unless `at..at + len` lies in the slice.
    #[inline(always)]
    fn check(&self, at: usize, len: usize) {
        assert!(len <= self.len && at <= self.len - len, "{at}..+{len} out of {}", self.len);
    }

    /// The element at `i`.
    #[inline(always)]
    #[must_use]
    pub fn read(&self, i: usize) -> T {
        assert!(i < self.len, "{i} out of {}", self.len);
        // SAFETY: in bounds; no other worker writes `i` meanwhile (exclusive
        // handle, or the `Pool::disjoint` contract). So for every access below.
        unsafe { self.ptr.add(i).read() }
    }

    /// Overwrite the element at `i`.
    #[inline(always)]
    pub fn write(&mut self, i: usize, v: T) {
        assert!(i < self.len, "{i} out of {}", self.len);
        // SAFETY: as in `read`.
        unsafe { self.ptr.add(i).write(v) }
    }

    /// Copy the `len` elements at `from..` over those at `to..`.
    #[inline(always)]
    pub fn copy(&mut self, from: usize, to: usize, len: usize) {
        self.check(from, len);
        self.check(to, len);
        // SAFETY: as in `read`; `ptr::copy` allows the ranges to overlap.
        unsafe { std::ptr::copy(self.ptr.add(from), self.ptr.add(to), len) }
    }

    /// Append the `len` elements at `at..` to `out`.
    #[inline(always)]
    pub fn load(&self, at: usize, len: usize, out: &mut Vec<T>) {
        self.check(at, len);
        // SAFETY: as in `read`.
        out.extend_from_slice(unsafe { std::slice::from_raw_parts(self.ptr.add(at), len) });
    }

    /// Overwrite the elements at `at..` with `src`.
    #[inline(always)]
    pub fn store(&mut self, at: usize, src: &[T]) {
        self.check(at, src.len());
        // SAFETY: as in `read`; `src` cannot alias the slice, which the
        // handle borrows mutably.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(at), src.len()) }
    }
}

/// One worker's band in [`Pool::bands`]: `width` consecutive columns of
/// every row, which no other band overlaps.
pub struct Band<'a, T> {
    cells: Disjoint<'a, T>,
    start: usize,
    width: usize,
    row_len: usize,
    rows: usize,
}

impl<T: Copy> Band<'_, T> {
    /// Offset of the band's first column in row `r`; panics outside the
    /// band.
    #[inline(always)]
    fn row_at(&self, r: usize) -> usize {
        assert!(r < self.rows, "row {r} outside the band");
        r * self.row_len + self.start
    }

    /// Append the band's part of row `r` to `out`.
    #[inline]
    pub fn read_row(&self, r: usize, out: &mut Vec<T>) {
        // SAFETY: `bands` checked that the handle covers the whole grid and
        // the band lies inside its rows, so the band's `width` columns of
        // row `r` are in bounds; only this band's worker touches them.
        out.extend_from_slice(unsafe {
            std::slice::from_raw_parts(self.cells.ptr.add(self.row_at(r)), self.width)
        });
    }

    /// The band's part of row `r`, to write in place.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        // SAFETY: as in `read_row`; the slice borrows the band mutably, so
        // no other access through it overlaps the slice while it lives.
        unsafe { std::slice::from_raw_parts_mut(self.cells.ptr.add(self.row_at(r)), self.width) }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A test element built from its index. The widths the pool's tests
    /// run at are 1, 4, 8 and 12 bytes (`u8`, `u32`, `u64`, `[u32; 3]`).
    pub(crate) trait Elem: Copy + PartialEq + std::fmt::Debug + Send + Sync {
        fn at(k: usize) -> Self;
    }

    impl Elem for u8 {
        fn at(k: usize) -> Self {
            (k % 251) as u8
        }
    }

    impl Elem for u32 {
        fn at(k: usize) -> Self {
            k as u32
        }
    }

    impl Elem for u64 {
        fn at(k: usize) -> Self {
            (k as u64) << 32 | (k as u64 ^ 0x5a5a)
        }
    }

    impl Elem for [u32; 3] {
        fn at(k: usize) -> Self {
            [k as u32, !(k as u32), (k as u32).rotate_left(16)]
        }
    }

    /// `T::at(0), …, T::at(n − 1)`.
    pub(crate) fn iota<T: Elem>(n: usize) -> Vec<T> {
        (0..n).map(T::at).collect()
    }

    fn spread<E: Pool<u32>>() -> Vec<u32> {
        // Chunks of 5 over 12 elements: the last is shorter.
        let mut data = vec![0u32; 12];
        E::chunks(&mut data, 5, || 100, |base, i, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = *base + 10 * i as u32 + k as u32;
            }
        });
        // Bands of 2 over rows of 3: the last band is one column.
        let mut grid: Vec<u32> = (0..12).collect();
        E::bands(&mut grid, 3, 2, Vec::new, |row, b, band| {
            row.clear();
            band.read_row(0, row);
            for r in 0..4 {
                for (dst, &v) in band.row_mut(r).iter_mut().zip(row.iter()) {
                    *dst = v + 100 * b as u32;
                }
            }
        });
        data.extend(grid);
        // Disjoint items: each swaps its own pair.
        let mut pairs: Vec<u32> = (0..6).collect();
        // SAFETY: item `p` touches indices `2p` and `2p + 1` only.
        unsafe {
            E::disjoint(&mut pairs, &[0usize, 1, 2], || (), |_, &p, cells| {
                let a = cells.read(2 * p);
                cells.copy(2 * p + 1, 2 * p, 1);
                cells.write(2 * p + 1, a);
            });
        }
        data.extend(pairs);
        data
    }

    #[test]
    fn seq_and_par_spread_the_same_work() {
        let seq = spread::<Seq>();
        assert_eq!(
            seq,
            [
                100, 101, 102, 103, 104, 110, 111, 112, 113, 114, 120, 121, // chunks
                0, 1, 102, 0, 1, 102, 0, 1, 102, 0, 1, 102, // bands
                1, 0, 3, 2, 5, 4, // pairs
            ]
        );
        assert_eq!(spread::<Par>(), seq);
    }

    #[test]
    #[should_panic(expected = "ragged bands")]
    fn bands_reject_a_ragged_grid() {
        Seq::bands(&mut [0u32; 7], 3, 1, || (), |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn handle_accesses_are_checked() {
        // SAFETY: one item.
        unsafe { Seq::disjoint(&mut [0u32; 4], &[()], || (), |_, _, cells| cells.write(4, 1)) };
    }
}
