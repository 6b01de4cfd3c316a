//! MKL-like parallel out-of-place transposition (`mkl_somatcopy`'s role in
//! Table 3): cache-blocked, destination row blocks spread over the host
//! pool.
//!
//! The paper's measurement: parallel OOP is the fastest CPU option
//! (12.07 GB/s on a 6-core Xeon, memory-bandwidth-limited beyond 4
//! threads) but carries 100 % memory overhead.

use ipt_core::pool::{Par, Pool};
use ipt_core::Matrix;

/// Cache block edge (elements). 64×64×4 B = 16 KB — comfortably in L1/L2.
pub const BLOCK: usize = 64;

/// Parallel blocked out-of-place transposition.
#[must_use]
pub fn transpose_oop_par<T: Copy + Send + Sync + Default>(matrix: &Matrix<T>) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let src = matrix.as_slice();
    let mut out = vec![T::default(); rows * cols];
    // Parallelise over destination row blocks (each output row j is column
    // j of the source).
    Par::chunks(&mut out, BLOCK * rows, || (), |_, jb, chunk| {
        let j0 = jb * BLOCK;
        let jn = (j0 + BLOCK).min(cols);
        // Tile the source rows so both streams stay cache-resident.
        for i0 in (0..rows).step_by(BLOCK) {
            let i_end = (i0 + BLOCK).min(rows);
            for j in j0..jn {
                let dst_row = &mut chunk[(j - j0) * rows..][..rows];
                for i in i0..i_end {
                    dst_row[i] = src[i * cols + j];
                }
            }
        }
    });
    Matrix::from_vec(cols, rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_par_matches_reference() {
        for &(r, c) in &[(5, 3), (64, 64), (100, 257), (301, 33), (1, 9), (128, 1)] {
            let m = Matrix::iota(r, c);
            assert_eq!(transpose_oop_par(&m), m.transposed(), "{r}x{c}");
        }
    }

    #[test]
    fn float_payload() {
        let m = Matrix::pattern_f32(150, 222);
        assert_eq!(transpose_oop_par(&m), m.transposed());
    }
}
