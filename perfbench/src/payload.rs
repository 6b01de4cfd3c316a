//! Seeded payloads and the benchmark's own closed-form transpose check.
//!
//! Word `k` of request `id` is a hash of `(seed, id, k)`, so a result can
//! be checked without keeping its input: element `(i, j)` of the
//! `rows x cols` source must sit at element `(j, i)` of the `cols x rows`
//! result. The library's own host transpose is never used as the
//! reference, because the replay and host-shed paths produce results
//! with it.

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-request salt: every word of a payload derives from it.
pub fn salt(seed: u64, id: u64) -> u64 {
    mix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix(id.wrapping_add(0x5EED)))
}

/// Word `k` of the payload salted by `salt`.
#[inline]
pub fn word(salt: u64, k: u64) -> u32 {
    (mix(salt.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))) >> 16) as u32
}

/// The row-major payload of `words` words.
pub fn payload(salt: u64, words: usize) -> Vec<u32> {
    (0..words as u64).map(|k| word(salt, k)).collect()
}

/// Fill `buf` in place with the payload salted by `salt`.
pub fn fill(buf: &mut [u32], salt: u64) {
    for (k, w) in buf.iter_mut().enumerate() {
        *w = word(salt, k as u64);
    }
}

/// True when `result` is the transpose of the `rows x cols` payload salted
/// by `salt`, with elements of `elem_words` 32-bit words.
pub fn is_transpose(
    result: &[u32],
    salt: u64,
    rows: usize,
    cols: usize,
    elem_words: usize,
) -> bool {
    if result.len() != rows * cols * elem_words {
        return false;
    }
    // Walk the result in storage order: result element (j, i) of the
    // cols x rows matrix is source element (i, j).
    let mut out = result.iter();
    for j in 0..cols {
        for i in 0..rows {
            let src = ((i * cols + j) * elem_words) as u64;
            for t in 0..elem_words as u64 {
                if *out.next().expect("length checked above") != word(salt, src + t) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_transpose_is_closed_form() {
        let s = salt(7, 3);
        let (rows, cols, w) = (5, 3, 2);
        let src = payload(s, rows * cols * w);
        let mut out = vec![0; src.len()];
        for i in 0..rows {
            for j in 0..cols {
                for t in 0..w {
                    out[(j * rows + i) * w + t] = src[(i * cols + j) * w + t];
                }
            }
        }
        assert!(is_transpose(&out, s, rows, cols, w));
        out.swap(0, 1);
        assert!(!is_transpose(&out, s, rows, cols, w));
        assert!(
            !is_transpose(&src, s, rows, cols, w),
            "an untransposed payload must fail"
        );
    }

    #[test]
    fn payloads_depend_on_seed_and_id() {
        assert_ne!(payload(salt(1, 1), 8), payload(salt(2, 1), 8));
        assert_ne!(payload(salt(1, 1), 8), payload(salt(1, 2), 8));
        assert_eq!(payload(salt(1, 1), 8), payload(salt(1, 1), 8));
    }
}
