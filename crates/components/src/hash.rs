//! Index-hashing helpers shared by all table-based predictors.

/// A strong 64-bit mixer (the `splitmix64` finalizer). Deterministic and
/// dependency-free; used to disperse PCs and history values into table
/// indices.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// XOR-folds a 64-bit value down to `bits` bits: the XOR of its
/// `bits`-wide chunks, low chunk first.
///
/// Computed in six fixed shift-XOR steps: the step with shift
/// `bits << k` folds chunk `j + 2^k` onto chunk `j`, so after the steps
/// `k = 5..=0` the low chunk holds the XOR of chunks `0..64` — every
/// chunk, as `bits >= 1`. Steps whose shift reaches 64 would fold in
/// only zeros and are skipped. Straight-line code, so the IMLI
/// outer-history slot hash costs the same for every PC.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 63.
#[inline]
pub fn fold_u64(mut x: u64, bits: usize) -> u64 {
    assert!((1..=63).contains(&bits), "fold width must be in 1..=63");
    for k in (0..6).rev() {
        let s = bits << k;
        if s < 64 {
            x ^= x >> s;
        }
    }
    x & ((1u64 << bits) - 1)
}

/// Extracts the useful PC bits (dropping instruction-alignment bits), as
/// every predictor indexes on `pc >> 2`-style values.
#[inline]
pub fn pc_bits(pc: u64) -> u64 {
    pc >> 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mix64_is_deterministic_and_disperses() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Single-bit input changes should flip many output bits.
        let d = (mix64(0x1000) ^ mix64(0x1004)).count_ones();
        assert!(d > 10, "poor avalanche: {d} bits");
    }

    #[test]
    fn fold_width_respected() {
        for bits in 1..=63 {
            assert!(fold_u64(u64::MAX, bits) < (1u64 << bits));
        }
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn fold_rejects_zero() {
        let _ = fold_u64(1, 0);
    }

    #[test]
    fn pc_bits_drops_alignment() {
        assert_eq!(pc_bits(0x4004), 0x1001);
    }

    /// The chunk-loop definition of the fold: the reference the fixed
    /// steps must reproduce bit for bit.
    fn fold_reference(mut x: u64, bits: usize) -> u64 {
        let mask = (1u64 << bits) - 1;
        let mut out = 0u64;
        while x != 0 {
            out ^= x & mask;
            x >>= bits;
        }
        out
    }

    #[test]
    fn fold_matches_chunk_loop_on_edge_values() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for bits in 1..=63 {
            let mut inputs = vec![0, u64::MAX];
            inputs.extend((0..64).map(|b| 1u64 << b));
            for _ in 0..64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                inputs.push(x);
            }
            for &v in &inputs {
                assert_eq!(
                    fold_u64(v, bits),
                    fold_reference(v, bits),
                    "value {v:#x}, width {bits}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn fold_is_xor_of_chunks(x in any::<u64>(), bits in 1usize..=63) {
            prop_assert_eq!(fold_u64(x, bits), fold_reference(x, bits));
        }
    }
}
