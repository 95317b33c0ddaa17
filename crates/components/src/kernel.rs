//! Hot-path kernels: vector-friendly summation.
//!
//! The neural hosts (GEHL, the hashed perceptron, the TAGE statistical
//! corrector) compute their prediction as the sign of a sum of centered
//! counter reads. The reads are mutually independent, so the hot path
//! splits into an *index phase* (compute every table index), a *gather*
//! of the raw counter values, and a flat summation over the gathered
//! values — this module provides the summation.
//!
//! Bit-identity: a centered read contributes `2c + 1`, so a sum of `n`
//! reads equals `2·Σc + n`; `i32` addition is associative and the
//! counter values span at most `[-64, 63]`, so reordering, chunking, or
//! vectorizing the accumulation cannot change the result. The SSE2 path
//! is therefore exactly equivalent to [`sum_i8_reference`], which the
//! property tests re-prove on arbitrary inputs.

/// Sums gathered counter values exactly, `i32`-widened.
///
/// Dispatches to the SSE2 kernel where the target guarantees it (SSE2
/// is baseline on x86_64, so a `cfg` check is a complete runtime
/// detection there) and to the chunked scalar reference elsewhere.
#[inline]
pub fn sum_i8(values: &[i8]) -> i32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        sum_i8_sse2(values)
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    {
        sum_i8_reference(values)
    }
}

/// The sum of `n` centered reads `Σ(2c + 1) = 2·Σc + n` over the
/// gathered raw counter values.
#[inline]
pub fn sum_centered(values: &[i8]) -> i32 {
    2 * sum_i8(values) + values.len() as i32
}

/// [`sum_centered`] over the first `n` values of a gather buffer whose
/// tail is still zero: rounds the summed slice up to the 16-lane SIMD
/// chunk so short hosts (the 8-table hashed perceptron, the 17-table
/// GEHL) take the vector path instead of falling entirely into the
/// scalar remainder. Zero lanes contribute nothing to `Σc`, so this is
/// exactly `sum_centered(&values[..n])`.
#[inline]
pub fn sum_centered_padded(values: &[i8], n: usize) -> i32 {
    debug_assert!(n <= values.len());
    debug_assert!(values[n..].iter().all(|&v| v == 0), "dirty pad lanes");
    let padded = n.next_multiple_of(16).min(values.len());
    2 * sum_i8(&values[..padded.max(n)]) + n as i32
}

/// Scalar reference summation: fixed-stride chunks of eight with an
/// `i32` accumulator per chunk — the autovectorization-friendly shape,
/// and the ground truth the SSE2 kernel is property-tested against.
#[inline]
pub fn sum_i8_reference(values: &[i8]) -> i32 {
    let mut chunks = values.chunks_exact(8);
    let mut sum = 0i32;
    for chunk in &mut chunks {
        let mut s = 0i32;
        for &v in chunk {
            s += i32::from(v);
        }
        sum += s;
    }
    for &v in chunks.remainder() {
        sum += i32::from(v);
    }
    sum
}

/// Explicit SSE2 kernel: 16 lanes per step, sign-extended to i16 and
/// pair-summed into four i32 accumulators with `madd`, horizontally
/// reduced at the end. Exact — every intermediate fits its lane width.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn sum_i8_sse2(values: &[i8]) -> i32 {
    use core::arch::x86_64::*;
    let mut chunks = values.chunks_exact(16);
    // SAFETY: SSE2 is statically available (cfg-gated); loads are
    // unaligned (`loadu`) from in-bounds 16-byte chunks.
    let mut sum = unsafe {
        let zero = _mm_setzero_si128();
        let ones = _mm_set1_epi16(1);
        let mut acc = zero;
        for chunk in &mut chunks {
            let v = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
            // Sign-extend i8 → i16 by interleaving with the sign mask.
            let sign = _mm_cmpgt_epi8(zero, v);
            let lo = _mm_unpacklo_epi8(v, sign);
            let hi = _mm_unpackhi_epi8(v, sign);
            acc = _mm_add_epi32(acc, _mm_madd_epi16(lo, ones));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(hi, ones));
        }
        let folded = _mm_add_epi32(acc, _mm_unpackhi_epi64(acc, acc));
        let folded = _mm_add_epi32(folded, _mm_shuffle_epi32::<0b01>(folded));
        _mm_cvtsi128_si32(folded)
    };
    for &v in chunks.remainder() {
        sum += i32::from(v);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_singleton_sums() {
        assert_eq!(sum_i8(&[]), 0);
        assert_eq!(sum_i8(&[5]), 5);
        assert_eq!(sum_i8(&[-128]), -128);
        assert_eq!(sum_centered(&[]), 0);
        assert_eq!(sum_centered(&[0]), 1);
        // (2c + 1) per counter: (-2 + 1) + (4 + 1).
        assert_eq!(sum_centered(&[-1, 2]), 4);
    }

    #[test]
    fn extreme_values_do_not_overflow_lanes() {
        // 64 tables of saturated 7-bit counters is far beyond any real
        // host; i16 pair-sums peak at 2 × -128 = -256, well in range.
        let vals = [-128i8; 64];
        assert_eq!(sum_i8(&vals), -128 * 64);
        assert_eq!(sum_i8_reference(&vals), -128 * 64);
        let vals = [127i8; 33];
        assert_eq!(sum_i8(&vals), 127 * 33);
    }

    proptest! {
        /// The dispatching kernel (SSE2 on x86_64) must equal the scalar
        /// reference for arbitrary lengths and values — including the
        /// chunk remainder boundary cases.
        #[test]
        fn kernel_matches_reference(values in proptest::collection::vec(any::<i8>(), 0..200)) {
            prop_assert_eq!(sum_i8(&values), sum_i8_reference(&values));
            let naive: i32 = values.iter().map(|&v| 2 * i32::from(v) + 1).sum();
            prop_assert_eq!(sum_centered(&values), naive);
        }

        /// The padded form must equal the exact-slice form for every
        /// prefix length of a zero-tailed buffer.
        #[test]
        fn padded_sum_matches_exact(values in proptest::collection::vec(any::<i8>(), 0..64), pad in 0usize..80) {
            let mut buf = values.clone();
            buf.resize(values.len() + pad, 0);
            prop_assert_eq!(sum_centered_padded(&buf, values.len()), sum_centered(&values));
        }
    }
}
