//! Incrementally folded history (the TAGE "circular shift register").

/// A history segment of `original_len` bits folded down to
/// `compressed_len` bits, maintained incrementally in O(1) per branch.
///
/// This is the standard TAGE circular-shift-register construction: on each
/// new outcome the fold is rotated by one, the inserted bit is XORed in at
/// position 0 and the evicted bit (the outcome `original_len` branches ago)
/// is XORed out at `original_len % compressed_len`.
///
/// [`FoldedHistory::fold_naive`] recomputes the same value from scratch and
/// is used by the property tests to prove the incremental update correct.
///
/// ```
/// use bp_history::FoldedHistory;
/// let mut f = FoldedHistory::new(10, 4);
/// f.update(true, false);
/// assert_eq!(f.value(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldedHistory {
    comp: u32,
    original_len: u16,
    compressed_len: u8,
    outpoint: u8,
}

impl FoldedHistory {
    /// Creates a fold of `original_len` history bits into
    /// `compressed_len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `compressed_len` is 0 or larger than 31, or if
    /// `original_len` is 0. At 31 bits or fewer the rotated register
    /// still fits a `u32`; no predictor folds wider than 24.
    pub fn new(original_len: usize, compressed_len: usize) -> Self {
        assert!(original_len > 0, "original length must be positive");
        assert!(
            (1..=31).contains(&compressed_len),
            "compressed length must be in 1..=31, got {compressed_len}"
        );
        FoldedHistory {
            comp: 0,
            original_len: original_len as u16,
            compressed_len: compressed_len as u8,
            outpoint: (original_len % compressed_len) as u8,
        }
    }

    /// The current folded value (fits in `compressed_len` bits).
    #[inline]
    pub fn value(&self) -> u32 {
        self.comp
    }

    /// Length of the history segment being folded.
    pub fn original_len(&self) -> usize {
        usize::from(self.original_len)
    }

    /// Width of the fold.
    pub fn compressed_len(&self) -> usize {
        usize::from(self.compressed_len)
    }

    /// Incremental update: `inserted` is the newest outcome, `evicted` is
    /// the outcome that just aged past `original_len`.
    #[inline]
    pub fn update(&mut self, inserted: bool, evicted: bool) {
        let clen = u32::from(self.compressed_len);
        let wide = (self.comp << 1) | u32::from(inserted);
        let comp = (wide ^ (wide >> clen)) & ((1 << clen) - 1);
        self.comp = comp ^ (u32::from(evicted) << self.outpoint);
    }

    /// Resets the fold to the all-zero (empty-history) state.
    pub fn clear(&mut self) {
        self.comp = 0;
    }

    /// Reference implementation: folds the `original_len` most recent bits
    /// of `history` (where `history(age)` returns the outcome `age`
    /// branches ago) from scratch.
    ///
    /// The incremental register inserts each outcome at position 0 and
    /// rotates it left once per subsequent outcome, evicting it (an XOR at
    /// `original_len % compressed_len`) when it ages past the segment. The
    /// closed form is therefore the XOR of every live bit shifted by its
    /// age modulo the fold width. Used by property tests to prove the O(1)
    /// update correct.
    pub fn fold_naive(&self, history: impl Fn(usize) -> bool) -> u32 {
        let clen = usize::from(self.compressed_len);
        let mut comp = 0u32;
        for age in 0..self.original_len() {
            if history(age) {
                comp ^= 1u32 << (age % clen);
            }
        }
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "compressed length")]
    fn rejects_oversized_fold() {
        let _ = FoldedHistory::new(100, 33);
    }

    #[test]
    fn update_masks_to_width() {
        let mut f = FoldedHistory::new(7, 3);
        for _ in 0..100 {
            f.update(true, false);
            assert!(f.value() < 8);
        }
    }

    #[test]
    fn clear_zeroes_the_fold() {
        let mut f = FoldedHistory::new(16, 8);
        f.update(true, false);
        assert_ne!(f.value(), 0);
        f.clear();
        assert_eq!(f.value(), 0);
    }

    #[test]
    fn getters() {
        let f = FoldedHistory::new(130, 11);
        assert_eq!(f.original_len(), 130);
        assert_eq!(f.compressed_len(), 11);
    }

    proptest! {
        /// The incremental fold must equal a from-scratch replay of the
        /// same outcome stream.
        #[test]
        fn incremental_matches_naive(
            stream in proptest::collection::vec(any::<bool>(), 1..300),
            olen in 1usize..80,
            clen in 1usize..16,
        ) {
            let mut inc = FoldedHistory::new(olen, clen);
            for (i, &bit) in stream.iter().enumerate() {
                let evicted = if i >= olen { stream[i - olen] } else { false };
                inc.update(bit, evicted);
            }
            let n = stream.len();
            let hist = |age: usize| age < n && stream[n - 1 - age];
            prop_assert_eq!(inc.value(), inc.fold_naive(hist));
        }
    }
}
