//! Global direction history: a circular bit buffer with a monotonic head.

use std::fmt;

/// Global branch direction history.
///
/// Outcomes are pushed most-recent-first into a circular bit buffer whose
/// head is a monotonically increasing counter. Reading bit `i` returns the
/// direction of the branch `i` occurrences ago (0 = most recent).
///
/// The simulator is trace-driven, so every push is a committed outcome
/// and the head only moves forwards.
///
/// The newest 64 outcomes are also kept in a register (`recent`, bit 0
/// newest), so [`low_bits`](Self::low_bits) — read on every prediction
/// by the neural hosts and the TAGE corrector — is a mask, not a gather.
/// The register is exact because the capacity is at least 64 and
/// outcomes older than the first push read as 0 in both views.
///
/// ```
/// use bp_history::GlobalHistory;
/// let mut h = GlobalHistory::new(256);
/// h.push(true);
/// h.push(false);
/// assert!(!h.bit(0)); // most recent outcome
/// assert!(h.bit(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHistory {
    words: Vec<u64>,
    mask: u64,
    head: u64,
    /// The newest 64 outcomes, bit 0 newest: always equal to
    /// `bit(0..64)` packed.
    recent: u64,
}

impl GlobalHistory {
    /// Creates a history buffer with capacity for `capacity` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is smaller than 64.
    // bp-lint: allow-item(hot-path-alloc, "buffer construction is cold; push/low_bits/evictions are allocation-free (tests/hotpath_allocations.rs)")
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= 64,
            "capacity must be a power of two >= 64, got {capacity}"
        );
        GlobalHistory {
            words: vec![0; capacity / 64],
            mask: capacity as u64 - 1,
            head: 0,
            recent: 0,
        }
    }

    /// Capacity in outcomes.
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Number of outcomes pushed so far (monotonic, never wraps in
    /// practice: 2^64 branches is centuries of execution).
    pub fn pushes(&self) -> u64 {
        self.head
    }

    /// Appends the outcome of the most recent branch.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let slot = self.head & self.mask;
        let word = (slot / 64) as usize;
        let bit = slot % 64;
        if taken {
            self.words[word] |= 1 << bit;
        } else {
            self.words[word] &= !(1 << bit);
        }
        self.head += 1;
        self.recent = (self.recent << 1) | u64::from(taken);
    }

    /// Returns the direction of the branch `age` occurrences ago
    /// (0 = most recent). Branches older than the capacity — or earlier
    /// than the first push — read as not-taken.
    #[inline]
    pub fn bit(&self, age: usize) -> bool {
        if age as u64 >= self.head || age >= self.capacity() {
            return false;
        }
        let slot = (self.head - 1 - age as u64) & self.mask;
        let word = (slot / 64) as usize;
        (self.words[word] >> (slot % 64)) & 1 == 1
    }

    /// The next 32 eviction taps of a fold over the `len` newest
    /// outcomes: bit `k` is the outcome that push `k` from now evicts,
    /// `bit(len - 1 - k)` today, or 0 where that outcome would precede
    /// the first push.
    ///
    /// [`HistoryState::push`](crate::HistoryState::push) reads this
    /// window once every 32 pushes per long fold. Every tap is between
    /// `len - 31` and `len` pushes old: already pushed, so the pushes in
    /// between cannot change it, and younger than the capacity, so not
    /// yet overwritten. It is one unaligned 32-bit read from at most two
    /// buffer words; the `head` guard keeps the taps of a buffer with
    /// fewer than `len` pushes reading zeros.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not in `32..capacity`: a shorter fold's taps
    /// include outcomes not pushed yet (they come from
    /// [`low_bits`](Self::low_bits) instead), and a longer one's are
    /// overwritten.
    #[inline]
    pub fn evictions(&self, len: usize) -> u32 {
        assert!(
            (32..self.capacity()).contains(&len),
            "eviction window {len} outside 32..capacity"
        );
        // `lead` taps precede the first push and read 0.
        let (start, lead) = match self.head.checked_sub(len as u64) {
            Some(start) => (start, 0),
            None => (0, len as u64 - self.head),
        };
        if lead >= 32 {
            return 0;
        }
        let slot = start & self.mask;
        let shift = slot % 64;
        let mut bits = self.words[(slot / 64) as usize] >> shift;
        if shift != 0 {
            let next = ((slot + 64) & self.mask) / 64;
            bits |= self.words[next as usize] << (64 - shift);
        }
        (bits as u32) << lead
    }

    /// Packs the `n` most recent outcomes into the low bits of a `u64`
    /// (bit 0 = most recent). `n` must be at most 64.
    ///
    /// A mask of the `recent` register: this runs once per prediction
    /// in every neural-summation host (GEHL, the perceptron, the TAGE
    /// statistical corrector path).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn low_bits(&self, n: usize) -> u64 {
        assert!(n <= 64, "low_bits supports at most 64 bits, got {n}");
        if n == 64 {
            self.recent
        } else {
            self.recent & ((1u64 << n) - 1)
        }
    }

    /// Erases every recorded outcome (a context-switch flush): all bits
    /// read back as not-taken, exactly as after construction. The head
    /// is kept, so [`pushes`](Self::pushes) still counts every outcome
    /// ever pushed.
    pub fn flush(&mut self) {
        self.words.fill(0);
        self.recent = 0;
    }
}

impl fmt::Display for GlobalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ghist[{} pushes, cap {}]", self.head, self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = GlobalHistory::new(100);
    }

    #[test]
    fn most_recent_first_ordering() {
        let mut h = GlobalHistory::new(64);
        for taken in [true, true, false, true] {
            h.push(taken);
        }
        assert!(h.bit(0));
        assert!(!h.bit(1));
        assert!(h.bit(2));
        assert!(h.bit(3));
        assert!(!h.bit(4), "pre-history reads as not-taken");
    }

    #[test]
    fn low_bits_packs_msb_oldest() {
        let mut h = GlobalHistory::new(64);
        h.push(true); // age 2
        h.push(false); // age 1
        h.push(true); // age 0
        assert_eq!(h.low_bits(3), 0b101);
        assert_eq!(h.low_bits(0), 0);
    }

    /// The per-bit definition `low_bits` must match.
    fn per_bit_low_bits(h: &GlobalHistory, n: usize) -> u64 {
        (0..n)
            .rev()
            .fold(0, |acc, i| (acc << 1) | u64::from(h.bit(i)))
    }

    /// The per-bit definition `evictions` must match: bit `k` is
    /// `bit(len - 1 - k)`.
    fn per_bit_evictions(h: &GlobalHistory, len: usize) -> u32 {
        (0..32).fold(0, |acc, k| acc | (u32::from(h.bit(len - 1 - k)) << k))
    }

    /// Checks both register-free views against the per-bit reads: every
    /// `low_bits` width and every eviction window the capacity allows.
    fn assert_views_match_bits(h: &GlobalHistory, what: &str) {
        for n in [0usize, 1, 3, 31, 32, 33, 63, 64] {
            assert_eq!(h.low_bits(n), per_bit_low_bits(h, n), "{what}, n {n}");
        }
        for len in 32..h.capacity() {
            assert_eq!(
                h.evictions(len),
                per_bit_evictions(h, len),
                "{what}, eviction window {len}"
            );
        }
    }

    /// A deterministic xorshift stream.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn low_bits_matches_per_bit_reference() {
        // The register must agree with the per-bit definition for every
        // capacity/fill/width combination, including pre-history zeros
        // and wrapped buffers.
        for capacity in [64usize, 128, 1024] {
            let mut h = GlobalHistory::new(capacity);
            let mut x = 0x1234_5678_9ABC_DEFFu64;
            for push in 0..(2 * capacity + 7) {
                assert_views_match_bits(&h, &format!("capacity {capacity}, {push} pushes"));
                h.push(xorshift(&mut x) & 1 == 1);
            }
        }
    }

    #[test]
    fn low_bits_matches_per_bit_reference_across_flushes() {
        // Random push runs and flushes. Flushes land both while fewer
        // than 64 outcomes were ever pushed (the eviction taps keep their
        // pre-history zeros) and after the buffer has wrapped.
        for capacity in [64usize, 128, 256] {
            let mut h = GlobalHistory::new(capacity);
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ capacity as u64;
            for _ in 0..10 {
                h.push(xorshift(&mut x) & 1 == 1);
            }
            h.flush();
            assert_views_match_bits(&h, &format!("capacity {capacity}, young flush"));
            let mut flushes_wrapped = 0;
            for round in 0..400 {
                let r = xorshift(&mut x);
                if r.is_multiple_of(8) {
                    h.flush();
                    if h.pushes() > capacity as u64 {
                        flushes_wrapped += 1;
                    }
                } else {
                    for _ in 0..(r >> 8) % 9 {
                        h.push(xorshift(&mut x) & 1 == 1);
                    }
                }
                assert_views_match_bits(&h, &format!("capacity {capacity}, round {round}"));
            }
            assert!(
                flushes_wrapped > 0,
                "capacity {capacity}: no flush after a wrap"
            );
        }
    }

    #[test]
    fn wraps_and_forgets_old_bits() {
        let mut h = GlobalHistory::new(64);
        for _ in 0..64 {
            h.push(true);
        }
        for _ in 0..64 {
            h.push(false);
        }
        assert!(!h.bit(0));
        assert!(!h.bit(63));
        // Older than capacity: unreadable, defined as false.
        assert!(!h.bit(64));
    }

    #[test]
    fn flush_zeroes_bits_but_keeps_head() {
        let mut h = GlobalHistory::new(64);
        for _ in 0..20 {
            h.push(true);
        }
        h.flush();
        assert_eq!(h.pushes(), 20, "flush must not rewind the head");
        for age in 0..64 {
            assert!(!h.bit(age), "bit {age} survived the flush");
        }
        assert_eq!(h.low_bits(64), 0);
        // Post-flush pushes behave normally.
        h.push(true);
        assert!(h.bit(0));
        assert!(!h.bit(1));
    }

    #[test]
    #[should_panic(expected = "eviction window 31")]
    fn evictions_reject_windows_reaching_unpushed_outcomes() {
        let _ = GlobalHistory::new(64).evictions(31);
    }

    #[test]
    #[should_panic(expected = "eviction window 64")]
    fn evictions_reject_windows_at_capacity() {
        let _ = GlobalHistory::new(64).evictions(64);
    }

    #[test]
    fn display_is_informative() {
        let h = GlobalHistory::new(64);
        assert!(format!("{h}").contains("cap 64"));
    }
}
