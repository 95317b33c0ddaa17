//! Path history: a shift register of low PC bits.

/// Global path history.
///
/// On every branch (conditional or not) one low-order bit of the branch PC
/// is shifted in, as in the TAGE and EV8 designs: the *path* taken through
/// the code disambiguates histories that the direction bits alone cannot.
///
/// ```
/// use bp_history::PathHistory;
/// let mut p = PathHistory::new(16);
/// p.push(0b10); // pc bit 1 set
/// p.push(0b00); // pc bit 1 clear
/// assert_eq!(p.value() & 0b11, 0b10); // newest in bit 0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathHistory {
    value: u64,
    len: u8,
}

impl PathHistory {
    /// Creates a path history of `len` bits (at most 64).
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 64.
    pub fn new(len: usize) -> Self {
        assert!((1..=64).contains(&len), "path length must be in 1..=64");
        PathHistory {
            value: 0,
            len: len as u8,
        }
    }

    /// Shifts in bit 1 of `pc` (bit 0 is usually constant due to
    /// instruction alignment, bit 1 discriminates better).
    #[inline]
    pub fn push(&mut self, pc: u64) {
        let mask = if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        };
        self.value = ((self.value << 1) | ((pc >> 1) & 1)) & mask;
    }

    /// Current packed path bits (newest in bit 0).
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Width in bits.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if the register has zero configured width. Always
    /// `false` (the constructor rejects zero) but provided for symmetry
    /// with `len`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Overwrites the register (a flush writes 0).
    pub fn set_value(&mut self, value: u64) {
        self.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_pc_bit_one() {
        let mut p = PathHistory::new(8);
        p.push(0b10); // bit1 = 1
        p.push(0b00); // bit1 = 0
        p.push(0b11); // bit1 = 1
        assert_eq!(p.value(), 0b101);
    }

    #[test]
    fn masks_to_width() {
        let mut p = PathHistory::new(3);
        for _ in 0..10 {
            p.push(0b10);
        }
        assert_eq!(p.value(), 0b111);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn full_width_register() {
        let mut p = PathHistory::new(64);
        for _ in 0..70 {
            p.push(0b10);
        }
        assert_eq!(p.value(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "path length")]
    fn rejects_zero_width() {
        let _ = PathHistory::new(0);
    }

    #[test]
    fn set_value_restores() {
        let mut p = PathHistory::new(16);
        p.push(0x2);
        let saved = p.value();
        p.push(0x2);
        p.set_value(saved);
        assert_eq!(p.value(), saved);
    }
}
