//! Bimodal (PC-indexed) prediction tables.

use crate::attribution::{ConfidenceBucket, PredictionAttribution, ProviderComponent};
use crate::budget::{StorageBudget, StorageItem};
use crate::counter::SaturatingCounter;
use crate::hash::pc_bits;
use crate::predictor::ConditionalPredictor;
use bp_trace::BranchRecord;

/// A PC-indexed table of 2-bit saturating counters with shared hysteresis,
/// as used for the TAGE base predictor: each entry stores its own
/// *direction* bit while groups of four entries share one *hysteresis*
/// bit, halving storage at negligible accuracy cost.
#[derive(Debug, Clone)]
pub struct BimodalTable {
    direction: Vec<bool>,
    hysteresis: Vec<bool>,
    mask: u64,
}

impl BimodalTable {
    /// Hysteresis sharing factor (entries per hysteresis bit).
    pub const HYST_SHARE: usize = 4;

    /// Creates a table with `entries` direction bits.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is smaller than
    /// [`BimodalTable::HYST_SHARE`].
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries >= Self::HYST_SHARE,
            "entries must be a power of two >= {}",
            Self::HYST_SHARE
        );
        BimodalTable {
            direction: vec![true; entries],
            hysteresis: vec![false; entries / Self::HYST_SHARE],
            mask: entries as u64 - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (pc_bits(pc) & self.mask) as usize
    }

    /// Predicted direction for `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        self.direction[self.index(pc)]
    }

    /// Trains toward `taken` with shared-hysteresis 2-bit dynamics.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let hidx = idx / Self::HYST_SHARE;
        let dir = self.direction[idx];
        let hyst = self.hysteresis[hidx];
        if taken == dir {
            // Correct direction: strengthen.
            self.hysteresis[hidx] = true;
        } else if hyst {
            // Strong state: weaken first.
            self.hysteresis[hidx] = false;
        } else {
            // Weak state: flip direction.
            self.direction[idx] = taken;
        }
    }

    /// Number of direction entries.
    pub fn len(&self) -> usize {
        self.direction.len()
    }

    /// Whether the table has zero entries (never; constructor enforces).
    pub fn is_empty(&self) -> bool {
        self.direction.is_empty()
    }

    /// Storage in bits: one direction bit per entry plus shared
    /// hysteresis.
    pub fn storage_bits(&self) -> u64 {
        (self.direction.len() + self.hysteresis.len()) as u64
    }
}

/// A standalone bimodal predictor (Smith 1981): the classic baseline, one
/// full 2-bit counter per entry.
///
/// ```
/// use bp_components::{Bimodal, ConditionalPredictor};
/// use bp_trace::BranchRecord;
/// let mut p = Bimodal::new(4096);
/// let r = BranchRecord::conditional(0x40, 0x20, false);
/// p.predict(r.pc);
/// p.update(&r);
/// p.predict(r.pc);
/// p.update(&r);
/// assert!(!p.predict(r.pc), "learned the not-taken bias");
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<SaturatingCounter>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Bimodal {
            counters: vec![SaturatingCounter::new(2); entries],
            mask: entries as u64 - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (pc_bits(pc) & self.mask) as usize
    }
}

impl ConditionalPredictor for Bimodal {
    fn predict(&mut self, pc: u64) -> bool {
        self.counters[self.index(pc)].is_taken()
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        let c = self.counters[self.index(pc)];
        (
            c.is_taken(),
            PredictionAttribution::new(
                ProviderComponent::Base,
                None,
                ConfidenceBucket::from_counter(c.confidence(), c.max() as u8),
            ),
        )
    }

    fn update(&mut self, record: &BranchRecord) {
        let idx = self.index(record.pc);
        self.counters[idx].train(record.taken);
    }

    fn name(&self) -> &str {
        "bimodal"
    }
}

impl StorageBudget for Bimodal {
    fn storage_items(&self) -> Vec<StorageItem> {
        vec![StorageItem::new("bimodal", self.counters.len() as u64 * 2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Bimodal::new(64);
        let r = BranchRecord::conditional(0x80, 0x40, false);
        for _ in 0..4 {
            let _ = p.predict(r.pc);
            p.update(&r);
        }
        assert!(!p.predict(r.pc));
        assert_eq!(p.storage_bits(), 128);
    }

    #[test]
    fn shared_hysteresis_dynamics() {
        let mut t = BimodalTable::new(16);
        // Initial state: direction taken, weak.
        assert!(t.predict(0));
        t.update(0, false); // weak -> flip
        assert!(!t.predict(0));
        t.update(0, false); // strengthen
        t.update(0, true); // strong -> weaken only
        assert!(!t.predict(0));
        t.update(0, true); // weak -> flip
        assert!(t.predict(0));
    }

    #[test]
    fn hysteresis_is_shared_between_neighbours() {
        let mut t = BimodalTable::new(16);
        // Entries 0..4 share one hysteresis bit. Strengthen via entry 0
        // (pc 0 -> idx 0), then observe entry 1 (pc 4 -> idx 1) needs two
        // updates to flip because the shared bit is strong.
        t.update(0 << 2, true); // strengthen shared hysteresis
        t.update(1 << 2, false); // strong: weaken only
        assert!(t.predict(1 << 2));
        t.update(1 << 2, false); // weak: flip
        assert!(!t.predict(1 << 2));
    }

    #[test]
    fn storage_accounts_shared_hysteresis() {
        let t = BimodalTable::new(1024);
        assert_eq!(t.storage_bits(), 1024 + 256);
        assert_eq!(t.len(), 1024);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn table_rejects_bad_sizes() {
        let _ = BimodalTable::new(12);
    }
}
