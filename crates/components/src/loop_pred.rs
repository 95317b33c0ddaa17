//! The loop-exit predictor (paper §2.2.1).
//!
//! For loops with a constant trip count, the loop predictor learns the
//! count and predicts the exit occurrence of the loop branch. It is the
//! "very limited form of local history" that real processors (recent Intel
//! parts, per the paper) do implement, and the wormhole predictor depends
//! on it to learn the inner-loop trip count `Ni`.

use crate::hash::pc_bits;

/// Configuration for [`LoopPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopPredictorConfig {
    /// log2 of the entry count.
    pub log_entries: usize,
    /// Tag width in bits.
    pub tag_bits: usize,
    /// Iteration counter width in bits (trip counts up to `2^bits - 1`).
    pub iter_bits: usize,
    /// Confidence ceiling: predictions are exported as high-confidence
    /// once `conf` reaches this value.
    pub conf_max: u8,
}

impl Default for LoopPredictorConfig {
    /// The paper's TAGE-SC-L-like configuration: 64 entries, 14-bit tags
    /// and iteration counters, confidence ceiling 3.
    fn default() -> Self {
        LoopPredictorConfig {
            log_entries: 6,
            tag_bits: 14,
            iter_bits: 14,
            conf_max: 3,
        }
    }
}

impl LoopPredictorConfig {
    /// A small 16-entry variant (the paper notes a 16-entry loop predictor
    /// reclaims about one third of the local-history benefit).
    pub fn small() -> Self {
        LoopPredictorConfig {
            log_entries: 4,
            ..Self::default()
        }
    }

    /// Checks the geometry, returning the first violation (the
    /// non-panicking twin of the constructor's assertions).
    pub fn check(&self) -> Result<(), crate::ConfigError> {
        if !(1..=20).contains(&self.log_entries) {
            return Err("loop log_entries out of range".into());
        }
        if !(1..=31).contains(&self.tag_bits) {
            return Err("loop tag_bits out of range".into());
        }
        if !(1..=31).contains(&self.iter_bits) {
            return Err("loop iter_bits out of range".into());
        }
        // The conf field is stored (and storage-charged) as 2 bits.
        if !(1..=3).contains(&self.conf_max) {
            return Err("loop conf_max must be in 1..=3".into());
        }
        Ok(())
    }

    /// Exact storage in bits of the built [`LoopPredictor`]
    /// (`entries × (tag + 2·iter + conf + age + dir + valid)` — the same
    /// formula as [`LoopPredictor::storage_bits`]).
    pub fn storage_bits(&self) -> u64 {
        let per_entry = self.tag_bits as u64 + 2 * self.iter_bits as u64 + 2 + 8 + 1 + 1;
        (1u64 << self.log_entries) * per_entry
    }

    /// Serializes as a [`crate::ConfigValue`] object.
    pub fn to_value(&self) -> crate::ConfigValue {
        crate::ConfigValue::map()
            .set("log_entries", crate::ConfigValue::int(self.log_entries))
            .set("tag_bits", crate::ConfigValue::int(self.tag_bits))
            .set("iter_bits", crate::ConfigValue::int(self.iter_bits))
            .set("conf_max", crate::ConfigValue::int(self.conf_max))
    }

    /// Parses from a [`crate::ConfigValue`] object (strict keys).
    pub fn from_value(value: &crate::ConfigValue) -> Result<Self, crate::ConfigError> {
        value.expect_keys(
            "loop config",
            &["log_entries", "tag_bits", "iter_bits", "conf_max"],
        )?;
        Ok(LoopPredictorConfig {
            log_entries: value.req("log_entries")?.as_usize("log_entries")?,
            tag_bits: value.req("tag_bits")?.as_usize("tag_bits")?,
            iter_bits: value.req("iter_bits")?.as_usize("iter_bits")?,
            conf_max: value.req("conf_max")?.as_u8("conf_max")?,
        })
    }
}

/// One loop prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopPrediction {
    /// Predicted direction of the loop branch.
    pub taken: bool,
    /// Whether the entry has seen enough consistent trips to be trusted
    /// to override a main predictor.
    pub high_confidence: bool,
    /// The learned trip count.
    pub trip_count: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u32,
    valid: bool,
    /// Direction taken during the loop body; the exit is `!dir`.
    dir: bool,
    /// Learned trip count (0 = not yet learned).
    trip: u32,
    /// Body occurrences observed in the current traversal.
    current: u32,
    conf: u8,
    age: u8,
}

/// A direct-mapped, tagged loop-exit predictor.
///
/// Entries are allocated under the caller's control (conventionally on a
/// misprediction of the main predictor, as in TAGE-SC-L), learn the trip
/// count of regular loops, and predict the exit occurrence once confident.
///
/// ```
/// use bp_components::{LoopPredictor, LoopPredictorConfig};
/// let mut lp = LoopPredictor::new(LoopPredictorConfig::default());
/// let pc = 0x4000;
/// // A loop that runs its body branch 3 times then exits, repeatedly.
/// for _ in 0..8 {
///     for m in 0..4 {
///         let taken = m < 3;
///         lp.update(pc, taken, true);
///     }
/// }
/// assert_eq!(lp.trip_count(pc), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    config: LoopPredictorConfig,
    index_mask: u64,
    tag_mask: u32,
    iter_cap: u32,
}

impl LoopPredictor {
    /// Creates a loop predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `log_entries` is 0 or greater than 20, or `iter_bits`
    /// exceeds 31, or `tag_bits` is 0 or exceeds 31.
    pub fn new(config: LoopPredictorConfig) -> Self {
        assert!(
            (1..=20).contains(&config.log_entries),
            "log_entries out of range"
        );
        assert!((1..=31).contains(&config.tag_bits), "tag_bits out of range");
        assert!(
            (1..=31).contains(&config.iter_bits),
            "iter_bits out of range"
        );
        LoopPredictor {
            entries: vec![LoopEntry::default(); 1 << config.log_entries],
            index_mask: (1u64 << config.log_entries) - 1,
            tag_mask: (1u32 << config.tag_bits) - 1,
            iter_cap: (1u32 << config.iter_bits) - 1,
            config,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (pc_bits(pc) & self.index_mask) as usize
    }

    #[inline]
    fn tag(&self, pc: u64) -> u32 {
        ((pc_bits(pc) >> self.config.log_entries) as u32) & self.tag_mask
    }

    /// Returns the loop prediction for `pc` if a trained entry exists.
    pub fn predict(&self, pc: u64) -> Option<LoopPrediction> {
        let e = &self.entries[self.index(pc)];
        if !e.valid || e.tag != self.tag(pc) || e.trip == 0 {
            return None;
        }
        Some(LoopPrediction {
            taken: if e.current >= e.trip {
                // All body occurrences seen: next occurrence is the exit.
                !e.dir
            } else {
                e.dir
            },
            high_confidence: e.conf >= self.config.conf_max,
            trip_count: e.trip,
        })
    }

    /// The learned trip count for the loop closed by `pc`, if the entry
    /// is trained (used by the wormhole predictor to locate `Ni`).
    pub fn trip_count(&self, pc: u64) -> Option<u32> {
        let e = &self.entries[self.index(pc)];
        (e.valid && e.tag == self.tag(pc) && e.trip != 0 && e.conf >= 1).then_some(e.trip)
    }

    /// Trains with the resolved outcome of `pc`. `may_allocate` gates
    /// entry allocation (hosts pass "main predictor mispredicted", the
    /// TAGE-SC-L policy; pass `true` unconditionally for standalone use).
    pub fn update(&mut self, pc: u64, taken: bool, may_allocate: bool) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        let conf_max = self.config.conf_max;
        let iter_cap = self.iter_cap;
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            if taken == e.dir {
                e.current += 1;
                if e.current >= iter_cap {
                    // Trip count unrepresentable: give the entry up.
                    e.valid = false;
                }
            } else if e.trip == 0 && e.current == 0 {
                // Nothing learned yet and the very first outcome opposes
                // the guessed body direction: the entry was allocated
                // mid-body with the wrong polarity. Flip it.
                e.dir = taken;
                e.current = 1;
            } else {
                // Exit observed.
                if e.trip == 0 {
                    e.trip = e.current;
                    e.conf = 1;
                } else if e.current == e.trip {
                    e.conf = (e.conf + 1).min(conf_max);
                    e.age = e.age.saturating_add(1);
                } else {
                    // Irregular trip count: retrain.
                    e.trip = e.current;
                    e.conf = 0;
                }
                e.current = 0;
            }
        } else if may_allocate {
            if e.valid && e.age > 0 {
                e.age -= 1;
            } else {
                // The mispredicted occurrence is most often the exit, so
                // the body direction is the opposite of this outcome.
                *e = LoopEntry {
                    tag,
                    valid: true,
                    dir: !taken,
                    trip: 0,
                    current: 0,
                    conf: 0,
                    age: 31,
                };
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the predictor has zero entries (never; the constructor
    /// enforces at least two).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Storage in bits per the configured field widths.
    pub fn storage_bits(&self) -> u64 {
        let per_entry = self.config.tag_bits as u64
            + 2 * self.config.iter_bits as u64
            + 2 // conf
            + 8 // age
            + 1 // dir
            + 1; // valid
        self.entries.len() as u64 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_regular_loop(lp: &mut LoopPredictor, pc: u64, trip: u32, traversals: u32) {
        for _ in 0..traversals {
            for m in 0..=trip {
                lp.update(pc, m < trip, true);
            }
        }
    }

    #[test]
    fn learns_constant_trip_count() {
        let mut lp = LoopPredictor::new(LoopPredictorConfig::default());
        train_regular_loop(&mut lp, 0x4000, 5, 10);
        assert_eq!(lp.trip_count(0x4000), Some(5));
        let p = lp.predict(0x4000).unwrap();
        assert!(p.high_confidence);
        assert_eq!(p.trip_count, 5);
    }

    #[test]
    fn predicts_exit_occurrence() {
        let mut lp = LoopPredictor::new(LoopPredictorConfig::default());
        let pc = 0x888;
        train_regular_loop(&mut lp, pc, 3, 10);
        // Fresh traversal: three body predictions then the exit.
        let mut outcomes = Vec::new();
        for m in 0..4 {
            outcomes.push(lp.predict(pc).unwrap().taken);
            lp.update(pc, m < 3, false);
        }
        assert_eq!(outcomes, vec![true, true, true, false]);
    }

    #[test]
    fn irregular_loop_loses_confidence() {
        let mut lp = LoopPredictor::new(LoopPredictorConfig::default());
        let pc = 0x40;
        train_regular_loop(&mut lp, pc, 4, 6);
        assert!(lp.predict(pc).unwrap().high_confidence);
        // Change the trip count: confidence must collapse.
        train_regular_loop(&mut lp, pc, 7, 1);
        assert!(!lp.predict(pc).is_none_or(|p| p.high_confidence));
        assert_eq!(lp.trip_count(pc), None, "needs conf >= 1 after retrain");
    }

    #[test]
    fn allocation_respects_gate_and_age() {
        let mut lp = LoopPredictor::new(LoopPredictorConfig::default());
        lp.update(0x10, false, false);
        assert!(lp.predict(0x10).is_none(), "no allocation when gated");
        // Allocate, then a conflicting pc in the same set must age it out
        // before stealing.
        train_regular_loop(&mut lp, 0x10, 2, 8);
        assert!(lp.trip_count(0x10).is_some());
        let conflicting = 0x10 + (1u64 << (2 + 6)); // same index, different tag
        for _ in 0..40 {
            lp.update(conflicting, false, true);
        }
        assert!(lp.trip_count(0x10).is_none(), "entry eventually stolen");
    }

    #[test]
    fn storage_matches_field_widths() {
        let lp = LoopPredictor::new(LoopPredictorConfig::default());
        assert_eq!(lp.storage_bits(), 64 * (14 + 28 + 2 + 8 + 1 + 1));
        assert_eq!(lp.len(), 64);
        assert!(!lp.is_empty());
        let small = LoopPredictor::new(LoopPredictorConfig::small());
        assert_eq!(small.len(), 16);
    }

    #[test]
    fn not_taken_body_loops_are_supported() {
        // A loop whose body branch is not-taken and exit is taken
        // (forward conditional exit).
        let mut lp = LoopPredictor::new(LoopPredictorConfig::default());
        let pc = 0x999;
        // First occurrence mispredicts at the exit (taken), allocating
        // with dir = !taken = false.
        for _ in 0..8 {
            for m in 0..5 {
                lp.update(pc, m == 4, true);
            }
        }
        assert_eq!(lp.trip_count(pc), Some(4));
        let p = lp.predict(pc).unwrap();
        assert!(!p.taken, "body direction is not-taken");
    }
}
