//! The neural adder-tree abstraction.
//!
//! GEHL and the TAGE statistical corrector both compute their prediction
//! as the sign of a sum of signed counters read from several tables
//! (paper Figures 5 and 6). [`SumComponent`] is one such table (or group
//! of tables); the paper's IMLI-SIC and IMLI-OH components implement this
//! trait in the `imli` crate and are appended to the host's component
//! vector — literally the paper's "a single table added to the neural
//! component".

use crate::counter::SaturatingCounter;

/// Per-branch context passed to every [`SumComponent`].
///
/// The host predictor fills this once per prediction. It carries every
/// history dimension a component might index with; a component uses the
/// fields relevant to it and ignores the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumCtx {
    /// PC of the branch being predicted.
    pub pc: u64,
    /// The main (TAGE) prediction, for agree/bias-style components.
    /// `false` for hosts without a main predictor (pure GEHL).
    pub main_pred: bool,
    /// Whether the main prediction had low confidence.
    pub main_conf_low: bool,
    /// Low 64 bits of the global direction history (bit 0 = most recent).
    pub ghist: u64,
    /// Packed path history.
    pub path: u64,
    /// Local history of the branch, when the host tracks it (0 otherwise).
    pub local_history: u32,
    /// The IMLI counter value (paper §4.1); 0 when the host does not
    /// track IMLI.
    pub imli_count: u32,
    /// `Out[N-1][M]`: outcome of this branch at the same inner iteration
    /// of the previous outer iteration (from the IMLI outer-history
    /// table).
    pub oh_same: bool,
    /// `Out[N-1][M-1]`: outcome at the previous inner iteration of the
    /// previous outer iteration (from the PIPE vector).
    pub oh_prev: bool,
}

/// A contributor to a neural summation.
///
/// Contributions follow the GEHL convention: a counter `c` contributes
/// `2c + 1`, so a single table never sums to zero and the sign is always
/// defined.
pub trait SumComponent {
    /// Reads this component's contribution for the branch in `ctx`.
    fn read(&self, ctx: &SumCtx) -> i32;

    /// Trains the component toward `taken` for the branch in `ctx`.
    fn train(&mut self, ctx: &SumCtx, taken: bool);

    /// Storage in bits.
    fn storage_bits(&self) -> u64;

    /// Short label for budget breakdowns (e.g. `"imli-sic"`).
    fn label(&self) -> &str;
}

/// A single table of signed saturating counters indexed by an arbitrary
/// hash, contributing `2c + 1` per read: the universal building block of
/// [`SumComponent`]s.
///
/// ```
/// use bp_components::SignedCounterTable;
/// let mut t = SignedCounterTable::new(128, 6);
/// t.train(7, true);
/// assert!(t.read(7) > 0);
/// assert_eq!(t.read(8), 1); // untrained entry contributes +1 (weak taken)
/// ```
#[derive(Debug, Clone)]
pub struct SignedCounterTable {
    counters: Vec<SaturatingCounter>,
    mask: u64,
    bits: u8,
}

impl SignedCounterTable {
    /// Creates a table of `entries` counters of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `bits` is outside
    /// `1..=7`.
    // bp-lint: allow-item(hot-path-alloc, "table construction is cold, once per predictor; hot reads/trains index the fixed buffer")
    pub fn new(entries: usize, bits: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        SignedCounterTable {
            counters: vec![SaturatingCounter::new(bits); entries],
            mask: entries as u64 - 1,
            bits: bits as u8,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the table has zero entries (never; constructor enforces).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Centered read: `2c + 1` for the counter selected by `index`.
    #[inline]
    pub fn read(&self, index: u64) -> i32 {
        let c = &self.counters[(index & self.mask) as usize];
        2 * i32::from(c.value()) + 1
    }

    /// Trains the selected counter toward `taken`.
    #[inline]
    pub fn train(&mut self, index: u64, taken: bool) {
        self.counters[(index & self.mask) as usize].train(taken);
    }

    /// Storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.counters.len() as u64 * u64::from(self.bits)
    }
}

/// Several same-geometry counter tables in **one** contiguous
/// allocation: table `t`, entry `j` lives at `(t << log_entries) | j`.
///
/// This is the neural-host twin of the flattened TAGE bank: GEHL, the
/// hashed perceptron, and the statistical corrector read one counter
/// from each of their tables per prediction, and a single backing
/// allocation keeps those mutually independent probes on the same
/// cache-friendly base pointer (and gives the index/gather hot path one
/// slice to gather from).
///
/// ```
/// use bp_components::CounterBank;
/// let mut b = CounterBank::new(4, 128, 6);
/// b.train(2, 9, true);
/// assert!(b.read(2, 9) > 0);
/// assert_eq!(b.read(3, 9), 1); // untrained entry contributes +1
/// ```
#[derive(Debug, Clone)]
pub struct CounterBank {
    counters: Vec<SaturatingCounter>,
    log_entries: u32,
    mask: u64,
    bits: u8,
}

impl CounterBank {
    /// Creates `tables` tables of `entries` counters of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, `tables` is zero, or
    /// `bits` is outside `1..=7`.
    // bp-lint: allow-item(hot-path-alloc, "bank construction is cold, once per predictor; hot gather/train index the fixed buffer")
    pub fn new(tables: usize, entries: usize, bits: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(tables > 0, "need at least one table");
        CounterBank {
            counters: vec![SaturatingCounter::new(bits); tables * entries],
            log_entries: entries.trailing_zeros(),
            mask: entries as u64 - 1,
            bits: bits as u8,
        }
    }

    /// Number of tables.
    pub fn tables(&self) -> usize {
        self.counters.len() >> self.log_entries
    }

    /// Entries per table.
    pub fn entries(&self) -> usize {
        1 << self.log_entries
    }

    #[inline]
    fn slot(&self, table: usize, index: u64) -> usize {
        (table << self.log_entries) | (index & self.mask) as usize
    }

    /// Raw value of the selected counter.
    #[inline]
    pub fn value(&self, table: usize, index: u64) -> i8 {
        self.counters[self.slot(table, index)].value()
    }

    /// Centered read: `2c + 1` for the counter selected by `index` in
    /// table `table` — identical semantics to
    /// [`SignedCounterTable::read`].
    #[inline]
    pub fn read(&self, table: usize, index: u64) -> i32 {
        2 * i32::from(self.value(table, index)) + 1
    }

    /// Trains the selected counter toward `taken`.
    #[inline]
    pub fn train(&mut self, table: usize, index: u64, taken: bool) {
        let slot = self.slot(table, index);
        self.counters[slot].train(taken);
    }

    /// Gathers one counter value per table: `out[t]` becomes the raw
    /// value of table `t` at `indices[t]`, for the leading
    /// `indices.len()` tables.
    ///
    /// This is the gather phase of the two-phase hot path in one place:
    /// a single up-front bounds assertion covers the whole batch, so
    /// the per-row loop is pure address math and loads — no per-row
    /// bounds checks, which per-table [`CounterBank::value`] calls pay
    /// once each.
    ///
    /// # Panics
    ///
    /// Panics if `indices` names more tables than the bank has or the
    /// lengths of `indices` and `out` differ.
    #[inline]
    pub fn gather(&self, indices: &[u64], out: &mut [i8]) {
        assert!(
            indices.len() <= self.tables() && indices.len() == out.len(),
            "gather of {} rows from a {}-table bank into {} slots",
            indices.len(),
            self.tables(),
            out.len()
        );
        for (t, (&index, out)) in indices.iter().zip(out.iter_mut()).enumerate() {
            let slot = (t << self.log_entries) | (index & self.mask) as usize;
            debug_assert!(slot < self.counters.len());
            // SAFETY: `t < tables()` by the assertion above and the
            // masked index is `< entries()`, so `slot < counters.len()`.
            *out = unsafe { self.counters.get_unchecked(slot) }.value();
        }
    }

    /// Trains one counter per table toward `taken`: table `t` at
    /// `indices[t]`, for the leading `indices.len()` tables — the
    /// batched twin of [`CounterBank::gather`] for the update path.
    ///
    /// # Panics
    ///
    /// Panics if `indices` names more tables than the bank has.
    #[inline]
    pub fn train_all(&mut self, indices: &[u64], taken: bool) {
        assert!(
            indices.len() <= self.tables(),
            "train of {} rows in a {}-table bank",
            indices.len(),
            self.tables()
        );
        for (t, &index) in indices.iter().enumerate() {
            let slot = (t << self.log_entries) | (index & self.mask) as usize;
            debug_assert!(slot < self.counters.len());
            // SAFETY: as in [`CounterBank::gather`].
            unsafe { self.counters.get_unchecked_mut(slot) }.train(taken);
        }
    }

    /// Storage in bits of one table.
    pub fn table_storage_bits(&self) -> u64 {
        (self.entries() as u64) * u64::from(self.bits)
    }

    /// Storage in bits of the whole bank.
    pub fn storage_bits(&self) -> u64 {
        self.counters.len() as u64 * u64::from(self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_read_never_zero() {
        let mut t = SignedCounterTable::new(16, 5);
        for i in 0..16u64 {
            assert_ne!(t.read(i), 0);
        }
        for _ in 0..40 {
            t.train(3, false);
        }
        assert_eq!(t.read(3), 2 * -16 + 1);
        for _ in 0..80 {
            t.train(3, true);
        }
        assert_eq!(t.read(3), 2 * 15 + 1);
    }

    #[test]
    fn index_wraps_by_mask() {
        let mut t = SignedCounterTable::new(8, 4);
        t.train(1, false);
        assert_eq!(t.read(9), t.read(1));
        assert_eq!(t.len(), 8);
        assert!(!t.is_empty());
    }

    #[test]
    fn storage_bits() {
        assert_eq!(SignedCounterTable::new(1024, 6).storage_bits(), 6144);
    }

    #[test]
    fn ctx_default_is_neutral() {
        let ctx = SumCtx::default();
        assert_eq!(ctx.imli_count, 0);
        assert!(!ctx.oh_same && !ctx.oh_prev);
    }

    #[test]
    fn bank_matches_separate_tables() {
        // A CounterBank must behave exactly like a vector of
        // independently trained SignedCounterTables.
        let mut bank = CounterBank::new(3, 64, 5);
        let mut tables: Vec<SignedCounterTable> =
            (0..3).map(|_| SignedCounterTable::new(64, 5)).collect();
        let mut x = 0xACE1u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = (x % 3) as usize;
            let idx = (x >> 8) & 0xFFFF;
            let taken = x & 1 == 1;
            assert_eq!(bank.read(t, idx), tables[t].read(idx));
            assert_eq!(i32::from(bank.value(t, idx)), (tables[t].read(idx) - 1) / 2);
            bank.train(t, idx, taken);
            tables[t].train(idx, taken);
        }
    }

    #[test]
    fn bank_geometry_and_storage() {
        let b = CounterBank::new(17, 2048, 6);
        assert_eq!(b.tables(), 17);
        assert_eq!(b.entries(), 2048);
        assert_eq!(b.table_storage_bits(), 2048 * 6);
        assert_eq!(b.storage_bits(), 17 * 2048 * 6);
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn bank_rejects_zero_tables() {
        let _ = CounterBank::new(0, 64, 6);
    }
}
