//! The TAGE predictor (Seznec & Michaud 2006; Seznec 2011).

use bp_components::{
    pc_bits, BimodalTable, ConfigError, ConfigValue, SaturatingCounter, StorageItem,
};
use bp_history::HistoryState;

/// Geometry of a [`Tage`] predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 of the bimodal base table entries.
    pub base_log_entries: usize,
    /// log2 of each tagged table's entry count.
    pub tagged_log_entries: usize,
    /// Tag width per tagged table (also fixes the table count).
    pub tag_bits: Vec<usize>,
    /// Shortest and longest history lengths of the geometric series.
    pub min_history: usize,
    /// Longest history length.
    pub max_history: usize,
    /// Width of the prediction counters in tagged entries.
    pub counter_bits: usize,
    /// Width of the usefulness counters.
    pub useful_bits: usize,
    /// Path history bits mixed into indices.
    pub path_bits: usize,
    /// Period (in updates) of the graceful usefulness reset.
    pub reset_period: u64,
}

impl Default for TageConfig {
    /// A ~208 Kbit TAGE comparable to the TAGE part of the paper's
    /// 228 Kbit TAGE-GSC: 12 tagged tables of 1K entries, geometric
    /// history lengths 4→640, 8-15 bit tags, 8K-entry shared-hysteresis
    /// bimodal base.
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold; the per-branch path never builds a TageConfig")
    fn default() -> Self {
        TageConfig {
            base_log_entries: 13,
            tagged_log_entries: 10,
            tag_bits: vec![8, 8, 9, 10, 10, 11, 11, 12, 12, 13, 14, 15],
            min_history: 4,
            max_history: 640,
            counter_bits: 3,
            useful_bits: 2,
            path_bits: 16,
            reset_period: 1 << 18,
        }
    }
}

/// Compile-time bound on the number of tagged tables.
///
/// [`TageLookup`] carries per-table indices and tags in fixed-capacity
/// inline arrays sized by this constant, so the per-branch lookup is a
/// plain `Copy` value — no heap allocation anywhere on the
/// predict/update path. 16 comfortably covers every published TAGE
/// geometry (the paper's is 12 tables; CBP winners use 12-15).
pub const MAX_TAGE_TABLES: usize = 16;

impl TageConfig {
    /// Number of tagged tables.
    pub fn num_tables(&self) -> usize {
        self.tag_bits.len()
    }

    /// The geometric history length of tagged table `i`
    /// (`L(i) = min * (max/min)^(i/(n-1))`, the TAGE series).
    pub fn history_length(&self, i: usize) -> usize {
        let n = self.num_tables();
        if n == 1 {
            return self.max_history;
        }
        let ratio =
            (self.max_history as f64 / self.min_history as f64).powf(i as f64 / (n as f64 - 1.0));
        ((self.min_history as f64 * ratio) + 0.5) as usize
    }

    /// Checks the geometry, returning the first violation instead of
    /// panicking.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.tag_bits.is_empty() {
            return Err("at least one tagged table".into());
        }
        if self.tag_bits.len() > MAX_TAGE_TABLES {
            // bp-lint: allow(hot-path-alloc, "validation error path, runs once per config, never per branch")
            return Err(format!("at most {MAX_TAGE_TABLES} tagged tables").into());
        }
        if !(2..=24).contains(&self.tagged_log_entries) {
            return Err("tagged_log_entries must be in 2..=24".into());
        }
        if !(2..=24).contains(&self.base_log_entries) {
            return Err("base_log_entries must be in 2..=24".into());
        }
        if !(self.min_history >= 1 && self.max_history > self.min_history) {
            return Err("history bounds must be increasing".into());
        }
        if self.max_history > 65536 {
            return Err("max_history must be at most 65536".into());
        }
        if !self.tag_bits.iter().all(|&t| (4..=16).contains(&t)) {
            return Err("tag widths must be in 4..=16".into());
        }
        if !((2..=5).contains(&self.counter_bits) && (1..=4).contains(&self.useful_bits)) {
            return Err("counter widths out of range".into());
        }
        if !(1..=64).contains(&self.path_bits) {
            return Err("path_bits must be in 1..=64".into());
        }
        Ok(())
    }

    /// Exact storage in bits of the built [`Tage`]: the
    /// shared-hysteresis base (`2^b + 2^b/4`), every tagged bank
    /// (`2^t × (counter + useful + tag)`), and the 4-bit
    /// `use_alt_on_na` register — the same itemization as
    /// [`Tage::storage_items`], computed from the configuration alone.
    pub fn storage_bits(&self) -> u64 {
        let base = 1u64 << self.base_log_entries;
        let entries = 1u64 << self.tagged_log_entries;
        let tagged: u64 = self
            .tag_bits
            .iter()
            .map(|&tag| entries * (self.counter_bits + self.useful_bits + tag) as u64)
            .sum();
        base + base / BimodalTable::HYST_SHARE as u64 + tagged + 4
    }

    /// Serializes as a [`ConfigValue`] object.
    pub fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("base_log_entries", ConfigValue::int(self.base_log_entries))
            .set(
                "tagged_log_entries",
                ConfigValue::int(self.tagged_log_entries),
            )
            .set("tag_bits", ConfigValue::int_list(&self.tag_bits))
            .set("min_history", ConfigValue::int(self.min_history))
            .set("max_history", ConfigValue::int(self.max_history))
            .set("counter_bits", ConfigValue::int(self.counter_bits))
            .set("useful_bits", ConfigValue::int(self.useful_bits))
            .set("path_bits", ConfigValue::int(self.path_bits))
            .set("reset_period", ConfigValue::int(self.reset_period))
    }

    /// Parses from a [`ConfigValue`] object (strict keys).
    pub fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys(
            "tage config",
            &[
                "base_log_entries",
                "tagged_log_entries",
                "tag_bits",
                "min_history",
                "max_history",
                "counter_bits",
                "useful_bits",
                "path_bits",
                "reset_period",
            ],
        )?;
        Ok(TageConfig {
            base_log_entries: value
                .req("base_log_entries")?
                .as_usize("base_log_entries")?,
            tagged_log_entries: value
                .req("tagged_log_entries")?
                .as_usize("tagged_log_entries")?,
            tag_bits: value.req("tag_bits")?.as_usize_list("tag_bits")?,
            min_history: value.req("min_history")?.as_usize("min_history")?,
            max_history: value.req("max_history")?.as_usize("max_history")?,
            counter_bits: value.req("counter_bits")?.as_usize("counter_bits")?,
            useful_bits: value.req("useful_bits")?.as_usize("useful_bits")?,
            path_bits: value.req("path_bits")?.as_usize("path_bits")?,
            reset_period: value.req("reset_period")?.as_u64("reset_period")?,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct TaggedEntry {
    ctr: SaturatingCounter,
    tag: u16,
    useful: u8,
}

/// The result of a TAGE lookup, cached between `predict` and `update`.
///
/// A plain `Copy` value: the per-table indices and tags live in
/// fixed-capacity inline arrays (bounded by [`MAX_TAGE_TABLES`]), so
/// taking, caching, and returning a lookup never touches the heap —
/// this runs once per conditional branch.
#[derive(Debug, Clone, Copy)]
pub struct TageLookup {
    /// Per-table computed indices (first `num_tables` slots are live).
    indices: [u32; MAX_TAGE_TABLES],
    /// Per-table computed tags (first `num_tables` slots are live).
    tags: [u16; MAX_TAGE_TABLES],
    /// The matching table providing the prediction (`None` = bimodal).
    provider: Option<usize>,
    /// The alternate provider (next longest match; `None` = bimodal).
    alt: Option<usize>,
    /// Prediction of the provider component.
    provider_pred: bool,
    /// Prediction of the alternate component.
    alt_pred: bool,
    /// The final TAGE prediction.
    pub pred: bool,
    /// True when the provider counter is in a weak state — the confidence
    /// signal exported to the statistical corrector.
    pub low_confidence: bool,
    /// True when the provider entry looks newly allocated.
    weak_newalloc: bool,
    /// True when the final prediction came from the alternate component
    /// (the `use_alt_on_na` policy overrode a weak new allocation).
    alt_used: bool,
}

impl TageLookup {
    /// The matching tagged bank that provided the prediction (`None` =
    /// the bimodal base).
    pub fn provider(&self) -> Option<usize> {
        self.provider
    }

    /// The alternate component: the next-longest matching tagged bank,
    /// or `None` for the bimodal base.
    pub fn alt(&self) -> Option<usize> {
        self.alt
    }

    /// The provider component's own prediction.
    pub fn provider_pred(&self) -> bool {
        self.provider_pred
    }

    /// The alternate component's prediction.
    pub fn alt_pred(&self) -> bool {
        self.alt_pred
    }

    /// Whether the final prediction came from the alternate component
    /// rather than the provider (`use_alt_on_na` override of a weak new
    /// allocation).
    pub fn alt_used(&self) -> bool {
        self.alt_used
    }

    /// The bank that actually supplied the final prediction: the
    /// alternate when [`alt_used`](TageLookup::alt_used), the provider
    /// otherwise (`None` = the bimodal base).
    pub fn providing_bank(&self) -> Option<usize> {
        if self.alt_used {
            self.alt
        } else {
            self.provider
        }
    }

    /// What the losing TAGE path would have predicted: the provider's
    /// prediction when the alternate was used, the alternate's
    /// prediction otherwise.
    pub fn alternate_pred(&self) -> bool {
        if self.alt_used {
            self.provider_pred
        } else {
            self.alt_pred
        }
    }
}

/// The TAGE predictor: a bimodal base plus `N` partially tagged tables
/// indexed with geometrically increasing global-history folds; the
/// longest history match provides the prediction (PPM-like prediction by
/// partial matching).
///
/// This implementation follows the 2011 "new case for TAGE" update
/// policy: alt-on-newly-allocated tracking, usefulness counters with
/// graceful periodic reset, and single-entry allocation on misprediction
/// with deterministic pseudo-random table choice.
#[derive(Debug, Clone)]
pub struct Tage {
    config: TageConfig,
    base: BimodalTable,
    /// All tagged tables in one contiguous row-major allocation:
    /// table `i`, entry `j` lives at `(i << tagged_log_entries) | j`.
    /// One allocation instead of `N` keeps bank probes on the same
    /// cache-friendly backing and removes a pointer chase per probe.
    tables: Vec<TaggedEntry>,
    history: HistoryState,
    index_folds: Vec<usize>,
    tag_folds: Vec<(usize, usize)>,
    // Per-table constants hoisted out of the per-branch loops (the
    // geometric history_length() involves a powf; computing it per
    // branch per table dominated the original lookup profile).
    /// `log2(entries) - (i % log2(entries))`: the PC-fold shift.
    pc_shifts: [u32; MAX_TAGE_TABLES],
    /// Path-history mask for `min(history_length(i), path_bits)` bits.
    path_masks: [u64; MAX_TAGE_TABLES],
    /// `(1 << tag_bits[i]) - 1`.
    tag_masks: [u16; MAX_TAGE_TABLES],
    use_alt_on_na: SaturatingCounter,
    tick: u64,
    reset_msb: bool,
    alloc_seed: u64,
    lookup: Option<TageLookup>,
}

/// The low `bits` bits set, saturating at the full word — the guard for
/// path-history masks, where a legal 64-bit configuration would
/// otherwise hit `1u64 << 64` (shift overflow; the same bug class as
/// `FoldedHistory::set_value`'s 32-bit escape hatch).
#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl Tage {
    /// Builds a TAGE predictor from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::check`].
    // bp-lint: allow-item(hot-path-alloc, "table construction is cold; steady-state predict/update is allocation-free (tests/hotpath_allocations.rs)")
    pub fn new(config: TageConfig) -> Self {
        // bp-lint: allow(panic-surface, "the constructor's documented # Panics contract; the validate-then-build path calls check() first")
        config.check().unwrap_or_else(|e| panic!("{e}"));
        let capacity = (config.max_history + 1).next_power_of_two().max(2048);
        let mut history = HistoryState::new(capacity, config.path_bits);
        let mut index_folds = Vec::new();
        let mut tag_folds = Vec::new();
        let mut pc_shifts = [0u32; MAX_TAGE_TABLES];
        let mut path_masks = [0u64; MAX_TAGE_TABLES];
        let mut tag_masks = [0u16; MAX_TAGE_TABLES];
        let log = config.tagged_log_entries;
        for i in 0..config.num_tables() {
            let hlen = config.history_length(i);
            index_folds.push(history.add_fold(hlen, log));
            let tw = config.tag_bits[i];
            tag_folds.push((history.add_fold(hlen, tw), history.add_fold(hlen, tw - 1)));
            pc_shifts[i] = (log - (i % log)) as u32;
            path_masks[i] = low_mask(hlen.min(config.path_bits));
            tag_masks[i] = low_mask(tw) as u16;
        }
        let entry = TaggedEntry {
            ctr: SaturatingCounter::new(config.counter_bits),
            tag: 0,
            useful: 0,
        };
        Tage {
            base: BimodalTable::new(1 << config.base_log_entries),
            tables: vec![entry; config.num_tables() << log],
            history,
            index_folds,
            tag_folds,
            pc_shifts,
            path_masks,
            tag_masks,
            use_alt_on_na: SaturatingCounter::new(4),
            tick: 0,
            reset_msb: true,
            alloc_seed: 0x9E37_79B9_7F4A_7C15,
            lookup: None,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    /// Access to the shared history state (the composed predictor reads
    /// global/path history from here for its corrector components).
    pub fn history(&self) -> &HistoryState {
        &self.history
    }

    /// The entry of tagged table `table` at `index` in the flattened
    /// row-major backing.
    ///
    /// Every `index` reaching here was produced by [`Tage::table_index`]
    /// (directly or stashed in a [`TageLookup`]), which masks it to
    /// `tagged_log_entries` bits, and every `table` is `< num_tables()`,
    /// so `(table << log) | index < num_tables() << log == tables.len()`
    /// always holds. The unchecked access removes a bounds check from
    /// the probe loop of every lookup and from every update; the
    /// invariant is re-asserted in debug builds.
    #[inline]
    fn entry(&self, table: usize, index: u32) -> &TaggedEntry {
        let slot = (table << self.config.tagged_log_entries) | index as usize;
        debug_assert!(slot < self.tables.len());
        // SAFETY: `slot < tables.len()` per the masked-index invariant
        // documented above.
        unsafe { self.tables.get_unchecked(slot) }
    }

    #[inline]
    fn entry_mut(&mut self, table: usize, index: u32) -> &mut TaggedEntry {
        let slot = (table << self.config.tagged_log_entries) | index as usize;
        debug_assert!(slot < self.tables.len());
        // SAFETY: as in [`Tage::entry`].
        unsafe { self.tables.get_unchecked_mut(slot) }
    }

    /// `pcb`/`path` are `pc_bits(pc)` and the packed path history,
    /// hoisted out of the per-table loop by the caller.
    ///
    /// The path-history contribution is a two-term branchless fold plus
    /// a remainder loop, bit-identical to
    /// `fold_u64(masked_path.max(1), log.min(16))`: the generic fold
    /// XORs successive `fold_bits`-wide slices until the residue is
    /// zero, so unconditionally XORing the first two slices (extra
    /// slices of a short value are zero, and the `.max(1)` argument is
    /// nonzero so the generic loop always consumes slice zero) and then
    /// looping over whatever remains above `2 * fold_bits` computes the
    /// same value. For every registry configuration `masked_path` fits
    /// in `path_bits = 16 <= 2 * fold_bits` bits, making the remainder
    /// loop dead there — which is the point: the generic fold's
    /// data-dependent trip count sat on the index phase of all 12
    /// tables, and this form retires as straight-line XOR/shift.
    /// Reference form pinned against the fused lookup loop by the
    /// debug assertions in [`Tage::lookup`] and the fold-equivalence
    /// test, hence unused in release builds.
    #[cfg_attr(not(any(debug_assertions, test)), allow(dead_code))]
    #[inline]
    fn table_index(&self, pcb: u64, path: u64, i: usize) -> u32 {
        let log = self.config.tagged_log_entries;
        let fold_bits = log.min(16) as u32;
        let fold_mask = low_mask(fold_bits as usize);
        let x = (path & self.path_masks[i]).max(1);
        let mut path_fold = (x & fold_mask) ^ ((x >> fold_bits) & fold_mask);
        let mut rest = x >> (2 * fold_bits);
        while rest != 0 {
            path_fold ^= rest & fold_mask;
            rest >>= fold_bits;
        }
        let v = pcb
            ^ (pcb >> self.pc_shifts[i])
            ^ u64::from(self.history.fold(self.index_folds[i]))
            ^ path_fold;
        (v & low_mask(log)) as u32
    }

    /// Reference form for the fused lookup loop's debug assertions.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    #[inline]
    fn table_tag(&self, pcb: u64, i: usize) -> u16 {
        let (f1, f2) = self.tag_folds[i];
        let v = pcb ^ u64::from(self.history.fold(f1)) ^ (u64::from(self.history.fold(f2)) << 1);
        (v as u16) & self.tag_masks[i]
    }

    /// Performs the TAGE lookup for `pc` and returns the lookup record
    /// (also cached internally for the subsequent [`Tage::update`]).
    /// Allocation-free: the lookup is a `Copy` value.
    ///
    /// Two-phase: the *index phase* computes every bank's index and tag
    /// in one tight loop (the iterations are mutually independent given
    /// the current history, so they pipeline), and only then does the
    /// *probe phase* walk the banks longest-history-first — with all
    /// row addresses known up front, the bank reads issue and overlap
    /// instead of serializing behind the match scan.
    pub fn lookup(&mut self, pc: u64) -> TageLookup {
        let n = self.config.num_tables();
        let pcb = pc_bits(pc);
        let path = self.history.path();
        let mut indices = [0u32; MAX_TAGE_TABLES];
        let mut tags = [0u16; MAX_TAGE_TABLES];
        // The index phase is [`Tage::table_index`]/[`Tage::table_tag`]
        // fused into one zipped-iterator loop: per-table `Vec`/array
        // indexing in those helpers costs ~8 bounds checks per table,
        // and at 12 tables that overhead crowds the out-of-order window
        // that should be filled with the probe loads of *neighbouring
        // branches*. The debug assertion below pins the fused loop to
        // the reference helpers term by term.
        let log = self.config.tagged_log_entries;
        let fold_bits = log.min(16) as u32;
        let fold_mask = low_mask(fold_bits as usize);
        let index_mask = low_mask(log);
        let comps = self.history.folds();
        for (((((index, tag), &fid), &(tf1, tf2)), &pc_shift), (&path_mask, &tag_mask)) in indices
            [..n]
            .iter_mut()
            .zip(tags[..n].iter_mut())
            .zip(&self.index_folds)
            .zip(&self.tag_folds)
            .zip(&self.pc_shifts[..n])
            .zip(self.path_masks[..n].iter().zip(&self.tag_masks[..n]))
        {
            let x = (path & path_mask).max(1);
            let mut path_fold = (x & fold_mask) ^ ((x >> fold_bits) & fold_mask);
            let mut rest = x >> (2 * fold_bits);
            while rest != 0 {
                path_fold ^= rest & fold_mask;
                rest >>= fold_bits;
            }
            let v = pcb ^ (pcb >> pc_shift) ^ u64::from(comps[fid]) ^ path_fold;
            *index = (v & index_mask) as u32;
            let t = pcb ^ u64::from(comps[tf1]) ^ (u64::from(comps[tf2]) << 1);
            *tag = (t as u16) & tag_mask;
        }
        #[cfg(debug_assertions)]
        for i in 0..n {
            assert_eq!(indices[i], self.table_index(pcb, path, i));
            assert_eq!(tags[i], self.table_tag(pcb, i));
        }
        let mut provider = None;
        let mut alt = None;
        for i in (0..n).rev() {
            if self.entry(i, indices[i]).tag == tags[i] {
                if provider.is_none() {
                    provider = Some(i);
                } else {
                    alt = Some(i);
                    break;
                }
            }
        }
        let base_pred = self.base.predict(pc);
        let alt_pred = alt.map_or(base_pred, |i| self.entry(i, indices[i]).ctr.is_taken());
        let (provider_pred, weak_newalloc, low_confidence) = match provider {
            Some(i) => {
                let e = self.entry(i, indices[i]);
                let weak = e.ctr.confidence() == 0;
                (e.ctr.is_taken(), weak && e.useful == 0, weak)
            }
            None => (base_pred, false, false),
        };
        // Newly allocated entries are statistically less accurate than
        // the alternate prediction; use_alt_on_na adapts the choice.
        let alt_used = provider.is_some() && weak_newalloc && self.use_alt_on_na.is_taken();
        let pred = if alt_used { alt_pred } else { provider_pred };
        let lookup = TageLookup {
            indices,
            tags,
            provider,
            alt,
            provider_pred,
            alt_pred,
            pred,
            low_confidence,
            weak_newalloc,
            alt_used,
        };
        self.lookup = Some(lookup);
        lookup
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic allocation tie-breaking, as the CBP
        // reference implementations do with a small LFSR.
        let mut x = self.alloc_seed;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.alloc_seed = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Trains TAGE with the resolved outcome. Must follow a
    /// [`Tage::lookup`] for the same branch. Does **not** push history
    /// (the composed predictor owns history updates so that corrector
    /// components see a consistent view).
    ///
    /// # Panics
    ///
    /// Panics if no lookup is pending.
    pub fn update(&mut self, pc: u64, taken: bool) {
        // bp-lint: allow(panic-surface, "CBP protocol contract documented above: update() without a pending lookup() is caller error, not data-dependent")
        let lookup = self.lookup.take().expect("update without pending lookup");
        let mispredicted = lookup.pred != taken;

        // Allocation: on a misprediction, try to allocate one entry in a
        // table with longer history than the provider.
        let n = self.config.num_tables();
        let start = lookup.provider.map_or(0, |p| p + 1);
        if mispredicted && start < n {
            // Pseudo-randomly skip up to 2 candidate tables so that
            // allocations spread across history lengths.
            let skip = (self.next_rand() & 3).min(2) as usize;
            let counter_bits = self.config.counter_bits;
            let mut allocated = false;
            let mut skipped = 0;
            for i in start..n {
                let e = self.entry_mut(i, lookup.indices[i]);
                if e.useful == 0 {
                    if skipped < skip {
                        skipped += 1;
                        continue;
                    }
                    e.tag = lookup.tags[i];
                    e.ctr = SaturatingCounter::new_weak(counter_bits, taken);
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // All candidates useful: age them so the branch can
                // allocate next time.
                for i in start..n {
                    let e = self.entry_mut(i, lookup.indices[i]);
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        // use_alt_on_na adaptation: when the provider was a weak new
        // allocation and provider/alt disagree, learn which was right.
        if let Some(p) = lookup.provider {
            if lookup.weak_newalloc && lookup.provider_pred != lookup.alt_pred {
                self.use_alt_on_na.train(lookup.alt_pred == taken);
            }

            // Train the provider.
            let u_max = (1u8 << self.config.useful_bits) - 1;
            let e = self.entry_mut(p, lookup.indices[p]);
            e.ctr.train(taken);

            // Usefulness: provider differed from alt and was right.
            if lookup.provider_pred != lookup.alt_pred {
                if lookup.provider_pred == taken {
                    e.useful = (e.useful + 1).min(u_max);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }

            // When the provider is a weak new allocation, also train the
            // alternate so it does not decay into uselessness.
            if lookup.weak_newalloc {
                match lookup.alt {
                    Some(a) => self.entry_mut(a, lookup.indices[a]).ctr.train(taken),
                    None => self.base.update(pc, taken),
                }
            }
        } else {
            self.base.update(pc, taken);
        }

        // Graceful periodic reset of the usefulness bits: alternately
        // clear the MSB and LSB halves.
        self.tick += 1;
        if self.tick.is_multiple_of(self.config.reset_period) {
            let mask = if self.reset_msb {
                !(1u8 << (self.config.useful_bits - 1))
            } else {
                !1u8
            };
            self.reset_msb = !self.reset_msb;
            for e in self.tables.iter_mut() {
                e.useful &= mask;
            }
        }
    }

    /// Pushes the resolved branch into the direction/path histories.
    pub fn push_history(&mut self, pc: u64, taken: bool) {
        self.history.push(taken, pc);
    }

    /// Pushes only path history (non-conditional branches).
    pub fn push_path(&mut self, pc: u64) {
        self.history.push_path_only(pc);
    }

    /// Erases the direction/folded/path histories (a context-switch
    /// flush) while keeping every learned table — base counters, tagged
    /// entries, useful bits, the `use_alt_on_na` register. Allocation-
    /// free; see [`HistoryState::flush`] for the checkpoint interplay.
    pub fn flush_history(&mut self) {
        self.history.flush();
    }

    /// Total storage in bits (base + tagged tables + use-alt counter).
    pub fn storage_bits(&self) -> u64 {
        self.storage_items().iter().map(|i| i.bits).sum()
    }

    /// Itemized storage: the shared-hysteresis base, every tagged bank
    /// (entries × (counter + useful + tag) bits), and the `use_alt_on_na`
    /// register.
    // bp-lint: allow-item(hot-path-alloc, "storage accounting is reporting-time only, never on the predict/update path")
    pub fn storage_items(&self) -> Vec<StorageItem> {
        let mut items = vec![StorageItem::new("base", self.base.storage_bits())];
        let entries = 1u64 << self.config.tagged_log_entries;
        for i in 0..self.config.num_tables() {
            let per_entry = (self.config.counter_bits
                + self.config.useful_bits
                + self.config.tag_bits[i]) as u64;
            items.push(StorageItem::new(
                format!("tagged[{i}]"),
                entries * per_entry,
            ));
        }
        items.push(StorageItem::new("use-alt-on-na", 4));
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_branch<F: FnMut(u64) -> bool>(
        tage: &mut Tage,
        pc: u64,
        n: usize,
        mut outcome: F,
    ) -> f64 {
        let mut correct = 0usize;
        let mut counted = 0usize;
        for i in 0..n {
            let taken = outcome(i as u64);
            let lookup = tage.lookup(pc);
            if i >= n / 2 {
                counted += 1;
                correct += usize::from(lookup.pred == taken);
            }
            tage.update(pc, taken);
            tage.push_history(pc, taken);
        }
        correct as f64 / counted as f64
    }

    #[test]
    fn geometric_series_endpoints() {
        let c = TageConfig::default();
        assert_eq!(c.history_length(0), c.min_history);
        assert_eq!(c.history_length(c.num_tables() - 1), c.max_history);
        // Strictly increasing.
        for i in 1..c.num_tables() {
            assert!(c.history_length(i) > c.history_length(i - 1));
        }
    }

    #[test]
    fn learns_biased_branch() {
        let mut tage = Tage::new(TageConfig::default());
        let acc = run_branch(&mut tage, 0x400, 500, |_| true);
        assert!(acc > 0.99, "biased branch accuracy {acc}");
    }

    #[test]
    fn learns_short_periodic_pattern() {
        let mut tage = Tage::new(TageConfig::default());
        let acc = run_branch(&mut tage, 0x400, 4000, |i| i % 3 == 0);
        assert!(acc > 0.95, "period-3 accuracy {acc}");
    }

    #[test]
    fn learns_long_periodic_pattern() {
        // Period 24 needs a mid-length tagged table; bimodal alone fails.
        let mut tage = Tage::new(TageConfig::default());
        let acc = run_branch(&mut tage, 0x400, 20_000, |i| (i % 24) < 11);
        assert!(acc > 0.9, "period-24 accuracy {acc}");
    }

    #[test]
    fn learns_global_correlation_between_branches() {
        // Branch B repeats the outcome of branch A: global history nails
        // it once A's outcome is in the history.
        let mut tage = Tage::new(TageConfig::default());
        let mut correct = 0;
        let total = 4000;
        for i in 0..total {
            let a_out = (i % 7) < 4;
            let la = tage.lookup(0x100);
            let _ = la;
            tage.update(0x100, a_out);
            tage.push_history(0x100, a_out);

            let lb = tage.lookup(0x200);
            if i >= total / 2 {
                correct += usize::from(lb.pred == a_out);
            }
            tage.update(0x200, a_out);
            tage.push_history(0x200, a_out);
        }
        let acc = correct as f64 / (total / 2) as f64;
        assert!(acc > 0.97, "correlated branch accuracy {acc}");
    }

    #[test]
    fn random_branch_accuracy_is_chance() {
        // A pseudo-random branch is unpredictable; TAGE must not collapse
        // (sanity for allocation churn).
        let mut tage = Tage::new(TageConfig::default());
        let mut x = 0x12345u64;
        let acc = run_branch(&mut tage, 0x400, 4000, move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        });
        assert!(acc > 0.4 && acc < 0.6, "random branch accuracy {acc}");
    }

    #[test]
    fn storage_is_in_target_ballpark() {
        let tage = Tage::new(TageConfig::default());
        let kbits = tage.storage_bits() as f64 / 1024.0;
        // TAGE part of the 228 Kbit TAGE-GSC: roughly 190-215 Kbit.
        assert!(
            (185.0..=220.0).contains(&kbits),
            "TAGE storage {kbits:.1} Kbit out of ballpark"
        );
    }

    #[test]
    #[should_panic(expected = "update without pending lookup")]
    fn update_requires_lookup() {
        let mut tage = Tage::new(TageConfig::default());
        tage.update(0x40, true);
    }

    #[test]
    fn full_width_path_history_is_legal() {
        // Regression: `table_index` masked the path with
        // `(1 << hlen.min(path_bits)) - 1`, which is shift overflow
        // (debug panic) for a legal 64-bit path-history configuration
        // whenever a table's history length reaches 64 — the same bug
        // class PR 2 fixed in `FoldedHistory::set_value`.
        let mut tage = Tage::new(TageConfig {
            path_bits: 64,
            ..TageConfig::default()
        });
        let acc = run_branch(&mut tage, 0x400, 500, |_| true);
        assert!(acc > 0.99, "64-bit path config accuracy {acc}");
    }

    #[test]
    fn table_index_path_fold_matches_generic_fold() {
        // `table_index` inlines the path-history fold as two
        // unconditional terms plus a remainder loop; this pins it to
        // the generic `fold_u64` it replaced, under a configuration
        // (64-bit path, 4-bit fold width) where the remainder loop is
        // actually live, and under the default registry geometry where
        // it is dead.
        for config in [
            TageConfig::default(),
            TageConfig {
                path_bits: 64,
                tagged_log_entries: 4,
                base_log_entries: 4,
                ..TageConfig::default()
            },
        ] {
            let mut tage = Tage::new(config);
            let mut pc = 0x9E37_79B9u64;
            for step in 0..2048u64 {
                pc = pc.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(13);
                let pcb = pc_bits(pc);
                let path = tage.history.path();
                let log = tage.config.tagged_log_entries;
                for i in 0..tage.config.num_tables() {
                    let expected = (pcb
                        ^ (pcb >> tage.pc_shifts[i])
                        ^ u64::from(tage.history.fold(tage.index_folds[i]))
                        ^ bp_components::fold_u64((path & tage.path_masks[i]).max(1), log.min(16)))
                        & low_mask(log);
                    assert_eq!(
                        u64::from(tage.table_index(pcb, path, i)),
                        expected,
                        "table {i} at step {step}"
                    );
                }
                tage.push_history(pc, step & 3 == 0);
            }
        }
    }

    #[test]
    fn low_mask_saturates_at_word_width() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(16), 0xFFFF);
        assert_eq!(low_mask(63), u64::MAX >> 1);
        assert_eq!(low_mask(64), u64::MAX);
        assert_eq!(low_mask(80), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rejects_too_many_tables() {
        let _ = Tage::new(TageConfig {
            tag_bits: vec![8; MAX_TAGE_TABLES + 1],
            ..TageConfig::default()
        });
    }

    #[test]
    fn lookup_is_deterministic() {
        let mut a = Tage::new(TageConfig::default());
        let mut b = Tage::new(TageConfig::default());
        for i in 0..200u64 {
            let pc = 0x1000 + (i % 5) * 8;
            let taken = i % 3 != 0;
            assert_eq!(a.lookup(pc).pred, b.lookup(pc).pred, "diverged at {i}");
            a.update(pc, taken);
            b.update(pc, taken);
            a.push_history(pc, taken);
            b.push_history(pc, taken);
        }
    }
}
