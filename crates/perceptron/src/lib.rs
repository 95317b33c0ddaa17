//! The hashed perceptron predictor (Tarjan & Skadron, TACO 2005), with
//! IMLI integration.
//!
//! The IMLI paper's §1 claims its components can be added to *any*
//! neural-inspired predictor — it cites the hashed perceptron and SNAP as
//! members of the family alongside GEHL. This crate provides that third
//! host: a classic hashed perceptron (weight tables indexed by hashes of
//! the PC with global-history segments, magnitude-threshold training)
//! whose summation optionally includes the IMLI-SIC and IMLI-OH
//! components, reusing the exact same [`imli::ImliState`] plumbing as the
//! TAGE-GSC and GEHL hosts. The claims ledger's `any-neural-host` row
//! (`bp claims`) checks that IMLI improves it on both suites.

#![warn(missing_docs)]

use bp_components::{
    mix64, pc_bits, sum_centered, AdaptiveThreshold, ConditionalPredictor, ConfidenceBucket,
    ConfigError, ConfigValue, CounterBank, PredictionAttribution, PredictorConfig,
    ProviderComponent, StorageBudget, StorageItem, SumCtx,
};
use bp_history::HistoryState;
use bp_trace::BranchRecord;
use imli::{ImliConfig, ImliState};

/// Configuration of a [`HashedPerceptron`].
#[derive(Debug, Clone)]
pub struct PerceptronConfig {
    /// log2 of each weight table's entry count.
    pub log_entries: usize,
    /// Weight width in bits.
    pub weight_bits: usize,
    /// Global-history segment lengths, one weight table per entry;
    /// length 0 means a PC-only (bias) table.
    pub segments: Vec<usize>,
    /// Path history bits.
    pub path_bits: usize,
    /// IMLI components, if any.
    pub imli: Option<ImliConfig>,
    /// Initial / maximum adaptive training threshold.
    pub threshold_init: i32,
    /// Threshold ceiling.
    pub threshold_max: i32,
    /// Display name.
    pub name: String,
}

impl PerceptronConfig {
    /// A ~96 Kbit hashed perceptron: 8 tables of 2K 6-bit weights over
    /// history segments 0..256.
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold; runs once per predictor, never per branch")
    pub fn base() -> Self {
        PerceptronConfig {
            log_entries: 11,
            weight_bits: 6,
            segments: vec![0, 4, 9, 17, 33, 64, 128, 256],
            path_bits: 16,
            imli: None,
            threshold_init: 14,
            threshold_max: 255,
            name: "HP".to_owned(),
        }
    }

    /// The base perceptron plus both IMLI components (the paper's "any
    /// neural-inspired predictor" claim).
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold; runs once per predictor, never per branch")
    pub fn imli() -> Self {
        PerceptronConfig {
            imli: Some(ImliConfig::default()),
            name: "HP+IMLI".to_owned(),
            ..Self::base()
        }
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics on an empty segment list, out-of-range widths, or
    /// non-increasing non-zero segments. The non-panicking twin is
    /// [`PerceptronConfig::check`].
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            // bp-lint: allow(panic-surface, "documented legacy panicking API; the validate-then-build path uses the non-panicking check()")
            panic!("{e}");
        }
    }

    /// Checks the geometry, returning the first violation instead of
    /// panicking.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.segments.is_empty() {
            return Err("need at least one table".into());
        }
        if self.segments.len() > 64 {
            return Err("at most 64 tables".into());
        }
        if self.segments.iter().any(|&s| s > 65536) {
            return Err("segments must be at most 65536".into());
        }
        if !(6..=16).contains(&self.log_entries) {
            return Err("log_entries out of range".into());
        }
        if !(2..=7).contains(&self.weight_bits) {
            return Err("weight width out of range".into());
        }
        if !(1..=64).contains(&self.path_bits) {
            return Err("path_bits must be in 1..=64".into());
        }
        if !(0..=self.threshold_max).contains(&self.threshold_init) {
            return Err("threshold_init must be in 0..=threshold_max".into());
        }
        for w in self.segments.windows(2) {
            if w[0] >= w[1] {
                return Err("segments must be strictly increasing".into());
            }
        }
        if let Some(imli) = &self.imli {
            imli.check()?;
        }
        Ok(())
    }
}

impl PredictorConfig for PerceptronConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        self.check()
    }

    // bp-lint: allow-item(hot-path-alloc, "build() constructs a predictor once per run; the hot path is inside the built object")
    fn build(&self) -> Box<dyn ConditionalPredictor + Send> {
        Box::new(HashedPerceptron::new(self.clone()))
    }

    fn storage_bits_estimate(&self) -> u64 {
        let mut bits =
            self.segments.len() as u64 * (1u64 << self.log_entries) * self.weight_bits as u64;
        if let Some(imli) = &self.imli {
            bits += imli.state_storage_bits();
        }
        bits
    }

    fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("name", ConfigValue::str(&self.name))
            .set("log_entries", ConfigValue::int(self.log_entries))
            .set("weight_bits", ConfigValue::int(self.weight_bits))
            .set("segments", ConfigValue::int_list(&self.segments))
            .set("path_bits", ConfigValue::int(self.path_bits))
            .set_opt("imli", self.imli.as_ref().map(ImliConfig::to_value))
            .set(
                "threshold_init",
                ConfigValue::Int(i64::from(self.threshold_init)),
            )
            .set(
                "threshold_max",
                ConfigValue::Int(i64::from(self.threshold_max)),
            )
    }

    // bp-lint: allow-item(hot-path-alloc, "config-file parsing is cold, once per run")
    fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys(
            "perceptron config",
            &[
                "name",
                "log_entries",
                "weight_bits",
                "segments",
                "path_bits",
                "imli",
                "threshold_init",
                "threshold_max",
            ],
        )?;
        Ok(PerceptronConfig {
            name: value.req("name")?.as_str("name")?.to_owned(),
            log_entries: value.req("log_entries")?.as_usize("log_entries")?,
            weight_bits: value.req("weight_bits")?.as_usize("weight_bits")?,
            segments: value.req("segments")?.as_usize_list("segments")?,
            path_bits: value.req("path_bits")?.as_usize("path_bits")?,
            imli: value.get("imli").map(ImliConfig::from_value).transpose()?,
            threshold_init: value.req("threshold_init")?.as_i32("threshold_init")?,
            threshold_max: value.req("threshold_max")?.as_i32("threshold_max")?,
        })
    }
}

/// Upper bound on weight tables, enforced by [`PerceptronConfig::check`];
/// sizes the stack buffers of the two-phase prediction path.
const HP_MAX_TABLES: usize = 64;

/// The hashed perceptron predictor. Each weight table is indexed with a
/// hash of the PC and one *segment* of the global history; the
/// prediction is the sign of the summed weights; training is gated by
/// the adaptive magnitude threshold.
pub struct HashedPerceptron {
    config: PerceptronConfig,
    tables: CounterBank,
    folds: Vec<Option<usize>>,
    history: HistoryState,
    imli: Option<ImliState>,
    threshold: AdaptiveThreshold,
    lookup: Option<(SumCtx, i32)>,
    /// Indices computed by the index phase of [`HashedPerceptron::predict_full`];
    /// `update` reuses them (history only advances at the end of
    /// `update`, so the paired predict/update sees identical indices).
    indices: [u64; HP_MAX_TABLES],
    last_pred: bool,
}

impl HashedPerceptron {
    /// Builds a hashed perceptron.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PerceptronConfig::validate`].
    // bp-lint: allow-item(hot-path-alloc, "table construction is cold; steady-state predict/update is allocation-free (tests/hotpath_allocations.rs)")
    pub fn new(config: PerceptronConfig) -> Self {
        config.validate();
        let max_segment = config.segments.iter().copied().max().unwrap_or(1);
        let capacity = (max_segment + 1).next_power_of_two().max(1024);
        let mut history = HistoryState::new(capacity, config.path_bits);
        let folds = config
            .segments
            .iter()
            .map(|&len| (len > 0).then(|| history.add_fold(len, config.log_entries)))
            .collect();
        let entries = 1usize << config.log_entries;
        HashedPerceptron {
            tables: CounterBank::new(config.segments.len(), entries, config.weight_bits),
            folds,
            history,
            imli: config.imli.as_ref().map(ImliState::new),
            threshold: AdaptiveThreshold::new(config.threshold_init, config.threshold_max),
            lookup: None,
            indices: [0; HP_MAX_TABLES],
            last_pred: false,
            config,
        }
    }

    /// Constructs the base configuration.
    pub fn base() -> Self {
        Self::new(PerceptronConfig::base())
    }

    /// Constructs the IMLI-augmented configuration.
    pub fn with_imli() -> Self {
        Self::new(PerceptronConfig::imli())
    }

    /// The active configuration.
    pub fn config(&self) -> &PerceptronConfig {
        &self.config
    }

    /// Read-only access to the embedded IMLI state, when configured.
    pub fn imli(&self) -> Option<&ImliState> {
        self.imli.as_ref()
    }

    #[inline]
    fn table_index(&self, i: usize, pc: u64) -> u64 {
        let mut v = pc_bits(pc).wrapping_mul(0x9E37_79B9) ^ ((i as u64) << 55);
        if let Some(fold) = self.folds[i] {
            v ^= mix64(u64::from(self.history.fold(fold)) ^ ((i as u64) << 33));
            v ^= self.history.path() & 0x1F;
        }
        v
    }
}

impl HashedPerceptron {
    /// The shared prediction path behind both [`predict`] and
    /// [`predict_attributed`] — one flow, so they can never diverge.
    ///
    /// [`predict`]: ConditionalPredictor::predict
    /// [`predict_attributed`]: ConditionalPredictor::predict_attributed
    #[inline]
    fn predict_full(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        let mut ctx = SumCtx {
            pc,
            ghist: self.history.global().low_bits(64),
            path: self.history.path(),
            ..SumCtx::default()
        };
        if let Some(imli) = &self.imli {
            imli.fill_ctx(&mut ctx);
        }
        // Two-phase lookup: the index phase (hash mixing + fold reads)
        // fills the stashed index buffer, the gather phase pulls the
        // weights into a flat `i8` buffer, and the vector-friendly
        // [`sum_centered`] kernel reduces it — the exact
        // Σ (2w+1) the per-table `read` loop used to accumulate.
        // Measured head-to-head, the separate phases beat fusing the
        // index and gather into one loop here (with 8 independent
        // hashes the split form schedules all the table loads before
        // the reduction needs them), and the plain kernel call beats
        // the lane-padded variant at this width — 8 values fit one
        // unrolled scalar remainder.
        let n = self.tables.tables();
        for i in 0..n {
            self.indices[i] = self.table_index(i, pc);
        }
        let mut values = [0i8; HP_MAX_TABLES];
        self.tables.gather(&self.indices[..n], &mut values[..n]);
        let mut sum = sum_centered(&values[..n]);
        if let Some(imli) = &self.imli {
            sum += imli.read(&ctx);
        }
        self.lookup = Some((ctx, sum));
        self.last_pred = sum >= 0;
        (
            self.last_pred,
            PredictionAttribution::new(
                ProviderComponent::Neural,
                None,
                ConfidenceBucket::from_sum(sum.abs(), self.threshold.theta()),
            ),
        )
    }
}

impl ConditionalPredictor for HashedPerceptron {
    fn predict(&mut self, pc: u64) -> bool {
        self.predict_full(pc).0
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        self.predict_full(pc)
    }

    fn update(&mut self, record: &BranchRecord) {
        // bp-lint: allow(panic-surface, "CBP protocol contract: update() without a pending predict() is caller error, not data-dependent")
        let (ctx, sum) = self.lookup.take().expect("update without pending predict");
        let taken = record.taken;
        let mispredicted = self.last_pred != taken;
        let sum_abs = sum.abs();
        if self.threshold.should_update(sum_abs, mispredicted) {
            // Train through the indices stashed by the paired predict:
            // history has not advanced since, so they are the rows the
            // prediction actually read.
            let n = self.tables.tables();
            self.tables.train_all(&self.indices[..n], taken);
            if let Some(imli) = &mut self.imli {
                imli.train(&ctx, taken);
            }
        }
        self.threshold.adapt(sum_abs, mispredicted);
        if let Some(imli) = &mut self.imli {
            imli.observe(record);
        }
        self.history.push(taken, record.pc);
    }

    fn flush_history(&mut self) {
        self.history.flush();
        if let Some(imli) = &mut self.imli {
            imli.flush_history();
        }
    }

    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        if let Some(imli) = &mut self.imli {
            imli.observe(record);
        }
        self.history.push_path_only(record.pc);
    }

    fn name(&self) -> &str {
        &self.config.name
    }
}

impl StorageBudget for HashedPerceptron {
    // bp-lint: allow-item(hot-path-alloc, "storage accounting is reporting-time only, never on the predict/update path")
    fn storage_items(&self) -> Vec<StorageItem> {
        let mut items: Vec<StorageItem> = (0..self.tables.tables())
            .map(|i| {
                StorageItem::new(
                    format!("hp/weights[{i}] (h={})", self.config.segments[i]),
                    self.tables.table_storage_bits(),
                )
            })
            .collect();
        if let Some(imli) = &self.imli {
            items.extend(imli.storage_items());
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut HashedPerceptron, pc: u64, taken: bool) -> bool {
        let pred = p.predict(pc);
        p.update(&BranchRecord::conditional(pc, pc + 0x40, taken));
        pred
    }

    #[test]
    fn learns_biased_and_periodic_branches() {
        let mut p = HashedPerceptron::base();
        let mut correct = 0u32;
        for i in 0..6000u32 {
            let taken = i % 7 < 3;
            if drive(&mut p, 0x400, taken) == taken && i > 3000 {
                correct += 1;
            }
        }
        let acc = f64::from(correct) / 3000.0;
        assert!(acc > 0.95, "period-7 accuracy {acc:.3}");
    }

    #[test]
    fn imli_variant_fixes_same_iteration_nest() {
        // The same regime as the GEHL test: per-iteration pattern with
        // drift, variable trips, noisy body.
        let run = |mut p: HashedPerceptron| -> f64 {
            let body = 0x4008u64;
            let noise_pc = 0x400cu64;
            let back_pc = 0x4010u64;
            let mut rng = 0xFEEDu64;
            let mut step = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut pattern: Vec<bool> = (0..32).map(|_| step() & 1 == 1).collect();
            let mut correct = 0u64;
            let mut total = 0u64;
            for n in 0..500u64 {
                let trips = 8 + (step() % 24) as u32;
                for m in 0..trips {
                    let taken = pattern[m as usize];
                    let pred = p.predict(body);
                    if n > 150 {
                        total += 1;
                        correct += u64::from(pred == taken);
                    }
                    p.update(&BranchRecord::conditional(body, body + 0x40, taken));
                    let noise = step() & 1 == 1;
                    let _ = p.predict(noise_pc);
                    p.update(&BranchRecord::conditional(noise_pc, noise_pc + 0x40, noise));
                    let _ = p.predict(back_pc);
                    p.update(&BranchRecord::conditional(back_pc, 0x4000, m + 1 < trips));
                }
                let flip = (step() % 32) as usize;
                pattern[flip] = !pattern[flip];
            }
            correct as f64 / total as f64
        };
        let base = run(HashedPerceptron::base());
        let with_imli = run(HashedPerceptron::with_imli());
        assert!(
            with_imli > base + 0.02,
            "IMLI must also help the perceptron host: {with_imli:.3} vs {base:.3}"
        );
        assert!(with_imli > 0.85, "HP+IMLI accuracy {with_imli:.3}");
    }

    #[test]
    fn storage_and_names() {
        let base = HashedPerceptron::base();
        let with_imli = HashedPerceptron::with_imli();
        assert_eq!(base.name(), "HP");
        assert_eq!(with_imli.name(), "HP+IMLI");
        assert_eq!(base.storage_bits(), 8 * 2048 * 6);
        assert_eq!(
            with_imli.storage_bits() - base.storage_bits(),
            10 + 3072 + 1536 + 1024 + 16
        );
        assert!(base.imli().is_none() && with_imli.imli().is_some());
    }

    #[test]
    #[should_panic(expected = "update without pending predict")]
    fn update_requires_predict() {
        let mut p = HashedPerceptron::base();
        p.update(&BranchRecord::conditional(0x40, 0x80, true));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_segments() {
        let _ = HashedPerceptron::new(PerceptronConfig {
            segments: vec![0, 8, 4],
            ..PerceptronConfig::base()
        });
    }

    #[test]
    fn nonconditional_notifications_are_safe() {
        let mut p = HashedPerceptron::with_imli();
        p.notify_nonconditional(&BranchRecord::ret(0x10, 0x20));
        let _ = p.predict(0x44);
        p.update(&BranchRecord::conditional(0x44, 0x20, true));
    }
}
