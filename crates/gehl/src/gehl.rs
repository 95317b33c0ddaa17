//! The GEHL predictor (Seznec 2005), with IMLI and FTL extensions.

use bp_components::{
    mix64, pc_bits, sum_centered_padded, AdaptiveThreshold, ConditionalPredictor, ConfidenceBucket,
    ConfigError, ConfigValue, CounterBank, LoopPredictor, LoopPredictorConfig,
    PredictionAttribution, PredictorConfig, ProviderComponent, StorageBudget, StorageItem, SumCtx,
};
use bp_history::{HistoryState, LocalHistoryTable};
use bp_trace::BranchRecord;
use imli::{ImliConfig, ImliState};

/// Configuration of a [`Gehl`] predictor.
#[derive(Debug, Clone)]
pub struct GehlConfig {
    /// log2 of each global table's entry count.
    pub log_entries: usize,
    /// Counter width.
    pub counter_bits: usize,
    /// Number of global-history tables (table 0 is PC-indexed).
    pub num_tables: usize,
    /// Shortest non-zero history length.
    pub min_history: usize,
    /// Longest history length.
    pub max_history: usize,
    /// Path history bits.
    pub path_bits: usize,
    /// IMLI components (paper Figure 6), if any.
    pub imli: Option<ImliConfig>,
    /// Local GEHL component (the FTL configuration of §5), if any:
    /// `(history_width, num_tables)` with 256 local histories and
    /// 2^log_entries counters per table.
    pub local: Option<(usize, usize)>,
    /// Loop predictor (FTL), if any.
    pub loop_predictor: Option<LoopPredictorConfig>,
    /// Initial / maximum adaptive threshold.
    pub threshold_init: i32,
    /// Threshold ceiling.
    pub threshold_max: i32,
    /// Display name.
    pub name: String,
}

impl GehlConfig {
    /// The paper's 204 Kbit GEHL: 17 tables × 2K × 6-bit counters,
    /// maximum history length 600.
    pub fn base() -> Self {
        GehlConfig {
            log_entries: 11,
            counter_bits: 6,
            num_tables: 17,
            min_history: 2,
            max_history: 600,
            path_bits: 16,
            imli: None,
            local: None,
            loop_predictor: None,
            threshold_init: 20,
            threshold_max: 511,
            // bp-lint: allow(hot-path-alloc, "config construction is cold, once per predictor")
            name: "GEHL".to_owned(),
        }
    }

    /// GEHL + both IMLI components.
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold, once per predictor")
    pub fn imli() -> Self {
        GehlConfig {
            imli: Some(ImliConfig::default()),
            name: "GEHL+IMLI".to_owned(),
            ..Self::base()
        }
    }

    /// GEHL + IMLI-SIC only.
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold, once per predictor")
    pub fn sic_only() -> Self {
        GehlConfig {
            imli: Some(ImliConfig::sic_only()),
            name: "GEHL+SIC".to_owned(),
            ..Self::base()
        }
    }

    /// GEHL + IMLI-OH only.
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold, once per predictor")
    pub fn oh_only() -> Self {
        GehlConfig {
            imli: Some(ImliConfig::oh_only()),
            name: "GEHL+OH".to_owned(),
            ..Self::base()
        }
    }

    /// FTL (§5): GEHL + 4 local tables over 24-bit local histories + a
    /// 32-entry loop predictor.
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold; never on the per-branch path")
    pub fn ftl() -> Self {
        GehlConfig {
            local: Some((24, 4)),
            loop_predictor: Some(LoopPredictorConfig {
                log_entries: 5,
                ..LoopPredictorConfig::default()
            }),
            name: "FTL".to_owned(),
            ..Self::base()
        }
    }

    /// FTL + IMLI.
    // bp-lint: allow-item(hot-path-alloc, "config construction is cold; never on the per-branch path")
    pub fn ftl_imli() -> Self {
        GehlConfig {
            imli: Some(ImliConfig::default()),
            name: "FTL+IMLI".to_owned(),
            ..Self::ftl()
        }
    }

    /// History length of table `i` (0 for the PC-indexed table, then the
    /// geometric series `min → max`).
    pub fn history_length(&self, i: usize) -> usize {
        if i == 0 {
            return 0;
        }
        let steps = self.num_tables - 1;
        if steps == 1 {
            return self.max_history;
        }
        let ratio = (self.max_history as f64 / self.min_history as f64)
            .powf((i - 1) as f64 / (steps as f64 - 1.0));
        ((self.min_history as f64 * ratio) + 0.5) as usize
    }

    /// Checks the geometry, returning the first violation instead of
    /// panicking.
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(2..=64).contains(&self.num_tables) {
            return Err("table count must be in 2..=64".into());
        }
        if !(self.min_history >= 1 && self.max_history > self.min_history) {
            return Err("history bounds must be increasing".into());
        }
        if self.max_history > 65536 {
            return Err("max_history must be at most 65536".into());
        }
        if !(6..=16).contains(&self.log_entries) {
            return Err("log_entries out of range".into());
        }
        if !(1..=7).contains(&self.counter_bits) {
            return Err("counter width must be in 1..=7".into());
        }
        if !(1..=64).contains(&self.path_bits) {
            return Err("path_bits must be in 1..=64".into());
        }
        if !(0..=self.threshold_max).contains(&self.threshold_init) {
            return Err("threshold_init must be in 0..=threshold_max".into());
        }
        if let Some(imli) = &self.imli {
            imli.check()?;
        }
        if let Some((width, tables)) = self.local {
            if !(1..=32).contains(&width) {
                return Err("local width out of range".into());
            }
            if !(1..=64).contains(&tables) {
                return Err("local table count must be in 1..=64".into());
            }
        }
        if let Some(lp) = &self.loop_predictor {
            lp.check()?;
        }
        Ok(())
    }
}

impl PredictorConfig for GehlConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        self.check()
    }

    // bp-lint: allow-item(hot-path-alloc, "build() constructs a predictor once per run; never on the per-branch path")
    fn build(&self) -> Box<dyn ConditionalPredictor + Send> {
        Box::new(Gehl::new(self.clone()))
    }

    fn storage_bits_estimate(&self) -> u64 {
        let entries = 1u64 << self.log_entries;
        let cb = self.counter_bits as u64;
        let mut bits = self.num_tables as u64 * entries * cb;
        if let Some((width, tables)) = self.local {
            // `Gehl::new` backs the local component with 256 histories.
            bits += tables as u64 * entries * cb + 256 * width as u64;
        }
        if let Some(lp) = &self.loop_predictor {
            bits += lp.storage_bits();
        }
        if let Some(imli) = &self.imli {
            bits += imli.state_storage_bits();
        }
        bits
    }

    fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("name", ConfigValue::str(&self.name))
            .set("log_entries", ConfigValue::int(self.log_entries))
            .set("counter_bits", ConfigValue::int(self.counter_bits))
            .set("num_tables", ConfigValue::int(self.num_tables))
            .set("min_history", ConfigValue::int(self.min_history))
            .set("max_history", ConfigValue::int(self.max_history))
            .set("path_bits", ConfigValue::int(self.path_bits))
            .set_opt("imli", self.imli.as_ref().map(ImliConfig::to_value))
            .set_opt(
                "local",
                self.local.map(|(width, tables)| {
                    ConfigValue::map()
                        .set("history_width", ConfigValue::int(width))
                        .set("num_tables", ConfigValue::int(tables))
                }),
            )
            .set_opt(
                "loop",
                self.loop_predictor
                    .as_ref()
                    .map(LoopPredictorConfig::to_value),
            )
            .set(
                "threshold_init",
                ConfigValue::Int(i64::from(self.threshold_init)),
            )
            .set(
                "threshold_max",
                ConfigValue::Int(i64::from(self.threshold_max)),
            )
    }

    // bp-lint: allow-item(hot-path-alloc, "config-file parsing is cold; never on the per-branch path")
    fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys(
            "gehl config",
            &[
                "name",
                "log_entries",
                "counter_bits",
                "num_tables",
                "min_history",
                "max_history",
                "path_bits",
                "imli",
                "local",
                "loop",
                "threshold_init",
                "threshold_max",
            ],
        )?;
        let local = value
            .get("local")
            .map(|local| -> Result<(usize, usize), ConfigError> {
                local.expect_keys("gehl local config", &["history_width", "num_tables"])?;
                Ok((
                    local.req("history_width")?.as_usize("history_width")?,
                    local.req("num_tables")?.as_usize("num_tables")?,
                ))
            })
            .transpose()?;
        Ok(GehlConfig {
            name: value.req("name")?.as_str("name")?.to_owned(),
            log_entries: value.req("log_entries")?.as_usize("log_entries")?,
            counter_bits: value.req("counter_bits")?.as_usize("counter_bits")?,
            num_tables: value.req("num_tables")?.as_usize("num_tables")?,
            min_history: value.req("min_history")?.as_usize("min_history")?,
            max_history: value.req("max_history")?.as_usize("max_history")?,
            path_bits: value.req("path_bits")?.as_usize("path_bits")?,
            imli: value.get("imli").map(ImliConfig::from_value).transpose()?,
            local,
            loop_predictor: value
                .get("loop")
                .map(LoopPredictorConfig::from_value)
                .transpose()?,
            threshold_init: value.req("threshold_init")?.as_i32("threshold_init")?,
            threshold_max: value.req("threshold_max")?.as_i32("threshold_max")?,
        })
    }
}

/// Upper bound on GEHL addends: up to 64 global tables plus up to 64
/// local tables (both enforced by [`GehlConfig::check`]). Sized so the
/// per-prediction index and value buffers can live on the stack.
const GEHL_MAX_ADDENDS: usize = 64 + 64;

/// The GEHL predictor: a pure adder-tree of geometrically-indexed
/// tables; optionally extended with IMLI components (paper Figure 6)
/// and/or a local component + loop predictor (FTL).
pub struct Gehl {
    config: GehlConfig,
    tables: CounterBank,
    folds: Vec<Option<usize>>,
    /// Per-table `history_length(i)` hoisted out of the per-branch
    /// index loops: the geometric series involves a `powf`, and the
    /// original code recomputed it per table per prediction *and* per
    /// update — the single hottest constant on the GEHL profile.
    hist_lens: Vec<u64>,
    history: HistoryState,
    local_history: Option<LocalHistoryTable>,
    local_tables: Option<CounterBank>,
    imli: Option<ImliState>,
    loop_pred: Option<LoopPredictor>,
    threshold: AdaptiveThreshold,
    lookup: Option<(SumCtx, i32, bool)>,
    /// Table indices computed by the index phase of [`Gehl::predict_full`]
    /// (globals first, then locals). `update` reuses them instead of
    /// recomputing: history only advances at the *end* of `update`, so
    /// the paired predict/update pair sees identical indices.
    indices: [u64; GEHL_MAX_ADDENDS],
    last_pred: bool,
}

impl Gehl {
    /// Builds a GEHL predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GehlConfig::check`].
    // bp-lint: allow-item(hot-path-alloc, "table construction is cold; steady-state predict/update is allocation-free (tests/hotpath_allocations.rs)")
    pub fn new(config: GehlConfig) -> Self {
        // bp-lint: allow(panic-surface, "the constructor's documented # Panics contract; the validate-then-build path calls check() first")
        config.check().unwrap_or_else(|e| panic!("{e}"));
        let capacity = (config.max_history + 1).next_power_of_two().max(2048);
        let mut history = HistoryState::new(capacity, config.path_bits);
        let mut folds = Vec::with_capacity(config.num_tables);
        let mut hist_lens = Vec::with_capacity(config.num_tables);
        for i in 0..config.num_tables {
            let hlen = config.history_length(i);
            folds.push((hlen > 0).then(|| history.add_fold(hlen, config.log_entries)));
            hist_lens.push(hlen as u64);
        }
        let entries = 1usize << config.log_entries;
        Gehl {
            tables: CounterBank::new(config.num_tables, entries, config.counter_bits),
            folds,
            hist_lens,
            history,
            local_history: config
                .local
                .map(|(width, _)| LocalHistoryTable::new(256, width)),
            local_tables: config
                .local
                .map(|(_, tables)| CounterBank::new(tables, entries, config.counter_bits)),
            imli: config.imli.as_ref().map(ImliState::new),
            loop_pred: config.loop_predictor.map(LoopPredictor::new),
            threshold: AdaptiveThreshold::new(config.threshold_init, config.threshold_max),
            lookup: None,
            indices: [0; GEHL_MAX_ADDENDS],
            last_pred: false,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GehlConfig {
        &self.config
    }

    /// Read-only access to the embedded IMLI state, when configured.
    pub fn imli(&self) -> Option<&ImliState> {
        self.imli.as_ref()
    }

    #[inline]
    fn table_index(&self, i: usize, pc: u64, imli_count: u32) -> u64 {
        let mut v = pc_bits(pc) ^ ((i as u64) << 59);
        if let Some(fold) = self.folds[i] {
            let hlen = self.hist_lens[i];
            v ^= u64::from(self.history.fold(fold)) ^ (hlen << 13);
            v ^= self.history.path() & 0x3F;
        }
        // Paper §4.2: folding the IMLI counter into two of the global
        // table indices increases the SIC benefit.
        if self.imli.is_some() && (i == 2 || i == 3) {
            v ^= mix64(u64::from(imli_count)) >> 7;
        }
        v
    }

    #[inline]
    fn local_index(&self, i: usize, pc: u64, lhist: u32) -> u64 {
        let len = 6 * (i + 1); // local lengths 6, 12, 18, 24
        let hist = u64::from(lhist) & ((1u64 << len.min(32)) - 1);
        pc_bits(pc) ^ mix64(hist ^ ((i as u64 + 1) << 53))
    }

    /// Storage breakdown: (component, bits).
    // bp-lint: allow-item(hot-path-alloc, "storage accounting is reporting-time only, never on the predict/update path")
    pub fn budget_breakdown(&self) -> Vec<(String, u64)> {
        let mut parts = vec![("gehl-global".to_owned(), self.tables.storage_bits())];
        if let Some(local) = &self.local_tables {
            parts.push((
                "gehl-local".to_owned(),
                local.storage_bits()
                    + self
                        .local_history
                        .as_ref()
                        .map_or(0, LocalHistoryTable::storage_bits),
            ));
        }
        if let Some(lp) = &self.loop_pred {
            parts.push(("loop".to_owned(), lp.storage_bits()));
        }
        if let Some(imli) = &self.imli {
            parts.push(("imli".to_owned(), imli.storage_bits()));
        }
        parts
    }

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
        if let Some(lh) = &self.local_history {
            ctx.local_history = lh.history(pc);
        }
        if let Some(imli) = &self.imli {
            imli.fill_ctx(&mut ctx);
        }

        // Fused index+gather pass per bank: compute each table's index
        // (mixing and fold reads), stash it for verbatim reuse by
        // [`ConditionalPredictor::update`], and pull the raw counter
        // into a flat `i8` buffer in the same loop — at GEHL's table
        // counts, separate index/gather passes cost more in
        // store-to-load round trips through the stash than their extra
        // scheduling freedom recovers. Only the reduction is split out,
        // so it runs through the vector-friendly kernel.
        let n_global = self.tables.tables();
        let mut values = [0i8; GEHL_MAX_ADDENDS];
        for (i, value) in values[..n_global].iter_mut().enumerate() {
            let idx = self.table_index(i, pc, ctx.imli_count);
            self.indices[i] = idx;
            *value = self.tables.value(i, idx);
        }
        let n_local = self.local_tables.as_ref().map_or(0, CounterBank::tables);
        if let Some(local) = &self.local_tables {
            for (i, value) in values[n_global..n_global + n_local].iter_mut().enumerate() {
                let idx = self.local_index(i, pc, ctx.local_history);
                self.indices[n_global + i] = idx;
                *value = local.value(i, idx);
            }
        }

        // Reduce: Σ (2c+1) over the gathered counters, exactly the sum
        // the per-table `read` loop used to accumulate.
        let mut sum = sum_centered_padded(&values, n_global + n_local);
        if let Some(imli) = &self.imli {
            sum += imli.read(&ctx);
        }

        let mut pred = sum >= 0;
        let mut attribution = PredictionAttribution::new(
            ProviderComponent::Neural,
            None,
            ConfidenceBucket::from_sum(sum.abs(), self.threshold.theta()),
        );
        let mut loop_used = false;
        if let Some(lp) = &self.loop_pred {
            if let Some(loop_pred) = lp.predict(pc) {
                if loop_pred.high_confidence {
                    attribution = PredictionAttribution::new(
                        ProviderComponent::Loop,
                        Some(pred),
                        ConfidenceBucket::High,
                    );
                    pred = loop_pred.taken;
                    loop_used = true;
                }
            }
        }
        self.lookup = Some((ctx, sum, loop_used));
        self.last_pred = pred;
        (pred, attribution)
    }
}

impl ConditionalPredictor for Gehl {
    fn predict(&mut self, pc: u64) -> bool {
        self.predict_full(pc).0
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        self.predict_full(pc)
    }

    fn update(&mut self, record: &BranchRecord) {
        // bp-lint: allow(panic-surface, "CBP protocol contract: update() without a pending predict() is caller error, not data-dependent")
        let (ctx, sum, _loop_used) = self.lookup.take().expect("update without pending predict");
        let taken = record.taken;
        let mispredicted = self.last_pred != taken;
        let neural_mispredicted = (sum >= 0) != taken;
        let sum_abs = sum.abs();

        if let Some(lp) = &mut self.loop_pred {
            // Backward-branch-gated allocation: see TageSc::update.
            lp.update(record.pc, taken, mispredicted && record.is_backward());
        }

        if self.threshold.should_update(sum_abs, neural_mispredicted) {
            // Train through the indices stashed by the paired predict:
            // history has not advanced since, so they are the rows the
            // prediction actually read.
            let n_global = self.tables.tables();
            self.tables.train_all(&self.indices[..n_global], taken);
            if let Some(local) = &mut self.local_tables {
                let n_local = local.tables();
                local.train_all(&self.indices[n_global..n_global + n_local], taken);
            }
            if let Some(imli) = &mut self.imli {
                imli.train(&ctx, taken);
            }
        }
        self.threshold.adapt(sum_abs, neural_mispredicted);

        if let Some(imli) = &mut self.imli {
            imli.observe(record);
        }
        if let Some(lh) = &mut self.local_history {
            lh.update(record.pc, taken);
        }
        self.history.push(taken, record.pc);
    }

    fn flush_history(&mut self) {
        self.history.flush();
        if let Some(lh) = &mut self.local_history {
            lh.clear();
        }
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

impl StorageBudget for Gehl {
    // bp-lint: allow-item(hot-path-alloc, "storage accounting is reporting-time only, never on the predict/update path")
    fn storage_items(&self) -> Vec<StorageItem> {
        let mut items: Vec<StorageItem> = (0..self.tables.tables())
            .map(|i| {
                StorageItem::new(
                    format!("gehl/global[{i}]"),
                    self.tables.table_storage_bits(),
                )
            })
            .collect();
        if let Some(local) = &self.local_tables {
            for i in 0..local.tables() {
                items.push(StorageItem::new(
                    format!("gehl/local[{i}]"),
                    local.table_storage_bits(),
                ));
            }
        }
        if let Some(lh) = &self.local_history {
            items.push(StorageItem::new("gehl/local-history", lh.storage_bits()));
        }
        if let Some(lp) = &self.loop_pred {
            items.push(StorageItem::new("loop", lp.storage_bits()));
        }
        if let Some(imli) = &self.imli {
            items.extend(imli.storage_items());
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<F: FnMut(u64) -> bool>(
        p: &mut Gehl,
        pc: u64,
        n: u64,
        warm: u64,
        mut outcome: F,
    ) -> f64 {
        let mut correct = 0u64;
        for i in 0..n {
            let taken = outcome(i);
            let pred = p.predict(pc);
            if i >= warm {
                correct += u64::from(pred == taken);
            }
            p.update(&BranchRecord::conditional(pc, pc + 0x40, taken));
        }
        correct as f64 / (n - warm) as f64
    }

    #[test]
    fn base_budget_is_exactly_204_kbit() {
        let p = Gehl::gehl();
        assert_eq!(p.storage_bits(), 17 * 2048 * 6);
        assert_eq!(p.storage_bits(), 204 * 1024);
    }

    #[test]
    fn history_series_is_geometric() {
        let c = GehlConfig::base();
        assert_eq!(c.history_length(0), 0);
        assert_eq!(c.history_length(1), 2);
        assert_eq!(c.history_length(16), 600);
        for i in 2..17 {
            assert!(c.history_length(i) > c.history_length(i - 1));
        }
    }

    #[test]
    fn learns_biased_and_periodic_branches() {
        let mut p = Gehl::gehl();
        assert!(accuracy(&mut p, 0x100, 2000, 1000, |_| true) > 0.99);
        let mut q = Gehl::gehl();
        let acc = accuracy(&mut q, 0x100, 8000, 4000, |i| i % 5 < 2);
        assert!(acc > 0.95, "period-5 accuracy {acc:.3}");
    }

    #[test]
    fn table_2_budget_ordering() {
        let base = Gehl::gehl().storage_bits();
        let imli = Gehl::gehl_imli().storage_bits();
        let ftl = Gehl::ftl().storage_bits();
        let both = Gehl::ftl_imli().storage_bits();
        assert!(base < imli && imli < ftl && ftl < both);
        // Paper Table 2: 204 → 209 ("+I"), → 256 ("+L"), → 261 Kbits.
        assert!((imli - base) < 8 * 1024);
        assert!((ftl - base) > 40 * 1024);
    }

    #[test]
    fn imli_variant_fixes_same_iteration_branch() {
        // Outcome depends only on the inner-loop iteration index with a
        // variable trip count: global history alone struggles, IMLI-SIC
        // nails it.
        let run = |p: &mut Gehl| -> f64 {
            let body = 0x4008u64;
            let noise_pc = 0x400cu64;
            let back_pc = 0x4010u64;
            let mut correct = 0u64;
            let mut total = 0u64;
            let mut rng = 0x1234_5678u64;
            let mut step = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            // Per-iteration pattern that drifts slowly: Out[N][M] equals
            // Out[N-1][M] except for one random flip per outer iteration.
            let mut pattern: Vec<bool> = (0..32).map(|_| step() & 1 == 1).collect();
            for n in 0..600u64 {
                let trips = 8 + (step() % 24) as u32; // variable trip count
                for m in 0..trips {
                    let taken = pattern[m as usize];
                    let pred = p.predict(body);
                    if n > 150 {
                        total += 1;
                        correct += u64::from(pred == taken);
                    }
                    p.update(&BranchRecord::conditional(body, body + 0x40, taken));
                    // History-polluting random branch in the loop body.
                    let noise = step() & 1 == 1;
                    let _ = p.predict(noise_pc);
                    p.update(&BranchRecord::conditional(noise_pc, noise_pc + 0x40, noise));
                    let back_taken = m + 1 < trips;
                    let _ = p.predict(back_pc);
                    p.update(&BranchRecord::conditional(back_pc, 0x4000, back_taken));
                }
                let flip = (step() % 32) as usize;
                pattern[flip] = !pattern[flip];
            }
            correct as f64 / total as f64
        };
        let base_acc = run(&mut Gehl::gehl());
        let imli_acc = run(&mut Gehl::gehl_imli());
        assert!(
            imli_acc > base_acc + 0.02,
            "IMLI should beat base on variable-trip SIC workload: {imli_acc:.3} vs {base_acc:.3}"
        );
        assert!(imli_acc > 0.9, "IMLI accuracy {imli_acc:.3}");
    }

    #[test]
    fn names_match_labels() {
        assert_eq!(Gehl::gehl().name(), "GEHL");
        assert_eq!(Gehl::gehl_imli().name(), "GEHL+IMLI");
        assert_eq!(Gehl::ftl().name(), "FTL");
        assert_eq!(Gehl::ftl_imli().name(), "FTL+IMLI");
    }

    #[test]
    #[should_panic(expected = "update without pending predict")]
    fn update_requires_predict() {
        let mut p = Gehl::gehl();
        p.update(&BranchRecord::conditional(0x40, 0x80, true));
    }

    #[test]
    fn nonconditional_notifications_are_safe() {
        let mut p = Gehl::gehl_imli();
        p.notify_nonconditional(&BranchRecord::unconditional(0x40, 0x80));
        let _ = p.predict(0x44);
        p.update(&BranchRecord::conditional(0x44, 0x20, true));
    }
}
