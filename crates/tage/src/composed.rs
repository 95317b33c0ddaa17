//! The composed TAGE + SC (+ loop predictor) predictors of the paper.

use crate::sc::{LocalScConfig, ScConfig, StatisticalCorrector};
use crate::tage::{Tage, TageConfig, TageLookup};
use bp_components::{
    ConditionalPredictor, ConfidenceBucket, ConfigError, ConfigValue, LoopPredictor,
    LoopPredictorConfig, PredictionAttribution, PredictorConfig, ProviderComponent, StorageBudget,
    StorageItem,
};
use bp_history::HistoryState;
use bp_trace::BranchRecord;
use imli::{ImliCheckpoint, ImliConfig};

/// Configuration of a composed [`TageSc`] predictor.
#[derive(Debug, Clone)]
pub struct TageScConfig {
    /// TAGE geometry.
    pub tage: TageConfig,
    /// Statistical corrector geometry (including IMLI/local options).
    pub sc: ScConfig,
    /// Loop predictor (part of the "+L" configurations).
    pub loop_predictor: Option<LoopPredictorConfig>,
    /// Display name.
    pub name: String,
}

// bp-lint: allow-item(hot-path-alloc, "named-configuration construction is cold, once per predictor")
impl TageScConfig {
    /// TAGE-GSC: the paper's base global-history predictor.
    pub fn gsc() -> Self {
        TageScConfig {
            tage: TageConfig::default(),
            sc: ScConfig::default(),
            loop_predictor: None,
            name: "TAGE-GSC".to_owned(),
        }
    }

    /// TAGE-GSC + both IMLI components (Figure 5).
    pub fn gsc_imli() -> Self {
        TageScConfig {
            sc: ScConfig {
                imli: Some(ImliConfig::default()),
                imli_in_global_indices: true,
                ..ScConfig::default()
            },
            name: "TAGE-GSC+IMLI".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + IMLI-SIC only (the lower bars of Figures 8-11).
    pub fn gsc_sic_only() -> Self {
        TageScConfig {
            sc: ScConfig {
                imli: Some(ImliConfig::sic_only()),
                imli_in_global_indices: true,
                ..ScConfig::default()
            },
            name: "TAGE-GSC+SIC".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + IMLI-OH only (Figure 13's comparison against WH).
    pub fn gsc_oh_only() -> Self {
        TageScConfig {
            sc: ScConfig {
                imli: Some(ImliConfig::oh_only()),
                ..ScConfig::default()
            },
            name: "TAGE-GSC+OH".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + loop predictor only (the §4.2.2 loop-predictor-benefit
    /// ablation).
    pub fn gsc_loop() -> Self {
        TageScConfig {
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-GSC+LOOP".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-GSC + IMLI-SIC + loop predictor (the §4.2.2 ablation showing
    /// the loop predictor is nearly redundant once SIC is present).
    pub fn gsc_sic_loop() -> Self {
        TageScConfig {
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-GSC+SIC+LOOP".to_owned(),
            ..Self::gsc_sic_only()
        }
    }

    /// TAGE-SC-L: local-history SC components + loop predictor ("+L").
    pub fn sc_l() -> Self {
        TageScConfig {
            sc: ScConfig {
                local: Some(LocalScConfig::default()),
                ..ScConfig::default()
            },
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-SC-L".to_owned(),
            ..Self::gsc()
        }
    }

    /// TAGE-SC-L + IMLI ("+I+L", the §5 record configuration).
    pub fn sc_l_imli() -> Self {
        TageScConfig {
            sc: ScConfig {
                local: Some(LocalScConfig::default()),
                imli: Some(ImliConfig::default()),
                imli_in_global_indices: true,
                ..ScConfig::default()
            },
            loop_predictor: Some(LoopPredictorConfig::default()),
            name: "TAGE-SC-L+IMLI".to_owned(),
            ..Self::gsc()
        }
    }

    /// Replaces the IMLI configuration (for ablations such as the
    /// §4.3.2 delayed-update experiment).
    #[must_use]
    pub fn with_imli(mut self, imli: ImliConfig, rename: &str) -> Self {
        self.sc.imli = Some(imli);
        self.name = rename.to_owned();
        self
    }
}

// bp-lint: allow-item(hot-path-alloc, "config validation/serialization and build() are cold; never on the per-branch path")
impl PredictorConfig for TageScConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        self.tage.check()?;
        self.sc.check()?;
        if let Some(lp) = &self.loop_predictor {
            lp.check()?;
        }
        if self.name.is_empty() {
            return Err("predictor name must not be empty".into());
        }
        Ok(())
    }

    fn build(&self) -> Box<dyn ConditionalPredictor + Send> {
        Box::new(TageSc::new(self.clone()))
    }

    fn storage_bits_estimate(&self) -> u64 {
        self.tage.storage_bits()
            + self.sc.storage_bits()
            + self
                .loop_predictor
                .as_ref()
                .map_or(0, LoopPredictorConfig::storage_bits)
    }

    fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("name", ConfigValue::str(&self.name))
            .set("tage", self.tage.to_value())
            .set("sc", self.sc.to_value())
            .set_opt(
                "loop",
                self.loop_predictor
                    .as_ref()
                    .map(LoopPredictorConfig::to_value),
            )
    }

    fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys("tage-sc config", &["name", "tage", "sc", "loop"])?;
        Ok(TageScConfig {
            name: value.req("name")?.as_str("name")?.to_owned(),
            tage: crate::TageConfig::from_value(value.req("tage")?)?,
            sc: crate::ScConfig::from_value(value.req("sc")?)?,
            loop_predictor: value
                .get("loop")
                .map(LoopPredictorConfig::from_value)
                .transpose()?,
        })
    }
}

/// One variant downstream of a TAGE front: its statistical corrector,
/// optional loop predictor, display name, last prediction and global
/// history window. The lanes of one [`TageSc`] share its TAGE.
struct Lane {
    sc: StatisticalCorrector,
    loop_pred: Option<LoopPredictor>,
    name: String,
    last_pred: bool,
    ghist_window: usize,
}

impl Lane {
    fn new(config: TageScConfig) -> Self {
        let max_global = config.sc.global_lengths.iter().copied().max().unwrap_or(0);
        Lane {
            sc: StatisticalCorrector::new(config.sc),
            loop_pred: config.loop_predictor.map(LoopPredictor::new),
            name: config.name,
            last_pred: false,
            ghist_window: max_global.min(64),
        }
    }

    /// This lane's prediction from the shared TAGE lookup `tl` and the
    /// front's histories, with its attribution. The attribution is
    /// assembled from values the prediction needs anyway and optimizes
    /// away when the caller drops it.
    #[inline]
    fn predict(
        &mut self,
        pc: u64,
        tl: &TageLookup,
        history: &HistoryState,
    ) -> (bool, PredictionAttribution) {
        let ghist = history.global().low_bits(self.ghist_window);
        let sl = self
            .sc
            .predict(pc, tl.pred, tl.low_confidence, ghist, history.path());
        let mut pred = sl.pred;
        let mut attribution = if sl.pred != tl.pred {
            // The corrector reverted TAGE; the alternate is TAGE itself.
            PredictionAttribution::new(
                ProviderComponent::Corrector,
                Some(tl.pred),
                ConfidenceBucket::from_sum(sl.sum().abs(), self.sc.theta()),
            )
        } else {
            PredictionAttribution::new(
                match tl.providing_bank() {
                    Some(bank) => ProviderComponent::Tagged(bank as u8),
                    None => ProviderComponent::Base,
                },
                Some(tl.alternate_pred()),
                if tl.low_confidence {
                    ConfidenceBucket::Low
                } else {
                    ConfidenceBucket::High
                },
            )
        };
        if let Some(lp) = &self.loop_pred {
            if let Some(loop_pred) = lp.predict(pc) {
                if loop_pred.high_confidence {
                    attribution = PredictionAttribution::new(
                        ProviderComponent::Loop,
                        Some(pred),
                        ConfidenceBucket::High,
                    );
                    pred = loop_pred.taken;
                }
            }
        }
        self.last_pred = pred;
        (pred, attribution)
    }

    /// Trains this lane with the resolved branch and advances its own
    /// histories (IMLI, local).
    #[inline]
    fn update(&mut self, record: &BranchRecord) {
        let mispredicted = self.last_pred != record.taken;
        if let Some(lp) = &mut self.loop_pred {
            // Allocate only for backward (loop-closing) branches so that
            // mispredicting forward branches cannot thrash the small
            // loop table.
            lp.update(
                record.pc,
                record.taken,
                mispredicted && record.is_backward(),
            );
        }
        self.sc.update(record.taken);
        self.sc.observe(record);
    }
}

/// A TAGE predictor backed by a statistical corrector and an optional
/// loop predictor — the composed predictor family the paper evaluates
/// (TAGE-GSC, TAGE-GSC+IMLI, TAGE-SC-L, TAGE-SC-L+IMLI).
///
/// Prediction flow per the paper's Figure 4: TAGE produces the main
/// prediction and a confidence; the corrector sums its components
/// (including the TAGE vote) and may revert; a confident loop predictor
/// overrides everything.
///
/// The host is one TAGE *front* feeding one or more *lanes*
/// ([`TageSc::with_lanes`]). A lane is everything downstream of TAGE:
/// the corrector, the optional loop predictor, the name and the last
/// prediction. Variants that differ only there share one front, and
/// each lane predicts exactly as a solo host of its configuration
/// would: TAGE trains on its own prediction, its histories take only
/// outcomes and PCs, and the lanes read TAGE's lookup and history but
/// never write them. [`TageSc::new`] is the one-lane case. Through
/// [`ConditionalPredictor`] (and [`StorageBudget`]) a host is its first
/// lane; [`TageSc::predict_lanes`] reports every lane.
pub struct TageSc {
    tage: Tage,
    lanes: Vec<Lane>,
}

impl TageSc {
    /// Builds the composed predictor.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration fails validation.
    // bp-lint: allow-item(hot-path-alloc, "host construction is cold, once per predictor")
    pub fn new(config: TageScConfig) -> Self {
        TageSc::with_lanes(vec![config])
    }

    /// Builds one TAGE front feeding one lane per configuration, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, if the configurations do not all
    /// share one TAGE geometry, or if any sub-configuration fails
    /// validation.
    // bp-lint: allow-item(hot-path-alloc, "host construction is cold; steady-state predict/update is allocation-free (tests/hotpath_allocations.rs)")
    pub fn with_lanes(configs: Vec<TageScConfig>) -> Self {
        // bp-lint: allow(panic-surface, "constructor contract documented above: callers group configs by TAGE geometry first")
        let tage = configs.first().expect("at least one lane").tage.clone();
        assert!(
            configs.iter().all(|c| c.tage == tage),
            "lanes of one TAGE front must share its geometry"
        );
        TageSc {
            tage: Tage::new(tage),
            lanes: configs.into_iter().map(Lane::new).collect(),
        }
    }

    /// The number of lanes this front feeds.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The display name of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_name(&self, lane: usize) -> &str {
        &self.lanes[lane].name
    }

    /// Read-only access to the embedded TAGE.
    pub fn tage(&self) -> &Tage {
        &self.tage
    }

    /// Read-only access to the first lane's corrector.
    pub fn corrector(&self) -> &StatisticalCorrector {
        &self.lanes[0].sc
    }

    /// The first lane's IMLI speculative checkpoint, when IMLI is
    /// configured — the paper's 26-bit speculation argument, surfaced
    /// for the simulator's speculative-fetch model.
    pub fn imli_checkpoint(&self) -> Option<ImliCheckpoint> {
        self.lanes[0].sc.imli().map(|s| s.checkpoint())
    }

    /// Storage breakdown of the first lane's predictor: (component,
    /// bits).
    // bp-lint: allow-item(hot-path-alloc, "reporting helper, cold; never on the per-branch path")
    pub fn budget_breakdown(&self) -> Vec<(String, u64)> {
        let lane = &self.lanes[0];
        let mut parts = vec![
            ("tage".to_owned(), self.tage.storage_bits()),
            ("sc".to_owned(), lane.sc.storage_bits()),
        ];
        if let Some(lp) = &lane.loop_pred {
            parts.push(("loop".to_owned(), lp.storage_bits()));
        }
        parts
    }

    /// The one prediction flow: one TAGE lookup for `pc`, then every
    /// lane's prediction, handed to `sink` as `(lane, prediction,
    /// attribution)` in lane order. Behind [`predict`] and
    /// [`predict_attributed`] too, so no path can diverge; a
    /// [`ConditionalPredictor::update`] for the same branch trains the
    /// front and every lane.
    ///
    /// [`predict`]: ConditionalPredictor::predict
    /// [`predict_attributed`]: ConditionalPredictor::predict_attributed
    #[inline]
    pub fn predict_lanes(
        &mut self,
        pc: u64,
        mut sink: impl FnMut(usize, bool, PredictionAttribution),
    ) {
        let tl = self.tage.lookup(pc);
        let history = self.tage.history();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let (pred, attribution) = lane.predict(pc, &tl, history);
            sink(i, pred, attribution);
        }
    }
}

impl ConditionalPredictor for TageSc {
    fn predict(&mut self, pc: u64) -> bool {
        self.predict_attributed(pc).0
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        let mut first = (false, PredictionAttribution::unattributed());
        self.predict_lanes(pc, |lane, pred, attribution| {
            if lane == 0 {
                first = (pred, attribution);
            }
        });
        first
    }

    fn update(&mut self, record: &BranchRecord) {
        for lane in &mut self.lanes {
            lane.update(record);
        }
        self.tage.update(record.pc, record.taken);
        self.tage.push_history(record.pc, record.taken);
    }

    fn flush_history(&mut self) {
        self.tage.flush_history();
        for lane in &mut self.lanes {
            lane.sc.flush_history();
        }
    }

    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        for lane in &mut self.lanes {
            lane.sc.observe(record);
        }
        self.tage.push_path(record.pc);
    }

    fn name(&self) -> &str {
        &self.lanes[0].name
    }
}

// bp-lint: allow-item(hot-path-alloc, "storage accounting is cold; never on the per-branch path")
impl StorageBudget for TageSc {
    fn storage_items(&self) -> Vec<StorageItem> {
        let lane = &self.lanes[0];
        let mut items: Vec<StorageItem> = self
            .tage
            .storage_items()
            .into_iter()
            .map(|i| i.prefixed("tage"))
            .collect();
        items.extend(
            lane.sc
                .storage_items()
                .into_iter()
                .map(|i| i.prefixed("sc")),
        );
        if let Some(lp) = &lane.loop_pred {
            items.push(StorageItem::new("loop", lp.storage_bits()));
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<F: FnMut(u64) -> bool>(
        p: &mut TageSc,
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
    fn gsc_learns_patterns() {
        let mut p = TageSc::tage_gsc();
        let acc = accuracy(&mut p, 0x400, 6000, 3000, |i| i % 7 < 3);
        assert!(acc > 0.95, "period-7 accuracy {acc:.3}");
    }

    #[test]
    fn named_configs_have_expected_budget_ordering() {
        let gsc = TageSc::tage_gsc().storage_bits();
        let imli = TageSc::tage_gsc_imli().storage_bits();
        let scl = TageSc::tage_sc_l().storage_bits();
        let both = TageSc::tage_sc_l_imli().storage_bits();
        assert!(gsc < imli && imli < scl && scl < both);
        // Paper Table 1 shape: +I costs ~6 Kbit, +L costs ~28 Kbit.
        assert!((imli - gsc) < 8 * 1024, "+I adds {} bits", imli - gsc);
        assert!((scl - gsc) > 24 * 1024, "+L adds {} bits", scl - gsc);
        // Absolute ballpark of the paper's 228 Kbit TAGE-GSC.
        let kbits = gsc as f64 / 1024.0;
        assert!(
            (200.0..=245.0).contains(&kbits),
            "TAGE-GSC storage {kbits:.0} Kbit"
        );
    }

    #[test]
    fn loop_predictor_override_fixes_long_regular_loop() {
        // A 50-iteration constant-trip loop exceeds most history lengths'
        // reach through a bimodal-looking body; the loop predictor nails
        // the exit.
        let mut with_loop = TageSc::tage_sc_l();
        let mut trip = 0u64;
        let acc = accuracy(&mut with_loop, 0x700, 40_000, 20_000, |_| {
            trip = (trip + 1) % 50;
            trip != 0
        });
        assert!(acc > 0.99, "loop exit accuracy {acc:.4}");
    }

    #[test]
    fn imli_checkpoint_only_for_imli_configs() {
        assert!(TageSc::tage_gsc().imli_checkpoint().is_none());
        assert!(TageSc::tage_gsc_imli().imli_checkpoint().is_some());
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(TageSc::tage_gsc().name(), "TAGE-GSC");
        assert_eq!(TageSc::tage_gsc_imli().name(), "TAGE-GSC+IMLI");
        assert_eq!(TageSc::tage_sc_l().name(), "TAGE-SC-L");
        assert_eq!(TageSc::tage_sc_l_imli().name(), "TAGE-SC-L+IMLI");
        assert_eq!(TageSc::tage_gsc_sic().name(), "TAGE-GSC+SIC");
    }

    #[test]
    fn lanes_predict_exactly_like_solo_hosts() {
        let configs = [
            TageScConfig::gsc(),
            TageScConfig::sc_l_imli(),
            TageScConfig::gsc_imli(),
            TageScConfig::sc_l(),
        ];
        let mut shared = TageSc::with_lanes(configs.to_vec());
        let mut solo: Vec<TageSc> = configs.iter().cloned().map(TageSc::new).collect();
        assert_eq!(shared.lanes(), 4);
        assert_eq!(shared.lane_name(1), "TAGE-SC-L+IMLI");
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x400 + (x % 24) * 0x40;
            if i % 11 == 0 {
                let record = BranchRecord::call(pc, 0x9000);
                shared.notify_nonconditional(&record);
                solo.iter_mut()
                    .for_each(|p| p.notify_nonconditional(&record));
                continue;
            }
            let taken = (i % (3 + x % 5)) != 0;
            let mut lanes = [(false, PredictionAttribution::unattributed()); 4];
            shared.predict_lanes(pc, |lane, pred, attribution| {
                lanes[lane] = (pred, attribution)
            });
            for (p, lane) in solo.iter_mut().zip(lanes) {
                assert_eq!(p.predict_attributed(pc), lane, "branch {i}");
            }
            let record = BranchRecord::conditional(pc, pc - 0x80, taken);
            shared.update(&record);
            solo.iter_mut().for_each(|p| p.update(&record));
            if i % 7_000 == 0 {
                shared.flush_history();
                solo.iter_mut()
                    .for_each(ConditionalPredictor::flush_history);
            }
        }
    }

    #[test]
    #[should_panic(expected = "share its geometry")]
    fn lanes_must_share_the_tage_geometry() {
        let mut small = TageScConfig::gsc();
        small.tage.tagged_log_entries = 8;
        let _ = TageSc::with_lanes(vec![TageScConfig::gsc(), small]);
    }

    #[test]
    fn nonconditional_branches_do_not_crash_or_predict() {
        let mut p = TageSc::tage_gsc_imli();
        p.notify_nonconditional(&BranchRecord::call(0x10, 0x1000));
        p.notify_nonconditional(&BranchRecord::ret(0x1004, 0x14));
        let _ = p.predict(0x40);
        p.update(&BranchRecord::conditional(0x40, 0x80, true));
    }
}
