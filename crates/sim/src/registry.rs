//! The named-predictor registry: every configuration of the paper's
//! evaluation, constructible by string name — and, since the
//! config-layer refactor, *from data*: each entry is a
//! [`RegistryConfig`] value (validate / build / serialize / exact
//! storage accounting) instead of an opaque factory closure.

use bp_components::{
    BimodalConfig, ConditionalPredictor, ConfigError, ConfigValue, GShareConfig, PredictorConfig,
};
use bp_gehl::GehlConfig;
use bp_perceptron::PerceptronConfig;
use bp_tage::TageScConfig;
use bp_wormhole::{WormholeAugmented, WormholeConfig};
use std::fmt;

/// The host family a registered configuration belongs to — the grouping
/// the paper's tables use (Table 1 is the TAGE family, Table 2 the
/// GEHL/FTL family, §1's generality claim the perceptron family, plus
/// the calibration baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredictorFamily {
    /// TAGE hosts (TAGE-GSC, TAGE-SC-L and their IMLI/WH/loop variants).
    Tage,
    /// GEHL and FTL hosts.
    Gehl,
    /// Hashed-perceptron hosts.
    Perceptron,
    /// Calibration baselines (gshare, bimodal).
    Baseline,
}

impl PredictorFamily {
    /// All families, in table order.
    pub const ALL: [PredictorFamily; 4] = [
        PredictorFamily::Tage,
        PredictorFamily::Gehl,
        PredictorFamily::Perceptron,
        PredictorFamily::Baseline,
    ];
}

impl fmt::Display for PredictorFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PredictorFamily::Tage => "tage",
            PredictorFamily::Gehl => "gehl",
            PredictorFamily::Perceptron => "perceptron",
            PredictorFamily::Baseline => "baseline",
        })
    }
}

/// A host-family predictor configuration: the typed config of one of
/// the five buildable predictor kinds. This is the data the registry
/// stores per entry and the budget solver scales.
#[derive(Debug, Clone)]
pub enum FamilyConfig {
    /// A composed TAGE + statistical corrector (+ loop) predictor.
    TageSc(TageScConfig),
    /// A GEHL/FTL predictor.
    Gehl(GehlConfig),
    /// A hashed perceptron.
    Perceptron(PerceptronConfig),
    /// The bimodal baseline.
    Bimodal(BimodalConfig),
    /// The gshare baseline.
    GShare(GShareConfig),
}

impl FamilyConfig {
    /// The serialization tag (`"kind"` field) of this family.
    pub fn kind(&self) -> &'static str {
        match self {
            FamilyConfig::TageSc(_) => "tage-sc",
            FamilyConfig::Gehl(_) => "gehl",
            FamilyConfig::Perceptron(_) => "perceptron",
            FamilyConfig::Bimodal(_) => "bimodal",
            FamilyConfig::GShare(_) => "gshare",
        }
    }

    /// The registry grouping this family belongs to.
    pub fn family(&self) -> PredictorFamily {
        match self {
            FamilyConfig::TageSc(_) => PredictorFamily::Tage,
            FamilyConfig::Gehl(_) => PredictorFamily::Gehl,
            FamilyConfig::Perceptron(_) => PredictorFamily::Perceptron,
            FamilyConfig::Bimodal(_) | FamilyConfig::GShare(_) => PredictorFamily::Baseline,
        }
    }
}

impl PredictorConfig for FamilyConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            FamilyConfig::TageSc(c) => PredictorConfig::validate(c),
            FamilyConfig::Gehl(c) => PredictorConfig::validate(c),
            FamilyConfig::Perceptron(c) => PredictorConfig::validate(c),
            FamilyConfig::Bimodal(c) => PredictorConfig::validate(c),
            FamilyConfig::GShare(c) => PredictorConfig::validate(c),
        }
    }

    fn build(&self) -> Box<dyn ConditionalPredictor + Send> {
        match self {
            FamilyConfig::TageSc(c) => c.build(),
            FamilyConfig::Gehl(c) => c.build(),
            FamilyConfig::Perceptron(c) => c.build(),
            FamilyConfig::Bimodal(c) => c.build(),
            FamilyConfig::GShare(c) => c.build(),
        }
    }

    fn storage_bits_estimate(&self) -> u64 {
        match self {
            FamilyConfig::TageSc(c) => c.storage_bits_estimate(),
            FamilyConfig::Gehl(c) => c.storage_bits_estimate(),
            FamilyConfig::Perceptron(c) => c.storage_bits_estimate(),
            FamilyConfig::Bimodal(c) => c.storage_bits_estimate(),
            FamilyConfig::GShare(c) => c.storage_bits_estimate(),
        }
    }

    fn to_value(&self) -> ConfigValue {
        match self {
            FamilyConfig::TageSc(c) => c.to_value(),
            FamilyConfig::Gehl(c) => c.to_value(),
            FamilyConfig::Perceptron(c) => c.to_value(),
            FamilyConfig::Bimodal(c) => c.to_value(),
            FamilyConfig::GShare(c) => c.to_value(),
        }
    }

    /// Not directly parseable: the family tag lives one level up, in
    /// [`RegistryConfig`]'s `"kind"` field. Always errors.
    fn from_value(_value: &ConfigValue) -> Result<Self, ConfigError> {
        Err(ConfigError::new(
            "family configs parse through RegistryConfig (need the `kind` tag)",
        ))
    }
}

/// A complete registry-level predictor configuration: a host-family
/// config plus an optional wormhole side-predictor wrap (the paper's
/// §3.3 "+WH" evaluation points).
///
/// Serialized shape (the `bp` config-file format):
///
/// ```json
/// {
///   "kind": "tage-sc" | "gehl" | "perceptron" | "bimodal" | "gshare",
///   "config": { ...family fields... },
///   "wormhole": { ...optional WormholeConfig... }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// The host predictor configuration.
    pub base: FamilyConfig,
    /// Optional wormhole wrap ([`WormholeAugmented`]); the wrapper's
    /// trip-count loop predictor is always the default geometry, as in
    /// the paper's isolation of WH.
    pub wormhole: Option<WormholeConfig>,
}

impl RegistryConfig {
    /// A plain (unwrapped) host configuration.
    pub fn plain(base: FamilyConfig) -> Self {
        RegistryConfig {
            base,
            wormhole: None,
        }
    }

    /// A host wrapped with the default wormhole side predictor.
    pub fn with_wormhole(base: FamilyConfig) -> Self {
        RegistryConfig {
            base,
            wormhole: Some(WormholeConfig::default()),
        }
    }
}

impl PredictorConfig for RegistryConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        PredictorConfig::validate(&self.base)?;
        if let Some(wh) = &self.wormhole {
            wh.check()?;
        }
        Ok(())
    }

    fn build(&self) -> Box<dyn ConditionalPredictor + Send> {
        let base = self.base.build();
        match &self.wormhole {
            None => base,
            Some(wh) => Box::new(WormholeAugmented::with_config(base, *wh)),
        }
    }

    fn storage_bits_estimate(&self) -> u64 {
        let mut bits = self.base.storage_bits_estimate();
        if let Some(wh) = &self.wormhole {
            // The wrapper adds the wormhole entry array plus its
            // default-geometry trip-count loop predictor.
            bits +=
                wh.storage_bits() + bp_components::LoopPredictorConfig::default().storage_bits();
        }
        bits
    }

    fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("kind", ConfigValue::str(self.base.kind()))
            .set("config", self.base.to_value())
            .set_opt(
                "wormhole",
                self.wormhole.as_ref().map(WormholeConfig::to_value),
            )
    }

    fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys("predictor config", &["kind", "config", "wormhole"])?;
        let kind = value.req("kind")?.as_str("kind")?;
        let config = value.req("config")?;
        let base = match kind {
            "tage-sc" => FamilyConfig::TageSc(TageScConfig::from_value(config)?),
            "gehl" => FamilyConfig::Gehl(GehlConfig::from_value(config)?),
            "perceptron" => FamilyConfig::Perceptron(PerceptronConfig::from_value(config)?),
            "bimodal" => FamilyConfig::Bimodal(BimodalConfig::from_value(config)?),
            "gshare" => FamilyConfig::GShare(GShareConfig::from_value(config)?),
            other => {
                return Err(ConfigError::new(format!(
                    "unknown predictor kind `{other}` (expected tage-sc, gehl, perceptron, \
                     bimodal, or gshare)"
                )))
            }
        };
        Ok(RegistryConfig {
            base,
            wormhole: value
                .get("wormhole")
                .map(WormholeConfig::from_value)
                .transpose()?,
        })
    }
}

/// One registered predictor configuration: its registry name, host
/// family, the paper section/table it reproduces, and the typed
/// configuration value fresh instances are built from.
#[derive(Debug, Clone)]
pub struct PredictorSpec {
    /// Registry name, e.g. `"tage-gsc+imli"`.
    pub name: String,
    /// Host family (for grid filtering and table grouping).
    pub family: PredictorFamily,
    /// Where in the paper this configuration appears.
    pub paper_ref: String,
    /// The configuration fresh instances are built from.
    pub config: RegistryConfig,
}

impl PredictorSpec {
    /// Builds a spec; the family is derived from the configuration.
    pub fn new(
        name: impl Into<String>,
        paper_ref: impl Into<String>,
        config: RegistryConfig,
    ) -> Self {
        PredictorSpec {
            name: name.into(),
            family: config.base.family(),
            paper_ref: paper_ref.into(),
            config,
        }
    }

    /// Constructs a fresh, cold predictor instance.
    pub fn make(&self) -> Box<dyn ConditionalPredictor + Send> {
        self.config.build()
    }

    /// Storage budget of this configuration in bits — the exact
    /// config-level accounting ([`PredictorConfig::storage_bits_estimate`],
    /// property-tested equal to the built predictor's itemized total).
    pub fn storage_bits(&self) -> u64 {
        self.config.storage_bits_estimate()
    }

    /// Storage budget in Kbit, the unit the paper quotes.
    pub fn storage_kbit(&self) -> f64 {
        self.storage_bits() as f64 / 1024.0
    }
}

/// The canonical (paper-exact) configurations behind every registry
/// name, as named constructors over the typed config layer. These are
/// the constants the rest of the workspace sweeps, scales, and
/// serializes — `registry()` is just this table plus names.
pub mod configs {
    use super::*;
    use bp_tage::TageScConfig;

    /// `tage-gsc` — §3.2.1 base (Table 1 "Base").
    pub fn tage_gsc() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::gsc()))
    }

    /// `tage-gsc+sic` — §4.2.2 IMLI-SIC alone.
    pub fn tage_gsc_sic() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::gsc_sic_only()))
    }

    /// `tage-gsc+oh` — IMLI-OH alone (Figure 13).
    pub fn tage_gsc_oh() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::gsc_oh_only()))
    }

    /// `tage-gsc+imli` — Table 1 "+I".
    pub fn tage_gsc_imli() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::gsc_imli()))
    }

    /// `tage-gsc+wh` — §3.3 TAGE-GSC+WH.
    pub fn tage_gsc_wh() -> RegistryConfig {
        RegistryConfig::with_wormhole(FamilyConfig::TageSc(TageScConfig::gsc()))
    }

    /// `tage-gsc+sic+wh` — §4.3 WH on top of IMLI-SIC.
    pub fn tage_gsc_sic_wh() -> RegistryConfig {
        RegistryConfig::with_wormhole(FamilyConfig::TageSc(TageScConfig::gsc_sic_only()))
    }

    /// `tage-gsc+loop` — §4.2.2 loop-predictor ablation.
    pub fn tage_gsc_loop() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::gsc_loop()))
    }

    /// `tage-gsc+sic+loop` — §4.2.2 SIC + loop-predictor ablation.
    pub fn tage_gsc_sic_loop() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::gsc_sic_loop()))
    }

    /// `tage-sc-l` — Table 1 "+L".
    pub fn tage_sc_l() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::sc_l()))
    }

    /// `tage-sc-l+imli` — Table 1 "+I+L" / §5 record.
    pub fn tage_sc_l_imli() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::TageSc(TageScConfig::sc_l_imli()))
    }

    /// `gehl` — Table 2 base.
    pub fn gehl() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Gehl(GehlConfig::base()))
    }

    /// `gehl+sic` — Figures 10-11.
    pub fn gehl_sic() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Gehl(GehlConfig::sic_only()))
    }

    /// `gehl+oh` — Figures 12-13.
    pub fn gehl_oh() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Gehl(GehlConfig::oh_only()))
    }

    /// `gehl+imli` — Table 2 "+I".
    pub fn gehl_imli() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Gehl(GehlConfig::imli()))
    }

    /// `gehl+wh` — Figures 12-13 (WH).
    pub fn gehl_wh() -> RegistryConfig {
        RegistryConfig::with_wormhole(FamilyConfig::Gehl(GehlConfig::base()))
    }

    /// `gehl+sic+wh` — §4.3 WH on top of IMLI-SIC.
    pub fn gehl_sic_wh() -> RegistryConfig {
        RegistryConfig::with_wormhole(FamilyConfig::Gehl(GehlConfig::sic_only()))
    }

    /// `ftl` — Table 2 "+L".
    pub fn ftl() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Gehl(GehlConfig::ftl()))
    }

    /// `ftl+imli` — Table 2 "+I+L".
    pub fn ftl_imli() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Gehl(GehlConfig::ftl_imli()))
    }

    /// `perceptron` — §1 generality base.
    pub fn perceptron() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Perceptron(PerceptronConfig::base()))
    }

    /// `perceptron+imli` — §1 generality "+I".
    pub fn perceptron_imli() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Perceptron(PerceptronConfig::imli()))
    }

    /// `perceptron+wh` — §1 generality (WH).
    pub fn perceptron_wh() -> RegistryConfig {
        RegistryConfig::with_wormhole(FamilyConfig::Perceptron(PerceptronConfig::base()))
    }

    /// `gshare` — calibration baseline.
    pub fn gshare() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::GShare(GShareConfig::base()))
    }

    /// `bimodal` — calibration baseline.
    pub fn bimodal() -> RegistryConfig {
        RegistryConfig::plain(FamilyConfig::Bimodal(BimodalConfig::base()))
    }
}

/// The registry of named predictor configurations.
///
/// | name | paper reference |
/// |---|---|
/// | `tage-gsc` | §3.2.1 base (Table 1 "Base") |
/// | `tage-gsc+sic` | §4.2.2 IMLI-SIC alone |
/// | `tage-gsc+oh` | IMLI-OH alone (Figure 13 analysis) |
/// | `tage-gsc+imli` | Table 1 "+I" |
/// | `tage-gsc+wh` | §3.3 TAGE-GSC+WH |
/// | `tage-gsc+sic+wh` | §4.3 WH on top of IMLI-SIC |
/// | `tage-sc-l` | Table 1 "+L" |
/// | `tage-sc-l+imli` | Table 1 "+I+L" / §5 record |
/// | `gehl`, `gehl+sic`, `gehl+oh`, `gehl+imli`, `gehl+wh`, `gehl+sic+wh` | Table 2 / Figures 10-13 |
/// | `ftl`, `ftl+imli` | Table 2 "+L" / "+I+L" |
/// | `perceptron`, `perceptron+imli`, `perceptron+wh` | generality check: the §1 claim that IMLI plugs into any neural-inspired predictor |
/// | `gshare`, `bimodal` | calibration baselines |
pub fn registry() -> Vec<PredictorSpec> {
    vec![
        PredictorSpec::new(
            "tage-gsc",
            "§3.2.1 base (Table 1 \"Base\")",
            configs::tage_gsc(),
        ),
        PredictorSpec::new(
            "tage-gsc+sic",
            "§4.2.2 IMLI-SIC alone",
            configs::tage_gsc_sic(),
        ),
        PredictorSpec::new(
            "tage-gsc+oh",
            "IMLI-OH alone (Figure 13)",
            configs::tage_gsc_oh(),
        ),
        PredictorSpec::new("tage-gsc+imli", "Table 1 \"+I\"", configs::tage_gsc_imli()),
        PredictorSpec::new("tage-gsc+wh", "§3.3 TAGE-GSC+WH", configs::tage_gsc_wh()),
        PredictorSpec::new(
            "tage-gsc+sic+wh",
            "§4.3 WH on top of IMLI-SIC",
            configs::tage_gsc_sic_wh(),
        ),
        PredictorSpec::new(
            "tage-gsc+loop",
            "§4.2.2 loop-predictor ablation",
            configs::tage_gsc_loop(),
        ),
        PredictorSpec::new(
            "tage-gsc+sic+loop",
            "§4.2.2 SIC + loop-predictor ablation",
            configs::tage_gsc_sic_loop(),
        ),
        PredictorSpec::new("tage-sc-l", "Table 1 \"+L\"", configs::tage_sc_l()),
        PredictorSpec::new(
            "tage-sc-l+imli",
            "Table 1 \"+I+L\" / §5 record",
            configs::tage_sc_l_imli(),
        ),
        PredictorSpec::new("gehl", "Table 2 base", configs::gehl()),
        PredictorSpec::new("gehl+sic", "Figures 10-11", configs::gehl_sic()),
        PredictorSpec::new("gehl+oh", "Figures 12-13", configs::gehl_oh()),
        PredictorSpec::new("gehl+imli", "Table 2 \"+I\"", configs::gehl_imli()),
        PredictorSpec::new("gehl+wh", "Figures 12-13 (WH)", configs::gehl_wh()),
        PredictorSpec::new(
            "gehl+sic+wh",
            "§4.3 WH on top of IMLI-SIC",
            configs::gehl_sic_wh(),
        ),
        PredictorSpec::new("ftl", "Table 2 \"+L\"", configs::ftl()),
        PredictorSpec::new("ftl+imli", "Table 2 \"+I+L\"", configs::ftl_imli()),
        PredictorSpec::new("perceptron", "§1 generality base", configs::perceptron()),
        PredictorSpec::new(
            "perceptron+imli",
            "§1 generality \"+I\"",
            configs::perceptron_imli(),
        ),
        PredictorSpec::new(
            "perceptron+wh",
            "§1 generality (WH)",
            configs::perceptron_wh(),
        ),
        PredictorSpec::new("gshare", "calibration baseline", configs::gshare()),
        PredictorSpec::new("bimodal", "calibration baseline", configs::bimodal()),
    ]
}

/// The default configuration set of `bp report paper`: the Table 1/2
/// ablation ladders plus the WH comparison points, in table order.
pub const PAPER_REPORT_NAMES: [&str; 12] = [
    "tage-gsc",
    "tage-gsc+sic",
    "tage-gsc+imli",
    "tage-gsc+wh",
    "tage-sc-l",
    "tage-sc-l+imli",
    "gehl",
    "gehl+imli",
    "gehl+wh",
    "ftl",
    "ftl+imli",
    "perceptron+imli",
];

/// The 12 predictor configurations of the paper report
/// ([`PAPER_REPORT_NAMES`]) as resolved registry specs.
pub fn paper_report_predictors() -> Vec<PredictorSpec> {
    PAPER_REPORT_NAMES
        .iter()
        // bp-lint: allow(panic-surface, "PAPER_REPORT_NAMES is a const list checked by the paper_report_set_resolves_in_table_order test; a miss is a registry bug, not input-dependent")
        .map(|n| lookup(n).expect("paper report predictors are registered"))
        .collect()
}

/// Looks a configuration up by registry name.
///
/// ```
/// use bp_sim::{lookup, PredictorFamily};
/// let spec = lookup("tage-gsc+imli").expect("registered");
/// assert_eq!(spec.family, PredictorFamily::Tage);
/// assert!(lookup("nope").is_none());
/// ```
pub fn lookup(name: &str) -> Option<PredictorSpec> {
    registry().into_iter().find(|spec| spec.name == name)
}

/// All registered configurations of one family, in registry order.
pub fn family_members(family: PredictorFamily) -> Vec<PredictorSpec> {
    registry()
        .into_iter()
        .filter(|spec| spec.family == family)
        .collect()
}

/// All registry names, in registry order — the discoverability list
/// error messages quote.
pub fn registry_names() -> Vec<String> {
    registry().into_iter().map(|spec| spec.name).collect()
}

/// Constructs a fresh predictor by registry name, or `None` for unknown
/// names.
///
/// ```
/// use bp_sim::make_predictor;
/// let p = make_predictor("tage-gsc+imli").expect("registered");
/// assert_eq!(p.name(), "TAGE-GSC+IMLI");
/// assert!(make_predictor("nope").is_none());
/// ```
pub fn make_predictor(name: &str) -> Option<Box<dyn ConditionalPredictor + Send>> {
    lookup(name).map(|spec| spec.make())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_registered_predictors_construct_and_predict() {
        for spec in registry() {
            PredictorConfig::validate(&spec.config)
                .unwrap_or_else(|e| panic!("{} config invalid: {e}", spec.name));
            let mut p = spec.make();
            let _ = p.predict(0x4000);
            p.update(&bp_trace::BranchRecord::conditional(0x4000, 0x4100, true));
            assert!(p.storage_bits() > 0, "{} has an empty budget", spec.name);
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names = registry_names();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn storage_budgets_follow_the_paper_ordering() {
        let bits = |name: &str| lookup(name).unwrap().storage_bits();
        // Table 1 ordering: Base < +I < +L < +I+L.
        assert!(bits("tage-gsc") < bits("tage-gsc+imli"));
        assert!(bits("tage-gsc+imli") < bits("tage-sc-l"));
        assert!(bits("tage-sc-l") < bits("tage-sc-l+imli"));
        // Table 2 ordering.
        assert!(bits("gehl") < bits("gehl+imli"));
        assert!(bits("gehl+imli") < bits("ftl"));
        assert!(bits("ftl") < bits("ftl+imli"));
        // GEHL base is exactly 204 Kbit.
        assert_eq!(bits("gehl"), 204 * 1024);
        assert!((lookup("gehl").unwrap().storage_kbit() - 204.0).abs() < 1e-9);
    }

    #[test]
    fn spec_storage_matches_built_instance_exactly() {
        for spec in registry() {
            assert_eq!(
                spec.storage_bits(),
                spec.make().storage_bits(),
                "{}: config estimate diverges from built itemization",
                spec.name
            );
        }
    }

    #[test]
    fn configs_round_trip_through_text() {
        for spec in registry() {
            let text = spec.config.to_text();
            let parsed = RegistryConfig::from_text(&text)
                .unwrap_or_else(|e| panic!("{} failed to re-parse: {e}", spec.name));
            assert_eq!(
                parsed.storage_bits_estimate(),
                spec.config.storage_bits_estimate(),
                "{}",
                spec.name
            );
            assert_eq!(parsed.build().name(), spec.make().name(), "{}", spec.name);
            // Deterministic: serializing the parse reproduces the bytes.
            assert_eq!(parsed.to_text(), text, "{}", spec.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(make_predictor("gehl+wh").is_some());
        assert!(make_predictor("unknown").is_none());
        assert!(lookup("gshare").is_some());
    }

    #[test]
    fn families_partition_the_registry() {
        let total: usize = PredictorFamily::ALL
            .iter()
            .map(|&f| family_members(f).len())
            .sum();
        assert_eq!(total, registry().len());
        assert!(family_members(PredictorFamily::Tage).len() >= 10);
        assert_eq!(family_members(PredictorFamily::Baseline).len(), 2);
        assert!(family_members(PredictorFamily::Gehl)
            .iter()
            .all(|s| s.name.starts_with("gehl") || s.name.starts_with("ftl")));
    }

    #[test]
    fn paper_report_set_resolves_in_table_order() {
        let specs = paper_report_predictors();
        assert_eq!(specs.len(), PAPER_REPORT_NAMES.len());
        for (spec, name) in specs.iter().zip(PAPER_REPORT_NAMES) {
            assert_eq!(spec.name, name);
        }
    }

    #[test]
    fn specs_carry_paper_references() {
        for spec in registry() {
            assert!(
                !spec.paper_ref.is_empty(),
                "{} lacks a paper ref",
                spec.name
            );
        }
        let debug = format!("{:?}", lookup("gehl").unwrap());
        assert!(debug.contains("gehl") && debug.contains("Gehl"));
    }

    #[test]
    fn unknown_kind_and_bad_fields_error_descriptively() {
        let err = RegistryConfig::from_text("{\"kind\": \"zap\", \"config\": {}}").unwrap_err();
        assert!(err.to_string().contains("unknown predictor kind `zap`"));
        let err = RegistryConfig::from_text("{\"kind\": \"bimodal\", \"config\": {\"log\": 3}}")
            .unwrap_err();
        assert!(err.to_string().contains("unknown bimodal config field"));
    }
}
