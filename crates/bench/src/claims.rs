//! The paper-claims ledger behind `bp claims`.
//!
//! Each claim of the paper's evaluation that this reproduction checks
//! is one data row of [`CLAIMS`]: the paper section, the paper's
//! wording and numbers, and a *shape* [`Check`] over this
//! reproduction's numbers: an ordering, a lowest value, a ratio under
//! a fixed tolerance, a relative gain within a factor of 2 of the
//! paper's, figures within a tolerance of the paper's, a top-k
//! membership or a per-benchmark ordering. Absolute MPKI cannot match
//! on synthetic traces, so no row compares it. A row that does not hold
//! reads as failing; its note says what is known about why.
//!
//! All MPKI comes from one engine grid: every registry configuration
//! plus the §4.3.2 delayed-update variants (delays 15, 63 and 255) over
//! CBP4 then CBP3. These are plain grid cells, so `--cache` makes a
//! warm run nearly free. The §4.4 side checks (IMLI storage, checkpoint width,
//! speculation repair) are computed directly. [`Ledger::to_markdown`]
//! and [`Ledger::to_json`] depend only on the instruction budget: the
//! same budget gives the same bytes at any worker count.

use bp_components::ConfigValue;
use bp_sim::{
    registry, speculative_imli_fidelity, CellUpdate, Engine, FamilyConfig, PredictorSpec,
    RegistryConfig, SimResult,
};
use bp_tage::TageScConfig;
use bp_workloads::{cbp3_suite, cbp4_suite, generate, BenchmarkSpec};
use imli::{ImliConfig, ImliState};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::ops::Range;
use Check::{Below, Lowest, Near, Ordered, Ratio, RelGain, TopK};
use Q::{CheckpointBits, Divergences, Gain, ImliBytes, Kbit, Mean, TopShare};

/// Instructions per benchmark `bp claims` runs by default.
pub const DEFAULT_INSTRUCTIONS: u64 = 2_000_000;

/// The §4.3.2 outer-history commit delays (in conditional branches)
/// the ledger runs beside the registry. Delay 0 is `tage-gsc+imli`.
const DELAYS: [usize; 3] = [15, 63, 255];

/// The speculation-repair check: the first 10 CBP4 benchmarks at
/// 200,000 instructions each, with a 48-record wrong-path excursion
/// after every 23rd record.
const SPECULATION_BENCHMARKS: usize = 10;
const SPECULATION_INSTRUCTIONS: u64 = 200_000;
const EXCURSION_EVERY: u64 = 23;
const EXCURSION_DEPTH: u64 = 48;

/// One of the two benchmark suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The CBP4-like suite (the paper's primary set).
    Cbp4,
    /// The CBP3-like suite.
    Cbp3,
}

impl Suite {
    /// The suite's label.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Cbp4 => "CBP4",
            Suite::Cbp3 => "CBP3",
        }
    }
}

/// A number the ledger measures. The suite-mean quantities read the
/// suite of the row they are checked on.
#[derive(Debug, Clone, PartialEq)]
pub enum Q {
    /// A configuration's mean MPKI over the suite.
    Mean(&'static str),
    /// Mean MPKI of the first configuration minus that of the second:
    /// what the second saves over the first.
    Gain(&'static str, &'static str),
    /// The share of the [`Q::Gain`] that its `k` most benefitting
    /// benchmarks account for.
    TopShare(&'static str, &'static str, usize),
    /// A configuration's exact storage in Kbit.
    Kbit(&'static str),
    /// The IMLI components' storage in bytes.
    ImliBytes,
    /// The IMLI speculative checkpoint's width in bits.
    CheckpointBits,
    /// Records after which a repaired speculative IMLI state differed
    /// from a never-speculating one.
    Divergences,
}

impl Q {
    fn format(&self, v: f64) -> String {
        match self {
            Q::Kbit(_) => format!("{v:.1}"),
            Q::ImliBytes => format!("{v:.2}"),
            Q::CheckpointBits | Q::Divergences => format!("{v:.0}"),
            _ => format!("{v:.3}"),
        }
    }
}

impl fmt::Display for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Q::Mean(c) => write!(f, "`{c}`"),
            Q::Gain(a, b) => write!(f, "gain `{a}`→`{b}`"),
            Q::TopShare(a, b, k) => write!(f, "top-{k} share of gain `{a}`→`{b}`"),
            Q::Kbit(c) => write!(f, "Kbit of `{c}`"),
            Q::ImliBytes => f.write_str("IMLI bytes"),
            Q::CheckpointBits => f.write_str("checkpoint bits"),
            Q::Divergences => f.write_str("divergences"),
        }
    }
}

/// A claim's shape check.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// The values rise strictly in the order given (lower MPKI first).
    Ordered(&'static [Q]),
    /// The first value is strictly below each of the others.
    Lowest(Q, &'static [Q]),
    /// The first value over the second lies in `[lo, hi]`.
    Ratio(Q, Q, f64, f64),
    /// The MPKI the second configuration saves over the first, as a
    /// share of the first's, lies within a factor of 2 of the paper's
    /// percentage for the suite (CBP4, CBP3).
    RelGain(&'static str, &'static str, [f64; 2]),
    /// Each value lies within a relative tolerance of the paper's
    /// figure beside it (a tolerance of 0 asks for the exact figure).
    Near(&'static [(Q, f64)], f64),
    /// Every named benchmark of the suite is among the `k` largest
    /// per-benchmark gains of the second configuration over the first.
    TopK(&'static str, &'static str, usize, &'static [&'static str]),
    /// On every named benchmark of the suite, the first configuration's
    /// MPKI is below the second's.
    Below(&'static str, &'static str, &'static [&'static str]),
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Check::Ordered(qs) => f.write_str(&join(qs.iter(), " < ")),
            Check::Lowest(q, rest) => write!(f, "{q} below {}", join(rest.iter(), ", ")),
            Check::Ratio(a, b, lo, hi) => write!(f, "{a} / {b} in [{lo}, {hi}]"),
            Check::RelGain(a, b, [p4, p3]) => write!(
                f,
                "gain `{a}`→`{b}` / `{a}` within 2× of {p4} % (CBP4), {p3} % (CBP3)"
            ),
            Check::Near(pairs, tol) => {
                let text = join(pairs.iter().map(|(q, t)| format!("{q} = {t}")), ", ");
                match *tol {
                    0.0 => f.write_str(&text),
                    tol if pairs.len() > 1 => write!(f, "{text}, each within {} %", tol * 100.0),
                    tol => write!(f, "{text} within {} %", tol * 100.0),
                }
            }
            Check::TopK(a, b, k, names) => {
                let names = names.join(", ");
                write!(f, "{names} among the top {k} gains `{a}`→`{b}`")
            }
            Check::Below(a, b, names) => write!(f, "`{a}` < `{b}` on {}", names.join(", ")),
        }
    }
}

/// One claim of the paper: a data row of [`CLAIMS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Short identifier.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub section: &'static str,
    /// The suites the check runs on, one ledger row each; none for the
    /// storage and speculation claims.
    pub suites: &'static [Suite],
    /// The paper's wording and numbers.
    pub paper: &'static str,
    /// The shape check.
    pub check: Check,
    /// What is known about the claim, in particular why a row fails.
    pub note: &'static str,
}

const BOTH: &[Suite] = &[Suite::Cbp4, Suite::Cbp3];

/// The defaults the rows of [`CLAIMS`] fill in: both suites, no note.
const ROW: Claim = Claim {
    id: "",
    section: "",
    suites: BOTH,
    paper: "",
    check: Ordered(&[]),
    note: "",
};

const PLUS_L_NOTE: &str = "Where this fails, local history adds nothing once IMLI is in: \
                           +I+L reads at or just above +I (see the `+L on top of +I` rows).";
const WH_NOTE: &str = "MM-4 is the smallest of the paper's four WH gains; here it falls below \
                       the small gains WH makes on generic benchmarks.";
const IMLI_GAIN_NOTE: &str = "The synthetic suites plant IMLI-friendly loop nests in several \
                              benchmarks, which is the likely reason (unverified) that both \
                              hosts gain about twice the paper's share here.";
const SPREAD_NOTE: &str = "Where this fails, a few planted benchmarks carry most of the \
                           local-history gain too (see Figures 14-15 below).";
const STORAGE_NOTE: &str = "Our sizes are the configs' exact bit counts. The paper does not \
                            itemize its budgets, so gaps of a few percent stay unexplained.";
const DELAY_NOTE: &str = "A 15-branch delay costs about as much (see the suite means), so the \
                          loss does not grow with the window. One likely reason, unverified: a \
                          read goes stale when an outer-loop iteration spans fewer branches than \
                          the delay (`same_iteration_reads_go_stale_past_outer_period` in \
                          `crates/core/src/outer.rs`).";
const WH_BENCHMARKS: &[&str] = &["SPEC2K6-12", "MM-4", "CLIENT02", "MM07"];

/// Every claim the ledger checks, in paper order: one row each, laid
/// out as a table.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    Claim { id: "base-order", section: "§3.2", check: Ordered(&[Mean("tage-gsc"), Mean("gehl")]),
        paper: "TAGE-GSC is more accurate than GEHL: 2.473 vs 2.864 MPKI (CBP4), 3.902 vs 4.243 (CBP3)",
        ..ROW },
    Claim { id: "wh-gain-tage", section: "§3.3", check: RelGain("tage-gsc", "tage-gsc+wh", [2.4, 2.0]),
        paper: "WH cuts TAGE-GSC's MPKI by 2.4 % (CBP4) and 2.0 % (CBP3)", ..ROW },
    Claim { id: "wh-gain-gehl", section: "§3.3", check: RelGain("gehl", "gehl+wh", [2.2, 2.4]),
        paper: "WH cuts GEHL's MPKI by 2.2 % (CBP4) and 2.4 % (CBP3)", ..ROW },
    Claim { id: "wh-benchmarks-tage", section: "§3.3", check: TopK("tage-gsc", "tage-gsc+wh", 5, WH_BENCHMARKS),
        paper: "WH's gain comes from SPEC2K6-12 and MM-4 (CBP4), CLIENT02 and MM07 (CBP3)",
        note: WH_NOTE, ..ROW },
    Claim { id: "wh-benchmarks-gehl", section: "§3.3", check: TopK("gehl", "gehl+wh", 5, WH_BENCHMARKS),
        paper: "WH's gain comes from SPEC2K6-12 and MM-4 (CBP4), CLIENT02 and MM07 (CBP3)",
        note: WH_NOTE, ..ROW },
    Claim { id: "sic-then-oh-tage", section: "§4.2.2, Figure 8",
        check: Ordered(&[Mean("tage-gsc+imli"), Mean("tage-gsc+sic"), Mean("tage-gsc")]),
        paper: "IMLI-SIC, then IMLI-OH, cut TAGE-GSC's MPKI: 2.473 → 2.373 → 2.313 (CBP4), \
                3.902 → 3.733 → 3.649 (CBP3)", ..ROW },
    Claim { id: "sic-then-oh-gehl", section: "§4.2.2, Figure 10",
        check: Ordered(&[Mean("gehl+imli"), Mean("gehl+sic"), Mean("gehl")]),
        paper: "IMLI-SIC, then IMLI-OH, cut GEHL's MPKI: 2.864 → 2.752 → 2.694 (CBP4), \
                4.243 → 4.053 → 3.958 (CBP3)", ..ROW },
    Claim { id: "imli-gain-tage", section: "§4, Figures 8-9", check: RelGain("tage-gsc", "tage-gsc+imli", [6.5, 6.5]),
        paper: "IMLI cuts TAGE-GSC's MPKI by 6.5 % (CBP4) and 6.5 % (CBP3)", note: IMLI_GAIN_NOTE, ..ROW },
    Claim { id: "imli-gain-gehl", section: "§4, Figures 10-11", check: RelGain("gehl", "gehl+imli", [5.9, 6.7]),
        paper: "IMLI cuts GEHL's MPKI by 5.9 % (CBP4) and 6.7 % (CBP3)", note: IMLI_GAIN_NOTE, ..ROW },
    Claim { id: "loop-redundancy", section: "§4.2.2",
        check: Ordered(&[Gain("tage-gsc+sic", "tage-gsc+sic+loop"), Gain("tage-gsc", "tage-gsc+loop")]),
        paper: "With IMLI-SIC the loop predictor's benefit shrinks: 0.034 → 0.013 MPKI (CBP4), \
                0.094 → 0.010 (CBP3)", ..ROW },
    Claim { id: "oh-vs-wh-tage", section: "§4.3", check: Ordered(&[Mean("tage-gsc+imli"), Mean("tage-gsc+sic+wh")]),
        paper: "On TAGE-GSC, SIC+OH beats SIC+WH: 2.313 vs 2.323 MPKI (CBP4), 3.649 vs 3.675 (CBP3)",
        ..ROW },
    Claim { id: "oh-vs-wh-gehl", section: "§4.3", check: Ordered(&[Mean("gehl+imli"), Mean("gehl+sic+wh")]),
        paper: "On GEHL, SIC+OH beats SIC+WH: 2.694 vs 2.700 MPKI (CBP4), 3.958 vs 3.984 (CBP3)", ..ROW },
    Claim { id: "oh-covers-wh", section: "§4.3, Figure 13", check: Below("gehl+oh", "gehl+wh", WH_BENCHMARKS),
        paper: "IMLI-OH captures what WH captures: GEHL+OH matches or beats GEHL+WH on SPEC2K6-12, \
                MM-4, CLIENT02 and MM07", ..ROW },
    Claim { id: "delayed-update", section: "§4.3.2",
        check: Ratio(Gain("tage-gsc+imli+d63", "tage-gsc+imli"), Gain("tage-gsc", "tage-gsc+imli"),
                     f64::NEG_INFINITY, 0.05),
        paper: "Updating the outer-history table 63 branches late costs about 0.002 MPKI, about 1 % \
                of IMLI's gain", note: DELAY_NOTE, ..ROW },
    Claim { id: "imli-storage", section: "§4.4", suites: &[], check: Near(&[(ImliBytes, 708.0)], 0.005),
        paper: "IMLI-SIC and IMLI-OH cost 708 bytes: 384 B SIC, 128 B outer history, 192 B OH, 4 B \
                counter and PIPE",
        note: "The built state counts the counter and PIPE as their 26 bits, not the 4 B the paper \
               packs them in." },
    Claim { id: "checkpoint", section: "§4.2.1, §4.4", suites: &[], check: Near(&[(CheckpointBits, 26.0)], 0.0),
        paper: "A misprediction checkpoints only 26 bits: the 10-bit IMLI counter and the 16-bit PIPE",
        ..ROW },
    Claim { id: "speculation-repair", section: "§4.2.1, §4.3.2", suites: &[],
        check: Near(&[(Divergences, 0.0)], 0.0),
        paper: "Restoring that checkpoint repairs the IMLI state exactly after wrong-path fetch",
        note: "Wrong-path excursions of 48 records after every 23rd record on the first 10 CBP4 \
               benchmarks at 200,000 instructions each, against a never-speculating copy." },
    Claim { id: "t1-storage", section: "§5, Table 1", suites: &[],
        check: Near(&[(Kbit("tage-gsc"), 228.0), (Kbit("tage-sc-l"), 256.0),
                      (Kbit("tage-gsc+imli"), 234.0), (Kbit("tage-sc-l+imli"), 261.0)], 0.05),
        paper: "TAGE-GSC sizes: Base 228, +L 256, +I 234, +I+L 261 Kbit", note: STORAGE_NOTE },
    Claim { id: "t2-storage", section: "§5, Table 2", suites: &[],
        check: Near(&[(Kbit("gehl"), 204.0), (Kbit("ftl"), 256.0),
                      (Kbit("gehl+imli"), 209.0), (Kbit("ftl+imli"), 261.0)], 0.05),
        paper: "GEHL sizes: Base 204, +L 256, +I 209, +I+L 261 Kbit", note: STORAGE_NOTE },
    Claim { id: "t1-i-vs-l", section: "§5, Table 1",
        check: Ratio(Gain("tage-gsc", "tage-gsc+imli"), Gain("tage-gsc", "tage-sc-l"), 0.8, f64::INFINITY),
        paper: "+I (234 Kbit) gains about what +L (256 Kbit) gains: 0.160 vs 0.108 MPKI (CBP4), \
                0.253 vs 0.232 (CBP3)", ..ROW },
    Claim { id: "t1-l-on-i", section: "§5, Table 1",
        check: Ordered(&[Gain("tage-gsc+imli", "tage-sc-l+imli"), Gain("tage-gsc", "tage-sc-l")]),
        paper: "+L on top of +I gains less than +L on the base: 0.087 vs 0.108 MPKI (CBP4), \
                0.094 vs 0.232 (CBP3)", ..ROW },
    Claim { id: "t1-best", section: "§5, Table 1",
        check: Lowest(Mean("tage-sc-l+imli"), &[Mean("tage-gsc"), Mean("tage-sc-l"), Mean("tage-gsc+imli")]),
        paper: "TAGE-GSC +I+L is best: 2.226 MPKI (CBP4), 3.555 (CBP3)", note: PLUS_L_NOTE, ..ROW },
    Claim { id: "t2-i-vs-l", section: "§5, Table 2",
        check: Ratio(Gain("gehl", "gehl+imli"), Gain("gehl", "ftl"), 0.8, f64::INFINITY),
        paper: "+I (209 Kbit) gains about what +L (256 Kbit) gains: 0.170 vs 0.171 MPKI (CBP4), \
                0.285 vs 0.319 (CBP3)", ..ROW },
    Claim { id: "t2-l-on-i", section: "§5, Table 2",
        check: Ordered(&[Gain("gehl+imli", "ftl+imli"), Gain("gehl", "ftl")]),
        paper: "+L on top of +I gains less than +L on the base: 0.132 vs 0.171 MPKI (CBP4), \
                0.131 vs 0.319 (CBP3)", ..ROW },
    Claim { id: "t2-best", section: "§5, Table 2",
        check: Lowest(Mean("ftl+imli"), &[Mean("gehl"), Mean("ftl"), Mean("gehl+imli")]),
        paper: "GEHL +I+L is best: 2.562 MPKI (CBP4), 3.827 (CBP3)", note: PLUS_L_NOTE, ..ROW },
    Claim { id: "record", section: "§5",
        check: Ordered(&[Mean("tage-sc-l+imli"), Mean("tage-gsc+imli"), Mean("tage-sc-l")]),
        paper: "TAGE-SC-L+IMLI beats TAGE-GSC+IMLI (234 Kbit), which beats the 256-Kbit TAGE-SC-L: \
                2.228 < 2.313 < 2.365 MPKI (CBP4), 3.555 < 3.649 < 3.670 (CBP3)",
        note: PLUS_L_NOTE, ..ROW },
    Claim { id: "record-gain", section: "§5", check: RelGain("tage-sc-l", "tage-sc-l+imli", [5.8, 3.1]),
        paper: "IMLI cuts TAGE-SC-L's MPKI by 5.8 % (CBP4) and 3.1 % (CBP3)", ..ROW },
    Claim { id: "any-neural-host", section: "§1, §4", check: Ordered(&[Mean("perceptron+imli"), Mean("perceptron")]),
        paper: "The IMLI components fit any neural-inspired predictor, perceptron-inspired ones too",
        ..ROW },
    Claim { id: "local-spread-tage", section: "§5, Figure 14",
        check: Ordered(&[TopShare("tage-gsc", "tage-sc-l", 5), TopShare("tage-gsc", "tage-gsc+imli", 5)]),
        paper: "Local history's gain is spread over many benchmarks; IMLI's is concentrated on a few",
        note: SPREAD_NOTE, ..ROW },
    Claim { id: "local-spread-gehl", section: "§5, Figure 15",
        check: Ordered(&[TopShare("gehl", "ftl", 5), TopShare("gehl", "gehl+imli", 5)]),
        paper: "Local history's gain is spread over many benchmarks; IMLI's is concentrated on a few",
        note: SPREAD_NOTE, ..ROW },
];

/// A per-benchmark figure: the `top` benchmarks that a set of variants
/// improves most over a base, with each variant's MPKI saved.
#[derive(Debug, Clone, Copy)]
struct Figure {
    /// The paper's figure (or section) and what it shows.
    title: &'static str,
    /// The base configuration.
    base: &'static str,
    /// The variants.
    variants: &'static [&'static str],
    /// How many benchmarks to show.
    top: usize,
}

/// The per-benchmark figures the Markdown ledger renders. Every
/// (configuration, benchmark) MPKI is in the JSON, which also covers
/// the all-benchmark Figures 8 and 10.
#[rustfmt::skip]
const FIGURES: [Figure; 6] = [
    Figure { title: "§3.3: WH on TAGE-GSC", base: "tage-gsc", variants: &["tage-gsc+wh"], top: 10 },
    Figure { title: "Figure 9: IMLI-SIC and IMLI-SIC+OH on TAGE-GSC", base: "tage-gsc",
        variants: &["tage-gsc+sic", "tage-gsc+imli"], top: 15 },
    Figure { title: "Figure 11: IMLI-SIC and IMLI-SIC+OH on GEHL", base: "gehl",
        variants: &["gehl+sic", "gehl+imli"], top: 15 },
    Figure { title: "Figure 13: IMLI-OH against WH on GEHL", base: "gehl",
        variants: &["gehl+oh", "gehl+wh"], top: 10 },
    Figure { title: "Figure 14: local history and IMLI on TAGE-GSC", base: "tage-gsc",
        variants: &["tage-sc-l", "tage-gsc+imli", "tage-sc-l+imli"], top: 25 },
    Figure { title: "Figure 15: local history and IMLI on GEHL", base: "gehl",
        variants: &["ftl", "gehl+imli", "ftl+imli"], top: 25 },
];

/// The configurations the ledger runs: the registry, then one
/// `tage-gsc+imli+d<delay>` per §4.3.2 commit delay.
pub fn ledger_configs() -> Vec<PredictorSpec> {
    let mut specs = registry();
    specs.extend(DELAYS.map(|delay| {
        let config = TageScConfig::gsc_imli().with_imli(
            ImliConfig::delayed_update(delay),
            &format!("TAGE-GSC+IMLI(d{delay})"),
        );
        PredictorSpec::new(
            format!("tage-gsc+imli+d{delay}"),
            "§4.3.2 delayed outer-history update",
            RegistryConfig::plain(FamilyConfig::TageSc(config)),
        )
    }));
    specs
}

/// The side checks computed without the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideChecks {
    /// Storage of the default IMLI state in bits.
    pub imli_bits: u64,
    /// Width of its speculative checkpoint in bits.
    pub checkpoint_bits: u64,
    /// Wrong-path excursions injected by the speculation check.
    pub excursions: u64,
    /// Records after which the repaired state diverged.
    pub divergences: u64,
}

impl SideChecks {
    /// Computes the side checks.
    fn measure() -> Self {
        let config = ImliConfig::default();
        let state = ImliState::new(&config);
        let mut side = SideChecks {
            imli_bits: state.storage_bits(),
            checkpoint_bits: state.checkpoint_bits(),
            excursions: 0,
            divergences: 0,
        };
        for spec in cbp4_suite().iter().take(SPECULATION_BENCHMARKS) {
            let trace = generate(spec, SPECULATION_INSTRUCTIONS);
            let report =
                speculative_imli_fidelity(&trace, &config, EXCURSION_EVERY, EXCURSION_DEPTH);
            side.excursions += report.excursions;
            side.divergences += report.divergences;
        }
        side
    }
}

/// Everything the claims are checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Configuration names, in row order.
    pub configs: Vec<String>,
    /// Exact storage of each configuration in bits.
    pub storage_bits: Vec<u64>,
    /// Benchmark names: CBP4 first, then CBP3.
    pub benchmarks: Vec<String>,
    /// How many leading benchmarks are CBP4's.
    pub cbp4: usize,
    /// MPKI, row-major: `mpki[config * benchmarks.len() + benchmark]`.
    pub mpki: Vec<f64>,
    /// The side checks.
    pub side: SideChecks,
}

impl Measured {
    fn suite(&self, s: Suite) -> Range<usize> {
        match s {
            Suite::Cbp4 => 0..self.cbp4,
            Suite::Cbp3 => self.cbp4..self.benchmarks.len(),
        }
    }

    fn index(names: &[String], name: &str) -> usize {
        names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("a claim names `{name}`, which the ledger did not run"))
    }

    fn row(&self, config: &str) -> &[f64] {
        let (p, n) = (Self::index(&self.configs, config), self.benchmarks.len());
        &self.mpki[p * n..(p + 1) * n]
    }

    fn mean(&self, config: &str, s: Suite) -> f64 {
        let cells = &self.row(config)[self.suite(s)];
        cells.iter().sum::<f64>() / cells.len() as f64
    }

    /// MPKI saved by `variant` over `base` on each benchmark: the one
    /// per-benchmark delta every top-k check and figure ranks.
    fn gains(&self, base: &str, variant: &str) -> Vec<f64> {
        let (b, v) = (self.row(base), self.row(variant));
        b.iter().zip(v).map(|(b, v)| b - v).collect()
    }

    /// The benchmark indices in `range`, largest `key` first (ties in
    /// benchmark order).
    fn ranked(key: &[f64], range: Range<usize>) -> Vec<usize> {
        let mut order: Vec<usize> = range.collect();
        order.sort_by(|&a, &b| key[b].total_cmp(&key[a]));
        order
    }

    /// The named benchmarks that belong to `s`, as indices.
    fn named(&self, names: &[&str], s: Suite) -> Vec<usize> {
        let range = self.suite(s);
        names
            .iter()
            .map(|n| Self::index(&self.benchmarks, n))
            .filter(|i| range.contains(i))
            .collect()
    }

    fn value(&self, q: &Q, suite: Option<Suite>) -> f64 {
        let s = || suite.expect("suite-mean quantities need a suite");
        match *q {
            Q::Mean(c) => self.mean(c, s()),
            Q::Gain(a, b) => self.mean(a, s()) - self.mean(b, s()),
            Q::TopShare(a, b, k) => {
                let gains = self.gains(a, b);
                let order = Self::ranked(&gains, self.suite(s()));
                let top: f64 = order.iter().take(k).map(|&i| gains[i]).sum();
                top / order.iter().map(|&i| gains[i]).sum::<f64>()
            }
            Q::Kbit(c) => self.storage_bits[Self::index(&self.configs, c)] as f64 / 1024.0,
            Q::ImliBytes => self.side.imli_bits as f64 / 8.0,
            Q::CheckpointBits => self.side.checkpoint_bits as f64,
            Q::Divergences => self.side.divergences as f64,
        }
    }

    /// Checks one claim on one suite (or on none): whether it holds,
    /// with this reproduction's numbers as the ledger shows them.
    fn verdict(&self, claim: &'static Claim, suite: Option<Suite>) -> Row {
        let value = |q: &Q| self.value(q, suite);
        let shown = |q: &Q| q.format(value(q));
        let (holds, ours) = match &claim.check {
            Check::Ordered(qs) => {
                let mut ours = shown(&qs[0]);
                for pair in qs.windows(2) {
                    let rel = match value(&pair[0]).total_cmp(&value(&pair[1])) {
                        Ordering::Less => "<",
                        Ordering::Equal => "=",
                        Ordering::Greater => ">",
                    };
                    let _ = write!(ours, " {rel} {}", shown(&pair[1]));
                }
                (qs.windows(2).all(|w| value(&w[0]) < value(&w[1])), ours)
            }
            Check::Lowest(q, rest) => {
                let holds = rest.iter().all(|r| value(q) < value(r));
                let others = join(rest.iter().map(shown), ", ");
                (holds, format!("{} vs {others}", shown(q)))
            }
            Check::Ratio(a, b, lo, hi) => {
                let ratio = value(a) / value(b);
                let ours = format!("{ratio:.3} = {} / {}", shown(a), shown(b));
                ((*lo..=*hi).contains(&ratio), ours)
            }
            Check::RelGain(base, variant, percent) => {
                let s = suite.expect("a relative gain needs a suite");
                let paper = percent[usize::from(s == Suite::Cbp3)];
                let share = value(&Q::Gain(base, variant)) / value(&Q::Mean(base)) * 100.0;
                let ours = format!("{share:.1} % vs {} %", paper);
                ((paper / 2.0..=paper * 2.0).contains(&share), ours)
            }
            Check::Near(pairs, tol) => {
                let ours = pairs.iter().map(|(q, target)| {
                    let gap = value(q) - target;
                    let shown = match *tol {
                        0.0 => shown(q),
                        _ => format!("{} ({:+.1} %)", shown(q), gap / target * 100.0),
                    };
                    (gap.abs() <= tol * target.abs(), shown)
                });
                let (holds, shown): (Vec<bool>, Vec<String>) = ours.unzip();
                (holds.iter().all(|&h| h), shown.join(", "))
            }
            Check::TopK(a, b, k, names) => {
                let s = suite.expect("a top-k check needs a suite");
                let mut top = Self::ranked(&self.gains(a, b), self.suite(s));
                top.truncate(*k);
                let holds = self.named(names, s).iter().all(|i| top.contains(i));
                let top = join(top.iter().map(|&i| &self.benchmarks[i]), ", ");
                (holds, format!("top {k}: {top}"))
            }
            Check::Below(a, b, names) => {
                let s = suite.expect("a per-benchmark check needs a suite");
                let (ra, rb) = (self.row(a), self.row(b));
                let named = self.named(names, s);
                let shown = named
                    .iter()
                    .map(|&i| format!("{} {:.3} vs {:.3}", self.benchmarks[i], ra[i], rb[i]));
                (named.iter().all(|&i| ra[i] < rb[i]), join(shown, ", "))
            }
        };
        Row {
            claim,
            suite,
            holds,
            ours,
        }
    }
}

/// A claim checked on one suite (or on none).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The claim.
    pub claim: &'static Claim,
    /// The suite it was checked on.
    pub suite: Option<Suite>,
    /// Whether its check holds.
    pub holds: bool,
    /// This reproduction's numbers.
    pub ours: String,
}

/// The checked ledger: the measurements and every claim's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Instructions per benchmark.
    pub instructions: u64,
    /// What the claims were checked against.
    pub measured: Measured,
    /// Every claim with its verdict, in [`CLAIMS`] order.
    pub rows: Vec<Row>,
}

/// Runs the ledger: one grid of [`ledger_configs`] over CBP4 then
/// CBP3 at `instructions` per benchmark, plus the side checks.
pub fn run_claims(
    engine: &Engine,
    instructions: u64,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Ledger {
    let specs = ledger_configs();
    let cbp4 = cbp4_suite();
    let cbp4_len = cbp4.len();
    let benchmarks: Vec<BenchmarkSpec> = cbp4.into_iter().chain(cbp3_suite()).collect();
    let grid = engine.run_grid_with_progress(&specs, &benchmarks, instructions, progress);
    let measured = Measured {
        configs: grid.predictors.clone(),
        storage_bits: specs.iter().map(PredictorSpec::storage_bits).collect(),
        benchmarks: grid.benchmarks.clone(),
        cbp4: cbp4_len,
        mpki: grid.cells().iter().map(SimResult::mpki).collect(),
        side: SideChecks::measure(),
    };
    Ledger::check(instructions, measured)
}

impl Ledger {
    /// Checks every claim against `measured`, one row per suite.
    fn check(instructions: u64, measured: Measured) -> Self {
        let rows = CLAIMS
            .iter()
            .flat_map(|claim| {
                // One row per suite; a suite-less claim is one row.
                let suites = claim.suites.iter().map(|&s| Some(s));
                let suites = suites.chain(claim.suites.is_empty().then_some(None));
                suites.map(|suite| measured.verdict(claim, suite))
            })
            .collect();
        Ledger {
            instructions,
            measured,
            rows,
        }
    }

    /// How many rows hold.
    pub fn holding(&self) -> usize {
        self.rows.iter().filter(|r| r.holds).count()
    }

    /// The ledger as Markdown (`CLAIMS_paper.md`).
    pub fn to_markdown(&self) -> String {
        let m = &self.measured;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# IMLI reproduction: paper-claims ledger\n\n\
             Deterministic output of `bp claims --instr {}`: the same budget produces a \
             byte-identical ledger.\n\n\
             Each row checks one claim of the paper by its *shape*: an ordering, a lowest \
             value, a ratio under a fixed tolerance, a relative gain within a factor of 2 of \
             the paper's, figures within a tolerance of the paper's, a top-k membership or a \
             per-benchmark ordering. Absolute MPKI is never compared: the suites are \
             synthetic CBP4-like and CBP3-like sets of {} and {} benchmarks at {} \
             instructions each, not the paper's traces.\n\n\
             **{} of {} rows hold.**\n\n## Claims\n\n\
             | claim | suite | section | paper | check | ours | verdict |\n\
             |---|---|---|---|---|---|---|",
            self.instructions,
            m.cbp4,
            m.benchmarks.len() - m.cbp4,
            self.instructions,
            self.holding(),
            self.rows.len(),
        );
        for row in &self.rows {
            let c = &row.claim;
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} | {} | {} |",
                c.id,
                row.suite.map_or("-", Suite::label),
                c.section,
                c.paper,
                c.check,
                row.ours,
                if row.holds { "holds" } else { "**fails**" }
            );
        }
        out.push_str("\n## Notes\n\n");
        let mut noted: Vec<&str> = Vec::new();
        for c in self.rows.iter().map(|r| r.claim) {
            if !c.note.is_empty() && !noted.contains(&c.id) {
                noted.push(c.id);
                let _ = writeln!(out, "- `{}`: {}", c.id, c.note);
            }
        }
        out.push_str(
            "\n## Suite means\n\nMean MPKI over each suite and exact storage \
             (1 Kbit = 1024 bits).\n\n| config | Kbit | CBP4 | CBP3 |\n|---|---:|---:|---:|\n",
        );
        for (config, bits) in m.configs.iter().zip(&m.storage_bits) {
            let _ = writeln!(
                out,
                "| `{config}` | {:.1} | {:.3} | {:.3} |",
                *bits as f64 / 1024.0,
                m.mean(config, Suite::Cbp4),
                m.mean(config, Suite::Cbp3)
            );
        }
        for figure in &FIGURES {
            render_figure(&mut out, m, figure);
        }
        out
    }

    /// The ledger as JSON (`CLAIMS_paper.json`), written through the
    /// workspace's JSON-subset document model. That subset has no
    /// floats, so MPKI and the shown numbers are decimal strings.
    pub fn to_json(&self) -> String {
        let m = &self.measured;
        fn text(s: impl Into<String>) -> ConfigValue {
            ConfigValue::Str(s.into())
        }
        let claims = self.rows.iter().map(|row| {
            ConfigValue::map()
                .set("id", text(row.claim.id))
                .set("suite", text(row.suite.map_or("", Suite::label)))
                .set("section", text(row.claim.section))
                .set("paper", text(row.claim.paper))
                .set("check", text(row.claim.check.to_string()))
                .set("ours", text(&row.ours))
                .set("verdict", text(if row.holds { "holds" } else { "fails" }))
                .set("note", text(row.claim.note))
        });
        let suites = [Suite::Cbp4, Suite::Cbp3].map(|s| {
            let names = m.benchmarks[m.suite(s)].iter().map(text).collect();
            ConfigValue::map()
                .set("name", text(s.label()))
                .set("benchmarks", ConfigValue::List(names))
        });
        let configs = m
            .configs
            .iter()
            .zip(&m.storage_bits)
            .map(|(config, &bits)| {
                let mpki = m.row(config).iter().map(|v| text(format!("{v:.6}")));
                ConfigValue::map()
                    .set("name", text(config))
                    .set("storage_bits", ConfigValue::int(bits))
                    .set("mpki", ConfigValue::List(mpki.collect()))
            });
        let side = &m.side;
        let side_checks = ConfigValue::map()
            .set("imli_bits", ConfigValue::int(side.imli_bits))
            .set("checkpoint_bits", ConfigValue::int(side.checkpoint_bits))
            .set("excursions", ConfigValue::int(side.excursions))
            .set("divergences", ConfigValue::int(side.divergences));
        ConfigValue::map()
            .set("ledger", text("bp-claims"))
            .set("instructions", ConfigValue::int(self.instructions))
            .set("rows", ConfigValue::int(self.rows.len()))
            .set("holding", ConfigValue::int(self.holding()))
            .set("claims", ConfigValue::List(claims.collect()))
            .set("side_checks", side_checks)
            .set("suites", ConfigValue::List(suites.to_vec()))
            .set("configs", ConfigValue::List(configs.collect()))
            .to_text()
    }
}

/// Renders one [`Figure`]: its `top` benchmarks by their largest gain
/// over the base across the variants, with the base's MPKI and each
/// variant's gain.
fn render_figure(out: &mut String, m: &Measured, figure: &Figure) {
    let gains: Vec<Vec<f64>> = figure
        .variants
        .iter()
        .map(|v| m.gains(figure.base, v))
        .collect();
    let largest: Vec<f64> = (0..m.benchmarks.len())
        .map(|i| gains.iter().map(|g| g[i]).fold(f64::NEG_INFINITY, f64::max))
        .collect();
    let _ = writeln!(
        out,
        "\n## {}\n\nThe {} benchmarks most improved over `{}`, by MPKI saved.\n\n\
         | benchmark | suite | `{}` MPKI | {} |\n|---|---|---:|{}",
        figure.title,
        figure.top,
        figure.base,
        figure.base,
        join(figure.variants.iter().map(|v| format!("gain `{v}`")), " | "),
        "---:|".repeat(figure.variants.len())
    );
    let base = m.row(figure.base);
    for i in Measured::ranked(&largest, 0..m.benchmarks.len())
        .into_iter()
        .take(figure.top)
    {
        let suite = if i < m.cbp4 { Suite::Cbp4 } else { Suite::Cbp3 };
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {} |",
            m.benchmarks[i],
            suite.label(),
            base[i],
            join(gains.iter().map(|g| format!("{:.3}", g[i])), " | ")
        );
    }
}

fn join<T: fmt::Display>(items: impl Iterator<Item = T>, sep: &str) -> String {
    items.map(|i| i.to_string()).collect::<Vec<_>>().join(sep)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-made measurement: `rows` of per-benchmark MPKI over
    /// `benchmarks`, the first `cbp4` of them CBP4's.
    fn measured(benchmarks: &[&str], cbp4: usize, rows: &[(&str, &[f64])]) -> Measured {
        Measured {
            configs: rows.iter().map(|(c, _)| (*c).to_owned()).collect(),
            storage_bits: vec![226_324; rows.len()],
            benchmarks: benchmarks.iter().map(|b| (*b).to_owned()).collect(),
            cbp4,
            mpki: rows.iter().flat_map(|(_, v)| v.iter().copied()).collect(),
            side: SideChecks {
                imli_bits: 5658,
                checkpoint_bits: 26,
                excursions: 100,
                divergences: 0,
            },
        }
    }

    /// The 2M-instruction Table 1 suite means, one benchmark per suite
    /// so that each benchmark's MPKI is its suite's mean.
    fn table1() -> Measured {
        measured(
            &["C4", "C3"],
            1,
            &[
                ("tage-gsc", &[4.502, 5.004]),
                ("tage-sc-l", &[4.178, 4.740]),
                ("tage-gsc+imli", &[4.044, 4.473]),
                ("tage-sc-l+imli", &[3.993, 4.479]),
                ("tage-gsc+imli+d63", &[4.1274, 4.5198]),
                ("gehl", &[4.608, 5.174]),
                ("gehl+imli", &[4.007, 4.454]),
            ],
        )
    }

    fn holds(m: &Measured, claim: &'static Claim, suite: Option<Suite>) -> bool {
        m.verdict(claim, suite).holds
    }

    static ORDERED: Claim = Claim {
        check: Ordered(&[
            Mean("tage-sc-l+imli"),
            Mean("tage-gsc+imli"),
            Mean("tage-sc-l"),
        ]),
        ..ROW
    };
    static LOWEST: Claim = Claim {
        check: Lowest(
            Mean("tage-sc-l+imli"),
            &[Mean("tage-gsc"), Mean("tage-sc-l"), Mean("tage-gsc+imli")],
        ),
        ..ROW
    };
    static RATIO: Claim = Claim {
        check: Ratio(
            Gain("tage-gsc+imli+d63", "tage-gsc+imli"),
            Gain("tage-gsc", "tage-gsc+imli"),
            f64::NEG_INFINITY,
            0.05,
        ),
        ..ROW
    };
    static AT_LEAST: Claim = Claim {
        check: Ratio(
            Gain("tage-gsc", "tage-gsc+imli"),
            Gain("tage-gsc", "tage-sc-l"),
            0.8,
            f64::INFINITY,
        ),
        ..ROW
    };
    static REL_TAGE: Claim = Claim {
        check: RelGain("tage-gsc", "tage-gsc+imli", [6.5, 6.5]),
        ..ROW
    };
    static REL_GEHL: Claim = Claim {
        check: RelGain("gehl", "gehl+imli", [5.9, 6.7]),
        ..ROW
    };

    #[test]
    fn ordered_holds_on_cbp4_and_fails_on_the_measured_cbp3_pair() {
        let m = table1();
        let cbp4 = m.verdict(&ORDERED, Some(Suite::Cbp4));
        assert!(cbp4.holds);
        assert_eq!(cbp4.ours, "3.993 < 4.044 < 4.178");
        // +I+L reads 4.479 against +I's 4.473 on CBP3 at 2M.
        let cbp3 = m.verdict(&ORDERED, Some(Suite::Cbp3));
        assert!(!cbp3.holds);
        assert_eq!(cbp3.ours, "4.479 > 4.473 < 4.740");
    }

    #[test]
    fn lowest_holds_on_cbp4_and_fails_on_the_measured_cbp3_pair() {
        let m = table1();
        assert!(holds(&m, &LOWEST, Some(Suite::Cbp4)));
        let cbp3 = m.verdict(&LOWEST, Some(Suite::Cbp3));
        assert!(!cbp3.holds);
        assert_eq!(cbp3.ours, "4.479 vs 5.004, 4.740, 4.473");
    }

    #[test]
    fn ratio_fails_on_the_measured_delay_cost_and_holds_on_a_small_one() {
        let m = table1();
        // Delay 63 costs 0.083 MPKI against IMLI's 0.458 gain on CBP4.
        let row = m.verdict(&RATIO, Some(Suite::Cbp4));
        assert!(!row.holds, "{}", row.ours);
        assert!(row.ours.starts_with("0.18"), "{}", row.ours);
        let mut small = table1();
        small.mpki[8] = 4.046; // tage-gsc+imli+d63 on CBP4: +0.002
        assert!(holds(&small, &RATIO, Some(Suite::Cbp4)));
        // The one-sided lower bound: +I gains 1.4x what +L gains.
        assert!(holds(&m, &AT_LEAST, Some(Suite::Cbp4)));
        let mut weak = table1();
        weak.mpki[4] = 4.4; // tage-gsc+imli on CBP4: a 0.1 gain
        assert!(!holds(&weak, &AT_LEAST, Some(Suite::Cbp4)));
    }

    #[test]
    fn relative_gain_holds_within_a_factor_of_two_of_the_paper() {
        let m = table1();
        // TAGE-GSC: 10.2 % against the paper's 6.5 %.
        let row = m.verdict(&REL_TAGE, Some(Suite::Cbp4));
        assert!(row.holds);
        assert_eq!(row.ours, "10.2 % vs 6.5 %");
        // GEHL: 13.0 % against 5.9 %, more than twice.
        let row = m.verdict(&REL_GEHL, Some(Suite::Cbp4));
        assert!(!row.holds);
        assert_eq!(row.ours, "13.0 % vs 5.9 %");
    }

    #[test]
    fn near_states_the_gap_and_checks_the_tolerance() {
        static SIZE: Claim = Claim {
            check: Near(&[(Kbit("tage-gsc"), 228.0)], 0.05),
            suites: &[],
            ..ROW
        };
        static TIGHT: Claim = Claim {
            check: Near(&[(Kbit("tage-gsc"), 228.0)], 0.01),
            suites: &[],
            ..ROW
        };
        static EXACT: Claim = Claim {
            check: Near(&[(CheckpointBits, 26.0), (Divergences, 0.0)], 0.0),
            suites: &[],
            ..ROW
        };
        let m = table1();
        let row = m.verdict(&SIZE, None);
        assert!(row.holds);
        assert_eq!(row.ours, "221.0 (-3.1 %)");
        assert!(!holds(&m, &TIGHT, None));
        assert!(holds(&m, &EXACT, None));
        let mut diverged = table1();
        diverged.side.divergences = 1;
        assert!(!holds(&diverged, &EXACT, None));
    }

    #[test]
    fn top_k_and_below_read_only_the_named_benchmarks_of_the_suite() {
        static TOP: Claim = Claim {
            check: TopK("base", "wh", 2, &["B", "C3"]),
            ..ROW
        };
        static BELOW: Claim = Claim {
            check: Below("wh", "base", &["B", "C3"]),
            ..ROW
        };
        // B's WH gain (0.1) is below A's and C's on CBP4.
        let m = measured(
            &["A", "B", "C", "C3"],
            3,
            &[
                ("base", &[5.0, 5.0, 5.0, 5.0]),
                ("wh", &[4.0, 4.9, 4.5, 6.0]),
            ],
        );
        let cbp4 = m.verdict(&TOP, Some(Suite::Cbp4));
        assert!(!cbp4.holds);
        assert_eq!(cbp4.ours, "top 2: A, C");
        assert!(holds(&m, &TOP, Some(Suite::Cbp3)));
        assert!(holds(&m, &BELOW, Some(Suite::Cbp4)));
        assert!(!holds(&m, &BELOW, Some(Suite::Cbp3)));
    }

    #[test]
    fn top_share_measures_how_concentrated_a_gain_is() {
        static SPREAD: Claim = Claim {
            check: Ordered(&[TopShare("base", "even", 1), TopShare("base", "peaked", 1)]),
            ..ROW
        };
        let even = [4.0, 4.0, 4.0, 4.0];
        let m = measured(
            &["A", "B", "C", "D"],
            4,
            &[
                ("base", &[5.0; 4]),
                ("even", &even),
                ("peaked", &[2.0, 5.0, 5.0, 5.0]),
            ],
        );
        let row = m.verdict(&SPREAD, Some(Suite::Cbp4));
        assert!(row.holds);
        assert_eq!(row.ours, "0.250 < 1.000");
        let swapped = measured(
            &["A", "B", "C", "D"],
            4,
            &[
                ("base", &[5.0; 4]),
                ("even", &[2.0, 5.0, 5.0, 5.0]),
                ("peaked", &even),
            ],
        );
        assert!(!holds(&swapped, &SPREAD, Some(Suite::Cbp4)));
    }

    #[test]
    fn every_claim_and_figure_resolves_against_the_ledger_configs() {
        let configs: Vec<(String, Vec<f64>)> = ledger_configs()
            .into_iter()
            .enumerate()
            .map(|(p, spec)| {
                (
                    spec.name,
                    (0..80).map(|b| 1.0 + (p * b % 7) as f64).collect(),
                )
            })
            .collect();
        let benchmarks: Vec<String> = cbp4_suite()
            .into_iter()
            .chain(cbp3_suite())
            .map(|b| b.name)
            .collect();
        let names: Vec<&str> = benchmarks.iter().map(String::as_str).collect();
        let rows: Vec<(&str, &[f64])> = configs
            .iter()
            .map(|(c, v)| (c.as_str(), v.as_slice()))
            .collect();
        let ledger = Ledger::check(1000, measured(&names, 40, &rows));
        let expected: usize = CLAIMS.iter().map(|c| c.suites.len().max(1)).sum();
        assert_eq!(ledger.rows.len(), expected);
        let markdown = ledger.to_markdown();
        for figure in &FIGURES {
            assert!(markdown.contains(figure.title), "{}", figure.title);
        }
    }

    #[test]
    fn claim_ids_name_one_claim_each() {
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate claim id");
    }
}
