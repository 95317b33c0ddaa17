//! The storage-budget sweep subsystem.
//!
//! The paper's comparisons are made at *fixed storage points* (the
//! 64-Kbit and 256-Kbit configurations of its §5 discussion). This
//! module turns those points into a first-class experiment:
//!
//! * [`solve_budget`] — the budget solver: scales a predictor family's
//!   log-sizes and table counts to hit a target budget, searching a
//!   family-specific candidate lattice and picking the geometry whose
//!   **exact** config-level storage
//!   ([`PredictorConfig::storage_bits_estimate`], property-tested equal
//!   to the built predictor's itemized `storage_items()` sum) lands
//!   nearest the target. The candidate lattice is independent of the
//!   target, which makes the solver *monotone*: a larger budget never
//!   yields a smaller predictor (property-tested);
//! * [`run_sweep`] — the (budget × family × benchmark) MPKI grid on
//!   the engine's fused-column path (each benchmark stream decoded
//!   once for all swept configurations), folded into a [`SweepReport`];
//! * [`SweepReport::to_markdown`] / [`SweepReport::to_json`] —
//!   byte-deterministic renderings (no timestamps, stable ordering,
//!   fixed precision), the `SWEEP_<suite>.md` / `.json` artifacts of
//!   `bp sweep`;
//! * [`parse_predictor_file`] — the `--config` file format of
//!   `bp grid` / `bp report` / `bp scenario`, parsed with the same
//!   hand-rolled JSON subset as the config layer.

use crate::engine::{Engine, GridStrategy};
use crate::registry::{FamilyConfig, PredictorSpec, RegistryConfig};
use bp_components::{
    BimodalConfig, ConfigError, ConfigValue, GShareConfig, LoopPredictorConfig, PredictorConfig,
};
use bp_gehl::GehlConfig;
use bp_perceptron::PerceptronConfig;
use bp_tage::{LocalScConfig, ScConfig, TageConfig, TageScConfig};
use bp_workloads::BenchmarkSpec;
use imli::ImliConfig;
use std::fmt::Write as _;

/// Relative budget tolerance of the solver: every solved configuration's
/// exact storage lands within this fraction of the target.
pub const BUDGET_TOLERANCE: f64 = 0.02;

/// The standard sweep budgets in Kbit — the paper's 64/256-Kbit points
/// embedded in a power-of-two ladder.
pub const STANDARD_BUDGETS_KBIT: [u64; 6] = [8, 16, 32, 64, 128, 256];

/// The predictor families the default sweep scales, in report order:
/// both baselines, the perceptron host, the GEHL host with and without
/// IMLI, and the TAGE ladder (Base, +I, +L, +I+L) up to the paper's §5
/// record configuration.
pub const SWEEP_FAMILIES: [&str; 9] = [
    "bimodal",
    "gshare",
    "perceptron",
    "gehl",
    "gehl+imli",
    "tage-gsc",
    "tage-gsc+imli",
    "tage-sc-l",
    "tage-sc-l+imli",
];

/// The canonical TAGE tag-width ladder the solver subsamples when it
/// scales the tagged-table count (the default 12-table geometry's
/// widths).
const TAG_LADDER: [usize; 12] = [8, 8, 9, 10, 10, 11, 11, 12, 12, 13, 14, 15];

/// A strictly increasing geometric-ish series of `n` history segment
/// lengths from `min` to `max` (used for perceptron segments and SC
/// global lengths, which cost no storage but must be well-formed).
fn geometric_lengths(min: usize, max: usize, n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let v = if n == 1 {
            max
        } else {
            let ratio = (max as f64 / min as f64).powf(i as f64 / (n as f64 - 1.0));
            ((min as f64 * ratio) + 0.5) as usize
        };
        // Force strict monotonicity after rounding.
        let floor = out.last().map_or(0, |&p: &usize| p + 1);
        out.push(v.max(floor));
    }
    out
}

/// Tag widths for an `n`-table TAGE, subsampled from the canonical
/// 12-table ladder.
fn tag_bits_for(n: usize) -> Vec<usize> {
    if n == 1 {
        return vec![12];
    }
    (0..n)
        .map(|i| TAG_LADDER[(i * (TAG_LADDER.len() - 1)) / (n - 1).max(1)])
        .collect()
}

/// Tracks the best candidate seen so far.
///
/// Selection is two-tiered: among candidates whose storage lands within
/// [`BUDGET_TOLERANCE`] of the target, the highest `quality` score wins
/// (a per-family, *target-independent* prior toward canonical-shaped
/// geometries — pure nearest-storage selection was observed to pick
/// degenerate shapes such as 2-table or 39-table GEHLs, whose MPKI gets
/// *worse* as the budget grows). Ties break toward the smaller storage,
/// then first-seen (the enumeration order is deterministic). When no
/// candidate lands in the window, the nearest-storage candidate is
/// returned so [`solve_budget`]'s tolerance check can report the miss.
///
/// Monotonicity in the target is preserved: for targets `a <= b` with
/// windows `Wa`, `Wb`, any candidate of `Wb` smaller than `b`'s pick
/// that also lies in `Wa` would have been `a`'s pick too (same quality
/// order, same tie-break), and candidates of `Wb \ Wa` all sit above
/// `Wa`'s upper edge — so the picked storage never decreases
/// (property-tested over arbitrary budget pairs).
struct Best<K> {
    target: i128,
    /// Nearest-storage fallback (only used when the window is empty).
    near_bits: u64,
    near_error: i128,
    near_knobs: Option<K>,
    /// Highest-quality candidate within the tolerance window.
    win_bits: u64,
    win_quality: i64,
    win_knobs: Option<K>,
}

impl<K: Copy> Best<K> {
    fn new(target_bits: u64) -> Self {
        Best {
            target: target_bits as i128,
            near_bits: 0,
            near_error: i128::MAX,
            near_knobs: None,
            win_bits: 0,
            win_quality: i64::MIN,
            win_knobs: None,
        }
    }

    fn offer(&mut self, bits: u64, quality: i64, knobs: K) {
        let error = (bits as i128 - self.target).abs();
        if error < self.near_error || (error == self.near_error && bits < self.near_bits) {
            self.near_error = error;
            self.near_bits = bits;
            self.near_knobs = Some(knobs);
        }
        // `error <= target * tolerance`, in exact integer arithmetic
        // (tolerance is 2% = 1/50).
        debug_assert!((BUDGET_TOLERANCE - 0.02).abs() < 1e-12);
        if error * 50 > self.target {
            return;
        }
        if self.win_knobs.is_none()
            || quality > self.win_quality
            || (quality == self.win_quality && bits < self.win_bits)
        {
            self.win_quality = quality;
            self.win_bits = bits;
            self.win_knobs = Some(knobs);
        }
    }

    /// The selected knobs: the quality winner within the tolerance
    /// window, or the nearest-storage fallback. Errs if the candidate
    /// lattice produced no offer at all (a solver bug, surfaced as a
    /// [`ConfigError`] instead of a panic so `solve_budget` reports it).
    fn take(self, family: &str) -> Result<K, ConfigError> {
        self.win_knobs
            .or(self.near_knobs)
            .ok_or_else(|| ConfigError::new(format!("{family}: empty candidate lattice")))
    }
}

/// One [`Best`] per target, all offered every candidate of a single
/// walk of a family's lattice: the lattice does not depend on the
/// target, so one walk picks for every budget of a sweep, each pick
/// exactly as a walk of its own would.
struct Picks<K>(Vec<Best<K>>);

impl<K: Copy> Picks<K> {
    fn new(targets: &[u64]) -> Self {
        Picks(targets.iter().map(|&target| Best::new(target)).collect())
    }

    fn offer(&mut self, bits: u64, quality: i64, knobs: K) {
        for best in &mut self.0 {
            best.offer(bits, quality, knobs);
        }
    }

    /// Each target's pick, turned into a configuration by `config`
    /// (given the target in bits), in target order.
    fn finish<C>(
        self,
        family: &str,
        mut config: impl FnMut(u64, K) -> C,
    ) -> Vec<Result<C, ConfigError>> {
        self.0
            .into_iter()
            .map(|best| {
                let target = best.target as u64;
                best.take(family).map(|knobs| config(target, knobs))
            })
            .collect()
    }
}

/// Fixed (non-scaled) pieces of an IMLI-carrying configuration: the
/// paper treats the IMLI components as a fixed ~708-byte design point,
/// so the solver never scales them.
fn imli_bits() -> u64 {
    ImliConfig::default().state_storage_bits()
}

/// Quality prior of a multi-table neural-style geometry: prefer the
/// canonical shape (8 tables, 6-bit counters — the paper's GEHL / FTL /
/// hashed-perceptron designs all sit there), and among equally-shaped
/// candidates the larger tables (fewer index conflicts). Target-
/// independent, as [`Best`]'s monotonicity argument requires.
fn neural_quality(tables: usize, counter_bits: usize, log_entries: usize) -> i64 {
    -((tables as i64 - 8).abs() * 100 + (counter_bits as i64 - 6).abs() * 10) + log_entries as i64
}

fn solve_bimodal(targets: &[u64]) -> Vec<Result<BimodalConfig, ConfigError>> {
    let mut picks = Picks::new(targets);
    for log_entries in 2..=24usize {
        picks.offer((1u64 << log_entries) * 2, 0, log_entries);
    }
    picks.finish("bimodal", |_, log_entries| BimodalConfig { log_entries })
}

fn solve_gshare(targets: &[u64]) -> Vec<Result<GShareConfig, ConfigError>> {
    let mut picks = Picks::new(targets);
    for log_entries in 4..=24usize {
        let history_bits = (log_entries - 2).min(24);
        picks.offer(
            (1u64 << log_entries) * 2 + history_bits as u64,
            0,
            (log_entries, history_bits),
        );
    }
    picks.finish("gshare", |_, (log_entries, history_bits)| GShareConfig {
        log_entries,
        history_bits,
    })
}

fn solve_perceptron(targets: &[u64]) -> Vec<Result<PerceptronConfig, ConfigError>> {
    let mut picks = Picks::new(targets);
    for tables in 2..=24usize {
        for weight_bits in 4..=7usize {
            for log_entries in 6..=16usize {
                let bits = tables as u64 * weight_bits as u64 * (1u64 << log_entries);
                picks.offer(
                    bits,
                    neural_quality(tables, weight_bits, log_entries),
                    (tables, weight_bits, log_entries),
                );
            }
        }
    }
    picks.finish(
        "perceptron",
        |target_bits, (tables, weight_bits, log_entries)| {
            let mut segments = vec![0];
            segments.extend(geometric_lengths(4, 256, tables - 1));
            PerceptronConfig {
                log_entries,
                weight_bits,
                segments,
                name: format!("HP/{}Kb", (target_bits + 512) / 1024),
                ..PerceptronConfig::base()
            }
        },
    )
}

fn solve_gehl(targets: &[u64], with_imli: bool) -> Vec<Result<GehlConfig, ConfigError>> {
    let fixed = if with_imli { imli_bits() } else { 0 };
    let mut picks = Picks::new(targets);
    for tables in 2..=40usize {
        for counter_bits in 3..=7usize {
            for log_entries in 6..=16usize {
                let bits = fixed + tables as u64 * counter_bits as u64 * (1u64 << log_entries);
                picks.offer(
                    bits,
                    neural_quality(tables, counter_bits, log_entries),
                    (tables, counter_bits, log_entries),
                );
            }
        }
    }
    let suffix = if with_imli { "+IMLI" } else { "" };
    picks.finish(
        "gehl",
        |target_bits, (num_tables, counter_bits, log_entries)| GehlConfig {
            log_entries,
            counter_bits,
            num_tables,
            imli: with_imli.then(ImliConfig::default),
            name: format!("GEHL{suffix}/{}Kb", (target_bits + 512) / 1024),
            ..GehlConfig::base()
        },
    )
}

/// Which optional components a solved TAGE configuration carries.
#[derive(Clone, Copy)]
struct TageVariant {
    imli: bool,
    /// Local SC components + loop predictor (the "+L" shape).
    local: bool,
}

/// One point of `solve_tage`'s candidate lattice, fully materialized as
/// a config. The solver costs every candidate with the config layer's
/// own [`PredictorConfig::storage_bits_estimate`], so the lattice can
/// never drift from the real accounting. Materializing a candidate
/// allocates (its tag widths, SC lengths and local shape), which is why
/// `solve_tage` costs each candidate once for all of its targets.
fn tage_candidate(
    variant: TageVariant,
    knobs: (usize, usize, usize, usize, usize),
    name: String,
) -> TageScConfig {
    let (n_tables, t_log, sc_log, globals, loop_log) = knobs;
    let sc_entries = 1usize << sc_log;
    TageScConfig {
        tage: TageConfig {
            base_log_entries: (t_log + 3).min(24),
            tagged_log_entries: t_log,
            tag_bits: tag_bits_for(n_tables),
            ..TageConfig::default()
        },
        sc: ScConfig {
            bias_entries: sc_entries,
            table_entries: sc_entries,
            global_lengths: geometric_lengths(3, 33, globals),
            imli: variant.imli.then(ImliConfig::default),
            imli_in_global_indices: variant.imli,
            local: variant.local.then(|| LocalScConfig {
                history_entries: sc_entries.min(256),
                history_width: 16,
                table_entries: sc_entries,
                lengths: vec![4, 8, 12, 16],
            }),
            ..ScConfig::default()
        },
        loop_predictor: variant.local.then(|| LoopPredictorConfig {
            log_entries: loop_log,
            ..LoopPredictorConfig::default()
        }),
        name,
    }
}

fn solve_tage(targets: &[u64], variant: TageVariant) -> Vec<Result<TageScConfig, ConfigError>> {
    let mut picks = Picks::new(targets);
    let loop_logs: &[usize] = if variant.local { &[2, 4, 6] } else { &[0] };
    for n_tables in 2..=12usize {
        for t_log in 2..=13usize {
            for sc_log in 2..=12usize {
                for globals in 2..=5usize {
                    for &loop_log in loop_logs {
                        let knobs = (n_tables, t_log, sc_log, globals, loop_log);
                        let candidate = tage_candidate(variant, knobs, String::new());
                        // TAGE quality grows with tagged-table count
                        // and table size (the canonical design is 12
                        // tables and spends most of its budget there);
                        // the SC size is a tie-breaker.
                        let quality = n_tables as i64 * 100 + t_log as i64 * 10 + sc_log as i64;
                        picks.offer(candidate.storage_bits_estimate(), quality, knobs);
                    }
                }
            }
        }
    }
    let label = match (variant.local, variant.imli) {
        (false, false) => "TAGE-GSC",
        (false, true) => "TAGE-GSC+IMLI",
        (true, false) => "TAGE-SC-L",
        (true, true) => "TAGE-SC-L+IMLI",
    };
    picks.finish("tage", |target_bits, knobs| {
        tage_candidate(
            variant,
            knobs,
            format!("{label}/{}Kb", (target_bits + 512) / 1024),
        )
    })
}

/// Solves one sweep family for a target budget: returns a configuration
/// whose exact storage ([`PredictorConfig::storage_bits_estimate`] ==
/// built `storage_items()` sum) lands within [`BUDGET_TOLERANCE`] of
/// `target_bits`, or an error naming the family and the miss.
///
/// The family names are the [`SWEEP_FAMILIES`] set. The candidate
/// lattice searched per family does not depend on the target, so for
/// any two targets `a <= b`, `solve_budget(f, a)` never returns more
/// storage than `solve_budget(f, b)` (monotonicity; property-tested).
/// This is the one-target case of the walk a sweep makes once per
/// family for all its budgets.
pub fn solve_budget(family: &str, target_bits: u64) -> Result<RegistryConfig, ConfigError> {
    solve_family(family, &[target_bits])
        .pop()
        .unwrap_or_else(|| Err(ConfigError::new(format!("{family}: no solution"))))
}

/// [`solve_budget`] for every target of `targets` from one walk of the
/// family's candidate lattice, in target order.
fn solve_family(family: &str, targets: &[u64]) -> Vec<Result<RegistryConfig, ConfigError>> {
    fn plain<C>(
        solved: Vec<Result<C, ConfigError>>,
        family: impl Fn(C) -> FamilyConfig,
    ) -> Vec<Result<RegistryConfig, ConfigError>> {
        solved
            .into_iter()
            .map(|config| config.map(|c| RegistryConfig::plain(family(c))))
            .collect()
    }
    let tage = |imli, local| {
        plain(
            solve_tage(targets, TageVariant { imli, local }),
            FamilyConfig::TageSc,
        )
    };
    let solved = match family {
        "bimodal" => plain(solve_bimodal(targets), FamilyConfig::Bimodal),
        "gshare" => plain(solve_gshare(targets), FamilyConfig::GShare),
        "perceptron" => plain(solve_perceptron(targets), FamilyConfig::Perceptron),
        "gehl" => plain(solve_gehl(targets, false), FamilyConfig::Gehl),
        "gehl+imli" => plain(solve_gehl(targets, true), FamilyConfig::Gehl),
        "tage-gsc" => tage(false, false),
        "tage-gsc+imli" => tage(true, false),
        "tage-sc-l" => tage(false, true),
        "tage-sc-l+imli" => tage(true, true),
        other => {
            let unknown = ConfigError::new(format!(
                "unknown sweep family `{other}` (available: {})",
                SWEEP_FAMILIES.join(", ")
            ));
            return targets.iter().map(|_| Err(unknown.clone())).collect();
        }
    };
    solved
        .into_iter()
        .zip(targets)
        .map(|(config, &target_bits)| check_solution(family, config?, target_bits))
        .collect()
}

/// Accepts a solved configuration if it validates and lands within
/// [`BUDGET_TOLERANCE`] of `target_bits`.
fn check_solution(
    family: &str,
    config: RegistryConfig,
    target_bits: u64,
) -> Result<RegistryConfig, ConfigError> {
    PredictorConfig::validate(&config).map_err(|e| {
        ConfigError::new(format!("solver produced an invalid {family} config: {e}"))
    })?;
    let bits = config.storage_bits_estimate();
    let error = (bits as f64 - target_bits as f64).abs() / target_bits as f64;
    if error > BUDGET_TOLERANCE {
        return Err(ConfigError::new(format!(
            "no {family} geometry within {:.1}% of {target_bits} bits (best: {bits} bits, \
             {:.2}% off)",
            BUDGET_TOLERANCE * 100.0,
            error * 100.0
        )));
    }
    Ok(config)
}

/// One swept configuration's results: the solved geometry, its exact
/// storage, and its per-benchmark MPKI.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Sweep family name (e.g. `"tage-sc-l+imli"`).
    pub family: String,
    /// Target budget in Kbit.
    pub budget_kbit: u64,
    /// Exact storage of the solved configuration in bits.
    pub storage_bits: u64,
    /// The solved configuration.
    pub config: RegistryConfig,
    /// The built predictor's display name.
    pub display: String,
    /// Per-benchmark MPKI, in suite order.
    pub mpki: Vec<f64>,
}

impl SweepRow {
    /// Target budget in bits.
    pub fn target_bits(&self) -> u64 {
        self.budget_kbit * 1024
    }

    /// Signed relative budget error (`+` over, `-` under target).
    pub fn budget_error(&self) -> f64 {
        (self.storage_bits as f64 - self.target_bits() as f64) / self.target_bits() as f64
    }

    /// Arithmetic-mean MPKI over the suite.
    pub fn mean_mpki(&self) -> f64 {
        if self.mpki.is_empty() {
            return 0.0;
        }
        self.mpki.iter().sum::<f64>() / self.mpki.len() as f64
    }
}

/// A complete budget sweep over one suite: (budget × family) solved
/// configurations and their per-benchmark MPKI.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Suite label (`"paper"`, `"cbp4"`, `"cbp3"`).
    pub suite: String,
    /// Instructions per benchmark.
    pub instructions: u64,
    /// Target budgets in Kbit, ascending.
    pub budgets_kbit: Vec<u64>,
    /// Families swept, in input order.
    pub families: Vec<String>,
    /// Benchmark names, in suite order.
    pub benchmarks: Vec<String>,
    /// One row per (budget, family), budget-major.
    pub rows: Vec<SweepRow>,
}

/// Runs the full budget sweep: solves every (budget, family) pair,
/// builds the solved configurations into registry specs named
/// `family@budget`, and runs the (config × benchmark) grid on the
/// engine's **fused-column** strategy (each benchmark stream decoded
/// once for all swept configurations). Deterministic: the report
/// depends only on its inputs, never on worker count or scheduling.
pub fn run_sweep(
    suite: &str,
    benchmarks: &[BenchmarkSpec],
    budgets_kbit: &[u64],
    families: &[String],
    instructions: u64,
    jobs: usize,
    progress: &(dyn Fn(crate::engine::CellUpdate<'_>) + Sync),
) -> Result<SweepReport, ConfigError> {
    run_sweep_with_cache(
        suite,
        benchmarks,
        budgets_kbit,
        families,
        instructions,
        jobs,
        None,
        progress,
    )
}

/// [`run_sweep`] with an optional result cache, handed to the
/// [`Engine`] so only missing grid cells simulate. Cache keys are the
/// *solved* configuration texts, not the `family@budget` labels — two
/// budgets solving to the same configuration share one entry, and a
/// cache warmed by `bp grid` on the same config hits here too.
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_with_cache(
    suite: &str,
    benchmarks: &[BenchmarkSpec],
    budgets_kbit: &[u64],
    families: &[String],
    instructions: u64,
    jobs: usize,
    cache: Option<&crate::cache::SimCache>,
    progress: &(dyn Fn(crate::engine::CellUpdate<'_>) + Sync),
) -> Result<SweepReport, ConfigError> {
    for (i, budget) in budgets_kbit.iter().enumerate() {
        if budgets_kbit[..i].contains(budget) {
            return Err(ConfigError::new(format!("duplicate budget {budget} Kbit")));
        }
    }
    for (i, family) in families.iter().enumerate() {
        if families[..i].contains(family) {
            return Err(ConfigError::new(format!("duplicate family `{family}`")));
        }
    }
    // Each family's lattice is walked once for every budget; the
    // budget-major loop below then reports the first error exactly
    // where solving budget by budget would.
    let targets: Vec<u64> = budgets_kbit.iter().map(|&budget| budget * 1024).collect();
    let solved: Vec<Vec<Result<RegistryConfig, ConfigError>>> = families
        .iter()
        .map(|family| solve_family(family, &targets))
        .collect();
    let mut specs = Vec::with_capacity(budgets_kbit.len() * families.len());
    for (b, &budget) in budgets_kbit.iter().enumerate() {
        if budget == 0 {
            return Err(ConfigError::new("budgets must be positive Kbit values"));
        }
        for (family, solutions) in families.iter().zip(&solved) {
            let config = solutions[b].clone()?;
            specs.push(PredictorSpec::new(
                format!("{family}@{budget}"),
                format!("budget sweep: {budget} Kbit target"),
                config,
            ));
        }
    }
    let grid = Engine::with_jobs(jobs)
        .with_strategy(GridStrategy::FusedColumns)
        .with_cache(cache.cloned())
        .run_grid_with_progress(&specs, benchmarks, instructions, progress);
    let rows = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let budget = budgets_kbit[i / families.len()];
            let family = families[i % families.len()].clone();
            SweepRow {
                family,
                budget_kbit: budget,
                storage_bits: spec.storage_bits(),
                config: spec.config.clone(),
                display: grid
                    .row(i)
                    .first()
                    .map_or_else(String::new, |cell| cell.predictor.clone()),
                mpki: grid.row(i).iter().map(|cell| cell.mpki()).collect(),
            }
        })
        .collect();
    Ok(SweepReport {
        suite: suite.to_owned(),
        instructions,
        budgets_kbit: budgets_kbit.to_vec(),
        families: families.to_vec(),
        benchmarks: benchmarks.iter().map(|b| b.name.clone()).collect(),
        rows,
    })
}

use bp_components::json_string as json_str;

/// Re-indents a serialized [`ConfigValue`] document so it nests inside
/// a larger JSON document at `indent` spaces.
fn indent_config(text: &str, indent: usize) -> String {
    let pad = " ".repeat(indent);
    text.trim_end()
        .lines()
        .enumerate()
        .map(|(i, line)| {
            if i == 0 {
                line.to_owned()
            } else {
                format!("{pad}{line}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

impl SweepReport {
    fn row(&self, budget_idx: usize, family_idx: usize) -> &SweepRow {
        &self.rows[budget_idx * self.families.len() + family_idx]
    }

    /// Renders the sweep as a deterministic JSON document (stable key
    /// order, fixed float precision, no timestamps), with every solved
    /// configuration embedded in the config-file format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"report\": \"bp-sweep\",");
        let _ = writeln!(out, "  \"suite\": {},", json_str(&self.suite));
        let _ = writeln!(out, "  \"instructions\": {},", self.instructions);
        let _ = writeln!(out, "  \"tolerance_pct\": {:.1},", BUDGET_TOLERANCE * 100.0);
        out.push_str("  \"budgets_kbit\": [");
        for (i, b) in self.budgets_kbit.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("],\n  \"families\": [");
        for (i, f) in self.families.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(f));
        }
        out.push_str("],\n  \"benchmarks\": [");
        for (i, b) in self.benchmarks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(b));
        }
        out.push_str("],\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"family\": {},", json_str(&row.family));
            let _ = writeln!(out, "      \"budget_kbit\": {},", row.budget_kbit);
            let _ = writeln!(out, "      \"target_bits\": {},", row.target_bits());
            let _ = writeln!(out, "      \"storage_bits\": {},", row.storage_bits);
            // No `+` sign here: JSON numbers may not carry one.
            let _ = writeln!(
                out,
                "      \"budget_error_pct\": {:.4},",
                row.budget_error() * 100.0
            );
            let _ = writeln!(out, "      \"display\": {},", json_str(&row.display));
            let _ = writeln!(out, "      \"mean_mpki\": {:.6},", row.mean_mpki());
            out.push_str("      \"mpki\": [");
            for (j, m) in row.mpki.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{m:.6}");
            }
            out.push_str("],\n");
            let _ = writeln!(
                out,
                "      \"config\": {}",
                indent_config(&row.config.to_text(), 6)
            );
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the sweep as deterministic Markdown: the MPKI-vs-budget
    /// matrix (the paper's "what does each component buy per bit"
    /// question), the exact-storage matrix, and a per-configuration
    /// detail table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Storage-budget sweep — `{}` suite", self.suite);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Deterministic output of `bp sweep {} --instr {}`: the same inputs produce a \
             byte-identical sweep (no timestamps, no wall-clock). Every configuration below \
             was produced by the budget solver and its **exact** `storage_items()` total lands \
             within {:.0}% of the target budget.",
            self.suite,
            self.instructions,
            BUDGET_TOLERANCE * 100.0
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "- benchmarks: {} × {} instructions each",
            self.benchmarks.len(),
            self.instructions
        );
        let _ = writeln!(
            out,
            "- budgets (Kbit): {}",
            self.budgets_kbit
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "- families: {}", self.families.join(", "));
        let _ = writeln!(out);

        let _ = writeln!(out, "## Mean MPKI by budget (lower is better)");
        let _ = writeln!(out);
        let mut header = String::from("| family |");
        let mut rule = String::from("|---|");
        for b in &self.budgets_kbit {
            let _ = write!(header, " {b} Kbit |");
            rule.push_str("---:|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for (f, family) in self.families.iter().enumerate() {
            let _ = write!(out, "| `{family}` |");
            for b in 0..self.budgets_kbit.len() {
                let _ = write!(out, " {:.3} |", self.row(b, f).mean_mpki());
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Exact storage of each solved configuration (Kbit)");
        let _ = writeln!(out);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for (f, family) in self.families.iter().enumerate() {
            let _ = write!(out, "| `{family}` |");
            for b in 0..self.budgets_kbit.len() {
                let row = self.row(b, f);
                let _ = write!(
                    out,
                    " {:.2} ({:+.2}%) |",
                    row.storage_bits as f64 / 1024.0,
                    row.budget_error() * 100.0
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Per-benchmark MPKI");
        let _ = writeln!(out);
        let mut header = String::from("| config | storage | mean |");
        let mut rule = String::from("|---|---:|---:|");
        for b in &self.benchmarks {
            let _ = write!(header, " {b} |");
            rule.push_str("---:|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let _ = write!(
                out,
                "| `{}@{}` | {:.2} Kbit | {:.3} |",
                row.family,
                row.budget_kbit,
                row.storage_bits as f64 / 1024.0,
                row.mean_mpki()
            );
            for m in &row.mpki {
                let _ = write!(out, " {m:.3} |");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Parses a `--config` predictor file for `bp grid` / `bp report`:
///
/// ```json
/// {
///   "predictors": [
///     {"name": "my-tage", "paper_ref": "custom", "config": {"kind": "tage-sc", ...}}
///   ]
/// }
/// ```
///
/// `paper_ref` is optional (defaults to `"config file"`); each `config`
/// is the [`RegistryConfig`] format. Every configuration is validated.
pub fn parse_predictor_file(text: &str) -> Result<Vec<PredictorSpec>, ConfigError> {
    let doc = ConfigValue::parse(text)?;
    doc.expect_keys("config file", &["predictors"])?;
    let entries = doc.req("predictors")?.as_list("predictors")?;
    if entries.is_empty() {
        return Err(ConfigError::new("config file lists no predictors"));
    }
    let mut specs = Vec::with_capacity(entries.len());
    for entry in entries {
        entry.expect_keys("predictor entry", &["name", "paper_ref", "config"])?;
        let name = entry.req("name")?.as_str("name")?.to_owned();
        let paper_ref = match entry.get("paper_ref") {
            Some(v) => v.as_str("paper_ref")?.to_owned(),
            None => "config file".to_owned(),
        };
        let config = RegistryConfig::from_value(entry.req("config")?)?;
        PredictorConfig::validate(&config)
            .map_err(|e| ConfigError::new(format!("predictor `{name}`: {e}")))?;
        if specs.iter().any(|s: &PredictorSpec| s.name == name) {
            return Err(ConfigError::new(format!(
                "duplicate predictor name `{name}`"
            )));
        }
        specs.push(PredictorSpec::new(name, paper_ref, config));
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workloads::paper_suite;

    #[test]
    fn solver_hits_every_standard_budget_for_every_family() {
        for family in SWEEP_FAMILIES {
            for kbit in STANDARD_BUDGETS_KBIT {
                let target = kbit * 1024;
                let config =
                    solve_budget(family, target).unwrap_or_else(|e| panic!("{family}@{kbit}: {e}"));
                let bits = config.storage_bits_estimate();
                let error = (bits as f64 - target as f64).abs() / target as f64;
                assert!(
                    error <= BUDGET_TOLERANCE,
                    "{family}@{kbit}: {bits} bits is {:.2}% off",
                    error * 100.0
                );
            }
        }
    }

    #[test]
    fn solver_estimate_matches_built_storage_exactly() {
        for family in SWEEP_FAMILIES {
            for kbit in [8, 64, 256] {
                let config = solve_budget(family, kbit * 1024).expect("solvable");
                assert_eq!(
                    config.storage_bits_estimate(),
                    config.build().storage_bits(),
                    "{family}@{kbit}"
                );
            }
        }
    }

    #[test]
    fn solver_is_monotone_in_budget() {
        for family in SWEEP_FAMILIES {
            let mut last = 0u64;
            for kbit in STANDARD_BUDGETS_KBIT {
                let bits = solve_budget(family, kbit * 1024)
                    .expect("solvable")
                    .storage_bits_estimate();
                assert!(
                    bits >= last,
                    "{family}: storage shrank from {last} to {bits} at {kbit} Kbit"
                );
                last = bits;
            }
        }
    }

    #[test]
    fn solver_rejects_unknown_families() {
        let err = solve_budget("nope", 64 * 1024).unwrap_err();
        assert!(err.to_string().contains("unknown sweep family"));
        assert!(err.to_string().contains("tage-sc-l+imli"));
    }

    #[test]
    fn sweep_report_is_deterministic_and_well_formed() {
        let benchmarks: Vec<BenchmarkSpec> = paper_suite().into_iter().take(2).collect();
        let families: Vec<String> = vec!["bimodal".to_owned(), "gshare".to_owned()];
        let run = |jobs| {
            run_sweep(
                "test",
                &benchmarks,
                &[16, 64],
                &families,
                20_000,
                jobs,
                &|_| {},
            )
            .expect("sweep runs")
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.to_json(), b.to_json(), "sweep must not depend on jobs");
        assert_eq!(a.to_markdown(), b.to_markdown());
        assert_eq!(a.rows.len(), 4);
        for row in &a.rows {
            assert_eq!(row.mpki.len(), 2);
            assert!(row.budget_error().abs() <= BUDGET_TOLERANCE);
            assert!(!row.display.is_empty());
        }
        let md = a.to_markdown();
        assert!(md.contains("## Mean MPKI by budget"));
        assert!(md.contains("`bimodal@16`"));
        let json = a.to_json();
        assert!(json.contains("\"report\": \"bp-sweep\""));
        assert!(json.contains("\"budget_error_pct\""));
        assert!(json.ends_with("}\n"));
        // Embedded configs re-parse.
        for row in &a.rows {
            let text = row.config.to_text();
            RegistryConfig::from_text(&text).expect("embedded config re-parses");
        }
    }

    #[test]
    fn sweep_rejects_duplicate_budgets_and_families() {
        let benchmarks: Vec<BenchmarkSpec> = paper_suite().into_iter().take(1).collect();
        let families: Vec<String> = vec!["bimodal".to_owned(), "bimodal".to_owned()];
        let err = run_sweep("test", &benchmarks, &[16], &families, 1_000, 1, &|_| {}).unwrap_err();
        assert!(err.to_string().contains("duplicate family"), "{err}");
        let families = vec!["bimodal".to_owned()];
        let err =
            run_sweep("test", &benchmarks, &[16, 16], &families, 1_000, 1, &|_| {}).unwrap_err();
        assert!(err.to_string().contains("duplicate budget"), "{err}");
    }

    #[test]
    fn predictor_file_round_trip() {
        let spec = crate::registry::lookup("tage-gsc+imli").expect("registered");
        let mut file = String::from("{\"predictors\": [\n  {\"name\": \"custom\", \"config\": ");
        file.push_str(spec.config.to_text().trim_end());
        file.push_str("}\n]}\n");
        let specs = parse_predictor_file(&file).expect("parses");
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "custom");
        assert_eq!(specs[0].paper_ref, "config file");
        assert_eq!(specs[0].make().name(), "TAGE-GSC+IMLI");
        assert!(parse_predictor_file("{\"predictors\": []}").is_err());
        assert!(parse_predictor_file("{\"preds\": []}").is_err());
    }
}
