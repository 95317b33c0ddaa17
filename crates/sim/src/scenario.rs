//! Shared-predictor scenario runs: multi-tenant traffic, context-switch
//! flushes, and adversarial streams, reported per tenant.
//!
//! The paper's grid treats every predictor as private to its benchmark.
//! This module drives registry predictors through the `bp-workloads`
//! combinator layer instead — N tenants interleaved into one fetch
//! stream ([`bp_workloads::interleave`]), periodic context-switch
//! flushes ([`bp_workloads::context_switch`]), adversarial genomes —
//! and reports *per tenant*: each tenant's MPKI plus the same
//! provider/save/loss attribution split the suite report uses (one
//! shared definition: [`PredictionAttribution::classify`]).
//!
//! * [`ScenarioSpec`] — a named scenario (tenants, schedule, flush),
//!   buildable by name ([`scenario_by_name`]) or from a config file
//!   ([`parse_scenario_file`]);
//! * [`run_scenario_with_cache`] — the engine-scheduled run producing a
//!   [`ScenarioReport`] with byte-deterministic Markdown/JSON
//!   renderings (`bp scenario`), identical across worker counts;
//! * [`simulate_scenario_multi`] — one column driven over the event
//!   stream, applying flush events in place (partial:
//!   [`flush_history`](bp_components::ConditionalPredictor::flush_history);
//!   full: a cold rebuild from the spec).

use crate::cache::SimCache;
use crate::column::Column;
use crate::engine::{CellUpdate, Engine};
use crate::registry::{lookup, PredictorSpec};
use crate::report::PhaseSummary;
use crate::run::{event_blocks, only, Mpki, Tenants};
use bp_components::{json_string as json_str, ConfigError, ConfigValue, PredictorStats};
use bp_trace::BranchStream;
use bp_workloads::{
    context_switch, find_benchmark, interleave, EventStream, FlushMode, Genome, InterleaveSchedule,
};
use std::fmt::Write as _;

/// Largest accepted adversarial gene count (1 MiB of genes). A genome
/// is allocated whole when its tenant's stream is built, so an
/// unbounded count from a scenario file would be a blind allocation.
const MAX_GENES: usize = 1 << 16;

/// One tenant of a scenario: a named synthetic benchmark, or an
/// adversarial genome replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantSpec {
    /// A benchmark by suite name (resolved via
    /// [`bp_workloads::find_benchmark`]).
    Benchmark(String),
    /// A seeded adversarial genome ([`Genome::seeded`]).
    Adversarial {
        /// Genome seed.
        seed: u64,
        /// Gene count (`1..=MAX_GENES`).
        genes: usize,
    },
}

impl TenantSpec {
    /// Stable display label of this tenant.
    pub fn label(&self) -> String {
        match self {
            TenantSpec::Benchmark(name) => name.clone(),
            TenantSpec::Adversarial { seed, genes } => {
                format!("adversarial(seed={seed}, genes={genes})")
            }
        }
    }

    /// Builds this tenant's branch stream. The spec must have passed
    /// [`ScenarioSpec::validate`] (unknown benchmark names panic here).
    pub fn stream(&self, instructions: u64) -> Box<dyn BranchStream + Send> {
        match self {
            TenantSpec::Benchmark(name) => {
                let spec = find_benchmark(name).expect("validated benchmark name");
                Box::new(spec.stream(instructions))
            }
            TenantSpec::Adversarial { seed, genes } => {
                Box::new(Genome::seeded(*seed, *genes).stream(instructions))
            }
        }
    }
}

/// The periodic context-switch setting of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFlush {
    /// Flush period in retired instructions of the combined stream.
    pub period: u64,
    /// What each flush erases.
    pub mode: FlushMode,
}

/// A complete scenario: tenants, schedule, flush policy, and per-tenant
/// instruction budget. Everything is data — the same spec always
/// produces the identical event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario name (artifact stem: `SCENARIO_<name>.md/.json`).
    pub name: String,
    /// The tenants, in id order (tenant `i` gets PC region `i`).
    pub tenants: Vec<TenantSpec>,
    /// Interleave schedule across the tenants.
    pub schedule: InterleaveSchedule,
    /// Periodic context-switch flushes, or `None` for an undisturbed
    /// shared predictor.
    pub flush: Option<ScenarioFlush>,
    /// Instructions per tenant stream.
    pub instructions: u64,
}

impl ScenarioSpec {
    /// Checks the spec is runnable: at least one tenant, resolvable
    /// benchmark names, positive budgets/quanta/periods, and an
    /// artifact-safe name.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "scenario name `{}` must be non-empty [A-Za-z0-9_-] (it names the artifact files)",
                self.name
            ));
        }
        if self.tenants.is_empty() {
            return Err("scenario needs at least one tenant".to_owned());
        }
        if self.instructions == 0 {
            return Err("scenario needs a positive per-tenant instruction budget".to_owned());
        }
        for tenant in &self.tenants {
            match tenant {
                TenantSpec::Benchmark(name) => {
                    if find_benchmark(name).is_none() {
                        return Err(format!(
                            "unknown benchmark `{name}` (try `bp list benchmarks`)"
                        ));
                    }
                }
                TenantSpec::Adversarial { genes, .. } => {
                    if *genes == 0 {
                        return Err("adversarial tenant needs at least one gene".to_owned());
                    }
                    if *genes > MAX_GENES {
                        return Err(format!(
                            "adversarial tenant has {genes} genes, above the cap of {MAX_GENES}"
                        ));
                    }
                }
            }
        }
        match self.schedule {
            InterleaveSchedule::RoundRobin { quantum } => {
                if quantum == 0 {
                    return Err("round-robin quantum must be >= 1".to_owned());
                }
            }
            InterleaveSchedule::SeededBursts { min, max, .. } => {
                if min == 0 || min > max {
                    return Err("seeded-burst range must satisfy 1 <= min <= max".to_owned());
                }
            }
        }
        if let Some(flush) = &self.flush {
            if flush.period == 0 {
                return Err("flush period must be positive".to_owned());
            }
        }
        Ok(())
    }

    /// Display labels of the tenants, in tenant-id order.
    pub fn tenant_labels(&self) -> Vec<String> {
        self.tenants.iter().map(TenantSpec::label).collect()
    }

    /// Builds the scenario's event stream. Each call starts a fresh,
    /// identical stream (pure function of the spec).
    pub fn events(&self) -> Box<dyn EventStream + Send> {
        let streams: Vec<Box<dyn BranchStream + Send>> = self
            .tenants
            .iter()
            .map(|t| t.stream(self.instructions))
            .collect();
        let mixed = interleave(streams, self.schedule);
        match &self.flush {
            Some(flush) => Box::new(context_switch(mixed, flush.period, flush.mode)),
            None => Box::new(mixed),
        }
    }

    /// Stable one-line schedule label for reports.
    pub fn schedule_label(&self) -> String {
        match self.schedule {
            InterleaveSchedule::RoundRobin { quantum } => {
                format!("round-robin(quantum={quantum})")
            }
            InterleaveSchedule::SeededBursts { seed, min, max } => {
                format!("seeded-bursts(seed={seed}, min={min}, max={max})")
            }
        }
    }

    /// Stable one-line flush label for reports (`"none"` when the
    /// scenario never flushes).
    pub fn flush_label(&self) -> String {
        match &self.flush {
            None => "none".to_owned(),
            Some(f) => format!("{} every {} instructions", f.mode.label(), f.period),
        }
    }

    /// Renders the spec as the canonical `bp scenario --config`
    /// document — [`parse_scenario_file`] round-trips it exactly
    /// (tested). Byte-equal canonical values describe byte-identical
    /// event streams, which makes this rendering the scenario's
    /// *workload identity* for the result cache.
    pub fn to_value(&self) -> ConfigValue {
        let tenants = ConfigValue::List(
            self.tenants
                .iter()
                .map(|t| match t {
                    TenantSpec::Benchmark(name) => {
                        ConfigValue::map().set("benchmark", ConfigValue::str(name.as_str()))
                    }
                    TenantSpec::Adversarial { seed, genes } => ConfigValue::map().set(
                        "adversarial",
                        ConfigValue::map()
                            .set("seed", crate::cache::int_u64(*seed))
                            .set("genes", crate::cache::int_u64(*genes as u64)),
                    ),
                })
                .collect(),
        );
        let schedule = match self.schedule {
            InterleaveSchedule::RoundRobin { quantum } => ConfigValue::map().set(
                "round_robin",
                ConfigValue::map().set("quantum", ConfigValue::int(quantum)),
            ),
            InterleaveSchedule::SeededBursts { seed, min, max } => ConfigValue::map().set(
                "seeded_bursts",
                ConfigValue::map()
                    .set("seed", crate::cache::int_u64(seed))
                    .set("min", ConfigValue::int(min))
                    .set("max", ConfigValue::int(max)),
            ),
        };
        ConfigValue::map()
            .set("name", ConfigValue::str(self.name.as_str()))
            .set("instructions", crate::cache::int_u64(self.instructions))
            .set("tenants", tenants)
            .set("schedule", schedule)
            .set_opt(
                "flush",
                self.flush.as_ref().map(|f| {
                    ConfigValue::map()
                        .set("period", crate::cache::int_u64(f.period))
                        .set("mode", ConfigValue::str(f.mode.label()))
                }),
            )
    }

    /// [`ScenarioSpec::to_value`] rendered as deterministic text.
    pub fn canonical_text(&self) -> String {
        self.to_value().to_text()
    }
}

/// The built-in scenario names, in presentation order.
pub const SCENARIO_NAMES: [&str; 3] = ["paper_mix", "paper_switch", "hostile_mix"];

/// Looks up a built-in scenario by name (see [`SCENARIO_NAMES`]):
///
/// * `paper_mix` — four paper benchmarks round-robin interleaved, no
///   flushes: pure cross-tenant table sharing;
/// * `paper_switch` — the same mix with a partial flush every 50k
///   instructions: the OS context-switch shape (history erased, learned
///   tables survive);
/// * `hostile_mix` — two paper benchmarks co-scheduled with an
///   adversarial genome tenant under seeded bursts plus partial
///   flushes: the hostile end of the axis.
pub fn scenario_by_name(name: &str) -> Option<ScenarioSpec> {
    let bench = |n: &str| TenantSpec::Benchmark(n.to_owned());
    let spec = match name {
        "paper_mix" => ScenarioSpec {
            name: "paper_mix".to_owned(),
            tenants: vec![
                bench("SPEC2K6-04"),
                bench("MM-4"),
                bench("CLIENT02"),
                bench("WS04"),
            ],
            schedule: InterleaveSchedule::RoundRobin { quantum: 64 },
            flush: None,
            instructions: 150_000,
        },
        "paper_switch" => ScenarioSpec {
            name: "paper_switch".to_owned(),
            tenants: vec![
                bench("SPEC2K6-04"),
                bench("MM-4"),
                bench("CLIENT02"),
                bench("WS04"),
            ],
            schedule: InterleaveSchedule::RoundRobin { quantum: 64 },
            flush: Some(ScenarioFlush {
                period: 50_000,
                mode: FlushMode::Partial,
            }),
            instructions: 150_000,
        },
        "hostile_mix" => ScenarioSpec {
            name: "hostile_mix".to_owned(),
            tenants: vec![
                bench("SPEC2K6-04"),
                bench("MM-4"),
                TenantSpec::Adversarial {
                    seed: 0xC0FFEE,
                    genes: 12,
                },
            ],
            schedule: InterleaveSchedule::SeededBursts {
                seed: 0x5EED,
                min: 16,
                max: 256,
            },
            flush: Some(ScenarioFlush {
                period: 50_000,
                mode: FlushMode::Partial,
            }),
            instructions: 150_000,
        },
        _ => return None,
    };
    Some(spec)
}

/// The default predictor set of `bp scenario`: one representative per
/// rung of the configuration ladder, small enough that the committed
/// exemplar artifact regenerates quickly in CI.
pub const SCENARIO_REPORT_NAMES: [&str; 6] = [
    "bimodal",
    "gshare",
    "tage-sc-l",
    "tage-gsc+imli",
    "gehl+imli",
    "perceptron+imli",
];

/// Resolves [`SCENARIO_REPORT_NAMES`] from the registry.
///
/// # Panics
///
/// Panics if a default name is missing from the registry — a workspace
/// bug caught by tests, not a runtime condition.
pub fn scenario_report_predictors() -> Vec<PredictorSpec> {
    SCENARIO_REPORT_NAMES
        .iter()
        .map(|name| lookup(name).expect("scenario default names are registered"))
        .collect()
}

/// One tenant's outcome under one predictor: instruction share,
/// prediction counts, and per-component attribution — the suite
/// report's phase tally, kept per tenant.
pub type TenantTally = PhaseSummary;

/// One predictor's complete scenario outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Display name of the predictor instance.
    pub predictor: String,
    /// Instructions of the combined stream.
    pub instructions: u64,
    /// Branch records of the combined stream.
    pub records: u64,
    /// Combined prediction counts.
    pub stats: PredictorStats,
    /// Context-switch flushes applied.
    pub flushes: u64,
    /// Per-tenant tallies, in tenant-id order. Their stats sum exactly
    /// to `stats` (property-tested conservation).
    pub tenants: Vec<TenantTally>,
}

impl ScenarioRun {
    /// MPKI over the combined stream.
    pub fn mpki(&self) -> f64 {
        Mpki::from_counts(self.stats.mispredicted, self.instructions).value()
    }
}

/// Drives every spec through **one** pass of the scenario's event
/// stream as one [`Column`] (TAGE-SC variants of one TAGE geometry
/// share a front), tallying each prediction per tenant ([`Tenants`]).
/// Flush events apply per host in stream position: a partial flush
/// calls [`flush_history`](bp_components::ConditionalPredictor::flush_history),
/// a full flush rebuilds the whole host cold from its specs.
///
/// The result is a pure function of `(specs, events)` — identical
/// across runs, worker counts, and against one-predictor-at-a-time
/// simulation of the same events (tested).
pub fn simulate_scenario_multi(
    specs: &[PredictorSpec],
    events: &mut dyn EventStream,
) -> Vec<ScenarioRun> {
    let observer = Tenants::new(specs.len(), events.tenant_count() as usize);
    Column::build(specs).run("", &mut event_blocks(events), observer)
}

/// [`simulate_scenario_multi`] for a single predictor: a column of one.
pub fn simulate_scenario(spec: &PredictorSpec, events: &mut dyn EventStream) -> ScenarioRun {
    only(simulate_scenario_multi(std::slice::from_ref(spec), events))
}

/// One predictor row of a [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Registry name.
    pub name: String,
    /// Display name of the built instance.
    pub display: String,
    /// Family label.
    pub family: String,
    /// The run outcome.
    pub run: ScenarioRun,
}

/// A complete scenario report: every predictor's combined and
/// per-tenant outcome, plus the scenario's own parameters, rendered as
/// byte-deterministic Markdown/JSON artifacts.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Instructions per tenant stream.
    pub instructions: u64,
    /// Schedule label ([`ScenarioSpec::schedule_label`]).
    pub schedule: String,
    /// Flush label ([`ScenarioSpec::flush_label`]).
    pub flush: String,
    /// Tenant labels, in tenant-id order.
    pub tenants: Vec<String>,
    /// Predictor rows, in input order.
    pub rows: Vec<ScenarioRow>,
    /// Wall seconds per row — throughput telemetry only, never
    /// serialized, excluded from equality.
    pub cell_seconds: Vec<f64>,
}

/// Equality deliberately ignores `cell_seconds`, mirroring
/// [`crate::SuiteReport`]: content is deterministic, wall-clock is not.
impl PartialEq for ScenarioReport {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario
            && self.instructions == other.instructions
            && self.schedule == other.schedule
            && self.flush == other.flush
            && self.tenants == other.tenants
            && self.rows == other.rows
    }
}

/// Runs `predictors` through `scenario` and folds the outcome into a
/// [`ScenarioReport`]. Scheduling is the grid's ([`Engine::run_grid`]):
/// a scenario is one workload, so every predictor runs as one
/// [`Column`] over one pass of the stream whenever that can keep the
/// workers busy, and otherwise fans out, each regenerating the
/// identical stream. Each predictor's cached run is keyed on its config
/// text plus the scenario's whole canonical spec text. The report is
/// bit-identical across worker counts and with the cache absent, cold,
/// or warm (tested).
pub fn run_scenario_with_cache(
    scenario: &ScenarioSpec,
    predictors: &[PredictorSpec],
    jobs: usize,
    cache: Option<&SimCache>,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Result<ScenarioReport, String> {
    scenario.validate()?;
    if predictors.is_empty() {
        return Err("scenario needs at least one predictor".to_owned());
    }
    let timed = Engine::with_jobs(jobs)
        .with_cache(cache.cloned())
        .run_cells(predictors, std::slice::from_ref(scenario), (), progress);
    let (runs, cell_seconds): (Vec<ScenarioRun>, Vec<f64>) = timed.into_iter().unzip();
    let rows = predictors
        .iter()
        .zip(runs)
        .map(|(spec, run)| ScenarioRow {
            name: spec.name.clone(),
            display: run.predictor.clone(),
            family: spec.family.to_string(),
            run,
        })
        .collect();
    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        instructions: scenario.instructions,
        schedule: scenario.schedule_label(),
        flush: scenario.flush_label(),
        tenants: scenario.tenant_labels(),
        rows,
        cell_seconds,
    })
}

impl ScenarioReport {
    /// Renders the report as a deterministic JSON document (stable key
    /// order, fixed float precision, no timestamps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"report\": \"bp-scenario\",");
        let _ = writeln!(out, "  \"scenario\": {},", json_str(&self.scenario));
        let _ = writeln!(out, "  \"instructions\": {},", self.instructions);
        let _ = writeln!(out, "  \"schedule\": {},", json_str(&self.schedule));
        let _ = writeln!(out, "  \"flush\": {},", json_str(&self.flush));
        out.push_str("  \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(t));
        }
        out.push_str("],\n  \"predictors\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_str(&row.name));
            let _ = writeln!(out, "      \"display\": {},", json_str(&row.display));
            let _ = writeln!(out, "      \"family\": {},", json_str(&row.family));
            let _ = writeln!(out, "      \"mpki\": {:.6},", row.run.mpki());
            let _ = writeln!(out, "      \"instructions\": {},", row.run.instructions);
            let _ = writeln!(out, "      \"records\": {},", row.run.records);
            let _ = writeln!(out, "      \"predicted\": {},", row.run.stats.predicted);
            let _ = writeln!(
                out,
                "      \"mispredicted\": {},",
                row.run.stats.mispredicted
            );
            let _ = writeln!(out, "      \"flushes\": {},", row.run.flushes);
            out.push_str("      \"tenants\": [\n");
            for (t, tally) in row.run.tenants.iter().enumerate() {
                out.push_str("        {");
                let _ = write!(
                    out,
                    "\"label\": {}, \"instructions\": {}, \"predicted\": {}, \
                     \"mispredicted\": {}, \"mpki\": {:.6}, \"attribution\": {}",
                    json_str(&self.tenants[t]),
                    tally.instructions,
                    tally.stats.predicted,
                    tally.stats.mispredicted,
                    tally.mpki(),
                    crate::report::attribution_json(&tally.attribution, "        ")
                );
                out.push_str(if t + 1 < row.run.tenants.len() {
                    "},\n"
                } else {
                    "}\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as deterministic Markdown: the scenario
    /// parameters, the combined/per-tenant MPKI table, and per-tenant
    /// component attribution.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Scenario report — `{}`", self.scenario);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Deterministic output of `bp scenario {} --instr {}`: the same inputs \
             produce a byte-identical report (no timestamps, no wall-clock, identical \
             across `--jobs` settings).",
            self.scenario, self.instructions
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "- tenants: {} × {} instructions each, interleaved into one shared stream",
            self.tenants.len(),
            self.instructions
        );
        for (t, label) in self.tenants.iter().enumerate() {
            let _ = writeln!(out, "  - tenant {t}: {label}");
        }
        let _ = writeln!(out, "- schedule: {}", self.schedule);
        let _ = writeln!(out, "- flush: {}", self.flush);
        let _ = writeln!(out, "- predictors: {}", self.rows.len());
        let _ = writeln!(out);

        let _ = writeln!(out, "## MPKI (combined and per tenant, lower is better)");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Every predictor is shared by all tenants; per-tenant MPKI counts a \
             tenant's mispredictions against its own retired instructions."
        );
        let _ = writeln!(out);
        let mut header = String::from("| config | family | combined | flushes |");
        let mut rule = String::from("|---|---|---:|---:|");
        for t in 0..self.tenants.len() {
            let _ = write!(header, " t{t} |");
            rule.push_str("---:|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let _ = write!(
                out,
                "| `{}` | {} | {:.3} | {} |",
                row.name,
                row.family,
                row.run.mpki(),
                row.run.flushes
            );
            for tally in &row.run.tenants {
                let _ = write!(out, " {:.3} |", tally.mpki());
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "## Per-tenant component attribution");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Which component provided each tenant's predictions, with the suite \
             report's save/loss split: *saves* are predictions the provider got right \
             while its alternate path would have mispredicted, *losses* the reverse, \
             *net/ki* their difference per kilo instruction of the tenant."
        );
        for row in &self.rows {
            let _ = writeln!(out);
            let _ = writeln!(out, "### `{}` — {}", row.name, row.display);
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "| tenant | component | provided | share | accuracy | saves | losses | net/ki |"
            );
            let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|");
            for (t, tally) in row.run.tenants.iter().enumerate() {
                let total = tally.attribution.total_provided();
                for (key, tallied) in tally.attribution.components() {
                    let share = if total == 0 {
                        0.0
                    } else {
                        tallied.provided as f64 / total as f64 * 100.0
                    };
                    let accuracy = tallied.accuracy().unwrap_or(0.0) * 100.0;
                    let net_per_ki = if tally.instructions == 0 {
                        0.0
                    } else {
                        tallied.net_saves() as f64 * 1000.0 / tally.instructions as f64
                    };
                    let _ = writeln!(
                        out,
                        "| t{t} | {key} | {} | {share:.1} % | {accuracy:.1} % | {} | {} | {net_per_ki:+.3} |",
                        tallied.provided, tallied.saves, tallied.losses
                    );
                }
            }
        }
        out
    }
}

/// Converts a parsed value to `u32` with a range check.
fn as_u32(value: &ConfigValue, what: &str) -> Result<u32, ConfigError> {
    let n = value.as_u64(what)?;
    u32::try_from(n).map_err(|_| ConfigError::new(format!("{what} out of range: {n}")))
}

/// Parses a `bp scenario --config` file: a JSON-subset document of the
/// form
///
/// ```text
/// {
///   "name": "my_mix",
///   "instructions": 150000,
///   "tenants": [
///     {"benchmark": "SPEC2K6-04"},
///     {"adversarial": {"seed": 7, "genes": 12}}
///   ],
///   "schedule": {"round_robin": {"quantum": 64}},
///   "flush": {"period": 50000, "mode": "partial"}
/// }
/// ```
///
/// `instructions` defaults to 150 000; `schedule` defaults to
/// round-robin with quantum 64; `flush` is optional (absent = never
/// flush); `mode` is `"partial"` or `"full"`; `schedule` alternatively
/// takes `{"seeded_bursts": {"seed": N, "min": N, "max": N}}`. The
/// parsed spec is fully validated.
pub fn parse_scenario_file(text: &str) -> Result<ScenarioSpec, ConfigError> {
    let doc = ConfigValue::parse(text)?;
    doc.expect_keys(
        "scenario file",
        &["name", "instructions", "tenants", "schedule", "flush"],
    )?;
    let name = doc.req("name")?.as_str("name")?.to_owned();
    let instructions = match doc.get("instructions") {
        Some(v) => v.as_u64("instructions")?,
        None => 150_000,
    };
    let tenants = doc
        .req("tenants")?
        .as_list("tenants")?
        .iter()
        .map(|entry| -> Result<TenantSpec, ConfigError> {
            entry.expect_keys("tenant entry", &["benchmark", "adversarial"])?;
            match (entry.get("benchmark"), entry.get("adversarial")) {
                (Some(b), None) => Ok(TenantSpec::Benchmark(b.as_str("benchmark")?.to_owned())),
                (None, Some(a)) => {
                    a.expect_keys("adversarial tenant", &["seed", "genes"])?;
                    Ok(TenantSpec::Adversarial {
                        seed: a.req("seed")?.as_u64("seed")?,
                        genes: a.req("genes")?.as_usize("genes")?,
                    })
                }
                _ => Err(ConfigError::new(
                    "tenant entry needs exactly one of `benchmark` or `adversarial`",
                )),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let schedule = match doc.get("schedule") {
        None => InterleaveSchedule::RoundRobin { quantum: 64 },
        Some(s) => {
            s.expect_keys("schedule", &["round_robin", "seeded_bursts"])?;
            match (s.get("round_robin"), s.get("seeded_bursts")) {
                (Some(rr), None) => {
                    rr.expect_keys("round_robin schedule", &["quantum"])?;
                    InterleaveSchedule::RoundRobin {
                        quantum: as_u32(rr.req("quantum")?, "quantum")?,
                    }
                }
                (None, Some(sb)) => {
                    sb.expect_keys("seeded_bursts schedule", &["seed", "min", "max"])?;
                    InterleaveSchedule::SeededBursts {
                        seed: sb.req("seed")?.as_u64("seed")?,
                        min: as_u32(sb.req("min")?, "min")?,
                        max: as_u32(sb.req("max")?, "max")?,
                    }
                }
                _ => {
                    return Err(ConfigError::new(
                        "schedule needs exactly one of `round_robin` or `seeded_bursts`",
                    ))
                }
            }
        }
    };
    let flush = doc
        .get("flush")
        .map(|f| -> Result<ScenarioFlush, ConfigError> {
            f.expect_keys("flush", &["period", "mode"])?;
            let period = f.req("period")?.as_u64("period")?;
            let mode = match f.req("mode")?.as_str("mode")? {
                "partial" => FlushMode::Partial,
                "full" => FlushMode::Full,
                other => {
                    return Err(ConfigError::new(format!(
                        "unknown flush mode `{other}` (partial, full)"
                    )))
                }
            };
            Ok(ScenarioFlush { period, mode })
        })
        .transpose()?;
    let spec = ScenarioSpec {
        name,
        tenants,
        schedule,
        flush,
        instructions,
    };
    spec.validate().map_err(ConfigError::new)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::simulate_stream;
    use bp_workloads::SingleTenant;

    fn two_predictors() -> Vec<PredictorSpec> {
        ["bimodal", "tage-gsc+imli"]
            .iter()
            .map(|n| lookup(n).expect("registered"))
            .collect()
    }

    #[test]
    fn builtin_scenarios_validate_and_unknown_is_none() {
        for name in SCENARIO_NAMES {
            let spec = scenario_by_name(name).expect("builtin");
            assert_eq!(spec.name, name);
            spec.validate().expect("builtin scenarios are valid");
        }
        assert!(scenario_by_name("nope").is_none());
    }

    #[test]
    fn scenario_default_predictors_resolve() {
        assert_eq!(
            scenario_report_predictors().len(),
            SCENARIO_REPORT_NAMES.len()
        );
    }

    #[test]
    fn single_tenant_scenario_matches_plain_simulation() {
        // The degenerate scenario — one tenant, no flushes — must be
        // bit-identical to simulate_stream on the raw benchmark.
        let bench = find_benchmark("SPEC2K6-04").expect("paper benchmark");
        for spec in two_predictors() {
            let plain = simulate_stream(spec.make().as_mut(), bench.stream(40_000));
            let mut events = SingleTenant::new(bench.stream(40_000));
            let run = simulate_scenario(&spec, &mut events);
            assert_eq!(run.stats, plain.stats, "{}", spec.name);
            assert_eq!(run.instructions, plain.instructions);
            assert_eq!(run.records, plain.records);
            assert_eq!(run.flushes, 0);
            assert_eq!(run.tenants.len(), 1);
            assert_eq!(run.tenants[0].stats, plain.stats);
        }
    }

    #[test]
    fn tenant_tallies_conserve_combined_totals() {
        let scenario = scenario_by_name("paper_mix").expect("builtin");
        for spec in two_predictors() {
            let mut events = scenario.events();
            let run = simulate_scenario(&spec, events.as_mut());
            assert_eq!(run.tenants.len(), scenario.tenants.len());
            let mut stats = PredictorStats::default();
            let mut instructions = 0u64;
            for tally in &run.tenants {
                stats.merge(&tally.stats);
                instructions += tally.instructions;
                assert_eq!(
                    tally.attribution.total_provided(),
                    tally.stats.predicted,
                    "every prediction is attributed to its tenant"
                );
            }
            assert_eq!(
                stats, run.stats,
                "{}: tenant stats must sum exactly",
                spec.name
            );
            assert_eq!(instructions, run.instructions);
        }
    }

    #[test]
    fn fused_and_solo_scenario_runs_are_identical() {
        let scenario = scenario_by_name("paper_switch").expect("builtin");
        let predictors = two_predictors();
        let mut events = scenario.events();
        let fused = simulate_scenario_multi(&predictors, events.as_mut());
        for (spec, fused_run) in predictors.iter().zip(&fused) {
            let mut solo_events = scenario.events();
            let solo = simulate_scenario(spec, solo_events.as_mut());
            assert_eq!(fused_run, &solo, "{} diverged under fusion", spec.name);
        }
    }

    #[test]
    fn scenario_report_is_deterministic_across_jobs() {
        let scenario = scenario_by_name("paper_mix").expect("builtin");
        let predictors = two_predictors();
        let a = run_scenario_with_cache(&scenario, &predictors, 1, None, &|_| {}).expect("runs");
        let b = run_scenario_with_cache(&scenario, &predictors, 8, None, &|_| {}).expect("runs");
        assert_eq!(a, b, "report must not depend on worker count");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_markdown(), b.to_markdown());
        let md = a.to_markdown();
        assert!(md.contains("## MPKI (combined and per tenant"));
        assert!(md.contains("## Per-tenant component attribution"));
        let json = a.to_json();
        assert!(json.contains("\"report\": \"bp-scenario\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn partial_flushes_fire_and_hurt_accuracy() {
        let quiet = scenario_by_name("paper_mix").expect("builtin");
        let flushed = scenario_by_name("paper_switch").expect("builtin");
        let spec = lookup("tage-gsc+imli").expect("registered");
        let mut quiet_events = quiet.events();
        let quiet_run = simulate_scenario(&spec, quiet_events.as_mut());
        let mut flushed_events = flushed.events();
        let flushed_run = simulate_scenario(&spec, flushed_events.as_mut());
        assert_eq!(quiet_run.flushes, 0);
        assert!(
            flushed_run.flushes >= 10,
            "600k/50k: {}",
            flushed_run.flushes
        );
        assert!(
            flushed_run.stats.mispredicted > quiet_run.stats.mispredicted,
            "history flushes must cost mispredictions ({} vs {})",
            flushed_run.stats.mispredicted,
            quiet_run.stats.mispredicted
        );
    }

    #[test]
    fn full_flush_is_at_least_as_destructive_as_partial() {
        let mut scenario = scenario_by_name("paper_switch").expect("builtin");
        let spec = lookup("tage-gsc+imli").expect("registered");
        let mut partial_events = scenario.events();
        let partial = simulate_scenario(&spec, partial_events.as_mut());
        scenario.flush = Some(ScenarioFlush {
            period: 50_000,
            mode: FlushMode::Full,
        });
        let mut full_events = scenario.events();
        let full = simulate_scenario(&spec, full_events.as_mut());
        assert_eq!(partial.flushes, full.flushes);
        assert!(
            full.stats.mispredicted > partial.stats.mispredicted,
            "cold rebuilds forget learned tables too ({} vs {})",
            full.stats.mispredicted,
            partial.stats.mispredicted
        );
    }

    #[test]
    fn parse_scenario_file_roundtrip_and_errors() {
        let spec = parse_scenario_file(
            r#"{
                "name": "custom",
                "instructions": 60000,
                "tenants": [
                    {"benchmark": "SPEC2K6-04"},
                    {"adversarial": {"seed": 7, "genes": 12}}
                ],
                "schedule": {"seeded_bursts": {"seed": 3, "min": 8, "max": 64}},
                "flush": {"period": 20000, "mode": "full"}
            }"#,
        )
        .expect("valid file");
        assert_eq!(spec.name, "custom");
        assert_eq!(spec.instructions, 60_000);
        assert_eq!(spec.tenants.len(), 2);
        assert_eq!(
            spec.schedule,
            InterleaveSchedule::SeededBursts {
                seed: 3,
                min: 8,
                max: 64
            }
        );
        assert_eq!(
            spec.flush,
            Some(ScenarioFlush {
                period: 20_000,
                mode: FlushMode::Full
            })
        );

        // Defaults: schedule and flush optional.
        let spec = parse_scenario_file(r#"{"name": "d", "tenants": [{"benchmark": "MM-4"}]}"#)
            .expect("defaults");
        assert_eq!(
            spec.schedule,
            InterleaveSchedule::RoundRobin { quantum: 64 }
        );
        assert_eq!(spec.flush, None);
        assert_eq!(spec.instructions, 150_000);

        for bad in [
            r#"{"tenants": [{"benchmark": "MM-4"}]}"#,
            r#"{"name": "x", "tenants": []}"#,
            r#"{"name": "x", "tenants": [{"benchmark": "no-such-benchmark"}]}"#,
            r#"{"name": "x", "tenants": [{"benchmark": "MM-4"}], "flush": {"period": 1, "mode": "sideways"}}"#,
            r#"{"name": "bad name!", "tenants": [{"benchmark": "MM-4"}]}"#,
            r#"{"name": "x", "tenants": [{"benchmark": "MM-4", "adversarial": {"seed": 1, "genes": 2}}]}"#,
            // Rejected by validation, before any genome is allocated.
            r#"{"name": "x", "tenants": [{"adversarial": {"seed": 1, "genes": 65537}}]}"#,
            r#"{"name": "x", "tenants": [{"adversarial": {"seed": 1, "genes": 4294967296}}]}"#,
        ] {
            assert!(parse_scenario_file(bad).is_err(), "{bad}");
        }
    }
}
