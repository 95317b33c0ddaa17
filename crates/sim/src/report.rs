//! Paper-style reporting: component attribution, storage budgets, and
//! MPKI tables folded into one deterministic document.
//!
//! The IMLI paper's results are ablation tables — predictor × suite
//! MPKI at fixed storage budgets, explained by *which component* fixed
//! *which branches*. This module turns a grid run into that shape:
//!
//! * [`simulate_stream_attributed`] — the CBP protocol driven through
//!   [`ConditionalPredictor::predict_attributed`], folding every
//!   prediction into per-component [`ComponentTally`]s split into
//!   warmup and steady-state phases. Produces bit-identical predictions
//!   to [`crate::simulate_stream`] (property-tested);
//! * [`run_report`] — the parallel (predictor × benchmark) grid of
//!   attributed runs, aggregated per predictor into a [`SuiteReport`];
//! * [`SuiteReport::to_markdown`] / [`SuiteReport::to_json`] —
//!   deterministic renderings (no timestamps, no wall-clock, stable
//!   ordering): the same inputs produce byte-identical reports, which
//!   is what makes them diffable artifacts of record.

use crate::cache::{report_cell_key, workload_identity, CacheKey, SimCache};
use crate::column::Column;
use crate::engine::{
    auto_fuses, run_columns, run_indexed, transpose_columns, CellLabel, CellUpdate,
};
use crate::registry::PredictorSpec;
use crate::run::{fill_multi_block, Mpki, SimResult, MULTI_BLOCK_RECORDS};
use bp_components::{
    ConditionalPredictor, PredictionAttribution, PredictorStats, ProviderComponent, StorageItem,
};
use bp_trace::{BranchRecord, BranchStream};
use bp_workloads::BenchmarkSpec;
use std::fmt::Write as _;

/// Per-component prediction outcomes over one run (or aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentTally {
    /// Predictions this component provided.
    pub provided: u64,
    /// Provided predictions that were correct.
    pub correct: u64,
    /// Provided predictions made with high confidence.
    pub high_confidence: u64,
    /// "Steals": provided correctly while the alternate path would have
    /// mispredicted — the mispredictions this component removed.
    pub saves: u64,
    /// Provided wrongly while the alternate path would have been
    /// correct — the mispredictions this component introduced.
    pub losses: u64,
}

impl ComponentTally {
    /// Fraction of provided predictions that were correct, or `None`
    /// before any prediction.
    pub fn accuracy(&self) -> Option<f64> {
        (self.provided != 0).then(|| self.correct as f64 / self.provided as f64)
    }

    /// Net mispredictions removed by this component versus its
    /// alternate path (saves − losses) — a per-component ablation
    /// estimate without re-running the grid.
    pub fn net_saves(&self) -> i64 {
        self.saves as i64 - self.losses as i64
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ComponentTally) {
        self.provided += other.provided;
        self.correct += other.correct;
        self.high_confidence += other.high_confidence;
        self.saves += other.saves;
        self.losses += other.losses;
    }
}

/// Prediction attribution folded per component key (see
/// [`bp_components::ProviderComponent::key`]), in deterministic
/// (alphabetical) order.
///
/// Dense: one slot per component key, indexed by the key's
/// alphabetical position, so [`record`](Self::record) — run once per
/// attributed prediction — is an array index, not a map search. An
/// empty slot is a component that never provided; a decoded entry
/// with zero `provided` stays distinct from an absent one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionSummary {
    tallies: [Option<ComponentTally>; COMPONENT_KEYS.len()],
}

/// The [`COMPONENT_KEYS`] slot of a provider component.
#[inline]
fn component_slot(component: ProviderComponent) -> usize {
    match component {
        ProviderComponent::Base => 0,
        ProviderComponent::Corrector => 1,
        ProviderComponent::Loop => 2,
        ProviderComponent::Neural => 3,
        ProviderComponent::Tagged(_) => 4,
        ProviderComponent::Unattributed => 5,
        ProviderComponent::Wormhole => 6,
    }
}

/// The [`COMPONENT_KEYS`] slot of `key`; `None` for a key outside this
/// build's component vocabulary (cache decoding then marks the whole
/// entry undecodable).
pub(crate) fn component_key_slot(key: &str) -> Option<usize> {
    COMPONENT_KEYS.iter().position(|k| *k == key)
}

impl AttributionSummary {
    /// Folds one prediction into the summary. `pred` is the final
    /// prediction, `taken` the resolved outcome. The provider/save/loss
    /// split is [`PredictionAttribution::classify`]'s — one definition
    /// shared with the scenario layer's per-tenant tallies.
    #[inline]
    pub fn record(&mut self, attribution: &PredictionAttribution, pred: bool, taken: bool) {
        let tally = self.tallies[component_slot(attribution.component)].get_or_insert_default();
        let outcome = attribution.classify(pred, taken);
        tally.provided += 1;
        tally.correct += u64::from(outcome.correct);
        tally.high_confidence += u64::from(outcome.high_confidence);
        tally.saves += u64::from(outcome.save);
        tally.losses += u64::from(outcome.loss);
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &AttributionSummary) {
        for (mine, theirs) in self.tallies.iter_mut().zip(&other.tallies) {
            if let Some(theirs) = theirs {
                mine.get_or_insert_default().merge(theirs);
            }
        }
    }

    /// The tally of one component key, if it ever provided.
    pub fn get(&self, key: &str) -> Option<&ComponentTally> {
        self.tallies[component_key_slot(key)?].as_ref()
    }

    /// All components that provided at least one prediction, in stable
    /// alphabetical order.
    pub fn components(&self) -> impl Iterator<Item = (&'static str, &ComponentTally)> {
        COMPONENT_KEYS
            .iter()
            .zip(&self.tallies)
            .filter_map(|(key, tally)| Some((*key, tally.as_ref()?)))
    }

    /// Total predictions across all components (equals the number of
    /// conditional branches of the run).
    pub fn total_provided(&self) -> u64 {
        self.tallies.iter().flatten().map(|t| t.provided).sum()
    }

    /// Rebuilds one component entry from a decoded cache payload. The
    /// slot comes from [`component_key_slot`]: cached entries can only
    /// name components that exist in this build.
    pub(crate) fn insert_tally(&mut self, slot: usize, tally: ComponentTally) {
        self.tallies[slot] = Some(tally);
    }
}

/// The closed set of provider-component keys
/// ([`bp_components::ProviderComponent::key`] values plus
/// `"unattributed"`), alphabetical — [`AttributionSummary`]'s slot
/// order. Cache decoding resolves parsed attribution keys against this
/// set; an unknown key means the entry predates (or postdates) this
/// build's component vocabulary and must be recomputed.
pub(crate) const COMPONENT_KEYS: [&str; 7] = [
    "base",
    "corrector",
    "loop",
    "neural",
    "tagged",
    "unattributed",
    "wormhole",
];

/// Statistics of one phase (warmup or steady state) of an attributed
/// run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Instructions retired during this phase.
    pub instructions: u64,
    /// Prediction counts of this phase.
    pub stats: PredictorStats,
    /// Per-component attribution of this phase.
    pub attribution: AttributionSummary,
}

impl PhaseSummary {
    /// MPKI over this phase only.
    pub fn mpki(&self) -> f64 {
        Mpki::from_counts(self.stats.mispredicted, self.instructions).value()
    }

    /// Merges another phase summary (e.g. the same phase of another
    /// benchmark) into this one.
    pub fn merge(&mut self, other: &PhaseSummary) {
        self.instructions += other.instructions;
        self.stats.merge(&other.stats);
        self.attribution.merge(&other.attribution);
    }
}

/// The result of one attributed simulation: the plain [`SimResult`]
/// plus warmup/steady-state attribution phases.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributedRun {
    /// The plain simulation result — identical to what
    /// [`crate::simulate_stream`] returns for the same stream.
    pub result: SimResult,
    /// The configured warmup boundary in instructions.
    pub warmup_instructions: u64,
    /// The first `warmup_instructions` of the run.
    pub warmup: PhaseSummary,
    /// Everything after the warmup boundary.
    pub steady: PhaseSummary,
}

/// Simulates `predictor` over `stream` with the CBP protocol through
/// the attribution channel, splitting results at `warmup_instructions`
/// retired instructions: a record belongs to warmup while the running
/// instruction count *including that record* stays within the budget,
/// so a record whose retirement crosses the boundary already counts as
/// steady state.
///
/// Predictions are guaranteed identical to [`crate::simulate_stream`]
/// on the same stream: both drive the same prediction path, attribution
/// is a read-only byproduct.
pub fn simulate_stream_attributed<P, S>(
    predictor: &mut P,
    mut stream: S,
    warmup_instructions: u64,
) -> AttributedRun
where
    P: ConditionalPredictor + ?Sized,
    S: BranchStream,
{
    let benchmark = stream.name().to_owned();
    let mut stats = PredictorStats::default();
    let mut instructions = 0u64;
    let mut records = 0u64;
    let mut warmup = PhaseSummary::default();
    let mut steady = PhaseSummary::default();
    while let Some(record) = stream.next_record() {
        instructions += record.instructions();
        records += 1;
        let phase = if instructions <= warmup_instructions {
            &mut warmup
        } else {
            &mut steady
        };
        phase.instructions += record.instructions();
        if record.is_conditional() {
            let (pred, attribution) = predictor.predict_attributed(record.pc);
            let correct = pred == record.taken;
            stats.record(correct);
            phase.stats.record(correct);
            phase.attribution.record(&attribution, pred, record.taken);
            predictor.update(&record);
        } else {
            predictor.notify_nonconditional(&record);
        }
    }
    AttributedRun {
        result: SimResult {
            benchmark,
            predictor: predictor.name().to_owned(),
            instructions,
            records,
            stats,
        },
        warmup_instructions,
        warmup,
        steady,
    }
}

/// Per-predictor accumulation state of one fused attributed pass.
#[derive(Default)]
struct MultiAccum {
    stats: PredictorStats,
    warmup: PhaseSummary,
    steady: PhaseSummary,
}

/// [`simulate_stream_attributed`] for *several* predictor specs over
/// **one** pass of the stream — the attributed twin of
/// [`crate::simulate_stream_multi`], and the core of the fused report
/// path.
///
/// The specs are built into one [`Column`] (TAGE-SC variants of one
/// TAGE geometry share a front), and the stream is pulled once in
/// blocks; each host consumes the whole block before the next
/// (cache-friendly, exactly like the plain fused path). The warmup
/// boundary is a pure function of the record sequence: the running
/// instruction total only grows, so each block splits once into a
/// warmup prefix and a steady suffix, and every spec sees the identical
/// split. Every returned [`AttributedRun`] is bit-identical to a solo
/// [`simulate_stream_attributed`] over an equal stream.
pub fn simulate_stream_attributed_multi<S>(
    specs: &[PredictorSpec],
    mut stream: S,
    warmup_instructions: u64,
) -> Vec<AttributedRun>
where
    S: BranchStream,
{
    let benchmark = stream.name().to_owned();
    let mut column = Column::build(specs);
    let mut accums: Vec<MultiAccum> = specs.iter().map(|_| MultiAccum::default()).collect();
    let mut instructions = 0u64;
    let mut records = 0u64;
    let mut block = Vec::with_capacity(MULTI_BLOCK_RECORDS);
    loop {
        let mut running = instructions;
        fill_multi_block(&mut stream, &mut block, &mut instructions, &mut records);
        if block.is_empty() {
            break;
        }
        let split = block
            .iter()
            .position(|record| {
                running += record.instructions();
                running > warmup_instructions
            })
            .unwrap_or(block.len());
        let (warm, steady) = block.split_at(split);
        let warm_instructions: u64 = warm.iter().map(BranchRecord::instructions).sum();
        let steady_instructions: u64 = steady.iter().map(BranchRecord::instructions).sum();
        for accum in &mut accums {
            accum.warmup.instructions += warm_instructions;
            accum.steady.instructions += steady_instructions;
        }
        for (part, is_steady) in [(warm, false), (steady, true)] {
            column.run_block_attributed(part, |spec, record, pred, attribution| {
                let accum = &mut accums[spec];
                let phase = if is_steady {
                    &mut accum.steady
                } else {
                    &mut accum.warmup
                };
                let correct = pred == record.taken;
                accum.stats.record(correct);
                phase.stats.record(correct);
                phase.attribution.record(&attribution, pred, record.taken);
            });
        }
        if block.len() < MULTI_BLOCK_RECORDS {
            break;
        }
    }
    column
        .names()
        .into_iter()
        .zip(accums)
        .map(|(predictor, accum)| AttributedRun {
            result: SimResult {
                benchmark: benchmark.clone(),
                predictor,
                instructions,
                records,
                stats: accum.stats,
            },
            warmup_instructions,
            warmup: accum.warmup,
            steady: accum.steady,
        })
        .collect()
}

/// One predictor row of a [`SuiteReport`]: suite-wide MPKI, exact
/// storage itemization, and aggregated attribution phases.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Registry name (`"tage-gsc+imli"`).
    pub name: String,
    /// Configured display name (`"TAGE-GSC+IMLI"`).
    pub display: String,
    /// Host family label.
    pub family: String,
    /// Paper section/table this configuration reproduces.
    pub paper_ref: String,
    /// Exact per-table storage itemization.
    pub storage_items: Vec<StorageItem>,
    /// Total storage in bits (sum of the items).
    pub storage_bits: u64,
    /// Per-benchmark MPKI, in suite order.
    pub mpki: Vec<f64>,
    /// Warmup phase aggregated over the whole suite.
    pub warmup: PhaseSummary,
    /// Steady-state phase aggregated over the whole suite.
    pub steady: PhaseSummary,
}

impl ReportRow {
    /// Arithmetic-mean MPKI over the suite (warmup included), the
    /// paper's headline metric.
    pub fn mean_mpki(&self) -> f64 {
        if self.mpki.is_empty() {
            return 0.0;
        }
        self.mpki.iter().sum::<f64>() / self.mpki.len() as f64
    }

    /// MPKI over the steady-state phase only.
    pub fn steady_mpki(&self) -> f64 {
        self.steady.mpki()
    }

    /// Storage in Kbit.
    pub fn storage_kbit(&self) -> f64 {
        self.storage_bits as f64 / 1024.0
    }
}

/// A complete paper-style report over one suite: every predictor's
/// MPKI, storage budget, and component attribution.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Suite label (`"paper"`, `"cbp4"`, `"cbp3"`).
    pub suite: String,
    /// Instructions per benchmark.
    pub instructions: u64,
    /// Warmup boundary in instructions.
    pub warmup_instructions: u64,
    /// Benchmark names, in suite order.
    pub benchmarks: Vec<String>,
    /// Predictor rows, in input order.
    pub rows: Vec<ReportRow>,
    /// Dynamic branch records of each grid cell, row-major
    /// (`cell_records[p * benchmarks.len() + b]`). Deterministic.
    pub cell_records: Vec<u64>,
    /// Wall seconds spent on each cell, row-major like `cell_records`
    /// (under the fused path: the column's wall time apportioned
    /// evenly). Throughput telemetry only — never serialized into the
    /// deterministic report documents, and excluded from equality.
    pub cell_seconds: Vec<f64>,
}

/// Equality deliberately ignores `cell_seconds`: the report's content
/// is deterministic across worker counts, scheduling strategies, and
/// runs; wall-clock is not. Mirrors [`crate::GridResult`]'s equality.
impl PartialEq for SuiteReport {
    fn eq(&self, other: &Self) -> bool {
        self.suite == other.suite
            && self.instructions == other.instructions
            && self.warmup_instructions == other.warmup_instructions
            && self.benchmarks == other.benchmarks
            && self.rows == other.rows
            && self.cell_records == other.cell_records
    }
}

/// Runs the full attributed (predictor × benchmark) grid and folds it
/// into a [`SuiteReport`]: one fresh cold predictor per cell (the CBP
/// protocol), fanned out over `jobs` workers with the engine's dynamic
/// scheduler. Deterministic: the report depends only on the inputs,
/// never on worker count or scheduling.
///
/// Scheduling follows the engine's auto heuristic: when at least two
/// predictors share each benchmark and the columns can keep every
/// worker busy, whole benchmark columns are fused
/// ([`simulate_stream_attributed_multi`]) so each stream is generated
/// once instead of once per predictor; otherwise cells are scheduled
/// individually. Both paths produce the identical report.
pub fn run_report(
    suite: &str,
    predictors: &[PredictorSpec],
    benchmarks: &[BenchmarkSpec],
    instructions: u64,
    warmup_instructions: u64,
    jobs: usize,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> SuiteReport {
    run_report_with_cache(
        suite,
        predictors,
        benchmarks,
        instructions,
        warmup_instructions,
        jobs,
        None,
        progress,
    )
}

/// [`run_report`] with an optional result cache. Every cell key is
/// probed before any scheduling; verified hits are spliced in (their
/// progress callbacks fire first, in cell order) and only the miss-set
/// is dispatched — under the fused path each benchmark column fuses
/// only its co-resident misses. Computed cells are written back under
/// the policy. The report is bit-identical with the cache absent,
/// cold, or warm.
#[allow(clippy::too_many_arguments)]
pub fn run_report_with_cache(
    suite: &str,
    predictors: &[PredictorSpec],
    benchmarks: &[BenchmarkSpec],
    instructions: u64,
    warmup_instructions: u64,
    jobs: usize,
    cache: Option<&SimCache>,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> SuiteReport {
    let total = predictors.len() * benchmarks.len();
    let fused = auto_fuses(predictors.len(), benchmarks.len(), jobs);
    let timed: Vec<(AttributedRun, f64)> = if let Some(cache) = cache.filter(|c| c.enabled()) {
        run_attributed_cached(
            cache,
            predictors,
            benchmarks,
            instructions,
            warmup_instructions,
            jobs,
            progress,
        )
    } else if fused {
        let columns = run_columns(
            jobs,
            benchmarks.len(),
            0,
            total,
            |b| {
                let bench = &benchmarks[b];
                let runs = simulate_stream_attributed_multi(
                    predictors,
                    bench.stream(instructions),
                    warmup_instructions,
                );
                let labels = predictors
                    .iter()
                    .zip(&runs)
                    .map(|(spec, run)| CellLabel {
                        predictor: &spec.name,
                        benchmark: &bench.name,
                        mpki: run.result.mpki(),
                    })
                    .collect();
                (runs, labels)
            },
            progress,
        );
        let (cells, seconds) = transpose_columns(columns, predictors.len(), benchmarks.len());
        cells.into_iter().zip(seconds).collect()
    } else {
        run_indexed(
            jobs,
            total,
            0,
            total,
            |idx| {
                let spec = &predictors[idx / benchmarks.len()];
                let bench = &benchmarks[idx % benchmarks.len()];
                let mut predictor = spec.make();
                let run = simulate_stream_attributed(
                    predictor.as_mut(),
                    bench.stream(instructions),
                    warmup_instructions,
                );
                let label = CellLabel {
                    predictor: &spec.name,
                    benchmark: &bench.name,
                    mpki: run.result.mpki(),
                };
                (run, label)
            },
            progress,
        )
    };
    let (runs, cell_seconds): (Vec<AttributedRun>, Vec<f64>) = timed.into_iter().unzip();
    let cell_records: Vec<u64> = runs.iter().map(|r| r.result.records).collect();

    let rows = predictors
        .iter()
        .enumerate()
        .map(|(p, spec)| {
            let instance = spec.make();
            let storage_items = instance.storage_items();
            let storage_bits: u64 = storage_items.iter().map(|i| i.bits).sum();
            let row_runs = &runs[p * benchmarks.len()..(p + 1) * benchmarks.len()];
            let mut warmup = PhaseSummary::default();
            let mut steady = PhaseSummary::default();
            for run in row_runs {
                warmup.merge(&run.warmup);
                steady.merge(&run.steady);
            }
            ReportRow {
                name: spec.name.to_owned(),
                display: instance.name().to_owned(),
                family: spec.family.to_string(),
                paper_ref: spec.paper_ref.to_owned(),
                storage_items,
                storage_bits,
                mpki: row_runs.iter().map(|r| r.result.mpki()).collect(),
                warmup,
                steady,
            }
        })
        .collect();

    SuiteReport {
        suite: suite.to_owned(),
        instructions,
        warmup_instructions,
        benchmarks: benchmarks.iter().map(|b| b.name.clone()).collect(),
        rows,
        cell_records,
        cell_seconds,
    }
}

/// The cache-aware attributed grid dispatch behind
/// [`run_report_with_cache`]: probe every key, splice verified hits
/// (zero wall seconds — no simulation ran), dispatch only the misses,
/// store what was computed. Hits report progress first so `completed`
/// stays monotonic when the schedulers continue from the hit count.
fn run_attributed_cached(
    cache: &SimCache,
    predictors: &[PredictorSpec],
    benchmarks: &[BenchmarkSpec],
    instructions: u64,
    warmup_instructions: u64,
    jobs: usize,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Vec<(AttributedRun, f64)> {
    let n_b = benchmarks.len();
    let total = predictors.len() * n_b;
    let keys: Vec<CacheKey> = predictors
        .iter()
        .flat_map(|spec| {
            benchmarks
                .iter()
                .map(|bench| report_cell_key(spec, &bench.name, instructions, warmup_instructions))
        })
        .collect();
    let identities: Vec<String> = benchmarks.iter().map(workload_identity).collect();
    let mut cells: Vec<Option<(AttributedRun, f64)>> = keys
        .iter()
        .enumerate()
        .map(|(idx, key)| {
            cache
                .lookup_attributed(key, &benchmarks[idx % n_b].name, &identities[idx % n_b])
                .map(|run| (run, 0.0))
        })
        .collect();
    let mut completed = 0usize;
    for (idx, cell) in cells.iter().enumerate() {
        if let Some((run, _)) = cell {
            completed += 1;
            progress(CellUpdate {
                predictor: &predictors[idx / n_b].name,
                benchmark: &benchmarks[idx % n_b].name,
                mpki: run.result.mpki(),
                completed,
                total,
            });
        }
    }
    let misses: Vec<usize> = (0..total).filter(|&idx| cells[idx].is_none()).collect();
    if misses.is_empty() {
        // Fall through: every cell was a verified hit.
    } else if auto_fuses(predictors.len(), n_b, jobs) {
        // Fuse only the co-resident misses of each benchmark column:
        // fusing a predictor subset is bit-identical to solo runs
        // (each predictor sees the same stream independently).
        let miss_columns: Vec<(usize, Vec<usize>)> = (0..n_b)
            .filter_map(|b| {
                let preds: Vec<usize> = (0..predictors.len())
                    .filter(|&p| cells[p * n_b + b].is_none())
                    .collect();
                (!preds.is_empty()).then_some((b, preds))
            })
            .collect();
        let columns = run_columns(
            jobs,
            miss_columns.len(),
            completed,
            total,
            |ci| {
                let (b, preds) = &miss_columns[ci];
                let bench = &benchmarks[*b];
                let specs: Vec<PredictorSpec> =
                    preds.iter().map(|&p| predictors[p].clone()).collect();
                let runs = simulate_stream_attributed_multi(
                    &specs,
                    bench.stream(instructions),
                    warmup_instructions,
                );
                let labels = preds
                    .iter()
                    .zip(&runs)
                    .map(|(&p, run)| CellLabel {
                        predictor: &predictors[p].name,
                        benchmark: &bench.name,
                        mpki: run.result.mpki(),
                    })
                    .collect();
                (runs, labels)
            },
            progress,
        );
        for ((b, preds), (runs, seconds)) in miss_columns.iter().zip(columns) {
            let per_cell = seconds / runs.len().max(1) as f64;
            for (&p, run) in preds.iter().zip(runs) {
                cache.store_attributed(&keys[p * n_b + b], &identities[*b], &run);
                cells[p * n_b + b] = Some((run, per_cell));
            }
        }
    } else {
        let computed = run_indexed(
            jobs,
            misses.len(),
            completed,
            total,
            |j| {
                let idx = misses[j];
                let spec = &predictors[idx / n_b];
                let bench = &benchmarks[idx % n_b];
                let mut predictor = spec.make();
                let run = simulate_stream_attributed(
                    predictor.as_mut(),
                    bench.stream(instructions),
                    warmup_instructions,
                );
                let label = CellLabel {
                    predictor: &spec.name,
                    benchmark: &bench.name,
                    mpki: run.result.mpki(),
                };
                (run, label)
            },
            progress,
        );
        for (&idx, (run, seconds)) in misses.iter().zip(computed) {
            cache.store_attributed(&keys[idx], &identities[idx % n_b], &run);
            cells[idx] = Some((run, seconds));
        }
    }
    cells
        .into_iter()
        .map(|cell| cell.expect("every report cell filled"))
        .collect()
}

use bp_components::json_string as json_str;

pub(crate) fn attribution_json(summary: &AttributionSummary, indent: &str) -> String {
    let mut out = String::from("{");
    for (i, (key, t)) in summary.components().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}  {}: {{\"provided\": {}, \"correct\": {}, \"high_confidence\": {}, \
             \"saves\": {}, \"losses\": {}}}",
            json_str(key),
            t.provided,
            t.correct,
            t.high_confidence,
            t.saves,
            t.losses
        );
    }
    if summary.total_provided() > 0 || summary.components().count() > 0 {
        let _ = write!(out, "\n{indent}");
    }
    out.push('}');
    out
}

impl SuiteReport {
    /// One predictor row's aggregate throughput in records/sec: the
    /// row's total records over its total per-cell wall seconds (0.0
    /// when untimed). Telemetry for the CLI's live summary — never part
    /// of the serialized report.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn row_records_per_sec(&self, p: usize) -> f64 {
        let w = self.benchmarks.len();
        assert!(p < self.rows.len() && (p + 1) * w <= self.cell_records.len());
        let seconds: f64 = self.cell_seconds[p * w..(p + 1) * w].iter().sum();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.cell_records[p * w..(p + 1) * w]
            .iter()
            .map(|&r| r as f64)
            .sum::<f64>()
            / seconds
    }

    /// Renders the report as a deterministic JSON document (stable key
    /// order, fixed float precision, no timestamps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"report\": \"bp-report\",");
        let _ = writeln!(out, "  \"suite\": {},", json_str(&self.suite));
        let _ = writeln!(out, "  \"instructions\": {},", self.instructions);
        let _ = writeln!(
            out,
            "  \"warmup_instructions\": {},",
            self.warmup_instructions
        );
        out.push_str("  \"benchmarks\": [");
        for (i, b) in self.benchmarks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(b));
        }
        out.push_str("],\n  \"predictors\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_str(&row.name));
            let _ = writeln!(out, "      \"display\": {},", json_str(&row.display));
            let _ = writeln!(out, "      \"family\": {},", json_str(&row.family));
            let _ = writeln!(out, "      \"paper_ref\": {},", json_str(&row.paper_ref));
            let _ = writeln!(out, "      \"storage_bits\": {},", row.storage_bits);
            let _ = writeln!(out, "      \"storage_kbit\": {:.3},", row.storage_kbit());
            out.push_str("      \"storage\": [");
            for (j, item) in row.storage_items.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"label\": {}, \"bits\": {}}}",
                    json_str(&item.label),
                    item.bits
                );
            }
            out.push_str("],\n");
            let _ = writeln!(out, "      \"mean_mpki\": {:.6},", row.mean_mpki());
            let _ = writeln!(out, "      \"steady_mpki\": {:.6},", row.steady_mpki());
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
                "      \"attribution\": {{\n        \"warmup\": {},\n        \"steady\": {}\n      }}",
                attribution_json(&row.warmup.attribution, "        "),
                attribution_json(&row.steady.attribution, "        ")
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

    /// Renders the report as deterministic Markdown in the paper's
    /// table shape: storage budgets, predictor × benchmark MPKI, and
    /// per-component attribution.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# IMLI reproduction report — `{}` suite", self.suite);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Deterministic output of `bp report {} --instr {} --warmup {}`: the same \
             inputs produce a byte-identical report (no timestamps, no wall-clock).",
            self.suite, self.instructions, self.warmup_instructions
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "- benchmarks: {} × {} instructions each (warmup: first {} instructions)",
            self.benchmarks.len(),
            self.instructions,
            self.warmup_instructions
        );
        let _ = writeln!(out, "- predictors: {}", self.rows.len());
        let _ = writeln!(out);

        // Storage budgets, itemized coarsely by top-level component.
        let _ = writeln!(out, "## Storage budgets");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Exact bit accounting from each predictor's `StorageBudget` itemization \
             (the paper quotes Kbit; 1 Kbit = 1024 bits)."
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| config | predictor | family | Kbit | bits | breakdown |"
        );
        let _ = writeln!(out, "|---|---|---|---:|---:|---|");
        for row in &self.rows {
            let mut groups: Vec<(String, u64)> = Vec::new();
            for item in &row.storage_items {
                let group = item
                    .label
                    .split_once('/')
                    .map_or(item.label.as_str(), |(head, _)| head)
                    .to_owned();
                match groups.last_mut() {
                    Some((g, bits)) if *g == group => *bits += item.bits,
                    _ => groups.push((group, item.bits)),
                }
            }
            let breakdown = groups
                .iter()
                .map(|(g, bits)| format!("{g} {:.1}", *bits as f64 / 1024.0))
                .collect::<Vec<_>>()
                .join(" + ");
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {:.1} | {} | {breakdown} |",
                row.name,
                row.display,
                row.family,
                row.storage_kbit(),
                row.storage_bits
            );
        }
        let _ = writeln!(out);

        // MPKI grid.
        let _ = writeln!(out, "## MPKI (predictor × benchmark, lower is better)");
        let _ = writeln!(out);
        let mut header = String::from("| config | mean | steady |");
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
                "| `{}` | {:.3} | {:.3} |",
                row.name,
                row.mean_mpki(),
                row.steady_mpki()
            );
            for m in &row.mpki {
                let _ = write!(out, " {m:.3} |");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);

        // Attribution.
        let _ = writeln!(out, "## Component attribution (steady state)");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Which component provided each prediction after warmup. *Saves* are \
             predictions the provider got right while its alternate path would have \
             mispredicted; *losses* the reverse; *net/ki* is (saves − losses) per kilo \
             instruction — a per-component ablation estimate. *Unattributed* rows come \
             from predictors that do not implement the attribution channel."
        );
        for row in &self.rows {
            let _ = writeln!(out);
            let _ = writeln!(out, "### `{}` — {}", row.name, row.display);
            let _ = writeln!(out);
            let total = row.steady.attribution.total_provided();
            let _ = writeln!(
                out,
                "| component | provided | share | accuracy | high-conf | saves | losses | net/ki |"
            );
            let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|");
            for (key, t) in row.steady.attribution.components() {
                let share = if total == 0 {
                    0.0
                } else {
                    t.provided as f64 / total as f64 * 100.0
                };
                let accuracy = t.accuracy().unwrap_or(0.0) * 100.0;
                let high = if t.provided == 0 {
                    0.0
                } else {
                    t.high_confidence as f64 / t.provided as f64 * 100.0
                };
                let net_per_ki = if row.steady.instructions == 0 {
                    0.0
                } else {
                    t.net_saves() as f64 * 1000.0 / row.steady.instructions as f64
                };
                let _ = writeln!(
                    out,
                    "| {key} | {} | {share:.1} % | {accuracy:.1} % | {high:.1} % | {} | {} | {net_per_ki:+.3} |",
                    t.provided, t.saves, t.losses
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tally_tests {
    use super::*;
    use bp_components::ConfidenceBucket;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every provider component, with tagged banks at both ends.
    const VARIANTS: [ProviderComponent; 8] = [
        ProviderComponent::Unattributed,
        ProviderComponent::Base,
        ProviderComponent::Tagged(0),
        ProviderComponent::Tagged(u8::MAX),
        ProviderComponent::Corrector,
        ProviderComponent::Neural,
        ProviderComponent::Loop,
        ProviderComponent::Wormhole,
    ];

    #[test]
    fn component_slots_follow_key_order() {
        for component in VARIANTS {
            assert_eq!(
                COMPONENT_KEYS[component_slot(component)],
                component.key(),
                "{component:?}"
            );
            assert_eq!(
                component_key_slot(component.key()),
                Some(component_slot(component))
            );
        }
        let mut sorted = COMPONENT_KEYS;
        sorted.sort_unstable();
        assert_eq!(sorted, COMPONENT_KEYS, "keys are alphabetical");
        assert_eq!(component_key_slot("martian"), None);
    }

    /// The map-backed tally the dense one replaced: the reference model.
    #[derive(Debug, Default, PartialEq)]
    struct MapSummary(BTreeMap<&'static str, ComponentTally>);

    impl MapSummary {
        fn record(&mut self, attribution: &PredictionAttribution, pred: bool, taken: bool) {
            let tally = self.0.entry(attribution.component.key()).or_default();
            let outcome = attribution.classify(pred, taken);
            tally.provided += 1;
            tally.correct += u64::from(outcome.correct);
            tally.high_confidence += u64::from(outcome.high_confidence);
            tally.saves += u64::from(outcome.save);
            tally.losses += u64::from(outcome.loss);
        }

        fn merge(&mut self, other: &MapSummary) {
            for (key, tally) in &other.0 {
                self.0.entry(key).or_default().merge(tally);
            }
        }
    }

    fn assert_matches_model(dense: &AttributionSummary, model: &MapSummary) {
        let listed: Vec<_> = dense.components().map(|(k, t)| (k, *t)).collect();
        let expected: Vec<_> = model.0.iter().map(|(k, t)| (*k, *t)).collect();
        assert_eq!(listed, expected, "components() order and content");
        for key in COMPONENT_KEYS.iter().chain(&["martian"]) {
            assert_eq!(dense.get(key), model.0.get(key), "get({key})");
        }
        assert_eq!(
            dense.total_provided(),
            model.0.values().map(|t| t.provided).sum::<u64>()
        );
    }

    /// Applies one encoded operation to a (dense, model) pair; `other`
    /// is the source of merges.
    fn apply(
        op: (u8, u64),
        dense: &mut AttributionSummary,
        model: &mut MapSummary,
        other: &(AttributionSummary, MapSummary),
    ) {
        let (code, v) = op;
        match code % 8 {
            0..=4 => {
                let attribution = PredictionAttribution::new(
                    VARIANTS[(v % 8) as usize],
                    [None, Some(false), Some(true)][(v >> 3) as usize % 3],
                    [
                        ConfidenceBucket::Low,
                        ConfidenceBucket::Medium,
                        ConfidenceBucket::High,
                    ][(v >> 5) as usize % 3],
                );
                let (pred, taken) = ((v >> 7) & 1 == 1, (v >> 8) & 1 == 1);
                dense.record(&attribution, pred, taken);
                model.record(&attribution, pred, taken);
            }
            5 | 6 => {
                let slot = (v % 7) as usize;
                // Zero `provided` included: a decoded entry that never
                // provided is still present.
                let tally = ComponentTally {
                    provided: (v >> 3) % 3,
                    correct: (v >> 5) % 2,
                    high_confidence: (v >> 6) % 2,
                    saves: (v >> 7) % 2,
                    losses: (v >> 8) % 2,
                };
                dense.insert_tally(slot, tally);
                model.0.insert(COMPONENT_KEYS[slot], tally);
            }
            _ => {
                dense.merge(&other.0);
                model.merge(&other.1);
            }
        }
    }

    proptest! {
        #[test]
        fn dense_tally_matches_map_model(
            ops_a in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..60),
            ops_b in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..12),
        ) {
            // `b` is built first (merging from an empty source), then
            // `a` merges from it.
            let empty = (AttributionSummary::default(), MapSummary::default());
            let mut b = (AttributionSummary::default(), MapSummary::default());
            for &op in &ops_b {
                apply(op, &mut b.0, &mut b.1, &empty);
            }
            let mut a = (AttributionSummary::default(), MapSummary::default());
            for &op in &ops_a {
                apply(op, &mut a.0, &mut a.1, &b);
                assert_matches_model(&a.0, &a.1);
            }
            assert_matches_model(&b.0, &b.1);
            prop_assert_eq!(a.0 == b.0, a.1 == b.1);
            // Rebuilding from the model's entries gives an equal summary.
            let mut rebuilt = AttributionSummary::default();
            for (key, tally) in &a.1 .0 {
                rebuilt.insert_tally(component_key_slot(key).expect("known key"), *tally);
            }
            prop_assert_eq!(rebuilt, a.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lookup;
    use crate::run::simulate_stream;
    use bp_workloads::cbp4_suite;

    fn small_inputs() -> (Vec<PredictorSpec>, Vec<BenchmarkSpec>) {
        let predictors: Vec<PredictorSpec> = ["bimodal", "tage-gsc+imli"]
            .iter()
            .map(|n| lookup(n).expect("registered"))
            .collect();
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(2).collect();
        (predictors, benchmarks)
    }

    #[test]
    fn attributed_run_matches_plain_simulation() {
        let (predictors, benchmarks) = small_inputs();
        for spec in &predictors {
            let plain = simulate_stream(spec.make().as_mut(), benchmarks[0].stream(30_000));
            let attributed = simulate_stream_attributed(
                spec.make().as_mut(),
                benchmarks[0].stream(30_000),
                10_000,
            );
            assert_eq!(plain, attributed.result, "{}", spec.name);
            // Phases partition the run.
            assert_eq!(
                attributed.warmup.stats.predicted + attributed.steady.stats.predicted,
                plain.stats.predicted
            );
            assert_eq!(
                attributed.warmup.instructions + attributed.steady.instructions,
                plain.instructions
            );
            assert_eq!(
                attributed.warmup.attribution.total_provided(),
                attributed.warmup.stats.predicted
            );
            assert_eq!(
                attributed.steady.attribution.total_provided(),
                attributed.steady.stats.predicted
            );
        }
    }

    #[test]
    fn attributed_components_are_meaningful() {
        let spec = lookup("tage-gsc+imli").expect("registered");
        let run = simulate_stream_attributed(
            spec.make().as_mut(),
            cbp4_suite()[0].stream(100_000),
            20_000,
        );
        // A TAGE-based predictor must attribute, and the tagged banks
        // must provide a real share of steady-state predictions.
        assert!(run.steady.attribution.get("unattributed").is_none());
        let tagged = run.steady.attribution.get("tagged").expect("tagged hits");
        assert!(tagged.provided > 0);
        // Correctness counts never exceed provided counts.
        for (_, t) in run.steady.attribution.components() {
            assert!(t.correct <= t.provided);
            assert!(t.high_confidence <= t.provided);
            assert!(t.saves <= t.correct);
            assert!(t.losses <= t.provided - t.correct);
        }
    }

    #[test]
    fn fused_attributed_runs_match_solo_runs_exactly() {
        let (predictors, benchmarks) = small_inputs();
        let fused =
            simulate_stream_attributed_multi(&predictors, benchmarks[0].stream(30_000), 10_000);
        assert_eq!(fused.len(), predictors.len());
        for (spec, run) in predictors.iter().zip(&fused) {
            let solo = simulate_stream_attributed(
                spec.make().as_mut(),
                benchmarks[0].stream(30_000),
                10_000,
            );
            assert_eq!(run, &solo, "{} diverged under fusion", spec.name);
        }
    }

    #[test]
    fn report_throughput_telemetry_is_populated_but_ignored_by_eq() {
        let (predictors, benchmarks) = small_inputs();
        let report = run_report("test", &predictors, &benchmarks, 20_000, 5_000, 1, &|_| {});
        assert_eq!(
            report.cell_records.len(),
            predictors.len() * benchmarks.len()
        );
        assert_eq!(report.cell_seconds.len(), report.cell_records.len());
        assert!(report.cell_records.iter().all(|&r| r > 0));
        for p in 0..report.rows.len() {
            assert!(report.row_records_per_sec(p) >= 0.0);
        }
        let mut other = report.clone();
        other.cell_seconds.iter_mut().for_each(|s| *s += 1.0);
        assert_eq!(report, other, "wall time must not affect equality");
    }

    #[test]
    fn report_is_deterministic_and_well_formed() {
        let (predictors, benchmarks) = small_inputs();
        let run = |jobs| {
            run_report(
                "test",
                &predictors,
                &benchmarks,
                20_000,
                5_000,
                jobs,
                &|_| {},
            )
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "report must not depend on worker count");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_markdown(), b.to_markdown());
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.benchmarks.len(), 2);
        for row in &a.rows {
            assert_eq!(row.mpki.len(), 2);
            assert!(row.storage_bits > 0);
            assert_eq!(
                row.storage_bits,
                row.storage_items.iter().map(|i| i.bits).sum::<u64>()
            );
        }
        let md = a.to_markdown();
        assert!(md.contains("## Storage budgets"));
        assert!(md.contains("## MPKI"));
        assert!(md.contains("## Component attribution"));
        assert!(md.contains("`tage-gsc+imli`"));
        let json = a.to_json();
        assert!(json.contains("\"report\": \"bp-report\""));
        assert!(json.contains("\"steady_mpki\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\ny\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn tally_arithmetic() {
        let mut t = ComponentTally::default();
        assert_eq!(t.accuracy(), None);
        t.provided = 10;
        t.correct = 7;
        t.saves = 3;
        t.losses = 1;
        assert!((t.accuracy().unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(t.net_saves(), 2);
        let mut u = t;
        u.merge(&t);
        assert_eq!(u.provided, 20);
        assert_eq!(u.net_saves(), 4);
    }
}
