//! The traced run: per-layer times measured from outside the program.
//!
//! The traced pass first replays each layer's public call on the
//! workload's own inputs, inside a span per call: draining
//! `BenchmarkSpec::stream` and `ScenarioSpec::events`,
//! `PredictorSpec::make`, `simulate` / `simulate_stream_attributed` /
//! `simulate_scenario_multi` on the drained records, `solve_budget`,
//! `report_cell_key`, `CacheStore::load` / `save`. The drives replay
//! the fused engine's order: each 4096-record block goes through every
//! predictor of its column before the next block. It then calls the
//! entry point itself and renders the artifact, in spans too.
//!
//! The *traced wall* is that last part: the entry-point call plus
//! rendering, the same interval `wall_s` times in untraced runs. Each
//! layer on the entry point's path contributes its replayed self time,
//! divided by the worker count where the engine spreads that layer over
//! workers; `engine.overhead_s` is the traced wall minus those
//! contributions (scheduling, fusing, splicing, row assembly — and any
//! error in the replay). So the layers account for the traced wall by
//! construction, and the benchmark's tests hold the arithmetic to it.

use crate::measure::{median, quantile};
use crate::spans::Tracer;
use crate::workload::{run_pass, Inputs, Pass, Workload};
use bp_cache::{CacheKey, CacheStore};
use bp_components::{ConditionalPredictor, ConfigValue};
use bp_sim::{
    report_cell_key, simulate, simulate_scenario_multi, simulate_stream_attributed, solve_budget,
    CachePolicy, Engine, GridStrategy, PredictorFamily, PredictorSpec, SimCache,
};
use bp_trace::{BranchRecord, BranchStream, Trace};
use bp_workloads::{BenchmarkSpec, EventStream, ScenarioEvent};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// What a traced pass measured.
#[derive(Debug)]
pub struct LayerRun {
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<String, f64>,
    /// The layers on the entry point's path: metric name and the number
    /// of workers the engine spreads that layer over.
    pub accounted: Vec<(String, f64)>,
    /// The entry-point call plus rendering, in the traced pass.
    pub traced_wall: f64,
    /// The recorded spans.
    pub tracer: Tracer,
    /// The traced pass's own output.
    pub pass: Pass,
}

impl LayerRun {
    /// The accounted layers' share of the traced wall.
    pub fn accounted_sum(&self) -> f64 {
        self.accounted
            .iter()
            .map(|(name, workers)| self.metrics[name] / workers)
            .sum()
    }
}

/// Replays an interleaved event list as an [`EventStream`].
struct Replay<'a> {
    events: std::slice::Iter<'a, ScenarioEvent>,
    tenants: u32,
}

impl EventStream for Replay<'_> {
    fn name(&self) -> &str {
        "replay"
    }

    fn next_event(&mut self) -> Option<ScenarioEvent> {
        self.events.next().copied()
    }

    fn tenant_count(&self) -> u32 {
        self.tenants
    }
}

/// Records per block of the fused drive: each predictor of a column
/// consumes a block before the next predictor does, as
/// `simulate_stream_multi` and `simulate_scenario_multi` do.
const BLOCK_RECORDS: usize = 4096;

/// Splits `records` into fused-drive blocks.
fn into_blocks(name: &str, records: impl IntoIterator<Item = BranchRecord>) -> Vec<Trace> {
    let mut blocks: Vec<Trace> = Vec::new();
    for record in records {
        if blocks.last().is_none_or(|b| b.len() == BLOCK_RECORDS) {
            blocks.push(Trace::with_capacity(name, BLOCK_RECORDS));
        }
        blocks.last_mut().expect("a block was pushed").push(record);
    }
    blocks
}

/// Builds `spec` in a `drive.<family>.build` span.
fn build(t: &mut Tracer, spec: &PredictorSpec) -> Box<dyn ConditionalPredictor + Send> {
    t.span(&format!("drive.{}.build", spec.family), |_| spec.make())
}

/// Drives fresh instances of `specs` over `blocks` in the fused order
/// through the attribution channel, one `report.attributed` span per
/// block and predictor: the per-record attribution tally that the
/// scenario drive keeps for every tenant.
fn attribute(t: &mut Tracer, specs: &[PredictorSpec], blocks: &[Trace]) {
    let mut predictors: Vec<_> = specs.iter().map(PredictorSpec::make).collect();
    for block in blocks {
        for predictor in &mut predictors {
            black_box(t.span("report.attributed", |_| {
                simulate_stream_attributed(predictor.as_mut(), block.stream(), 0)
            }));
        }
    }
}

/// Running per-layer tallies of one replay.
#[derive(Default)]
struct Tally {
    generated: u64,
    driven: BTreeMap<String, u64>,
}

impl Tally {
    /// Drains one benchmark stream into fused-drive blocks, in a
    /// `workloads.gen` span.
    fn generate(&mut self, t: &mut Tracer, bench: &BenchmarkSpec, instructions: u64) -> Vec<Trace> {
        let blocks = t.span("workloads.gen", |_| {
            into_blocks(&bench.name, bench.stream(instructions).records())
        });
        self.generated += blocks.iter().map(Trace::len).sum::<usize>() as u64;
        blocks
    }

    /// Builds every spec, then drives them over `blocks` in the fused
    /// order, one `drive.<family>` span per block and predictor.
    fn drive(&mut self, t: &mut Tracer, specs: &[PredictorSpec], blocks: &[Trace]) {
        let mut predictors: Vec<_> = specs.iter().map(|spec| build(t, spec)).collect();
        let names: Vec<String> = specs
            .iter()
            .map(|s| format!("drive.{}", s.family))
            .collect();
        for block in blocks {
            for (predictor, name) in predictors.iter_mut().zip(&names) {
                black_box(t.span(name, |_| simulate(predictor.as_mut(), block)));
            }
        }
        let records = blocks.iter().map(Trace::len).sum::<usize>() as u64;
        for spec in specs {
            *self.driven.entry(spec.family.to_string()).or_insert(0) += records;
        }
    }
}

/// Runs the traced pass of `workload`. `cache_dir` is the filled cache
/// of `report_warm`; `scratch` is an empty directory the replay may
/// write; `untraced_wall` is the untraced `wall_s` of the same run.
pub fn traced_pass(
    workload: Workload,
    inputs: &Inputs,
    cache_dir: Option<&Path>,
    scratch: &Path,
    untraced_wall: f64,
) -> Result<LayerRun, String> {
    let scale = &inputs.scale;
    let jobs = workload.jobs() as f64;
    let mut t = Tracer::on();
    let mut tally = Tally::default();
    let mut m: BTreeMap<String, f64> = crate::metrics::PER_LAYER
        .iter()
        .map(|(name, _, _)| ((*name).to_owned(), 0.0))
        .collect();
    // Cell timings and the wall of the call that produced them.
    let mut engine_cells: Option<(Vec<f64>, f64)> = None;
    let warm_cache = cache_dir.map(|dir| SimCache::new(dir, CachePolicy::ReadOnly));

    match workload {
        Workload::SweepPaper => {
            let specs = t.span("replay", |t| -> Result<Vec<PredictorSpec>, String> {
                let mut specs = Vec::new();
                for &budget in &scale.sweep_budgets_kbit {
                    for family in &scale.sweep_families {
                        let config = t
                            .span("sweep.solve", |_| solve_budget(family, budget * 1024))
                            .map_err(|e| format!("solve {family}@{budget}: {e}"))?;
                        specs.push(PredictorSpec::new(
                            format!("{family}@{budget}"),
                            format!("budget sweep: {budget} Kbit target"),
                            config,
                        ));
                    }
                }
                for bench in &inputs.benchmarks {
                    let blocks = tally.generate(t, bench, scale.sweep_instructions);
                    tally.drive(t, &specs, &blocks);
                }
                Ok(specs)
            })?;
            m.insert("sweep.configs".to_owned(), specs.len() as f64);
            // The sweep report carries no cell timings: replay its
            // engine call (same specs, strategy and workers) for them.
            let grid = t.span("engine.grid", |_| {
                Engine::with_jobs(workload.jobs())
                    .with_strategy(GridStrategy::FusedColumns)
                    .run_grid(&specs, &inputs.benchmarks, scale.sweep_instructions)
            });
            engine_cells = Some((grid.cell_seconds().to_vec(), t.total("engine.grid")));
        }
        Workload::ScenarioPaperMix => t.span("replay", |t| {
            let scenario = &inputs.scenario;
            for tenant in &scenario.tenants {
                t.span("workloads.gen", |_| {
                    let mut stream = tenant.stream(scenario.instructions);
                    while stream.next_record().is_some() {
                        tally.generated += 1;
                    }
                });
            }
            let (events, tenants) = t.span("workloads.interleave", |_| {
                let mut stream = scenario.events();
                let mut events = Vec::new();
                while let Some(event) = stream.next_event() {
                    events.push(event);
                }
                (events, stream.tenant_count())
            });
            let blocks = into_blocks(
                &scenario.name,
                events.iter().filter_map(|event| match event {
                    ScenarioEvent::Record { record, .. } => Some(*record),
                    ScenarioEvent::Flush(_) => None,
                }),
            );
            let records: usize = blocks.iter().map(Trace::len).sum();
            m.insert("workloads.events".to_owned(), events.len() as f64);
            m.insert(
                "workloads.flushes".to_owned(),
                (events.len() - records) as f64,
            );
            tally.drive(t, &inputs.scenario_predictors, &blocks);
            attribute(t, &inputs.scenario_predictors, &blocks);
            let mut replay = Replay {
                events: events.iter(),
                tenants,
            };
            black_box(t.span("scenario.events", |_| {
                simulate_scenario_multi(&inputs.scenario_predictors, &mut replay)
            }));
        }),
        Workload::ReportWarm => {
            let dir = cache_dir.ok_or("report_warm needs its filled cache")?;
            t.span("replay", |t| -> Result<(), String> {
                let keys: Vec<CacheKey> = t.span("cache.key", |_| {
                    inputs
                        .report_predictors
                        .iter()
                        .flat_map(|spec| {
                            inputs.benchmarks.iter().map(|bench| {
                                report_cell_key(
                                    spec,
                                    &bench.name,
                                    scale.report_instructions,
                                    scale.report_warmup,
                                )
                            })
                        })
                        .collect()
                });
                let store = CacheStore::new(dir);
                let payloads: Vec<String> = t
                    .span("cache.load", |_| {
                        keys.iter()
                            .map(|k| store.load(k))
                            .collect::<Option<Vec<_>>>()
                    })
                    .ok_or("a warm cache entry failed to load")?;
                t.span("cache.codec", |_| {
                    for payload in &payloads {
                        black_box(ConfigValue::parse(payload).ok());
                    }
                });
                // Set-up stores the entries; re-store them into an
                // empty scratch store to time `CacheStore::save`.
                let scratch_store = CacheStore::new(scratch.join("store"));
                t.span("cache.save", |_| {
                    keys.iter()
                        .zip(&payloads)
                        .try_for_each(|(k, p)| scratch_store.save(k, p))
                })
                .map_err(|e| format!("cannot save into the scratch store: {e}"))?;
                m.insert(
                    "cache.bytes".to_owned(),
                    payloads.iter().map(String::len).sum::<usize>() as f64,
                );
                m.insert("cache.entries".to_owned(), store.stats().entries as f64);
                Ok(())
            })?;
        }
    }

    let pass = t.span("entry_path", |t| {
        run_pass(workload, inputs, warm_cache.as_ref(), t)
    })?;
    let traced_wall = t.total("entry_path");
    let selfs = t.self_times();
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let mut put = |name: &str, value: f64| m.insert(name.to_owned(), value);

    let gen_s = s("workloads.gen");
    put("workloads.gen_s", gen_s);
    put("workloads.records", tally.generated as f64);
    put("workloads.gen_mrec_per_s", rate(tally.generated, gen_s));
    let (mut drive_total, mut build_total) = (0.0, 0.0);
    for family in PredictorFamily::ALL {
        let drive_s = s(&format!("drive.{family}"));
        let build_s = s(&format!("drive.{family}.build"));
        let records = tally.driven.get(&family.to_string()).copied().unwrap_or(0);
        put(&format!("drive.{family}.s"), drive_s);
        put(&format!("drive.{family}.build_s"), build_s);
        put(
            &format!("drive.{family}.mrec_per_s"),
            rate(records, drive_s),
        );
        drive_total += drive_s;
        build_total += build_s;
    }
    put("drive.records", tally.driven.values().sum::<u64>() as f64);

    // The layers on this workload's entry path, with the number of
    // workers each is spread over.
    let per_family = |suffix: &str| {
        PredictorFamily::ALL
            .iter()
            .map(|f| (format!("drive.{f}.{suffix}"), jobs))
            .collect::<Vec<_>>()
    };
    let serial = |names: &[&str]| {
        names
            .iter()
            .map(|n| ((*n).to_owned(), 1.0))
            .collect::<Vec<_>>()
    };
    // A warm report builds no predictor: every cell is a cache hit, so
    // `PredictorSpec::make` is charged only where the entry path runs it.
    let mut accounted = Vec::new();
    match workload {
        Workload::SweepPaper => {
            put("sweep.solve_s", s("sweep.solve"));
            put("sweep.render_s", s("sweep.render"));
            accounted.extend(per_family("build_s"));
            accounted.extend(per_family("s"));
            accounted.push(("workloads.gen_s".to_owned(), jobs));
            accounted.extend(serial(&["sweep.solve_s", "sweep.render_s"]));
        }
        Workload::ScenarioPaperMix => {
            let attributed = s("report.attributed");
            put("workloads.interleave_s", s("workloads.interleave") - gen_s);
            put("report.attrib_s", attributed - drive_total);
            put(
                "scenario.drive_s",
                s("scenario.events") - attributed - build_total,
            );
            put("scenario.render_s", s("scenario.render"));
            accounted.extend(per_family("build_s"));
            accounted.extend(per_family("s"));
            accounted.extend(serial(&[
                "workloads.gen_s",
                "workloads.interleave_s",
                "report.attrib_s",
                "scenario.drive_s",
                "scenario.render_s",
            ]));
        }
        Workload::ReportWarm => {
            for name in ["cache.key", "cache.load", "cache.save", "cache.codec"] {
                put(&format!("{name}_s"), s(name));
            }
            put("report.render_s", s("report.render"));
            if let Some(cache) = &warm_cache {
                let probes = cache.hits() + cache.misses();
                put(
                    "cache.hit_ratio",
                    cache.hits() as f64 / probes.max(1) as f64,
                );
            }
            accounted.extend(serial(&[
                "cache.key_s",
                "cache.load_s",
                "cache.codec_s",
                "report.render_s",
            ]));
        }
    }
    if workload == Workload::ReportWarm {
        put(
            "report.bytes",
            (pass.doc.json.len() + pass.doc.md.len()) as f64,
        );
    }

    let (cell_seconds, cells_wall) =
        engine_cells.unwrap_or_else(|| (pass.cell_seconds.clone(), t.total("entry")));
    put("engine.cell_s.p50", median(&cell_seconds));
    put("engine.cell_s.p90", quantile(&cell_seconds, 0.9));
    put(
        "engine.idle_s",
        jobs * cells_wall - cell_seconds.iter().sum::<f64>(),
    );
    put("trace.overhead_s", traced_wall - untraced_wall);
    let mut run = LayerRun {
        metrics: m,
        accounted,
        traced_wall,
        tracer: t,
        pass,
    };
    let overhead = traced_wall - run.accounted_sum();
    run.metrics.insert("engine.overhead_s".to_owned(), overhead);
    Ok(run)
}

/// Millions of records per second, 0 when nothing was timed.
fn rate(records: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        records as f64 / seconds / 1e6
    } else {
        0.0
    }
}
