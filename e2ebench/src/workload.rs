//! The four workloads, their seeded inputs, and one pass of each
//! artifact command's entry point.

use crate::check::Doc;
use crate::spans::Tracer;
use bp_sim::{
    paper_report_predictors, run_report_with_cache, run_scenario_with_cache, run_sweep_with_cache,
    scenario_by_name, scenario_report_predictors, CachePolicy, CellUpdate, PredictorSpec,
    ScenarioSpec, SimCache, STANDARD_BUDGETS_KBIT, SWEEP_FAMILIES,
};
use bp_workloads::{paper_suite, BenchmarkSpec};
use std::path::{Path, PathBuf};

/// The seed whose inputs are exactly the committed artifacts' inputs;
/// runs at this seed are checked byte for byte against
/// `REPORT_paper.*`, `SWEEP_paper.*` and `SCENARIO_paper_mix.*`.
pub const DEFAULT_SEED: u64 = 0;

/// A seed kept out of every tuning run: a claimed gain must also hold
/// here (see the notes in `README.md`).
pub const HELD_OUT_SEED: u64 = 7_207;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `bp sweep paper --jobs 2`, cache off.
    SweepPaper,
    /// `bp scenario paper_mix --jobs 1`, cache off.
    ScenarioPaperMix,
    /// `bp report paper --jobs 1` against a cache filled in set-up
    /// (which runs the same report cold).
    ReportWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepPaper,
        Workload::ScenarioPaperMix,
        Workload::ReportWarm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepPaper => "sweep_paper",
            Workload::ScenarioPaperMix => "scenario_paper_mix",
            Workload::ReportWarm => "report_warm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the entry point runs with: the CLI shapes, capped
    /// at the host's parallelism.
    pub fn jobs(self) -> usize {
        let wanted = if self == Workload::SweepPaper { 2 } else { 1 };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        wanted.min(cores)
    }

    /// The committed artifact this workload regenerates at the default
    /// seed, as a path stem.
    pub fn artifact_stem(self) -> &'static str {
        match self {
            Workload::ReportWarm => "REPORT_paper",
            Workload::SweepPaper => "SWEEP_paper",
            Workload::ScenarioPaperMix => "SCENARIO_paper_mix",
        }
    }
}

/// Workload sizes. [`Scale::artifact`] is the committed artifacts'
/// shape; the benchmark's own tests use [`Scale::tiny`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Instructions per report cell.
    pub report_instructions: u64,
    /// Report warmup boundary.
    pub report_warmup: u64,
    /// Instructions per sweep cell.
    pub sweep_instructions: u64,
    /// Sweep budgets in Kbit.
    pub sweep_budgets_kbit: Vec<u64>,
    /// Swept families.
    pub sweep_families: Vec<String>,
    /// Instructions per scenario tenant.
    pub scenario_instructions: u64,
}

impl Scale {
    /// The shapes of `bp report paper`, `bp sweep paper` and
    /// `bp scenario paper_mix` with their default flags.
    pub fn artifact() -> Scale {
        Scale {
            report_instructions: 500_000,
            report_warmup: 100_000,
            sweep_instructions: 500_000,
            sweep_budgets_kbit: STANDARD_BUDGETS_KBIT.to_vec(),
            sweep_families: SWEEP_FAMILIES.iter().map(|&f| f.to_owned()).collect(),
            scenario_instructions: 150_000,
        }
    }

    /// A few-millisecond version of every workload, for tests.
    pub fn tiny() -> Scale {
        Scale {
            report_instructions: 20_000,
            report_warmup: 4_000,
            sweep_instructions: 10_000,
            sweep_budgets_kbit: vec![8, 64],
            sweep_families: vec!["gshare".to_owned(), "tage-gsc".to_owned()],
            scenario_instructions: 10_000,
        }
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a pass consumes, generated from the workload seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// Workload sizes.
    pub scale: Scale,
    /// The paper suite, each spec re-seeded from the workload seed.
    pub benchmarks: Vec<BenchmarkSpec>,
    /// `bp report paper`'s twelve configurations.
    pub report_predictors: Vec<PredictorSpec>,
    /// `paper_mix`, tenants permuted by the workload seed.
    pub scenario: ScenarioSpec,
    /// `bp scenario`'s six configurations.
    pub scenario_predictors: Vec<PredictorSpec>,
}

impl Inputs {
    /// Builds the inputs for `seed`. At [`DEFAULT_SEED`] they are the
    /// committed artifacts' inputs. Any other seed re-seeds every
    /// benchmark spec and permutes the scenario's tenants: scenario
    /// tenants are benchmark *names* resolved inside `bp-sim`, so the
    /// order (which sets each tenant's PC region and its turn in the
    /// round robin) is the part of the scenario a seed can reach.
    pub fn new(seed: u64, scale: Scale) -> Inputs {
        let mut benchmarks = paper_suite();
        let mut scenario = scenario_by_name("paper_mix").expect("paper_mix is a built-in scenario");
        scenario.instructions = scale.scenario_instructions;
        if seed != DEFAULT_SEED {
            let salt = mix(seed);
            for bench in &mut benchmarks {
                bench.seed = mix(bench.seed ^ salt);
            }
            // Fisher-Yates from the same stream.
            let mut state = salt;
            for i in (1..scenario.tenants.len()).rev() {
                state = mix(state);
                scenario.tenants.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
        Inputs {
            seed,
            scale,
            benchmarks,
            report_predictors: paper_report_predictors(),
            scenario,
            scenario_predictors: scenario_report_predictors(),
        }
    }

    /// Are these the committed artifacts' inputs?
    pub fn match_artifacts(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == Scale::artifact()
    }

    /// Cells one pass of `workload` computes, and how many share a row
    /// of its artifact.
    pub fn cells(&self, workload: Workload) -> (usize, usize) {
        match workload {
            Workload::ReportWarm => (
                self.report_predictors.len() * self.benchmarks.len(),
                self.benchmarks.len(),
            ),
            Workload::SweepPaper => (
                self.scale.sweep_budgets_kbit.len()
                    * self.scale.sweep_families.len()
                    * self.benchmarks.len(),
                self.benchmarks.len(),
            ),
            Workload::ScenarioPaperMix => (self.scenario_predictors.len(), 1),
        }
    }
}

/// The outcome of one pass of an entry point.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The artifact text.
    pub doc: Doc,
    /// MPKI of every cell, in artifact order.
    pub cell_mpki: Vec<f64>,
    /// Simulated instructions the pass delivered (cache hits included).
    pub instructions: u64,
    /// The engine's per-cell wall seconds.
    pub cell_seconds: Vec<f64>,
}

impl Pass {
    /// Mean MPKI over the pass's cells.
    pub fn mpki_mean(&self) -> f64 {
        self.cell_mpki.iter().sum::<f64>() / self.cell_mpki.len().max(1) as f64
    }
}

fn no_progress(_: CellUpdate<'_>) {}

/// Runs one pass of `workload`'s entry point on `inputs`, from the call
/// to the artifact text in memory. `tracer` gets an `entry` span around
/// the entry-point call and a `<layer>.render` span around rendering;
/// `cache` is the result cache handed to the entry point.
pub fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    cache: Option<&SimCache>,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let scale = &inputs.scale;
    let jobs = workload.jobs();
    match workload {
        Workload::ReportWarm => {
            let report = tracer.span("entry", |_| {
                run_report_with_cache(
                    "paper",
                    &inputs.report_predictors,
                    &inputs.benchmarks,
                    scale.report_instructions,
                    scale.report_warmup,
                    jobs,
                    cache,
                    &no_progress,
                )
            });
            let doc = tracer.span("report.render", |_| Doc {
                md: report.to_markdown(),
                json: report.to_json(),
            });
            let cell_mpki: Vec<f64> = report.rows.iter().flat_map(|r| r.mpki.clone()).collect();
            Ok(Pass {
                doc,
                instructions: cell_mpki.len() as u64 * scale.report_instructions,
                cell_mpki,
                cell_seconds: report.cell_seconds,
            })
        }
        Workload::SweepPaper => {
            let report = tracer.span("entry", |_| {
                run_sweep_with_cache(
                    "paper",
                    &inputs.benchmarks,
                    &scale.sweep_budgets_kbit,
                    &scale.sweep_families,
                    scale.sweep_instructions,
                    jobs,
                    None,
                    &no_progress,
                )
            });
            let report = report.map_err(|e| format!("sweep failed: {e}"))?;
            let doc = tracer.span("sweep.render", |_| Doc {
                md: report.to_markdown(),
                json: report.to_json(),
            });
            let cell_mpki: Vec<f64> = report.rows.iter().flat_map(|r| r.mpki.clone()).collect();
            Ok(Pass {
                doc,
                instructions: cell_mpki.len() as u64 * scale.sweep_instructions,
                cell_mpki,
                // The sweep report carries no timings; the traced run
                // reads them from the engine grid it replays.
                cell_seconds: Vec::new(),
            })
        }
        Workload::ScenarioPaperMix => {
            let report = tracer.span("entry", |_| {
                run_scenario_with_cache(
                    &inputs.scenario,
                    &inputs.scenario_predictors,
                    jobs,
                    None,
                    &no_progress,
                )
            })?;
            let doc = tracer.span("scenario.render", |_| Doc {
                md: report.to_markdown(),
                json: report.to_json(),
            });
            Ok(Pass {
                doc,
                cell_mpki: report.rows.iter().map(|r| r.run.mpki()).collect(),
                instructions: report.rows.iter().map(|r| r.run.instructions).sum(),
                cell_seconds: report.cell_seconds,
            })
        }
    }
}

/// One set-up of `workload`, run in a fresh process by the benchmark:
/// the inputs are built, then the entry point runs once, cold. For
/// `report_warm` that pass is the `bp report paper` call against a read-write cache
/// in the empty directory `cache_dir`, which stores every cell for the
/// measured passes to read. Returns the artifact the pass rendered.
pub fn set_up(workload: Workload, cache_dir: &Path, inputs: &Inputs) -> Result<Doc, String> {
    if workload != Workload::ReportWarm {
        return Ok(run_pass(workload, inputs, None, &mut Tracer::off())?.doc);
    }
    let cache = SimCache::new(cache_dir, CachePolicy::ReadWrite);
    let pass = run_pass(workload, inputs, Some(&cache), &mut Tracer::off())?;
    let (cells, _) = inputs.cells(workload);
    if cache.stores() != cells as u64 {
        return Err(format!(
            "cache fill stored {} of {cells} cells in {}",
            cache.stores(),
            cache_dir.display()
        ));
    }
    Ok(pass.doc)
}

/// The root of the repository checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Reads the committed artifact `workload` regenerates.
pub fn committed_doc(workload: Workload) -> Result<Doc, String> {
    let root = repo_root();
    let read = |ext: &str| {
        let path = root.join(format!("{}.{ext}", workload.artifact_stem()));
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    Ok(Doc {
        json: read("json")?,
        md: read("md")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_artifact_inputs() {
        let inputs = Inputs::new(DEFAULT_SEED, Scale::artifact());
        assert!(inputs.match_artifacts());
        assert_eq!(inputs.benchmarks, paper_suite());
        assert_eq!(Some(inputs.scenario), scenario_by_name("paper_mix"));
    }

    #[test]
    fn other_seeds_reseed_deterministically() {
        let a = Inputs::new(HELD_OUT_SEED, Scale::artifact());
        let b = Inputs::new(HELD_OUT_SEED, Scale::artifact());
        assert!(!a.match_artifacts());
        assert_eq!(a.benchmarks, b.benchmarks);
        assert_eq!(a.scenario, b.scenario);
        let base = paper_suite();
        for (spec, orig) in a.benchmarks.iter().zip(&base) {
            assert_eq!(spec.name, orig.name);
            assert_ne!(spec.seed, orig.seed);
        }
        let mut tenants = a.scenario.tenants.clone();
        let mut orig = scenario_by_name("paper_mix").expect("built-in").tenants;
        tenants.sort_by_key(|t| t.label());
        orig.sort_by_key(|t| t.label());
        assert_eq!(tenants, orig);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.jobs() >= 1);
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
