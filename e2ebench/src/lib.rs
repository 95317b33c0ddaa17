//! End-to-end benchmark of the commands that produce the committed
//! artifacts, split by layer. See `README.md` beside this crate for the
//! workloads, the metrics, and what each layer metric should move.
//!
//! One run: set up (a fresh process builds the inputs from the seed and
//! runs one pass), then time samples of whole passes in this process
//! for the requested seconds, calibration kernel around each sample.
//! Further set-ups are spread between the samples. A traced run adds
//! one traced pass at the end ([`layers::traced_pass`]). Every pass's
//! artifact is checked against the reference: the committed artifact at
//! the default seed, the first set-up's output at any other. A run at
//! any other seed also checks one pass at the default seed against the
//! committed artifact.

pub mod check;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod spans;
pub mod workload;

use check::{compare, Doc};
use layers::{traced_pass, LayerRun};
use measure::{calibration_kernel, median, min, peak_rss_mib, process_cpu_seconds, CpuTicks};
use spans::Tracer;
use std::path::Path;
use std::time::Instant;
use workload::{committed_doc, run_pass, Inputs, Pass, Scale, Workload, DEFAULT_SEED};

/// Set-ups per run, at least; cheap set-ups repeat until their total
/// reaches [`SETUP_SECONDS`]. `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Set-up time a run spends, at least.
const SETUP_SECONDS: f64 = 3.0;

/// Target length of one timed sample: short passes are batched until a
/// sample lasts about this long.
const SAMPLE_SECONDS: f64 = 0.25;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed samples run.
    pub seconds: f64,
    /// Add the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// How a run performs one [`workload::set_up`] (`workload`, empty cache
/// directory, inputs): the benchmark binary runs each in a fresh child
/// process, tests in-process.
pub type SetUp<'a> = &'a dyn Fn(Workload, &Path, &Inputs) -> Result<Doc, String>;

/// One timed sample: per-pass means over its batch.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Passes in the batch.
    pub passes: usize,
    /// Wall seconds per pass.
    pub wall_s: f64,
    /// Process CPU seconds per pass.
    pub cpu_s: f64,
    /// Calibration kernel seconds: mean of the runs before and after.
    pub calib_s: f64,
    /// Share of machine CPU ticks stolen during the sample, in percent.
    pub steal_pct: f64,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Cells checked.
    pub attempted: u64,
    /// Cells whose result differed from the reference.
    pub failed: u64,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The timed samples, for the noise record.
    pub samples: Vec<Sample>,
    /// The traced pass, in a traced run.
    pub layers: Option<LayerRun>,
}

impl Outcome {
    /// The metrics of the result line: end-to-end ones, or per-layer
    /// ones in a traced run.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        match &self.layers {
            None => self.end_to_end.clone(),
            Some(layers) => metrics::PER_LAYER
                .iter()
                .map(|(name, _, _)| (*name, layers.metrics[*name]))
                .collect(),
        }
    }
}

/// Checks artifacts against the reference and tallies cells.
struct Checker {
    reference: Option<Doc>,
    cells_per_row: usize,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(reference: Option<Doc>, cells_per_row: usize) -> Checker {
        Checker {
            reference,
            cells_per_row,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, doc: &Doc) {
        let reference = self.reference.get_or_insert_with(|| doc.clone());
        let verdict = compare(reference, doc, self.cells_per_row);
        self.attempted += verdict.cells;
        self.failed += verdict.failed;
    }
}

/// Runs and times one pass: `(pass, wall seconds, CPU seconds)`.
fn timed_pass(
    workload: Workload,
    inputs: &Inputs,
    cache: Option<&bp_sim::SimCache>,
) -> Result<(Pass, f64, f64), String> {
    let cpu = process_cpu_seconds();
    let started = Instant::now();
    let pass = run_pass(workload, inputs, cache, &mut Tracer::off())?;
    let wall = started.elapsed().as_secs_f64();
    Ok((pass, wall, process_cpu_seconds() - cpu))
}

/// Runs the benchmark once. `work` is an empty directory the run owns.
pub fn run(args: &Args, scale: &Scale, work: &Path, set_up: SetUp<'_>) -> Result<Outcome, String> {
    let workload = args.workload;
    let warm = workload == Workload::ReportWarm;
    let inputs = Inputs::new(args.seed, scale.clone());
    let cells_per_row = inputs.cells(workload).1;
    let mut checker = Checker::new(
        if inputs.match_artifacts() {
            Some(committed_doc(workload)?)
        } else {
            None
        },
        cells_per_row,
    );

    // Set-up: a fresh process builds the inputs from the seed and runs
    // the entry point once (report_warm: filling a fresh cache). The
    // first set-up runs before any sample; the rest are spread between
    // the samples, so set-up and passes see the same host.
    let cache_dir = work.join("cache");
    let timed_set_up = |checker: &mut Checker| -> Result<f64, String> {
        let started = Instant::now();
        match std::fs::remove_dir_all(&cache_dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("cannot clear {}: {e}", cache_dir.display()))
            }
            _ => {}
        }
        let doc = set_up(workload, &cache_dir, &inputs)?;
        let seconds = started.elapsed().as_secs_f64();
        checker.check(&doc);
        Ok(seconds)
    };
    let first_setup = timed_set_up(&mut checker)?;
    let mut setup_times = vec![first_setup];
    let setup_target =
        ((SETUP_SECONDS / first_setup.max(1e-6)).ceil() as usize).clamp(SETUP_REPEATS, 100);

    let warm_cache = warm.then(|| bp_sim::SimCache::new(&cache_dir, bp_sim::CachePolicy::ReadOnly));
    let (probe, probe_wall, _) = timed_pass(workload, &inputs, warm_cache.as_ref())?;
    checker.check(&probe.doc);
    let batch = ((SAMPLE_SECONDS / probe_wall.max(1e-6)).ceil() as usize).clamp(1, 10_000);

    let mut measured = 0.0;
    let mut calib_before = calibration_kernel(workload.jobs());
    let mut calibs = vec![calib_before];
    let mut samples: Vec<Sample> = Vec::new();
    // Per-pass figures, which the timing metrics summarize.
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while measured < args.seconds || setup_times.len() < setup_target {
        if setup_times.len() < setup_target {
            setup_times.push(timed_set_up(&mut checker)?);
        }
        if measured >= args.seconds {
            continue;
        }
        let sample_start = Instant::now();
        let ticks = CpuTicks::now();
        let batch_start = walls.len();
        for _ in 0..batch {
            let (pass, pass_wall, pass_cpu) = timed_pass(workload, &inputs, warm_cache.as_ref())?;
            walls.push(pass_wall);
            cpus.push(pass_cpu);
            checker.check(&pass.doc);
        }
        let steal_pct = CpuTicks::now().steal_pct_since(&ticks);
        let calib_after = calibration_kernel(workload.jobs());
        calibs.push(calib_after);
        let calib_s = (calib_before + calib_after) / 2.0;
        calib_before = calib_after;
        samples.push(Sample {
            passes: batch,
            wall_s: walls[batch_start..].iter().sum::<f64>() / batch as f64,
            cpu_s: cpus[batch_start..].iter().sum::<f64>() / batch as f64,
            calib_s,
            steal_pct,
        });
        measured += sample_start.elapsed().as_secs_f64();
    }
    // Other tenants of the host only ever add time, and on the 2-vCPU
    // development VM they do so pass by pass: back-to-back 70 ms
    // scenario passes read anywhere from 61 to 160 ms, and the share of
    // slow passes drifts from run to run. Any quantile of a run's
    // passes above the fastest then reports how much contention that
    // run saw. The fastest pass (and the fastest calibration run)
    // reports the host's uncontended speed, the quantity a code change
    // moves: across back-to-back scenario runs the 10th percentile read
    // 67-105 ms while the fastest pass stayed within 61-72 ms.
    let wall_s = min(&walls);
    let end_to_end = vec![
        ("setup_s", median(&setup_times)),
        ("wall_s", wall_s),
        ("wall_norm", wall_s / min(&calibs)),
        ("sim_minstr_per_s", probe.instructions as f64 / wall_s / 1e6),
        ("cpu_s", min(&cpus)),
        ("peak_rss_mib", peak_rss_mib()?),
        ("mpki_mean", probe.mpki_mean()),
    ];

    // Any other seed is checked against the run's own first set-up,
    // which a change to the simulator would move too. So every run also
    // checks one untimed pass at the default seed, cache off, against
    // the committed artifacts: a change to any statistic fails every
    // run, whatever its seed.
    if !inputs.match_artifacts() && *scale == Scale::artifact() {
        let default_inputs = Inputs::new(DEFAULT_SEED, scale.clone());
        let mut committed = Checker::new(Some(committed_doc(workload)?), cells_per_row);
        committed.check(&run_pass(workload, &default_inputs, None, &mut Tracer::off())?.doc);
        checker.attempted += committed.attempted;
        checker.failed += committed.failed;
    }

    let layers = if args.trace {
        let scratch = work.join("scratch");
        let run = traced_pass(
            workload,
            &inputs,
            warm.then_some(cache_dir.as_path()),
            &scratch,
            wall_s,
        )?;
        checker.check(&run.pass.doc);
        Some(run)
    } else {
        None
    };

    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        end_to_end,
        samples,
        layers,
    })
}
