//! The parallel evaluation-grid engine: one cache-aware cell scheduler.
//!
//! The paper's evaluation is a grid: predictor configurations ×
//! workloads, one fresh cold predictor per cell. Every grid-shaped run
//! — [`Engine::run_grid`], [`crate::run_report_with_cache`] and
//! [`crate::run_scenario_with_cache`] — is one call of
//! [`Engine::run_cells`], generic over the cell payload ([`SimResult`],
//! [`AttributedRun`], [`ScenarioRun`]). It runs these steps in order:
//!
//! 1. under a cache, render each spec's config text once, build
//!    every cell key from it and probe it;
//! 2. report the hits' progress, in cell order;
//! 3. dedup the misses by (config text, workload);
//! 4. group the misses into work units: one [`Column`] per workload
//!    holding all its misses (fused), or one per cell ([`GridStrategy`]);
//! 5. dispatch the units across worker threads with *dynamic
//!    self-scheduling*: all workers pull units from one shared atomic
//!    cursor, so an idle worker immediately takes the next one (cells
//!    vary by an order of magnitude in cost);
//! 6. store the computed cells, splice them into place, replicate the
//!    dedup twins, and split each unit's wall time evenly across its
//!    cells.
//!
//! Each unit generates its workload lazily, so per-worker memory stays
//! O(1) in trace length. Results are written back by cell index, so the
//! returned grid is in deterministic (predictor-major) order regardless
//! of worker count, grouping, or cache state.
//!
//! [`AttributedRun`]: crate::AttributedRun
//! [`ScenarioRun`]: crate::ScenarioRun

use crate::cache::{CacheKey, SimCache};
use crate::column::Column;
use crate::registry::PredictorSpec;
use crate::run::SimResult;
use bp_components::PredictorConfig as _;
use bp_workloads::BenchmarkSpec;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the engine groups a grid's cells into work units.
///
/// Every grouping produces **bit-identical** results — every cell still
/// runs one fresh cold predictor over the full workload (the CBP
/// protocol). They differ only in how often each workload stream is
/// generated or decoded:
///
/// * [`PerCell`](GridStrategy::PerCell) — work units of one cell; each
///   cell regenerates its workload. Maximum parallelism, maximum
///   redundant decode work.
/// * [`FusedColumns`](GridStrategy::FusedColumns) — one work unit per
///   workload holding all of its cells as one [`Column`]: the stream is
///   generated once for all predictors, but only `workloads` parallel
///   units exist.
/// * [`Auto`](GridStrategy::Auto) (default) — fuse when the shape
///   profits: at least two predictors share each decode and there are
///   enough workloads to keep every worker busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridStrategy {
    /// Pick per shape: fused when `predictors >= 2` and the workload
    /// count keeps all workers busy, per-cell otherwise.
    #[default]
    Auto,
    /// Work units of one cell.
    PerCell,
    /// Work units of one workload column with one shared decode.
    FusedColumns,
}

/// Progress report delivered after each completed grid cell.
#[derive(Debug, Clone, Copy)]
pub struct CellUpdate<'a> {
    /// Registry name of the cell's predictor configuration.
    pub predictor: &'a str,
    /// Benchmark name of the cell.
    pub benchmark: &'a str,
    /// The cell's MPKI.
    pub mpki: f64,
    /// Cells completed so far (including this one).
    pub completed: usize,
    /// Total cells in the grid.
    pub total: usize,
}

/// The parallel grid runner. Construct with [`Engine::new`] (one worker
/// per available core) or [`Engine::with_jobs`].
#[derive(Debug, Clone)]
pub struct Engine {
    jobs: usize,
    strategy: GridStrategy,
    cache: Option<SimCache>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with one worker per available core.
    pub fn new() -> Self {
        Engine {
            jobs: std::thread::available_parallelism().map_or(4, NonZeroUsize::get),
            strategy: GridStrategy::default(),
            cache: None,
        }
    }

    /// An engine with exactly `jobs` workers (`jobs == 1` runs on the
    /// calling thread; 0 is clamped to 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            strategy: GridStrategy::default(),
            cache: None,
        }
    }

    /// Sets the grid scheduling strategy (default:
    /// [`GridStrategy::Auto`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: GridStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a result cache: every cell is probed **before**
    /// scheduling, only the miss-set is dispatched to workers, and the
    /// results come back bit-identical to an uncached run (hit cells
    /// are spliced into place, miss cells computed and written back per
    /// the cache's policy).
    #[must_use]
    pub fn with_cache(mut self, cache: Option<SimCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&SimCache> {
        self.cache.as_ref()
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured scheduling strategy.
    pub fn strategy(&self) -> GridStrategy {
        self.strategy
    }

    /// Whether this grid shape runs fused under the configured
    /// strategy. [`GridStrategy::Auto`] trades parallel grain (cells →
    /// columns) for an N-fold cut in stream generation, profitable
    /// whenever at least two predictors share each decode and the
    /// columns alone can keep every worker busy. Under a cache the rule
    /// is the same: it looks at the whole grid, not at the misses.
    fn fuse_columns(&self, predictors: usize, workloads: usize) -> bool {
        match self.strategy {
            GridStrategy::PerCell => false,
            GridStrategy::FusedColumns => true,
            GridStrategy::Auto => predictors >= 2 && workloads >= self.jobs,
        }
    }

    /// Runs the full (predictor × benchmark) grid at `instructions`
    /// retired instructions per benchmark, one fresh cold predictor per
    /// cell (the CBP protocol).
    pub fn run_grid(
        &self,
        predictors: &[PredictorSpec],
        benchmarks: &[BenchmarkSpec],
        instructions: u64,
    ) -> GridResult {
        self.run_grid_with_progress(predictors, benchmarks, instructions, &|_| {})
    }

    /// [`Engine::run_grid`] with a progress callback, invoked once per
    /// completed cell (serialized — callbacks never run concurrently —
    /// but in *completion* order, which varies with scheduling).
    pub fn run_grid_with_progress(
        &self,
        predictors: &[PredictorSpec],
        benchmarks: &[BenchmarkSpec],
        instructions: u64,
        progress: &(dyn Fn(CellUpdate<'_>) + Sync),
    ) -> GridResult {
        let (cells, cell_seconds) = self
            .run_cells(predictors, benchmarks, instructions, progress)
            .into_iter()
            .unzip();
        GridResult {
            predictors: predictors.iter().map(|s| s.name.to_owned()).collect(),
            benchmarks: benchmarks.iter().map(|b| b.name.clone()).collect(),
            cells,
            cell_seconds,
        }
    }

    /// Runs every (spec × workload) cell and returns `(payload, wall
    /// seconds)` per cell in row-major order (see the module doc for the
    /// steps). Hits and dedup twins take no wall time. Progress fires
    /// exactly once per cell: hits first in cell order, then computed
    /// cells in completion order, then twins.
    pub(crate) fn run_cells<T: Payload>(
        &self,
        specs: &[PredictorSpec],
        workloads: &[T::Workload],
        params: T::Params,
        progress: &(dyn Fn(CellUpdate<'_>) + Sync),
    ) -> Vec<(T, f64)> {
        let n_w = workloads.len();
        let total = specs.len() * n_w;
        let mut cells: Vec<Option<(T, f64)>> = (0..total).map(|_| None).collect();

        // 1. Keys and probes, only under a cache.
        let cache = self.cache.as_ref().map(|cache| {
            let identities: Vec<String> = workloads.iter().map(Workload::identity).collect();
            let configs: Vec<String> = specs.iter().map(|s| s.config.to_text()).collect();
            let keys: Vec<CacheKey> = (0..total)
                .map(|idx| T::key(&configs[idx / n_w], &workloads[idx % n_w], params))
                .collect();
            for (idx, (cell, key)) in cells.iter_mut().zip(&keys).enumerate() {
                let w = idx % n_w;
                *cell = T::lookup(cache, key, &workloads[w], &identities[w]).map(|t| (t, 0.0));
            }
            (cache, keys, identities)
        });

        // 2. Hits report progress first, in cell order.
        let update = |idx: usize, payload: &T, completed: usize| CellUpdate {
            predictor: &specs[idx / n_w].name,
            benchmark: workloads[idx % n_w].name(),
            mpki: payload.mpki(),
            completed,
            total,
        };
        let mut completed = 0;
        for (idx, cell) in cells.iter().enumerate() {
            if let Some((payload, _)) = cell {
                completed += 1;
                progress(update(idx, payload, completed));
            }
        }

        // 3. Dedup the misses: byte-equal (config text, workload) cells
        // compute byte-equal results, so one representative runs.
        // 4. Group the representatives into work units of (workload,
        // rows): all of a workload's misses (fused), or one cell each.
        let fuse = self.fuse_columns(specs.len(), n_w);
        let mut twin_of: Vec<Option<usize>> = vec![None; total];
        let mut representative: BTreeMap<(&str, usize), usize> = BTreeMap::new();
        let mut unit_of: Vec<Option<usize>> = vec![None; n_w];
        let mut units: Vec<(usize, Vec<usize>)> = Vec::new();
        for idx in (0..total).filter(|&idx| cells[idx].is_none()) {
            let (p, w) = (idx / n_w, idx % n_w);
            if let Some((_, keys, _)) = &cache {
                let first = *representative
                    .entry((keys[idx].config.as_str(), w))
                    .or_insert(idx);
                if first != idx {
                    twin_of[idx] = Some(first);
                    continue;
                }
            }
            match unit_of[w] {
                Some(u) if fuse => units[u].1.push(p),
                _ => {
                    unit_of[w] = Some(units.len());
                    units.push((w, vec![p]));
                }
            }
        }

        // 5. Dispatch; each unit's cells report progress as it lands.
        let landed = AtomicUsize::new(completed);
        let ran = run_columns(
            self.jobs,
            units.len(),
            |u| {
                let (w, unit) = &units[u];
                let specs: Vec<PredictorSpec> = unit.iter().map(|&p| specs[p].clone()).collect();
                T::run(&mut Column::build(&specs), &workloads[*w], params)
            },
            |u, results| {
                let (w, unit) = &units[u];
                for (&p, payload) in unit.iter().zip(results) {
                    let completed = landed.fetch_add(1, Ordering::Relaxed) + 1;
                    progress(update(p * n_w + w, payload, completed));
                }
            },
        );

        // 6. Store, splice, replicate the twins.
        for ((w, unit), (results, seconds)) in units.iter().zip(ran) {
            let per_cell = seconds / unit.len() as f64;
            for (&p, payload) in unit.iter().zip(results) {
                let idx = p * n_w + w;
                if let Some((cache, keys, identities)) = &cache {
                    payload.store(cache, &keys[idx], &identities[*w]);
                }
                cells[idx] = Some((payload, per_cell));
            }
        }
        let mut completed = landed.into_inner();
        for (idx, twin) in twin_of.into_iter().enumerate() {
            if let Some(source) = twin {
                let (payload, _) = cells[source].clone().expect("representative ran");
                completed += 1;
                progress(update(idx, &payload, completed));
                cells[idx] = Some((payload, 0.0));
            }
        }
        cells
            .into_iter()
            .map(|cell| cell.expect("every cell filled"))
            .collect()
    }
}

/// What a cell grid's column runs over: a benchmark, or a whole
/// scenario.
pub(crate) trait Workload: Sync {
    /// The name progress labels show.
    fn name(&self) -> &str;
    /// The identity cached entries must match, once per workload.
    fn identity(&self) -> String {
        String::new()
    }
}

/// What one grid cell computes, and how the result cache holds it.
pub(crate) trait Payload: Clone + Send {
    /// What a cell runs over.
    type Workload: Workload;
    /// Run parameters shared by every cell (instruction budgets).
    type Params: Copy + Sync;

    /// The cell's cache key, given its spec's config text (rendered
    /// once per spec, not once per cell).
    fn key(config: &str, workload: &Self::Workload, params: Self::Params) -> CacheKey;
    /// A verified cached payload, if any.
    fn lookup(cache: &SimCache, key: &CacheKey, w: &Self::Workload, id: &str) -> Option<Self>;
    /// Writes the payload back under the cache's policy.
    fn store(&self, cache: &SimCache, key: &CacheKey, identity: &str);
    /// The MPKI shown in progress updates.
    fn mpki(&self) -> f64;
    /// Drives `column` over `workload`: one payload per spec.
    fn run(column: &mut Column<'_>, workload: &Self::Workload, params: Self::Params) -> Vec<Self>;
}

/// Runs `units` work units across `jobs` workers with dynamic
/// self-scheduling — every worker pulls the next unit from one atomic
/// cursor — and returns `(unit output, unit wall seconds)` in unit
/// order. `done` sees each finished unit under one lock, so its calls
/// never overlap. Wall time is measured around `unit` (generation plus
/// simulation), outside the lock.
fn run_columns<T: Send>(
    jobs: usize,
    units: usize,
    unit: impl Fn(usize) -> T + Sync,
    done: impl Fn(usize, &T) + Sync,
) -> Vec<(T, f64)> {
    let next = AtomicUsize::new(0);
    let collected = Mutex::new(Vec::with_capacity(units));
    let worker = || loop {
        let u = next.fetch_add(1, Ordering::Relaxed);
        if u >= units {
            break;
        }
        let started = std::time::Instant::now();
        let output = unit(u);
        let seconds = started.elapsed().as_secs_f64();
        let mut collected = collected.lock().expect("results lock");
        done(u, &output);
        collected.push((u, output, seconds));
    };
    if jobs <= 1 || units <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(units) {
                scope.spawn(worker);
            }
        });
    }
    let mut collected = collected.into_inner().expect("results lock");
    collected.sort_unstable_by_key(|(u, _, _)| *u);
    collected
        .into_iter()
        .map(|(_, output, seconds)| (output, seconds))
        .collect()
}

/// A completed evaluation grid: per-cell [`SimResult`]s in
/// deterministic predictor-major order, plus per-cell wall time.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Registry names of the predictor rows, in input order.
    pub predictors: Vec<String>,
    /// Benchmark names of the columns, in input order.
    pub benchmarks: Vec<String>,
    /// Row-major cells: `cells[p * benchmarks.len() + b]`.
    cells: Vec<SimResult>,
    /// Wall seconds spent on each cell (generation + simulation),
    /// row-major like `cells`.
    cell_seconds: Vec<f64>,
}

/// Equality deliberately ignores `cell_seconds`: simulation output is
/// deterministic across worker counts and runs, wall-clock is not, and
/// the engine's determinism guarantees are stated (and tested) as grid
/// equality.
impl PartialEq for GridResult {
    fn eq(&self, other: &Self) -> bool {
        self.predictors == other.predictors
            && self.benchmarks == other.benchmarks
            && self.cells == other.cells
    }
}

impl GridResult {
    /// The cell for predictor row `p` and benchmark column `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, p: usize, b: usize) -> &SimResult {
        assert!(p < self.predictors.len() && b < self.benchmarks.len());
        &self.cells[p * self.benchmarks.len() + b]
    }

    /// One predictor's row of per-benchmark results, in suite order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn row(&self, p: usize) -> &[SimResult] {
        let w = self.benchmarks.len();
        &self.cells[p * w..(p + 1) * w]
    }

    /// All cells, row-major.
    pub fn cells(&self) -> &[SimResult] {
        &self.cells
    }

    /// Wall seconds spent on each cell, row-major like
    /// [`GridResult::cells`].
    pub fn cell_seconds(&self) -> &[f64] {
        &self.cell_seconds
    }

    /// End-to-end throughput of one cell in branch records per second
    /// (0.0 if the cell ran too fast to time). The denominator is the
    /// cell's whole wall time — lazy benchmark generation *plus*
    /// simulation — since that is what a grid run actually costs; it is
    /// not comparable to pure simulate-path timings.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn records_per_sec(&self, p: usize, b: usize) -> f64 {
        assert!(p < self.predictors.len() && b < self.benchmarks.len());
        let i = p * self.benchmarks.len() + b;
        let seconds = self.cell_seconds[i];
        if seconds <= 0.0 {
            return 0.0;
        }
        self.cells[i].records as f64 / seconds
    }

    /// One predictor row's aggregate throughput: the row's total
    /// records over its total per-cell wall seconds (0.0 when untimed).
    /// Under the fused strategy the shared column time is apportioned
    /// evenly, so rows reflect the amortized cost.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn row_records_per_sec(&self, p: usize) -> f64 {
        assert!(p < self.predictors.len());
        let w = self.benchmarks.len();
        let seconds: f64 = self.cell_seconds[p * w..(p + 1) * w].iter().sum();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.row(p).iter().map(|c| c.records as f64).sum::<f64>() / seconds
    }

    /// Aggregate end-to-end throughput: total records over total
    /// per-cell wall seconds, generation included (CPU-time-ish: cells
    /// overlap across workers, so this is per-worker throughput, not
    /// wall-clock grid throughput).
    pub fn mean_records_per_sec(&self) -> f64 {
        let seconds: f64 = self.cell_seconds.iter().sum();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.cells.iter().map(|c| c.records as f64).sum::<f64>() / seconds
    }

    /// Mean MPKI of each predictor row, in row order, as
    /// `(registry name, mean MPKI)`.
    pub fn mean_mpki_rows(&self) -> Vec<(&str, f64)> {
        self.predictors
            .iter()
            .enumerate()
            .map(|(p, name)| {
                let row = self.row(p);
                let mean = if row.is_empty() {
                    0.0
                } else {
                    row.iter().map(SimResult::mpki).sum::<f64>() / row.len() as f64
                };
                (name.as_str(), mean)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{lookup, registry, PredictorFamily};
    use bp_workloads::cbp4_suite;
    use std::sync::atomic::AtomicUsize;

    fn small_grid() -> (Vec<PredictorSpec>, Vec<BenchmarkSpec>) {
        let predictors: Vec<PredictorSpec> = ["bimodal", "gshare"]
            .iter()
            .map(|n| lookup(n).expect("registered"))
            .collect();
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(3).collect();
        (predictors, benchmarks)
    }

    #[test]
    fn grid_shape_and_ordering() {
        let (predictors, benchmarks) = small_grid();
        let grid = Engine::with_jobs(4).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(grid.predictors, vec!["bimodal", "gshare"]);
        assert_eq!(grid.benchmarks.len(), 3);
        assert_eq!(grid.cells().len(), 6);
        for (p, name) in grid.predictors.iter().enumerate() {
            for (b, bench) in grid.benchmarks.iter().enumerate() {
                let cell = grid.cell(p, b);
                assert_eq!(&cell.benchmark, bench);
                let expected = lookup(name).unwrap().make().name().to_owned();
                assert_eq!(cell.predictor, expected);
            }
        }
    }

    #[test]
    fn parallel_grid_matches_sequential_grid() {
        let (predictors, benchmarks) = small_grid();
        let sequential = Engine::with_jobs(1).run_grid(&predictors, &benchmarks, 20_000);
        let parallel = Engine::with_jobs(8).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn progress_fires_once_per_cell() {
        let (predictors, benchmarks) = small_grid();
        let fired = AtomicUsize::new(0);
        let grid = Engine::with_jobs(3).run_grid_with_progress(
            &predictors,
            &benchmarks,
            10_000,
            &|update| {
                fired.fetch_add(1, Ordering::Relaxed);
                assert!(update.completed >= 1 && update.completed <= update.total);
                assert_eq!(update.total, 6);
            },
        );
        assert_eq!(fired.load(Ordering::Relaxed), 6);
        assert_eq!(grid.cells().len(), 6);
    }

    #[test]
    fn mean_mpki_rows_average_each_row() {
        let (predictors, benchmarks) = small_grid();
        let grid = Engine::with_jobs(2).run_grid(&predictors, &benchmarks, 10_000);
        let means = grid.mean_mpki_rows();
        assert_eq!(means.len(), 2);
        for (p, (name, mean)) in means.into_iter().enumerate() {
            assert_eq!(name, grid.predictors[p]);
            let row = grid.row(p);
            let expected = row.iter().map(SimResult::mpki).sum::<f64>() / row.len() as f64;
            assert!((mean - expected).abs() < 1e-12, "{name}");
        }
    }

    #[test]
    fn per_cell_timings_and_throughput_are_populated() {
        let (predictors, benchmarks) = small_grid();
        let grid = Engine::with_jobs(2).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(grid.cell_seconds().len(), grid.cells().len());
        for (p, _) in grid.predictors.iter().enumerate() {
            for (b, _) in grid.benchmarks.iter().enumerate() {
                assert!(grid.cell(p, b).records > 0);
                assert!(grid.records_per_sec(p, b) >= 0.0);
            }
        }
        assert!(grid.mean_records_per_sec() > 0.0);
        // Equality ignores wall time: a re-run with different timings
        // still compares equal cell-for-cell.
        let rerun = Engine::with_jobs(1).run_grid(&predictors, &benchmarks, 20_000);
        assert_eq!(grid, rerun);
    }

    #[test]
    fn fused_grid_is_bit_identical_to_per_cell_grid() {
        let predictors: Vec<PredictorSpec> = ["bimodal", "gshare", "tage-gsc"]
            .iter()
            .map(|n| lookup(n).expect("registered"))
            .collect();
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(3).collect();
        let per_cell = Engine::with_jobs(1)
            .with_strategy(GridStrategy::PerCell)
            .run_grid(&predictors, &benchmarks, 20_000);
        for jobs in [1, 8] {
            let fused = Engine::with_jobs(jobs)
                .with_strategy(GridStrategy::FusedColumns)
                .run_grid(&predictors, &benchmarks, 20_000);
            assert_eq!(per_cell, fused, "fused grid diverged at jobs={jobs}");
            assert_eq!(fused.cell_seconds().len(), fused.cells().len());
        }
    }

    #[test]
    fn fused_grid_fires_progress_once_per_cell() {
        let (predictors, benchmarks) = small_grid();
        let fired = AtomicUsize::new(0);
        let grid = Engine::with_jobs(2)
            .with_strategy(GridStrategy::FusedColumns)
            .run_grid_with_progress(&predictors, &benchmarks, 10_000, &|update| {
                fired.fetch_add(1, Ordering::Relaxed);
                assert!(update.completed >= 1 && update.completed <= update.total);
                assert_eq!(update.total, 6);
            });
        assert_eq!(fired.load(Ordering::Relaxed), 6);
        assert_eq!(grid.cells().len(), 6);
    }

    #[test]
    fn auto_strategy_fuses_profitable_shapes_only() {
        let e = Engine::with_jobs(2);
        assert_eq!(e.strategy(), GridStrategy::Auto);
        assert!(e.fuse_columns(12, 8), "many predictors, enough columns");
        assert!(!e.fuse_columns(1, 8), "nothing shares the decode");
        assert!(
            !Engine::with_jobs(16).fuse_columns(12, 8),
            "too few columns"
        );
        assert!(Engine::with_jobs(16)
            .with_strategy(GridStrategy::FusedColumns)
            .fuse_columns(1, 1));
    }

    #[test]
    fn cached_grid_is_bit_identical_off_cold_and_warm() {
        let (predictors, benchmarks) = small_grid();
        let dir = std::env::temp_dir().join(format!("bp-engine-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let baseline = Engine::with_jobs(2).run_grid(&predictors, &benchmarks, 20_000);
        for strategy in [GridStrategy::PerCell, GridStrategy::FusedColumns] {
            let _ = std::fs::remove_dir_all(&dir);
            let cold_cache = SimCache::new(&dir, crate::CachePolicy::ReadWrite);
            let cold = Engine::with_jobs(2)
                .with_strategy(strategy)
                .with_cache(Some(cold_cache.clone()))
                .run_grid(&predictors, &benchmarks, 20_000);
            assert_eq!(baseline, cold, "cold cached grid diverged ({strategy:?})");
            assert_eq!(cold_cache.hits(), 0);
            assert_eq!(cold_cache.stores(), 6);
            let warm_cache = SimCache::new(&dir, crate::CachePolicy::ReadWrite);
            let fired = AtomicUsize::new(0);
            let warm = Engine::with_jobs(4)
                .with_strategy(strategy)
                .with_cache(Some(warm_cache.clone()))
                .run_grid_with_progress(&predictors, &benchmarks, 20_000, &|update| {
                    fired.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(update.total, 6);
                });
            assert_eq!(baseline, warm, "warm cached grid diverged ({strategy:?})");
            assert_eq!(warm_cache.hits(), 6, "warm run must not simulate");
            assert_eq!(warm_cache.stores(), 0);
            assert_eq!(fired.load(Ordering::Relaxed), 6);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_grid_computes_duplicate_configs_once() {
        let spec = lookup("gshare").expect("registered");
        let twin = PredictorSpec::new("gshare-twin", "same config, different name", {
            spec.config.clone()
        });
        let predictors = vec![spec, twin];
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(2).collect();
        let dir = std::env::temp_dir().join(format!("bp-engine-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SimCache::new(&dir, crate::CachePolicy::ReadWrite);
        let grid = Engine::with_jobs(1)
            .with_strategy(GridStrategy::PerCell)
            .with_cache(Some(cache.clone()))
            .run_grid(&predictors, &benchmarks, 10_000);
        // 4 cells, but only 2 distinct (config, benchmark) keys: the
        // twins replicate without simulating or re-storing.
        assert_eq!(cache.stores(), 2);
        assert_eq!(grid.row(0), grid.row(1));
        let baseline = Engine::with_jobs(1)
            .with_strategy(GridStrategy::PerCell)
            .run_grid(&predictors, &benchmarks, 10_000);
        assert_eq!(baseline, grid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn family_filtered_grids_run() {
        let predictors = crate::registry::family_members(PredictorFamily::Baseline);
        let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(2).collect();
        let grid = Engine::new().run_grid(&predictors, &benchmarks, 10_000);
        assert_eq!(grid.cells().len(), 4);
        assert!(Engine::new().jobs() >= 1);
        assert_eq!(Engine::with_jobs(0).jobs(), 1);
        // Sanity: registry() is the full grid's row source.
        assert!(registry().len() >= 20);
    }
}
