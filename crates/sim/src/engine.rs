//! The parallel evaluation-grid engine.
//!
//! The paper's evaluation is a grid: predictor configurations ×
//! benchmarks. [`Engine::run_grid`] fans the (predictor, benchmark)
//! cells out across worker threads with *dynamic self-scheduling*: all
//! workers pull cells from one shared lock-free queue (an atomic
//! cursor), so an idle worker immediately steals the next unclaimed
//! cell instead of idling behind a static partition — cells vary by
//! an order of magnitude in cost (bimodal vs. TAGE-SC-L+IMLI), which
//! makes static chunking badly unbalanced.
//!
//! Each cell generates its benchmark *lazily*
//! ([`bp_workloads::BenchmarkSpec::stream`]) and simulates it with
//! [`simulate_stream`], so per-worker memory stays O(1) in trace
//! length: the whole grid needs `jobs × one-phase buffers`, never
//! `jobs × whole traces`.
//!
//! When several predictors sweep the same benchmarks, regenerating the
//! stream once **per cell** decodes every benchmark `predictors` times.
//! The engine therefore also has a *fused column* mode
//! ([`GridStrategy`]): one work unit per benchmark, generating the
//! stream once and broadcasting every record to all predictors
//! ([`simulate_stream_multi`]), with bit-identical results.
//!
//! Results are written back by cell index, so the returned grid is in
//! deterministic (predictor-major) order regardless of worker count or
//! scheduling: `run_grid` with 1 job and with N jobs return identical
//! [`GridResult`]s.

use crate::cache::{grid_cell_key, CacheKey, SimCache};
use crate::registry::PredictorSpec;
use crate::run::{simulate_stream, simulate_stream_multi, SimResult};
use crate::suite::SuiteResult;
use bp_workloads::BenchmarkSpec;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How [`Engine::run_grid`] schedules the (predictor × benchmark) grid.
///
/// Both strategies produce **bit-identical** [`GridResult`]s — every
/// cell still runs one fresh cold predictor over the full benchmark
/// stream (the CBP protocol). They differ only in how often each
/// benchmark stream is generated/decoded:
///
/// * [`PerCell`](GridStrategy::PerCell) — one work unit per cell; each
///   cell regenerates its benchmark stream. Maximum parallelism
///   (`predictors × benchmarks` units), maximum redundant decode work
///   (each benchmark is generated once *per predictor*).
/// * [`FusedColumns`](GridStrategy::FusedColumns) — one work unit per
///   *benchmark column*; the column generates its stream **once** and
///   broadcasts every record to all predictors via
///   [`crate::simulate_stream_multi`]. `N`× less generation/decode work, but
///   only `benchmarks` parallel units.
/// * [`Auto`](GridStrategy::Auto) (default) — fuse columns when the
///   shape profits: at least two predictors share each decode and there
///   are enough columns to keep every worker busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridStrategy {
    /// Pick per shape: fused when `predictors >= 2` and the column
    /// count keeps all workers busy, per-cell otherwise.
    #[default]
    Auto,
    /// Always schedule individual cells (the pre-fusion behaviour).
    PerCell,
    /// Always schedule benchmark columns with one shared decode.
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

    /// Attaches a result cache: every grid cell is probed **before**
    /// scheduling, only the miss-set is dispatched to workers, and the
    /// grid comes back bit-identical to an uncached run (hit cells are
    /// spliced into place, miss cells computed and written back per the
    /// cache's policy).
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
    /// strategy.
    fn fuse_columns(&self, predictors: usize, benchmarks: usize) -> bool {
        match self.strategy {
            GridStrategy::PerCell => false,
            GridStrategy::FusedColumns => true,
            GridStrategy::Auto => auto_fuses(predictors, benchmarks, self.jobs),
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
        if let Some(cache) = self.cache.as_ref().filter(|c| c.enabled()) {
            return self.run_grid_cached(cache, predictors, benchmarks, instructions, progress);
        }
        if self.fuse_columns(predictors.len(), benchmarks.len()) {
            return self.run_grid_fused(predictors, benchmarks, instructions, progress);
        }
        let total = predictors.len() * benchmarks.len();
        let timed = run_indexed(
            self.jobs,
            total,
            0,
            total,
            |idx| {
                let spec = &predictors[idx / benchmarks.len()];
                let bench = &benchmarks[idx % benchmarks.len()];
                let mut predictor = spec.make();
                let result = simulate_stream(predictor.as_mut(), bench.stream(instructions));
                let label = CellLabel {
                    predictor: &spec.name,
                    benchmark: &bench.name,
                    mpki: result.mpki(),
                };
                (result, label)
            },
            progress,
        );
        let (cells, cell_seconds) = timed.into_iter().unzip();
        GridResult {
            predictors: predictors.iter().map(|s| s.name.to_owned()).collect(),
            benchmarks: benchmarks.iter().map(|b| b.name.clone()).collect(),
            cells,
            cell_seconds,
        }
    }

    /// The cache-aware grid path: probe every cell key up front, splice
    /// verified hits into place, dispatch **only the miss-set** to the
    /// workers, and write the computed misses back. Duplicate keys
    /// inside one grid (a sweep whose budget solver landed on the same
    /// config twice) are computed once and replicated.
    ///
    /// The result is bit-identical to an uncached run by construction:
    /// hit cells were produced by the same deterministic pipeline that
    /// would recompute them, and miss cells *are* recomputed (fused
    /// dispatch fuses only co-resident misses of a column, which
    /// [`simulate_stream_multi`] guarantees is equivalent to any other
    /// grouping).
    fn run_grid_cached(
        &self,
        cache: &SimCache,
        predictors: &[PredictorSpec],
        benchmarks: &[BenchmarkSpec],
        instructions: u64,
        progress: &(dyn Fn(CellUpdate<'_>) + Sync),
    ) -> GridResult {
        let n_b = benchmarks.len();
        let total = predictors.len() * n_b;
        let keys: Vec<CacheKey> = (0..total)
            .map(|idx| {
                grid_cell_key(
                    &predictors[idx / n_b],
                    &benchmarks[idx % n_b].name,
                    instructions,
                )
            })
            .collect();
        let mut cells: Vec<Option<SimResult>> = vec![None; total];
        let mut cell_seconds = vec![0.0; total];
        for idx in 0..total {
            cells[idx] = cache.lookup_sim(&keys[idx], &benchmarks[idx % n_b].name);
        }

        // In-run dedup among the misses: two cells with byte-equal
        // (config text, benchmark) compute byte-equal results, so only
        // one representative per key group is dispatched.
        let mut dup_of: Vec<Option<usize>> = vec![None; total];
        let mut misses: Vec<usize> = Vec::new();
        {
            let mut representative: BTreeMap<(&str, usize), usize> = BTreeMap::new();
            for (idx, cell) in cells.iter().enumerate() {
                if cell.is_some() {
                    continue;
                }
                match representative.entry((keys[idx].config.as_str(), idx % n_b)) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(idx);
                        misses.push(idx);
                    }
                    std::collections::btree_map::Entry::Occupied(slot) => {
                        dup_of[idx] = Some(*slot.get());
                    }
                }
            }
        }

        // Hits report progress first, in deterministic cell order.
        let mut completed = 0usize;
        for (idx, cell) in cells.iter().enumerate() {
            if let Some(result) = cell {
                completed += 1;
                progress(CellUpdate {
                    predictor: &predictors[idx / n_b].name,
                    benchmark: &benchmarks[idx % n_b].name,
                    mpki: result.mpki(),
                    completed,
                    total,
                });
            }
        }

        // Dispatch the representative misses only.
        if self.fuse_columns(predictors.len(), benchmarks.len()) {
            // Fuse only the co-resident misses of each column.
            let mut column_preds: Vec<Vec<usize>> = vec![Vec::new(); n_b];
            for &idx in &misses {
                column_preds[idx % n_b].push(idx / n_b);
            }
            let miss_columns: Vec<usize> =
                (0..n_b).filter(|&b| !column_preds[b].is_empty()).collect();
            let columns = run_columns(
                self.jobs,
                miss_columns.len(),
                completed,
                total,
                |ci| {
                    let b = miss_columns[ci];
                    let bench = &benchmarks[b];
                    let specs: Vec<PredictorSpec> = column_preds[b]
                        .iter()
                        .map(|&p| predictors[p].clone())
                        .collect();
                    let results = simulate_stream_multi(&specs, bench.stream(instructions));
                    let labels = column_preds[b]
                        .iter()
                        .zip(&results)
                        .map(|(&p, result)| CellLabel {
                            predictor: &predictors[p].name,
                            benchmark: &bench.name,
                            mpki: result.mpki(),
                        })
                        .collect();
                    (results, labels)
                },
                progress,
            );
            for (ci, (results, seconds)) in columns.into_iter().enumerate() {
                let b = miss_columns[ci];
                let per_cell = seconds / column_preds[b].len().max(1) as f64;
                for (&p, result) in column_preds[b].iter().zip(results) {
                    cells[p * n_b + b] = Some(result);
                    cell_seconds[p * n_b + b] = per_cell;
                }
            }
        } else {
            let timed = run_indexed(
                self.jobs,
                misses.len(),
                completed,
                total,
                |j| {
                    let idx = misses[j];
                    let spec = &predictors[idx / n_b];
                    let bench = &benchmarks[idx % n_b];
                    let mut predictor = spec.make();
                    let result = simulate_stream(predictor.as_mut(), bench.stream(instructions));
                    let label = CellLabel {
                        predictor: &spec.name,
                        benchmark: &bench.name,
                        mpki: result.mpki(),
                    };
                    (result, label)
                },
                progress,
            );
            for (j, (result, seconds)) in timed.into_iter().enumerate() {
                let idx = misses[j];
                cell_seconds[idx] = seconds;
                cells[idx] = Some(result);
            }
        }

        // Write the computed representatives back (policy permitting).
        for &idx in &misses {
            if let Some(result) = &cells[idx] {
                cache.store_sim(&keys[idx], result);
            }
        }

        // Replicate deduplicated cells and close out progress.
        completed += misses.len();
        for idx in 0..total {
            if let Some(source) = dup_of[idx] {
                cells[idx] = cells[source].clone();
                completed += 1;
                if let Some(result) = &cells[idx] {
                    progress(CellUpdate {
                        predictor: &predictors[idx / n_b].name,
                        benchmark: &benchmarks[idx % n_b].name,
                        mpki: result.mpki(),
                        completed,
                        total,
                    });
                }
            }
        }

        GridResult {
            predictors: predictors.iter().map(|s| s.name.to_owned()).collect(),
            benchmarks: benchmarks.iter().map(|b| b.name.clone()).collect(),
            cells: cells
                .into_iter()
                .map(|c| c.expect("every grid cell filled"))
                .collect(),
            cell_seconds,
        }
    }

    /// The fused column path: one work unit per benchmark, each unit
    /// generating its stream once and driving all predictors over it
    /// via [`simulate_stream_multi`]. Cells (and progress callbacks,
    /// one per cell as in the per-cell path) come back in the same
    /// deterministic predictor-major order; the column's wall time is
    /// apportioned evenly across its cells, so `cell_seconds` keeps the
    /// same shape and totals as a per-cell run would report for the
    /// shared work.
    fn run_grid_fused(
        &self,
        predictors: &[PredictorSpec],
        benchmarks: &[BenchmarkSpec],
        instructions: u64,
        progress: &(dyn Fn(CellUpdate<'_>) + Sync),
    ) -> GridResult {
        let columns = run_columns(
            self.jobs,
            benchmarks.len(),
            0,
            predictors.len() * benchmarks.len(),
            |b| {
                let bench = &benchmarks[b];
                let results = simulate_stream_multi(predictors, bench.stream(instructions));
                let labels = predictors
                    .iter()
                    .zip(&results)
                    .map(|(spec, result)| CellLabel {
                        predictor: &spec.name,
                        benchmark: &bench.name,
                        mpki: result.mpki(),
                    })
                    .collect();
                (results, labels)
            },
            progress,
        );
        let (cells, cell_seconds) = transpose_columns(columns, predictors.len(), benchmarks.len());
        GridResult {
            predictors: predictors.iter().map(|s| s.name.to_owned()).collect(),
            benchmarks: benchmarks.iter().map(|b| b.name.clone()).collect(),
            cells,
            cell_seconds,
        }
    }
}

/// The [`GridStrategy::Auto`] fusion predicate, shared by the engine
/// and the attributed report path so the two can never drift: fusing
/// trades parallel grain (cells → columns) for an N-fold cut in stream
/// generation, profitable whenever at least two predictors share each
/// decode and the columns alone can keep every worker busy.
pub(crate) fn auto_fuses(predictors: usize, benchmarks: usize, jobs: usize) -> bool {
    predictors >= 2 && benchmarks >= jobs.max(1)
}

/// Runs `total_columns` benchmark-column work units across `jobs`
/// workers with the same dynamic self-scheduling as [`run_indexed`],
/// returning `(column results, column wall seconds)` in column-index
/// order. The column closure returns one result plus one display label
/// per cell it ran; progress fires once per *cell* (not per column),
/// with a monotonic `completed` counter starting at `progress_base`
/// against `progress_total` — the cache path probes hits before
/// scheduling, so the dispatched miss-set may be a suffix of a larger
/// grid. Shared by the plain fused grid and the fused attributed report
/// path.
pub(crate) fn run_columns<'a, T, F>(
    jobs: usize,
    total_columns: usize,
    progress_base: usize,
    progress_total: usize,
    column: F,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Vec<(Vec<T>, f64)>
where
    T: Send,
    F: Fn(usize) -> (Vec<T>, Vec<CellLabel<'a>>) + Sync,
{
    let next = AtomicUsize::new(0);
    type Collected<T> = (Vec<(usize, Vec<T>, f64)>, usize);
    // Collected columns plus the monotonic completed-cell counter
    // behind the progress callbacks, under one lock.
    let collected: Mutex<Collected<T>> =
        Mutex::new((Vec::with_capacity(total_columns), progress_base));
    let worker = || loop {
        let b = next.fetch_add(1, Ordering::Relaxed);
        if b >= total_columns {
            break;
        }
        let started = std::time::Instant::now();
        let (results, labels) = column(b);
        let seconds = started.elapsed().as_secs_f64();
        debug_assert_eq!(results.len(), labels.len());
        let mut guard = collected.lock().expect("results lock");
        let (columns, completed) = &mut *guard;
        for label in labels {
            *completed += 1;
            progress(CellUpdate {
                predictor: label.predictor,
                benchmark: label.benchmark,
                mpki: label.mpki,
                completed: *completed,
                total: progress_total,
            });
        }
        columns.push((b, results, seconds));
    };
    if jobs <= 1 || total_columns <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(total_columns) {
                scope.spawn(worker);
            }
        });
    }
    let (mut columns, completed) = collected.into_inner().expect("results lock");
    debug_assert!(completed <= progress_total);
    columns.sort_unstable_by_key(|(b, _, _)| *b);
    columns
        .into_iter()
        .map(|(_, results, seconds)| (results, seconds))
        .collect()
}

/// Transposes benchmark-major column results into the predictor-major
/// cell order grids use, apportioning each column's wall time evenly
/// across its cells.
pub(crate) fn transpose_columns<T>(
    columns: Vec<(Vec<T>, f64)>,
    n_pred: usize,
    n_bench: usize,
) -> (Vec<T>, Vec<f64>) {
    let total_cells = n_pred * n_bench;
    let mut cells: Vec<Option<T>> = (0..total_cells).map(|_| None).collect();
    let mut cell_seconds = vec![0.0; total_cells];
    for (b, (results, seconds)) in columns.into_iter().enumerate() {
        let per_cell = seconds / n_pred.max(1) as f64;
        for (p, result) in results.into_iter().enumerate() {
            cells[p * n_bench + b] = Some(result);
            cell_seconds[p * n_bench + b] = per_cell;
        }
    }
    (
        cells
            .into_iter()
            .map(|c| c.expect("every grid cell filled"))
            .collect(),
        cell_seconds,
    )
}

/// What a cell closure reports about the cell it just ran; the
/// scheduler combines it with its own completion bookkeeping to build
/// the [`CellUpdate`] handed to progress callbacks.
pub(crate) struct CellLabel<'a> {
    pub(crate) predictor: &'a str,
    pub(crate) benchmark: &'a str,
    pub(crate) mpki: f64,
}

/// Runs `total` independent cells across `jobs` workers with dynamic
/// self-scheduling, returning `(result, wall seconds)` pairs in
/// cell-index order. Generic over the cell payload `T` so the same
/// scheduler drives plain [`SimResult`] grids, attributed report runs,
/// and [`crate::run_suite`] rows. The worker closure returns the cell
/// result plus its display label; completion counting happens here,
/// under the collection lock, so progress callbacks observe a strictly
/// increasing `completed` starting at `progress_base` against
/// `progress_total` (the cache path reports probe hits before
/// dispatching the remaining miss-set here). Per-cell wall time is
/// measured around the closure (generation + simulation), outside the
/// lock.
pub(crate) fn run_indexed<'a, T, F>(
    jobs: usize,
    total: usize,
    progress_base: usize,
    progress_total: usize,
    cell: F,
    progress: &(dyn Fn(CellUpdate<'_>) + Sync),
) -> Vec<(T, f64)>
where
    T: Send,
    F: Fn(usize) -> (T, CellLabel<'a>) + Sync,
{
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T, f64)>> = Mutex::new(Vec::with_capacity(total));
    let worker = || loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= total {
            break;
        }
        let started = std::time::Instant::now();
        let (result, label) = cell(idx);
        let seconds = started.elapsed().as_secs_f64();
        // One lock serializes the progress callback, makes `completed`
        // monotonic, and collects the result.
        let mut results = collected.lock().expect("results lock");
        progress(CellUpdate {
            predictor: label.predictor,
            benchmark: label.benchmark,
            mpki: label.mpki,
            completed: progress_base + results.len() + 1,
            total: progress_total,
        });
        results.push((idx, result, seconds));
    };
    if jobs <= 1 || total <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(total) {
                scope.spawn(worker);
            }
        });
    }
    let mut results = collected.into_inner().expect("results lock");
    debug_assert_eq!(results.len(), total);
    // Completion order depends on scheduling; cell-index order does not.
    results.sort_unstable_by_key(|(idx, _, _)| *idx);
    results
        .into_iter()
        .map(|(_, result, seconds)| (result, seconds))
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

    /// One predictor's row as a [`SuiteResult`] (the sequential API's
    /// result type), by registry name.
    pub fn suite_result(&self, predictor: &str) -> Option<SuiteResult> {
        let p = self.predictors.iter().position(|n| n == predictor)?;
        Some(SuiteResult {
            predictor: self
                .row(p)
                .first()
                .map_or_else(|| predictor.to_owned(), |r| r.predictor.clone()),
            rows: self.row(p).to_vec(),
        })
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
    fn suite_result_bridge_matches_rows() {
        let (predictors, benchmarks) = small_grid();
        let grid = Engine::with_jobs(2).run_grid(&predictors, &benchmarks, 10_000);
        let suite = grid.suite_result("gshare").expect("row exists");
        assert_eq!(suite.rows, grid.row(1));
        assert!(grid.suite_result("nope").is_none());
        let means = grid.mean_mpki_rows();
        assert_eq!(means.len(), 2);
        assert!((means[1].1 - suite.mean_mpki()).abs() < 1e-12);
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
