//! The simulator throughput benchmark behind `bp bench --sim`.
//!
//! Two legs:
//!
//! * **predictor throughput** — one representative configuration per
//!   family (plus the flagship TAGE-SC-L ladder) simulated over a
//!   pre-materialized in-memory trace, `reps` timed repetitions each
//!   preceded by an untimed priming pass (cold predictor, hot input —
//!   the condition the baseline figures were measured under), reported
//!   as min/median/p90 wall time (the min
//!   is the throughput estimator: on a time-shared box every
//!   perturbation inflates the measurement, so the fastest repetition
//!   is the closest observation of the code's true cost). The
//!   repetitions are interleaved round-robin across the predictors
//!   rather than run back-to-back per predictor, so a multi-second
//!   noisy window on a shared box contaminates at most one sample of
//!   each predictor instead of every sample of one. This isolates
//!   the predict/update hot path from trace generation, so it is the
//!   number that moves when the predictors themselves get faster. When
//!   a baseline report is supplied, per-predictor speedups are embedded
//!   — and because the baseline figures were produced by the *same*
//!   min-of-N estimator, a speedup below 1.0 means a real regression,
//!   not one unlucky timing draw.
//! * **grid scheduling** — the full 12×8 paper-report grid
//!   ([`bp_sim::paper_report_predictors`] × `paper_suite`) run once
//!   per-cell and once with fused benchmark columns
//!   ([`bp_sim::GridStrategy`]), wall-clocked end to end. The two
//!   [`bp_sim::GridResult`]s are compared cell-for-cell; a mismatch
//!   fails the bench, so every `bp bench --sim` run re-proves the fused
//!   engine bit-identical.
//! * **result cache** (optional, `bp bench --sim --cache`) — the same
//!   paper grid run uncached, cold-cache (store cleared before every
//!   repetition, every cell computed and written back), and warm-cache
//!   (store primed, every cell a verified hit), each `reps` timed
//!   repetitions summarized min-of-N. The warm grid is compared
//!   cell-for-cell against the uncached grid and the warm hit counter
//!   against the cell count, so the committed speedup figure carries
//!   its own bit-identity proof.
//!
//! The report serializes to `BENCH_sim.json`, the simulator's
//! performance-trajectory artifact (sibling of `BENCH_trace_io.json`).

use crate::trace_bench::{json_f64, json_string};
use bp_sim::{
    lookup, paper_report_predictors, simulate, CachePolicy, Engine, GridStrategy, SimCache,
};
use bp_workloads::{cbp4_suite, generate, paper_suite};
use std::path::Path;
// bp-lint: allow(determinism, "wall-clock timing is the measurand of a throughput bench; timing fields are excluded from CI's byte-comparison")
use std::time::Instant;

/// Default throughput-leg repetitions (`bp bench --sim --reps` overrides).
pub const DEFAULT_REPS: usize = 5;

/// Order statistics over the per-repetition wall times of one
/// measurement: the minimum (the throughput estimator), the median, and
/// the nearest-rank 90th percentile (the noise witnesses — a p90 far
/// above the min means the box was contended and the min is doing its
/// job).
#[derive(Debug, Clone, PartialEq)]
pub struct RepStats {
    /// Number of timed repetitions summarized.
    pub reps: usize,
    /// Fastest repetition, seconds.
    pub min_seconds: f64,
    /// Median repetition (upper median for even `reps`), seconds.
    pub median_seconds: f64,
    /// Nearest-rank 90th-percentile repetition, seconds.
    pub p90_seconds: f64,
}

impl RepStats {
    /// Summarizes one measurement's repetition times.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample.
    pub fn from_times(mut times: Vec<f64>) -> RepStats {
        assert!(!times.is_empty(), "need at least one repetition");
        assert!(times.iter().all(|t| t.is_finite()), "non-finite rep time");
        times.sort_by(f64::total_cmp);
        let n = times.len();
        // Nearest-rank percentile: the smallest sample with at least
        // 90 % of the distribution at or below it.
        let p90_rank = (n * 9).div_ceil(10);
        RepStats {
            reps: n,
            min_seconds: times[0],
            median_seconds: times[n / 2],
            p90_seconds: times[p90_rank - 1],
        }
    }
}

/// Process memory footprint note, read from procfs on Linux (`None`
/// elsewhere): peak resident set plus cumulative page-fault counters.
/// Reported alongside the throughput leg so an accidental
/// working-set blowup (or a page-fault storm from fresh allocations on
/// the hot path) shows up in the committed artifact, not just in
/// wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryNote {
    /// Peak resident set size (`VmHWM`), KiB.
    pub peak_rss_kib: u64,
    /// Minor page faults of the process so far.
    pub minor_faults: u64,
    /// Major page faults of the process so far.
    pub major_faults: u64,
}

/// Reads the current process's [`MemoryNote`]. Linux-only by
/// construction (procfs); returns `None` on other platforms or if the
/// procfs files are unreadable or unparseable.
pub fn memory_note() -> Option<MemoryNote> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let peak_rss_kib = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_ascii_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        // /proc/self/stat: the comm field may contain spaces, so split
        // after its closing paren; minflt and majflt are then the 8th
        // and 10th of the remaining fields (man proc: fields 10 and 12).
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
        Some(MemoryNote {
            peak_rss_kib,
            minor_faults: fields.get(7)?.parse().ok()?,
            major_faults: fields.get(9)?.parse().ok()?,
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The registry configurations measured by the throughput leg: the
/// calibration baselines, one host per family, and the TAGE ladder up
/// to the flagship TAGE-SC-L(+IMLI).
pub const THROUGHPUT_PREDICTORS: [&str; 10] = [
    "bimodal",
    "gshare",
    "perceptron",
    "perceptron+imli",
    "gehl",
    "gehl+imli",
    "tage-gsc",
    "tage-gsc+imli",
    "tage-sc-l",
    "tage-sc-l+imli",
];

/// Measured simulate-path throughput of one predictor configuration.
#[derive(Debug, Clone)]
pub struct PredictorThroughput {
    /// Registry name.
    pub name: String,
    /// Host family label.
    pub family: String,
    /// Branch records in the measured trace.
    pub records: u64,
    /// Wall-time order statistics over the timed repetitions.
    pub stats: RepStats,
    /// Records per second of the fastest repetition (the min-of-N
    /// throughput estimator).
    pub records_per_sec: f64,
    /// The same figure from the supplied baseline report, if any.
    pub baseline_records_per_sec: Option<f64>,
}

impl PredictorThroughput {
    /// Throughput relative to the baseline (`None` without a baseline
    /// or for a degenerate baseline measurement).
    pub fn speedup(&self) -> Option<f64> {
        let base = self.baseline_records_per_sec?;
        (base > 0.0).then(|| self.records_per_sec / base)
    }
}

/// Wall-clock comparison of the two grid scheduling strategies on the
/// paper-report grid.
#[derive(Debug, Clone)]
pub struct GridLeg {
    /// Predictor rows in the grid.
    pub predictors: usize,
    /// Benchmark columns in the grid.
    pub benchmarks: usize,
    /// Instructions per benchmark.
    pub instructions: u64,
    /// Engine worker count used for both runs.
    pub jobs: usize,
    /// Wall seconds of the per-cell run.
    pub per_cell_seconds: f64,
    /// Wall seconds of the fused-columns run.
    pub fused_seconds: f64,
    /// Whether the two [`bp_sim::GridResult`]s compared equal
    /// cell-for-cell (they must; `false` means a fused-engine bug).
    pub fused_matches_per_cell: bool,
}

impl GridLeg {
    /// Per-cell wall time over fused wall time (> 1 means fusing won).
    pub fn fused_speedup(&self) -> f64 {
        if self.fused_seconds <= 0.0 {
            return 0.0;
        }
        self.per_cell_seconds / self.fused_seconds
    }
}

/// Wall-clock comparison of uncached vs cold-cache vs warm-cache runs
/// of the paper-report grid (the `--cache` leg of `bp bench --sim`).
///
/// *Cold* pays the cache's worst case: every cell is computed and an
/// entry written back. *Warm* is the payoff: every cell is a verified
/// hit and zero predictor records execute. The three measurements use
/// the same min-of-N estimator as the throughput leg.
#[derive(Debug, Clone)]
pub struct CacheLeg {
    /// Cells in the grid (predictors × benchmarks).
    pub cells: usize,
    /// Instructions per benchmark.
    pub instructions: u64,
    /// Engine worker count used for all three measurements.
    pub jobs: usize,
    /// Wall-time order statistics of the uncached runs.
    pub uncached: RepStats,
    /// Wall-time order statistics of the cold-cache runs (store cleared
    /// before each repetition, so every cell computes and stores).
    pub cold: RepStats,
    /// Wall-time order statistics of the warm-cache runs (store primed,
    /// so every cell is a verified hit).
    pub warm: RepStats,
    /// Verified hits of the last warm repetition (must equal `cells`).
    pub warm_hits: u64,
    /// Whether the warm-cache [`bp_sim::GridResult`] compared equal
    /// cell-for-cell to the uncached one (it must; `false` means the
    /// cache changed simulation results).
    pub warm_matches_uncached: bool,
}

impl CacheLeg {
    /// Uncached wall time over warm-cache wall time, min-of-N both
    /// sides — the headline figure for "repeated simulation costs one
    /// hash lookup".
    pub fn warm_speedup(&self) -> f64 {
        if self.warm.min_seconds <= 0.0 {
            return 0.0;
        }
        self.uncached.min_seconds / self.warm.min_seconds
    }

    /// Cold-cache wall time over uncached wall time — the write-back
    /// overhead a first run pays to make every later run free.
    pub fn cold_overhead(&self) -> f64 {
        if self.uncached.min_seconds <= 0.0 {
            return 0.0;
        }
        self.cold.min_seconds / self.uncached.min_seconds
    }
}

/// The full `bp bench --sim` report.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// Instruction budget of the throughput-leg trace.
    pub instructions: u64,
    /// Benchmark the throughput leg simulates.
    pub benchmark: String,
    /// Timed repetitions per predictor (after one warmup pass).
    pub reps: usize,
    /// Process memory footprint after the throughput leg, when
    /// available (Linux procfs).
    pub memory: Option<MemoryNote>,
    /// Per-configuration throughput measurements.
    pub predictors: Vec<PredictorThroughput>,
    /// The per-cell vs fused grid comparison.
    pub grid: GridLeg,
    /// The uncached vs cold vs warm result-cache comparison, when the
    /// bench was invoked with a cache scratch directory.
    pub cache: Option<CacheLeg>,
}

impl SimBenchReport {
    /// The throughput entry for one registry name.
    pub fn throughput(&self, name: &str) -> Option<&PredictorThroughput> {
        self.predictors.iter().find(|p| p.name == name)
    }

    /// Serializes the report as pretty-printed JSON. Each predictor
    /// object occupies exactly one line — the format
    /// [`parse_predictor_throughputs`] relies on when a later run
    /// embeds this report as its baseline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"sim\",\n");
        out.push_str(&format!("  \"instructions\": {},\n", self.instructions));
        out.push_str(&format!(
            "  \"benchmark\": {},\n",
            json_string(&self.benchmark)
        ));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        if let Some(m) = &self.memory {
            out.push_str(&format!(
                "  \"memory\": {{\"peak_rss_kib\": {}, \"minor_faults\": {}, \
                 \"major_faults\": {}}},\n",
                m.peak_rss_kib, m.minor_faults, m.major_faults,
            ));
        }
        out.push_str("  \"predictors\": [\n");
        for (i, p) in self.predictors.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"family\": {}, \"records\": {}, \"reps\": {}, \
                 \"min_seconds\": {}, \"median_seconds\": {}, \"p90_seconds\": {}, \
                 \"records_per_sec\": {}",
                json_string(&p.name),
                json_string(&p.family),
                p.records,
                p.stats.reps,
                json_f64(p.stats.min_seconds),
                json_f64(p.stats.median_seconds),
                json_f64(p.stats.p90_seconds),
                json_f64(p.records_per_sec),
            ));
            if let Some(base) = p.baseline_records_per_sec {
                out.push_str(&format!(
                    ", \"baseline_records_per_sec\": {}, \"speedup\": {}",
                    json_f64(base),
                    json_f64(p.speedup().unwrap_or(0.0)),
                ));
            }
            out.push_str(if i + 1 < self.predictors.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ],\n");
        let g = &self.grid;
        out.push_str(&format!(
            "  \"grid\": {{\"predictors\": {}, \"benchmarks\": {}, \"instructions\": {}, \
             \"jobs\": {},\n           \"per_cell_seconds\": {}, \"fused_seconds\": {}, \
             \"fused_speedup\": {}, \"fused_matches_per_cell\": {}}}{}\n",
            g.predictors,
            g.benchmarks,
            g.instructions,
            g.jobs,
            json_f64(g.per_cell_seconds),
            json_f64(g.fused_seconds),
            json_f64(g.fused_speedup()),
            g.fused_matches_per_cell,
            if self.cache.is_some() { "," } else { "" },
        ));
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "  \"cache\": {{\"cells\": {}, \"instructions\": {}, \"jobs\": {}, \
                 \"reps\": {},\n            \"uncached_seconds\": {}, \"cold_seconds\": {}, \
                 \"warm_seconds\": {},\n            \"cold_overhead\": {}, \
                 \"warm_speedup\": {}, \"warm_hits\": {}, \
                 \"warm_matches_uncached\": {}}}\n",
                c.cells,
                c.instructions,
                c.jobs,
                c.uncached.reps,
                json_f64(c.uncached.min_seconds),
                json_f64(c.cold.min_seconds),
                json_f64(c.warm.min_seconds),
                json_f64(c.cold_overhead()),
                json_f64(c.warm_speedup()),
                c.warm_hits,
                c.warm_matches_uncached,
            ));
        }
        out.push('}');
        out.push('\n');
        out
    }
}

/// Extracts `(name, records_per_sec)` pairs from a previously emitted
/// [`SimBenchReport::to_json`] document (the workspace has no JSON
/// parser; the emitter keeps each predictor object on one line exactly
/// so this scan stays trivial).
pub fn parse_predictor_throughputs(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(rate) = field_f64(line, "\"records_per_sec\": ") else {
            continue;
        };
        out.push((name.to_owned(), rate));
    }
    out
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// bp-lint: allow-item(determinism, "wall-clock timing is the measurand of a throughput bench; timing fields are excluded from CI's byte-comparison")
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Runs the simulator benchmark: the throughput leg at `instructions`
/// retired instructions with `reps` timed repetitions per predictor
/// (after one unmeasured warmup pass), the grid leg at
/// `grid_instructions` per benchmark. `baseline` maps registry names to
/// a previous run's records/sec (see [`parse_predictor_throughputs`]);
/// pass `&[]` for a standalone run. `cache_dir`, when supplied, adds
/// the result-cache leg ([`CacheLeg`]) using that directory as the
/// cache store — the directory is **cleared** before every cold
/// repetition, so pass a scratch path, never a cache you want to keep.
///
/// # Panics
///
/// Panics if `reps` is zero; if the fused grid does not match the
/// per-cell grid cell-for-cell; or if the warm-cache grid does not
/// match the uncached grid — either mismatch would mean scheduling
/// changes simulation results, and no benchmark number is worth
/// reporting past that.
pub fn run_sim_bench(
    instructions: u64,
    grid_instructions: u64,
    reps: usize,
    baseline: &[(String, f64)],
    cache_dir: Option<&Path>,
) -> SimBenchReport {
    assert!(reps > 0, "need at least one repetition");
    // Throughput leg: pre-materialize the trace so the measurement is
    // the simulate path alone, not generation.
    let spec = &cbp4_suite()[0];
    let trace = generate(spec, instructions);
    let records = trace.len() as u64;
    // Timed rounds, *rep-major*: round-robin over the predictors,
    // `reps` rounds. Measuring one predictor's repetitions
    // back-to-back looks natural but correlates all of its samples in
    // time — on a shared box a few seconds of interference then lands
    // in every sample of whichever predictor it overlapped, and no
    // order statistic can recover the true floor. Interleaving spreads
    // each predictor's samples across the whole leg, so a noisy window
    // costs at most one sample per predictor and min-of-N still finds
    // a quiet one.
    //
    // Every timed sample is immediately preceded by an *untimed
    // priming pass* of the same predictor (a separate fresh instance).
    // The priming pass re-warms the trace pages, the allocator's reuse
    // pattern for this predictor's tables, and the drive loop's
    // branch-target state — so each timed pass measures the defined
    // condition "cold predictor, hot input", independent of which
    // predictor happened to run before it in the round-robin order.
    // Without it the interleaving itself perturbs the fastest
    // predictors: a few ns/record of neighbour-induced cache noise is
    // invisible on a 140 ns/record TAGE-SC-L pass but is a double-digit
    // artifact on a 6 ns/record bimodal pass.
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); THROUGHPUT_PREDICTORS.len()];
    for _ in 0..reps {
        for (i, name) in THROUGHPUT_PREDICTORS.iter().enumerate() {
            let reg = lookup(name).expect("throughput predictors are registered");
            {
                let mut prime = reg.make();
                let _ = simulate(prime.as_mut(), &trace);
            }
            // A fresh cold predictor per rep: the CBP protocol, and the
            // same cost a grid cell pays.
            let mut p = reg.make();
            let ((), seconds) = timed(|| {
                let _ = simulate(p.as_mut(), &trace);
            });
            times[i].push(seconds);
        }
    }
    let mut predictors = Vec::with_capacity(THROUGHPUT_PREDICTORS.len());
    for (name, times) in THROUGHPUT_PREDICTORS.iter().zip(times) {
        let reg = lookup(name).expect("throughput predictors are registered");
        let stats = RepStats::from_times(times);
        let best = stats.min_seconds;
        predictors.push(PredictorThroughput {
            name: (*name).to_owned(),
            family: reg.family.to_string(),
            records,
            stats,
            records_per_sec: if best > 0.0 {
                records as f64 / best
            } else {
                0.0
            },
            baseline_records_per_sec: baseline
                .iter()
                .find(|(n, _)| n == *name)
                .map(|&(_, rate)| rate),
        });
    }
    let memory = memory_note();

    // Grid leg: the 12×8 paper-report grid, per-cell vs fused columns,
    // best of two passes each (both strategies are deterministic, so
    // repeats only smooth scheduling noise).
    let grid_predictors = paper_report_predictors();
    let benchmarks = paper_suite();
    let jobs = Engine::new().jobs();
    let run_grid_leg = |strategy: GridStrategy| {
        let mut best: Option<(bp_sim::GridResult, f64)> = None;
        for _ in 0..2 {
            let (grid, seconds) = timed(|| {
                Engine::with_jobs(jobs).with_strategy(strategy).run_grid(
                    &grid_predictors,
                    &benchmarks,
                    grid_instructions,
                )
            });
            if best.as_ref().is_none_or(|(_, s)| seconds < *s) {
                best = Some((grid, seconds));
            }
        }
        best.expect("at least one grid pass")
    };
    let (per_cell_grid, per_cell_seconds) = run_grid_leg(GridStrategy::PerCell);
    let (fused_grid, fused_seconds) = run_grid_leg(GridStrategy::FusedColumns);
    let fused_matches_per_cell = per_cell_grid == fused_grid;
    assert!(
        fused_matches_per_cell,
        "fused grid diverged from the per-cell grid"
    );

    // Result-cache leg: the same paper grid uncached / cold / warm,
    // rep-major interleaved for the same reason as the throughput leg.
    // Cold clears the store first (every cell computes + stores); warm
    // reuses the entries the cold pass just wrote (every cell hits).
    let cache = cache_dir.map(|dir| {
        let cells = grid_predictors.len() * benchmarks.len();
        let run_cached = |cache: Option<SimCache>| {
            let engine = Engine::with_jobs(jobs).with_cache(cache);
            timed(|| engine.run_grid(&grid_predictors, &benchmarks, grid_instructions))
        };
        let mut uncached_times = Vec::with_capacity(reps);
        let mut cold_times = Vec::with_capacity(reps);
        let mut warm_times = Vec::with_capacity(reps);
        let mut uncached_grid = None;
        let mut warm_outcome = None;
        for _ in 0..reps {
            let (grid, seconds) = run_cached(None);
            uncached_times.push(seconds);
            uncached_grid = Some(grid);

            let cold = SimCache::new(dir, CachePolicy::ReadWrite);
            cold.store().clear();
            let (_, seconds) = run_cached(Some(cold));
            cold_times.push(seconds);

            let warm = SimCache::new(dir, CachePolicy::ReadWrite);
            let (grid, seconds) = run_cached(Some(warm.clone()));
            warm_times.push(seconds);
            warm_outcome = Some((grid, warm.hits()));
        }
        let (warm_grid, warm_hits) = warm_outcome.expect("at least one warm repetition");
        let warm_matches_uncached = uncached_grid.as_ref() == Some(&warm_grid);
        assert!(
            warm_matches_uncached,
            "warm-cache grid diverged from the uncached grid"
        );
        assert_eq!(warm_hits as usize, cells, "warm run must hit every cell");
        CacheLeg {
            cells,
            instructions: grid_instructions,
            jobs,
            uncached: RepStats::from_times(uncached_times),
            cold: RepStats::from_times(cold_times),
            warm: RepStats::from_times(warm_times),
            warm_hits,
            warm_matches_uncached,
        }
    });

    SimBenchReport {
        instructions,
        benchmark: spec.name.clone(),
        reps,
        memory,
        predictors,
        grid: GridLeg {
            predictors: grid_predictors.len(),
            benchmarks: benchmarks.len(),
            instructions: grid_instructions,
            jobs,
            per_cell_seconds,
            fused_seconds,
            fused_matches_per_cell,
        },
        cache,
    }
}

/// The throughput regressions in `report` relative to its embedded
/// baselines: every predictor whose min-of-N records/sec fell below
/// `1 - tolerance_pct/100` of its baseline figure, as
/// `(name, speedup)` pairs. Empty when nothing regressed (or no
/// baseline was supplied). This is the CI regression gate's verdict —
/// the tolerance absorbs residual run-to-run noise that even the
/// min-of-N estimator cannot fully cancel on a shared box.
pub fn throughput_regressions(report: &SimBenchReport, tolerance_pct: f64) -> Vec<(String, f64)> {
    let floor = 1.0 - tolerance_pct / 100.0;
    report
        .predictors
        .iter()
        .filter_map(|p| p.speedup().map(|s| (p.name.clone(), s)))
        .filter(|&(_, s)| s < floor)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_through_the_json() {
        let report = run_sim_bench_tiny();
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"sim\""));
        assert!(json.contains("\"reps\": 2"));
        assert!(json.contains("\"min_seconds\""));
        assert!(json.contains("\"median_seconds\""));
        assert!(json.contains("\"p90_seconds\""));
        assert!(json.contains("\"fused_matches_per_cell\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        let parsed = parse_predictor_throughputs(&json);
        assert_eq!(parsed.len(), THROUGHPUT_PREDICTORS.len());
        for ((name, rate), p) in parsed.iter().zip(&report.predictors) {
            assert_eq!(name, &p.name);
            assert!(*rate > 0.0);
            assert!(p.stats.min_seconds <= p.stats.median_seconds);
            assert!(p.stats.median_seconds <= p.stats.p90_seconds);
        }

        // A second run against the first as baseline embeds speedups.
        let rerun = run_sim_bench(5_000, 3_000, 2, &parsed, None);
        let flagship = rerun.throughput("tage-sc-l").expect("measured");
        assert!(flagship.baseline_records_per_sec.is_some());
        assert!(flagship.speedup().is_some());
        assert!(rerun.to_json().contains("\"speedup\""));

        // The regression gate: nothing regresses against an impossibly
        // slow baseline; everything regresses against an impossibly
        // fast one.
        let slow: Vec<(String, f64)> = parsed.iter().map(|(n, _)| (n.clone(), 1e-6)).collect();
        let fast: Vec<(String, f64)> = parsed.iter().map(|(n, _)| (n.clone(), 1e15)).collect();
        let vs_slow = run_sim_bench(5_000, 3_000, 1, &slow, None);
        assert!(throughput_regressions(&vs_slow, 20.0).is_empty());
        let vs_fast = run_sim_bench(5_000, 3_000, 1, &fast, None);
        assert_eq!(
            throughput_regressions(&vs_fast, 20.0).len(),
            THROUGHPUT_PREDICTORS.len()
        );
    }

    fn run_sim_bench_tiny() -> SimBenchReport {
        run_sim_bench(5_000, 3_000, 2, &[], None)
    }

    #[test]
    fn cache_leg_measures_and_verifies_the_warm_grid() {
        let dir = std::env::temp_dir().join(format!("bp-sim-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_sim_bench(5_000, 3_000, 2, &[], Some(&dir));
        let leg = report.cache.as_ref().expect("cache leg requested");
        assert_eq!(leg.cells, report.grid.predictors * report.grid.benchmarks);
        assert_eq!(leg.warm_hits as usize, leg.cells);
        assert!(leg.warm_matches_uncached);
        assert_eq!(leg.uncached.reps, 2);
        assert!(leg.warm.min_seconds > 0.0);
        assert!(leg.warm_speedup() > 0.0);
        assert!(leg.cold_overhead() > 0.0);

        let json = report.to_json();
        assert!(json.contains("\"warm_speedup\""));
        assert!(json.contains("\"warm_matches_uncached\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The cache object must not confuse the baseline line-scanner.
        assert_eq!(
            parse_predictor_throughputs(&json).len(),
            THROUGHPUT_PREDICTORS.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rep_stats_order_statistics() {
        let s = RepStats::from_times(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.reps, 3);
        assert_eq!(s.min_seconds, 1.0);
        assert_eq!(s.median_seconds, 2.0);
        assert_eq!(s.p90_seconds, 3.0);

        // Even count: upper median; nearest-rank p90 of 10 samples is
        // the 9th order statistic.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = RepStats::from_times(ten);
        assert_eq!(s.median_seconds, 6.0);
        assert_eq!(s.p90_seconds, 9.0);

        let one = RepStats::from_times(vec![0.5]);
        assert_eq!(
            (one.min_seconds, one.median_seconds, one.p90_seconds),
            (0.5, 0.5, 0.5)
        );
    }

    #[test]
    fn memory_note_reads_procfs_on_linux() {
        let note = memory_note();
        if cfg!(target_os = "linux") {
            let note = note.expect("procfs note on Linux");
            assert!(note.peak_rss_kib > 0);
            // Touching fresh pages must show up as faults.
            assert!(note.minor_faults > 0);
        } else {
            assert!(note.is_none());
        }
    }

    #[test]
    fn field_scanners_handle_edges() {
        assert_eq!(
            field_str("x \"name\": \"abc\",", "\"name\": \""),
            Some("abc")
        );
        assert_eq!(field_str("no name here", "\"name\": \""), None);
        assert_eq!(
            field_f64("\"records_per_sec\": 123.5, ...", "\"records_per_sec\": "),
            Some(123.5)
        );
        assert_eq!(
            field_f64("\"records_per_sec\": 99}", "\"records_per_sec\": "),
            Some(99.0)
        );
        assert_eq!(field_f64("nope", "\"records_per_sec\": "), None);
        assert!(parse_predictor_throughputs("{}").is_empty());
    }
}
