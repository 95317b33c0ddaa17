//! The simulator throughput benchmark behind `bp bench --sim`.
//!
//! It measures **predictor throughput**: one representative configuration
//! per family (plus the flagship TAGE-SC-L ladder) simulated over a
//! pre-materialized in-memory trace, `reps` timed repetitions each
//! preceded by an untimed priming pass (cold predictor, hot input —
//! the condition the baseline figures were measured under), reported as
//! min/median/p90 wall time (the min is the throughput estimator: on a
//! time-shared box every perturbation inflates the measurement, so the
//! fastest repetition is the closest observation of the code's true
//! cost). The repetitions are interleaved round-robin across the
//! predictors rather than run back-to-back per predictor, so a
//! multi-second noisy window on a shared box contaminates at most one
//! sample of each predictor instead of every sample of one. This
//! isolates the predict/update hot path from trace generation, so it is
//! the number that moves when the predictors themselves get faster.
//! When a baseline report is supplied, per-predictor speedups are
//! embedded — and because the baseline figures were produced by the
//! *same* min-of-N estimator, a speedup below 1.0 means a real
//! regression, not one unlucky timing draw.
//!
//! Whole-command timings (the fused grid scheduler, the warm result
//! cache, peak RSS) are measured by the `e2ebench` package, not here.
//!
//! The report serializes to `BENCH_sim.json`, the simulator's
//! performance-trajectory artifact (sibling of `BENCH_trace_io.json`).

use crate::trace_bench::{json_f64, json_string};
use bp_sim::{lookup, simulate};
use bp_workloads::{cbp4_suite, generate};
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

/// The full `bp bench --sim` report.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// Instruction budget of the throughput-leg trace.
    pub instructions: u64,
    /// Benchmark the throughput leg simulates.
    pub benchmark: String,
    /// Timed repetitions per predictor (after one warmup pass).
    pub reps: usize,
    /// Per-configuration throughput measurements.
    pub predictors: Vec<PredictorThroughput>,
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
        out.push_str("  ]\n}\n");
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
fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Runs the simulator benchmark at `instructions` retired instructions
/// with `reps` timed repetitions per predictor (each after one
/// unmeasured priming pass). `baseline` maps registry names to a
/// previous run's records/sec (see [`parse_predictor_throughputs`]);
/// pass `&[]` for a standalone run.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn run_sim_bench(instructions: u64, reps: usize, baseline: &[(String, f64)]) -> SimBenchReport {
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
            let seconds = timed(|| {
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
    SimBenchReport {
        instructions,
        benchmark: spec.name.clone(),
        reps,
        predictors,
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
        // Only the throughput leg: whole-command timings live in
        // `e2ebench`.
        for gone in ["\"grid\"", "\"cache\"", "\"memory\""] {
            assert!(!json.contains(gone), "{gone} in {json}");
        }
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
        let rerun = run_sim_bench(5_000, 2, &parsed);
        let flagship = rerun.throughput("tage-sc-l").expect("measured");
        assert!(flagship.baseline_records_per_sec.is_some());
        assert!(flagship.speedup().is_some());
        assert!(rerun.to_json().contains("\"speedup\""));

        // The regression gate: nothing regresses against an impossibly
        // slow baseline; everything regresses against an impossibly
        // fast one.
        let slow: Vec<(String, f64)> = parsed.iter().map(|(n, _)| (n.clone(), 1e-6)).collect();
        let fast: Vec<(String, f64)> = parsed.iter().map(|(n, _)| (n.clone(), 1e15)).collect();
        let vs_slow = run_sim_bench(5_000, 1, &slow);
        assert!(throughput_regressions(&vs_slow, 20.0).is_empty());
        let vs_fast = run_sim_bench(5_000, 1, &fast);
        assert_eq!(
            throughput_regressions(&vs_fast, 20.0).len(),
            THROUGHPUT_PREDICTORS.len()
        );
    }

    fn run_sim_bench_tiny() -> SimBenchReport {
        run_sim_bench(5_000, 2, &[])
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
