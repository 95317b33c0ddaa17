//! Whole-suite simulation and suite-vs-suite comparison.

use crate::engine::{Engine, GridStrategy, Rows};
use crate::run::SimResult;
use bp_components::ConditionalPredictor;
use bp_workloads::BenchmarkSpec;
use std::fmt;

/// Results of one predictor configuration over a whole benchmark suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Predictor configuration name.
    pub predictor: String,
    /// Per-benchmark results, in suite order.
    pub rows: Vec<SimResult>,
}

impl SuiteResult {
    /// The arithmetic-mean MPKI over the suite (the paper's averages are
    /// arithmetic means over the 40 traces of each set).
    pub fn mean_mpki(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(SimResult::mpki).sum::<f64>() / self.rows.len() as f64
    }

    /// The per-benchmark MPKI of `benchmark`, if present.
    pub fn mpki_of(&self, benchmark: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.benchmark == benchmark)
            .map(SimResult::mpki)
    }
}

impl fmt::Display for SuiteResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} MPKI mean over {} benchmarks",
            self.predictor,
            self.mean_mpki(),
            self.rows.len()
        )
    }
}

/// A baseline-vs-variant comparison over a suite.
#[derive(Debug, Clone)]
pub struct SuiteComparison {
    /// Baseline results.
    pub baseline: SuiteResult,
    /// Variant results.
    pub variant: SuiteResult,
}

/// The error returned by [`SuiteComparison::new`] when the two results
/// do not cover the identical benchmark list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteMismatchError {
    /// Benchmark names of the baseline result, in order.
    pub baseline: Vec<String>,
    /// Benchmark names of the variant result, in order.
    pub variant: Vec<String>,
}

impl fmt::Display for SuiteMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first_diff = self
            .baseline
            .iter()
            .zip(&self.variant)
            .position(|(b, v)| b != v);
        write!(
            f,
            "comparison requires identical benchmark lists: baseline has {} benchmarks, \
             variant has {}",
            self.baseline.len(),
            self.variant.len()
        )?;
        if let Some(i) = first_diff {
            write!(
                f,
                "; first divergence at index {i} ({:?} vs {:?})",
                self.baseline[i], self.variant[i]
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SuiteMismatchError {}

impl SuiteComparison {
    /// Builds a comparison.
    ///
    /// # Errors
    ///
    /// Returns a [`SuiteMismatchError`] describing the divergence if
    /// the two results cover different benchmark lists.
    pub fn new(baseline: SuiteResult, variant: SuiteResult) -> Result<Self, SuiteMismatchError> {
        let names = |r: &SuiteResult| -> Vec<String> {
            r.rows.iter().map(|row| row.benchmark.clone()).collect()
        };
        let (b, v) = (names(&baseline), names(&variant));
        if b != v {
            return Err(SuiteMismatchError {
                baseline: b,
                variant: v,
            });
        }
        Ok(SuiteComparison { baseline, variant })
    }

    /// Per-benchmark MPKI reduction (baseline − variant; positive =
    /// variant better), in suite order.
    pub fn reductions(&self) -> Vec<(String, f64)> {
        self.baseline
            .rows
            .iter()
            .zip(&self.variant.rows)
            .map(|(b, v)| (b.benchmark.clone(), b.mpki() - v.mpki()))
            .collect()
    }

    /// The `n` benchmarks with the largest MPKI reduction, sorted
    /// descending — the paper's "most benefitting benchmarks" figures.
    pub fn top_benefitting(&self, n: usize) -> Vec<(String, f64)> {
        let mut r = self.reductions();
        r.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite MPKI"));
        r.truncate(n);
        r
    }

    /// Relative mean-MPKI reduction in percent (positive = variant
    /// better), the paper's headline "-x %" numbers.
    pub fn mean_reduction_percent(&self) -> f64 {
        let b = self.baseline.mean_mpki();
        if b == 0.0 {
            return 0.0;
        }
        (b - self.variant.mean_mpki()) / b * 100.0
    }
}

/// Runs a predictor configuration over a suite: a *fresh* predictor per
/// benchmark (cold start, as in CBP), each benchmark generated lazily
/// at `instructions` retired instructions and simulated in O(1) memory.
/// Benchmarks are fanned out across available cores with the engine's
/// dynamic scheduler (see [`crate::Engine`]); results come back in
/// suite order regardless of worker count.
pub fn run_suite(
    factory: &(dyn Fn() -> Box<dyn ConditionalPredictor + Send> + Sync),
    specs: &[BenchmarkSpec],
    instructions: u64,
) -> SuiteResult {
    let timed = Engine::new()
        .with_strategy(GridStrategy::PerCell)
        .run_cells(Rows::Factory(factory), specs, instructions, &|_| {});
    let rows: Vec<SimResult> = timed.into_iter().map(|(result, _)| result).collect();
    let predictor = rows
        .first()
        .map_or_else(String::new, |r| r.predictor.clone());
    SuiteResult { predictor, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::make_predictor;
    use bp_components::PredictorStats;
    use bp_workloads::cbp4_suite;

    fn fake_result(bench: &str, mispred: u64) -> SimResult {
        let mut stats = PredictorStats::default();
        for i in 0..100 {
            stats.record(i >= mispred);
        }
        SimResult {
            benchmark: bench.to_owned(),
            predictor: "fake".to_owned(),
            instructions: 1000,
            records: 100,
            stats,
        }
    }

    #[test]
    fn mean_and_lookup() {
        let s = SuiteResult {
            predictor: "fake".into(),
            rows: vec![fake_result("a", 10), fake_result("b", 30)],
        };
        assert!((s.mean_mpki() - 20.0).abs() < 1e-9);
        assert_eq!(s.mpki_of("b"), Some(30.0));
        assert_eq!(s.mpki_of("c"), None);
        assert!(format!("{s}").contains("fake"));
    }

    #[test]
    fn comparison_reductions_and_top() {
        let base = SuiteResult {
            predictor: "base".into(),
            rows: vec![
                fake_result("a", 10),
                fake_result("b", 30),
                fake_result("c", 5),
            ],
        };
        let var = SuiteResult {
            predictor: "var".into(),
            rows: vec![
                fake_result("a", 10),
                fake_result("b", 10),
                fake_result("c", 4),
            ],
        };
        let cmp = SuiteComparison::new(base, var).expect("same benchmark lists");
        let top = cmp.top_benefitting(2);
        assert_eq!(top[0].0, "b");
        assert!((top[0].1 - 20.0).abs() < 1e-9);
        assert_eq!(top[1].0, "c");
        assert!(cmp.mean_reduction_percent() > 0.0);
    }

    #[test]
    fn comparison_rejects_different_benchmarks_with_context() {
        let a = SuiteResult {
            predictor: "a".into(),
            rows: vec![fake_result("x", 1), fake_result("z", 1)],
        };
        let b = SuiteResult {
            predictor: "b".into(),
            rows: vec![fake_result("x", 1), fake_result("y", 1)],
        };
        let err = SuiteComparison::new(a, b).unwrap_err();
        assert_eq!(err.baseline, vec!["x", "z"]);
        assert_eq!(err.variant, vec!["x", "y"]);
        let msg = format!("{err}");
        assert!(msg.contains("identical benchmark lists"), "{msg}");
        assert!(msg.contains("index 1"), "{msg}");
        assert!(msg.contains("\"z\"") && msg.contains("\"y\""), "{msg}");
    }

    #[test]
    fn comparison_rejects_length_mismatch() {
        let a = SuiteResult {
            predictor: "a".into(),
            rows: vec![fake_result("x", 1)],
        };
        let b = SuiteResult {
            predictor: "b".into(),
            rows: vec![],
        };
        let err = SuiteComparison::new(a, b).unwrap_err();
        assert!(format!("{err}").contains("1 benchmarks"));
    }

    #[test]
    fn run_suite_smoke_small() {
        // A tiny run over 4 benchmarks with a cheap predictor, checking
        // parallel plumbing and ordering.
        let specs: Vec<_> = cbp4_suite().into_iter().take(4).collect();
        let result = run_suite(
            &|| make_predictor("bimodal").expect("registered"),
            &specs,
            20_000,
        );
        assert_eq!(result.rows.len(), 4);
        for (spec, row) in specs.iter().zip(&result.rows) {
            assert_eq!(spec.name, row.benchmark);
        }
        assert!(result.mean_mpki() > 0.0, "bimodal must miss something");
    }
}
