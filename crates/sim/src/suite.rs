//! Whole-suite simulation.

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
