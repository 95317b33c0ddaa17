//! Shared harness code for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Every binary regenerates one table or figure of the paper; the doc
//! comment at the top of each `src/bin/exp_*.rs` names the table or
//! figure and gives the paper's numbers. They share the conventions here:
//!
//! * the per-benchmark instruction budget comes from the
//!   `IMLI_REPRO_INSTR` environment variable (default: 2,000,000 —
//!   enough for warmed-up steady-state MPKI at tolerable runtime; the
//!   paper's traces are ~30M instructions each);
//! * suites are the synthetic CBP4-like/CBP3-like sets from
//!   `bp-workloads`;
//! * predictors are constructed through the `bp-sim` registry, so a
//!   binary's output is reproducible from its name alone;
//! * whole (configurations × suite) sweeps go through the parallel
//!   [`bp_sim::Engine`] via [`run_configs`], which fans *all* cells out
//!   at once — a binary comparing four configurations keeps every core
//!   busy instead of parallelizing one configuration at a time.

#![warn(missing_docs)]

use bp_sim::{lookup, registry_names, run_suite, Engine, GridStrategy, PredictorSpec, SuiteResult};
use bp_workloads::{cbp3_suite, cbp4_suite, BenchmarkSpec};
use std::fmt;

pub mod sim_bench;
pub mod trace_bench;

/// A requested configuration name that is not in the registry. The
/// message lists every registered name, so a typo in an experiment
/// binary (or a stale name after a registry rename) is immediately
/// actionable instead of a bare panic.
#[derive(Clone)]
pub struct UnknownPredictorError {
    /// The name that failed to resolve.
    pub name: String,
    /// Every registered configuration name, in registry order.
    pub available: Vec<String>,
}

impl UnknownPredictorError {
    fn new(name: &str) -> Self {
        UnknownPredictorError {
            name: name.to_owned(),
            available: registry_names(),
        }
    }
}

impl fmt::Display for UnknownPredictorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown predictor `{}`; registered configurations: {}",
            self.name,
            self.available.join(", ")
        )
    }
}

/// Debug matches Display so `fn main() -> Result<_, UnknownPredictorError>`
/// prints the readable message, not a struct dump.
impl fmt::Debug for UnknownPredictorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for UnknownPredictorError {}

/// Per-benchmark instruction budget (`IMLI_REPRO_INSTR`, default 2M).
pub fn instruction_budget() -> u64 {
    std::env::var("IMLI_REPRO_INSTR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000)
}

/// The two suites as `(label, specs)` pairs, CBP4 first (the paper's
/// primary set).
pub fn both_suites() -> Vec<(&'static str, Vec<BenchmarkSpec>)> {
    vec![("CBP4", cbp4_suite()), ("CBP3", cbp3_suite())]
}

/// Runs a registry configuration over a suite at the standard budget,
/// or reports the unknown name along with every registered one.
pub fn run_config(
    config: &str,
    specs: &[BenchmarkSpec],
) -> Result<SuiteResult, UnknownPredictorError> {
    let spec = lookup(config).ok_or_else(|| UnknownPredictorError::new(config))?;
    Ok(run_suite(&|| spec.make(), specs, instruction_budget()))
}

/// Runs several registry configurations over a suite at the standard
/// budget as one engine grid — all (configuration × benchmark) cells
/// are scheduled together, so the slowest configuration no longer
/// serializes the sweep. Results come back in `configs` order.
///
/// The experiment binaries sweep many configurations over the same
/// suite, the exact shape the engine's fused column mode is for: each
/// benchmark stream is generated **once** and every configuration
/// consumes it in the same pass, instead of regenerating the stream
/// once per configuration. Results are bit-identical to per-cell runs
/// (the engine guarantees and tests this).
///
/// Unknown names come back as an [`UnknownPredictorError`] listing
/// every registered configuration.
pub fn run_configs(
    configs: &[&str],
    specs: &[BenchmarkSpec],
) -> Result<Vec<SuiteResult>, UnknownPredictorError> {
    let predictors: Vec<PredictorSpec> = configs
        .iter()
        .map(|c| lookup(c).ok_or_else(|| UnknownPredictorError::new(c)))
        .collect::<Result<_, _>>()?;
    let grid = Engine::new()
        .with_strategy(GridStrategy::FusedColumns)
        .run_grid(&predictors, specs, instruction_budget());
    Ok(configs
        .iter()
        .map(|c| grid.suite_result(c).expect("row for every config"))
        .collect())
}

/// Formats a signed MPKI delta the way the paper quotes them
/// (`-0.123` = improvement).
pub fn fmt_delta(baseline: f64, variant: f64) -> String {
    format!("{:+.3}", variant - baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_default_and_override() {
        // Can't mutate the environment safely in parallel tests; just
        // check the default path yields a sane value.
        assert!(instruction_budget() >= 10_000);
    }

    #[test]
    fn suites_pairing() {
        let suites = both_suites();
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].0, "CBP4");
        assert_eq!(suites[0].1.len(), 40);
        assert_eq!(suites[1].1.len(), 40);
    }

    #[test]
    fn delta_formatting() {
        assert_eq!(fmt_delta(2.5, 2.3), "-0.200");
        assert_eq!(fmt_delta(2.5, 2.8), "+0.300");
    }

    #[test]
    fn run_config_smoke() {
        let specs: Vec<_> = cbp4_suite().into_iter().take(2).collect();
        let r = {
            let factory = move || bp_sim::make_predictor("bimodal").expect("registered");
            bp_sim::run_suite(&factory, &specs, 20_000)
        };
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn run_configs_matches_per_config_runs() {
        let specs: Vec<_> = cbp4_suite().into_iter().take(2).collect();
        let both = {
            let predictors: Vec<_> = ["bimodal", "gshare"]
                .iter()
                .map(|c| bp_sim::lookup(c).expect("registered"))
                .collect();
            let grid = Engine::new().run_grid(&predictors, &specs, 20_000);
            ["bimodal", "gshare"].map(|c| grid.suite_result(c).expect("row"))
        };
        for (config, grid_result) in ["bimodal", "gshare"].iter().zip(both) {
            let spec = bp_sim::lookup(config).expect("registered");
            let solo = bp_sim::run_suite(&|| spec.make(), &specs, 20_000);
            assert_eq!(solo.rows, grid_result.rows, "{config}");
        }
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let specs: Vec<_> = cbp4_suite().into_iter().take(1).collect();
        let err = run_config("tage-gcs", &specs).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("unknown predictor `tage-gcs`"),
            "{message}"
        );
        assert!(
            message.contains("tage-gsc") && message.contains("bimodal"),
            "{message}"
        );
        assert_eq!(format!("{err:?}"), message, "Debug must match Display");
        let err = run_configs(&["bimodal", "nope"], &specs).unwrap_err();
        assert_eq!(err.name, "nope");
        assert_eq!(err.available, bp_sim::registry_names());
    }
}
