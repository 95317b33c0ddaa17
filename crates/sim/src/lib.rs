//! Trace-driven branch prediction simulation.
//!
//! This crate drives any [`bp_components::ConditionalPredictor`] over
//! [`bp_trace::Trace`]s with the CBP protocol the paper's evaluation uses
//! (immediate update, §3) and reports **MPKI** — mispredictions per kilo
//! instruction, the paper's accuracy metric.
//!
//! * [`simulate`] / [`simulate_stream`] / [`Mpki`] — single benchmark
//!   runs, over materialized traces or any
//!   [`bp_trace::BranchStream`] in O(1) memory;
//! * [`Column`] / [`plan_column`] — the hosts of one fused column:
//!   plain TAGE-SC specs of one TAGE geometry share a TAGE front as
//!   lanes of one host, behind every fused drive
//!   ([`simulate_stream_multi`], [`simulate_stream_attributed_multi`],
//!   [`simulate_scenario_multi`]);
//! * [`Engine`] — the parallel (predictor × benchmark) grid runner:
//!   dynamic self-scheduling across worker threads, lazy per-cell
//!   generation, deterministic grid-ordered results, progress
//!   callbacks;
//! * [`run_suite`] / [`SuiteResult`] — whole-suite runs (parallelized
//!   across benchmarks) and suite-vs-suite comparisons;
//! * [`registry`] — every named predictor configuration of the paper's
//!   evaluation as a structured [`PredictorSpec`] (name, family, paper
//!   reference, factory), constructible by string name;
//! * [`run_report`] / [`SuiteReport`] / [`simulate_stream_attributed`]
//!   — the reporting layer: component-attributed simulation with
//!   warmup/steady-state splits, folded into deterministic paper-style
//!   Markdown/JSON documents (`bp report`);
//! * [`speculative_imli_fidelity`] — the speculation-repair harness
//!   behind the paper's §4.2.1/§4.3.2 complexity argument;
//! * [`MispredictionProfile`] — per-static-branch misprediction
//!   attribution (the paper's "few hard branches dominate" analysis);
//! * [`TextTable`] — fixed-width table rendering for the experiment
//!   binaries that regenerate the paper's tables and figures.

#![warn(missing_docs)]

mod analysis;
mod cache;
mod column;
mod engine;
mod registry;
mod report;
mod run;
mod scenario;
mod speculative;
mod suite;
mod sweep;
mod table;

pub use analysis::{learning_curve, BranchProfile, MispredictionProfile};
pub use cache::{
    grid_cell_key, report_cell_key, scenario_cell_key, workload_identity, CacheKey, CachePolicy,
    CacheStats, CacheStore, GcOutcome, SimCache,
};
pub use column::{plan_column, Column, HostPlan};
pub use engine::{CellUpdate, Engine, GridResult, GridStrategy};
pub use registry::{
    configs, family_members, lookup, make_predictor, paper_report_predictors, registry,
    registry_names, FamilyConfig, PredictorFamily, PredictorSpec, RegistryConfig,
    PAPER_REPORT_NAMES,
};
pub use report::{
    run_report, run_report_with_cache, simulate_stream_attributed,
    simulate_stream_attributed_multi, AttributedRun, AttributionSummary, ComponentTally,
    PhaseSummary, ReportRow, SuiteReport,
};
pub use run::{drive_block, simulate, simulate_stream, simulate_stream_multi, Mpki, SimResult};
pub use scenario::{
    adversarial_search, parse_scenario_file, run_scenario, run_scenario_with_cache,
    scenario_by_name, scenario_report_predictors, simulate_scenario, simulate_scenario_multi,
    AdversarialSearchResult, ScenarioFlush, ScenarioReport, ScenarioRow, ScenarioRun, ScenarioSpec,
    TenantSpec, TenantTally, SCENARIO_NAMES, SCENARIO_REPORT_NAMES,
};
pub use speculative::{speculative_imli_fidelity, SpeculationReport};
pub use suite::{run_suite, SuiteComparison, SuiteMismatchError, SuiteResult};
pub use sweep::{
    parse_predictor_file, parse_sweep_file, run_sweep, run_sweep_with_cache, solve_budget,
    SweepFileConfig, SweepReport, SweepRow, BUDGET_TOLERANCE, STANDARD_BUDGETS_KBIT,
    SWEEP_FAMILIES,
};
pub use table::TextTable;
