//! Trace-driven branch prediction simulation.
//!
//! This crate drives any [`bp_components::ConditionalPredictor`] over
//! [`bp_trace::Trace`]s with the CBP protocol the paper's evaluation uses
//! (immediate update, §3) and reports **MPKI** — mispredictions per kilo
//! instruction, the paper's accuracy metric.
//!
//! * [`Column::drive`] — the one block drive every simulation runs: a
//!   [`Column`] of predictor hosts (plain TAGE-SC specs of one TAGE
//!   geometry share a TAGE front as lanes of one host, see
//!   [`plan_column`]) over a [`Blocks`] input (a materialized trace, a
//!   [`bp_trace::BranchStream`], or a scenario event stream), each
//!   prediction folded into an [`Observer`]: plain [`Counts`],
//!   warmup/steady [`Phases`], or per-tenant [`Tenants`];
//! * [`simulate`] / [`simulate_stream`] / [`Mpki`] — single benchmark
//!   runs of one caller-owned predictor (a column of one), over
//!   materialized traces or any stream in O(1) memory;
//! * [`Engine`] — the parallel (predictor × workload) cell scheduler
//!   behind every grid, report, scenario, sweep and claims run: cache
//!   probe, dedup, dynamic self-scheduling of fused or per-cell work
//!   units, deterministic grid-ordered results, progress callbacks;
//! * [`registry`] — every named predictor configuration of the paper's
//!   evaluation as a structured [`PredictorSpec`] (name, family, paper
//!   reference, factory), constructible by string name;
//! * [`run_report_with_cache`] / [`SuiteReport`] /
//!   [`simulate_stream_attributed`] — the reporting layer:
//!   component-attributed simulation with warmup/steady-state splits,
//!   folded into deterministic paper-style Markdown/JSON documents
//!   (`bp report`);
//! * [`speculative_imli_fidelity`] — the speculation-repair harness
//!   behind the paper's §4.2.1/§4.3.2 complexity argument;
//! * [`MispredictionProfile`] — per-static-branch misprediction
//!   attribution (the paper's "few hard branches dominate" analysis);
//! * [`TextTable`] — fixed-width table rendering for `bp`'s terminal
//!   output.

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
mod sweep;
mod table;

pub use analysis::{BranchProfile, MispredictionProfile};
pub use cache::{
    grid_cell_key, report_cell_key, scenario_cell_key, workload_identity, CacheKey, CachePolicy,
    CacheStats, CacheStore, GcOutcome, SimCache,
};
pub use column::{plan_column, Column, ColumnHost, HostPlan};
pub use engine::{CellUpdate, Engine, GridResult, GridStrategy};
pub use registry::{
    configs, family_members, lookup, make_predictor, paper_report_predictors, registry,
    registry_names, FamilyConfig, PredictorFamily, PredictorSpec, RegistryConfig,
    PAPER_REPORT_NAMES,
};
pub use report::{
    run_report_with_cache, simulate_stream_attributed, AttributedRun, AttributionSummary,
    ComponentTally, PhaseSummary, ReportRow, SuiteReport,
};
pub use run::{
    event_blocks, simulate, simulate_stream, stream_blocks, Block, Blocks, Counts, DriveTotals,
    Mpki, Observer, Phases, Pulled, SimResult, Tenants, BLOCK_RECORDS,
};
pub use scenario::{
    parse_scenario_file, run_scenario_with_cache, scenario_by_name, scenario_report_predictors,
    simulate_scenario, simulate_scenario_multi, ScenarioFlush, ScenarioReport, ScenarioRow,
    ScenarioRun, ScenarioSpec, TenantSpec, TenantTally, SCENARIO_NAMES, SCENARIO_REPORT_NAMES,
};
pub use speculative::{speculative_imli_fidelity, SpeculationReport};
pub use sweep::{
    parse_predictor_file, run_sweep, run_sweep_with_cache, solve_budget, SweepReport, SweepRow,
    BUDGET_TOLERANCE, STANDARD_BUDGETS_KBIT, SWEEP_FAMILIES,
};
pub use table::TextTable;
