//! Synthetic CBP-like benchmark suites.
//!
//! The paper evaluates on the 40-trace CBP3 and 40-trace CBP4 sets, which
//! are championship artifacts we cannot redistribute. This crate
//! synthesizes two suites of the same cardinality and naming from
//! parameterized [`Kernel`]s that plant exactly the correlation
//! structures the paper analyzes (its Figure 1 taxonomy):
//!
//! * **same-iteration** branches (`Out[N][M] ≈ Out[N-1][M]`, drifting
//!   slowly) — the IMLI-SIC target, with variable-trip-count and
//!   nested-conditional variants that the wormhole predictor structurally
//!   cannot track;
//! * **diagonal** branches (`Out[N][M] = Out[N-1][M-1]`) — the WH /
//!   IMLI-OH target;
//! * **inverted** branches (`Out[N][M] = ¬Out[N-1][M]`) — the paper's
//!   MM-4 case;
//! * loop exits, biased branches, global-history-correlated branches,
//!   per-branch periodic (local-history-friendly) branches, and
//!   irregular near-random branches that set each benchmark's MPKI
//!   floor.
//!
//! The benchmarks named in the paper's per-benchmark analysis
//! (SPEC2K6-04, SPEC2K6-12, MM-4, CLIENT02, MM07, WS04, WS03) receive
//! dedicated kernel mixes so that *who benefits from which component*
//! reproduces the paper's shape. Everything is deterministic given the
//! per-benchmark seed.
//!
//! Benchmarks can be materialized ([`generate`] → `Trace`) or streamed
//! lazily in O(1) memory ([`stream_benchmark`] /
//! [`BenchmarkSpec::stream`] → [`BenchmarkStream`]); the two paths
//! share one kernel scheduler and produce identical record sequences.
//!
//! Shared-predictor scenarios are composed on top of any such stream by
//! the combinator layer: [`interleave`] mixes N tenant streams under a
//! deterministic schedule into disjoint PC regions, [`context_switch`]
//! injects periodic predictor flushes, and [`Genome`] replays
//! adversarial branch-pattern genomes ([`AdversarialStream`]) as
//! scenario tenants in `bp-sim`.
//!
//! ```
//! use bp_workloads::{cbp4_suite, generate};
//! let suite = cbp4_suite();
//! assert_eq!(suite.len(), 40);
//! let trace = generate(&suite[0], 50_000);
//! assert!(trace.instruction_count() >= 50_000);
//! ```

#![warn(missing_docs)]

mod cache;
mod combinators;
mod kernels;
mod sink;
mod spec;
mod stream;
mod suites;

pub use cache::{cache_benchmark, TraceFileSink};
pub use combinators::{
    context_switch, interleave, AdversarialStream, ContextSwitchStream, EventRecords, EventStream,
    FlushMode, Gene, Genome, InterleaveSchedule, InterleavedStream, ScenarioEvent, SingleTenant,
    ADVERSARIAL_PC_BASE, TENANT_PC_STRIDE,
};
pub use kernels::{Kernel, KernelSpec, TripCount};
pub use sink::RecordSink;
pub use spec::{generate, BenchmarkSpec};
pub use stream::{stream_benchmark, BenchmarkStream};
pub use suites::{
    cbp3_suite, cbp4_suite, find_benchmark, paper_suite, quick_benchmark, suite_by_name,
};
