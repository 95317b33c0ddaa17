//! Workspace-level guarantees of the streaming data path and the
//! parallel grid engine:
//!
//! * streamed generation + simulation is *bit-identical* to the
//!   materialized path, for hosts of every family;
//! * `Engine::run_grid` returns the identical grid regardless of
//!   worker count.

use imli_repro::sim::{lookup, make_predictor, simulate, simulate_stream, Engine, PredictorSpec};
use imli_repro::workloads::{
    cbp4_suite, generate, stream_benchmark, BenchmarkSpec, KernelSpec, TripCount,
};
use proptest::prelude::*;

/// The three hosts the streaming-equivalence property covers: a
/// baseline, a TAGE-family IMLI host, and a GEHL-family IMLI host.
const EQUIVALENCE_CONFIGS: [&str; 3] = ["gshare", "tage-gsc+imli", "gehl+sic"];

/// A benchmark spec whose kernel mix exercises the nest, bias, and
/// irregular generators, parameterized by seed.
fn spec_for_seed(seed: u64) -> BenchmarkSpec {
    BenchmarkSpec::new(
        format!("prop-{seed:x}"),
        seed,
        vec![
            (
                KernelSpec::Biased {
                    probabilities: vec![0.95, 0.6, 0.1],
                },
                1.5,
            ),
            (
                KernelSpec::SameIteration {
                    trip: TripCount::Variable { min: 4, max: 28 },
                    drift: 0.2,
                    noise_branches: 1,
                },
                1.0,
            ),
            (
                KernelSpec::Irregular {
                    branches: 4,
                    spread: 0.15,
                },
                0.3,
            ),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and budget, simulating the streamed benchmark
    /// yields bit-identical `PredictorStats` (and instruction counts)
    /// to simulating the materialized `Trace` of the same spec.
    #[test]
    fn streamed_simulation_equals_materialized_simulation(
        seed in any::<u64>(),
        instructions in 20_000u64..60_000,
    ) {
        let spec = spec_for_seed(seed);
        let trace = generate(&spec, instructions);
        for config in EQUIVALENCE_CONFIGS {
            let mut materialized = make_predictor(config).expect("registered");
            let mut streamed = make_predictor(config).expect("registered");
            let via_trace = simulate(materialized.as_mut(), &trace);
            let via_stream =
                simulate_stream(streamed.as_mut(), stream_benchmark(&spec, instructions));
            prop_assert_eq!(
                &via_trace.stats, &via_stream.stats,
                "{} stats diverged between paths", config
            );
            prop_assert_eq!(via_trace.instructions, via_stream.instructions);
            prop_assert_eq!(&via_trace.benchmark, &via_stream.benchmark);
        }
    }
}

/// Streaming equivalence also holds on the real suite benchmarks the
/// paper's analysis singles out (fixed seeds, planted correlations).
#[test]
fn streamed_simulation_equals_materialized_on_suite_benchmarks() {
    let suite = cbp4_suite();
    for bench in ["SPEC2K6-04", "SPEC2K6-12", "MM-4"] {
        let spec = suite.iter().find(|s| s.name == bench).expect("in suite");
        let trace = generate(spec, 80_000);
        for config in EQUIVALENCE_CONFIGS {
            let mut a = make_predictor(config).expect("registered");
            let mut b = make_predictor(config).expect("registered");
            let materialized = simulate(a.as_mut(), &trace);
            let streamed = simulate_stream(b.as_mut(), spec.stream(80_000));
            assert_eq!(materialized, streamed, "{config} on {bench}");
        }
    }
}

/// `Engine::run_grid` with 1 worker and with 8 workers produces
/// identical result grids: same MPKI in every cell, same
/// predictor-major ordering.
#[test]
fn engine_grid_is_deterministic_across_job_counts() {
    let predictors: Vec<PredictorSpec> = EQUIVALENCE_CONFIGS
        .iter()
        .map(|c| lookup(c).expect("registered"))
        .collect();
    let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(6).collect();

    let sequential = Engine::with_jobs(1).run_grid(&predictors, &benchmarks, 50_000);
    let parallel = Engine::with_jobs(8).run_grid(&predictors, &benchmarks, 50_000);

    assert_eq!(sequential.predictors, parallel.predictors);
    assert_eq!(sequential.benchmarks, parallel.benchmarks);
    for p in 0..predictors.len() {
        for (b, bench) in benchmarks.iter().enumerate() {
            let (s, q) = (sequential.cell(p, b), parallel.cell(p, b));
            assert_eq!(s, q, "cell ({p}, {b}) diverged");
            assert_eq!(s.benchmark, bench.name, "ordering broke");
        }
    }
    assert_eq!(sequential, parallel);
}

/// The engine's grid agrees with one-at-a-time solo runs that never go
/// through `Engine`: each cell equals a fresh predictor streamed over
/// its benchmark.
#[test]
fn engine_grid_matches_sequential_suite_runs() {
    let predictors: Vec<PredictorSpec> = ["gshare", "tage-gsc+imli"]
        .iter()
        .map(|c| lookup(c).expect("registered"))
        .collect();
    let benchmarks: Vec<BenchmarkSpec> = cbp4_suite().into_iter().take(4).collect();
    let grid = Engine::new().run_grid(&predictors, &benchmarks, 40_000);
    for (p, spec) in predictors.iter().enumerate() {
        for (bench, cell) in benchmarks.iter().zip(grid.row(p)) {
            let solo = simulate_stream(spec.make().as_mut(), bench.stream(40_000));
            assert_eq!(&solo, cell, "{} on {}", spec.name, bench.name);
        }
    }
}
