//! Shared TAGE lanes: a fused column drives each TAGE geometry once and
//! feeds every plain TAGE-SC spec of that geometry as a lane of one
//! host. Every fused drive must still return exactly what a solo run of
//! each spec returns, field for field, in spec order:
//!
//! * the sweep's solved TAGE-SC configs through one column's plain
//!   drive against `simulate`;
//! * the paper report set, warmup/steady split and attribution
//!   included, through one column's phased drive against
//!   `simulate_stream_attributed`;
//! * the scenario set with no flush, partial and full flushes, through
//!   `simulate_scenario_multi` against `simulate_scenario`;
//!
//! and the grouping itself is pinned: how many TAGE fronts the sweep
//! and report columns build.

use imli_repro::sim::{
    lookup, paper_report_predictors, plan_column, scenario_by_name, scenario_report_predictors,
    simulate, simulate_scenario, simulate_scenario_multi, simulate_stream_attributed, solve_budget,
    stream_blocks, AttributedRun, Column, Counts, HostPlan, Phases, PredictorSpec, ScenarioFlush,
    SimResult, STANDARD_BUDGETS_KBIT, SWEEP_FAMILIES,
};
use imli_repro::workloads::{find_benchmark, generate, BenchmarkSpec, FlushMode};

const BENCH: &str = "SPEC2K6-04";

/// The sweep's TAGE-SC families, in `SWEEP_FAMILIES` order.
const TAGE_FAMILIES: [&str; 4] = ["tage-gsc", "tage-gsc+imli", "tage-sc-l", "tage-sc-l+imli"];

/// The sweep column's specs for `families`, budget-major and named
/// `family@budget` as `run_sweep` builds them.
fn sweep_specs(families: &[&str]) -> Vec<PredictorSpec> {
    STANDARD_BUDGETS_KBIT
        .iter()
        .flat_map(|&budget| {
            families.iter().map(move |family| {
                let config = solve_budget(family, budget * 1024).expect("solvable");
                PredictorSpec::new(format!("{family}@{budget}"), "sweep", config)
            })
        })
        .collect()
}

fn specs(names: &[&str]) -> Vec<PredictorSpec> {
    names
        .iter()
        .map(|n| lookup(n).expect("registered"))
        .collect()
}

/// One column of `specs` over `bench`, plain drive.
fn fused(specs: &[PredictorSpec], bench: &BenchmarkSpec, instructions: u64) -> Vec<SimResult> {
    let counts = Counts::new(specs.len());
    Column::build(specs).run(
        &bench.name,
        &mut stream_blocks(bench.stream(instructions)),
        counts,
    )
}

/// One column of `specs` over `bench`, warmup/steady attribution.
fn fused_attributed(
    specs: &[PredictorSpec],
    bench: &BenchmarkSpec,
    instructions: u64,
    warmup: u64,
) -> Vec<AttributedRun> {
    let phases = Phases::new(specs.len(), warmup);
    Column::build(specs).run(
        &bench.name,
        &mut stream_blocks(bench.stream(instructions)),
        phases,
    )
}

/// The TAGE fronts of a column plan, as lane lists.
fn fronts(plan: &[HostPlan]) -> Vec<&[usize]> {
    plan.iter()
        .filter_map(|host| match host {
            HostPlan::TageFront(lanes) => Some(lanes.as_slice()),
            HostPlan::Solo(_) => None,
        })
        .collect()
}

#[test]
fn sweep_tage_configs_fused_equal_solo_runs() {
    let bench = find_benchmark(BENCH).expect("paper benchmark");
    let instructions = 40_000;
    let trace = generate(&bench, instructions);
    let specs = sweep_specs(&TAGE_FAMILIES);
    assert_eq!(specs.len(), 24);
    let fused = fused(&specs, &bench, instructions);
    assert_eq!(fused.len(), specs.len());
    for (spec, run) in specs.iter().zip(&fused) {
        let solo = simulate(spec.make().as_mut(), &trace);
        assert_eq!(run, &solo, "{} diverged under shared lanes", spec.name);
    }
}

#[test]
fn report_set_attributed_fused_equals_solo_runs() {
    let bench = find_benchmark(BENCH).expect("paper benchmark");
    let instructions = 60_000;
    let specs = paper_report_predictors();
    // A boundary inside a later block, and one before the first record.
    for warmup in [35_000, 0] {
        let fused = fused_attributed(&specs, &bench, instructions, warmup);
        assert_eq!(fused.len(), specs.len());
        for (spec, run) in specs.iter().zip(&fused) {
            let solo = simulate_stream_attributed(
                spec.make().as_mut(),
                bench.stream(instructions),
                warmup,
            );
            assert_eq!(run, &solo, "{} diverged at warmup {warmup}", spec.name);
        }
        if warmup > 0 {
            let run = &fused[0];
            assert!(run.warmup.stats.predicted > 0 && run.steady.stats.predicted > 0);
        }
    }
}

#[test]
fn scenario_set_fused_equals_solo_runs_under_every_flush_mode() {
    let specs = scenario_report_predictors();
    let base = scenario_by_name("paper_mix").expect("builtin");
    for flush in [
        None,
        Some(ScenarioFlush {
            period: 15_000,
            mode: FlushMode::Partial,
        }),
        Some(ScenarioFlush {
            period: 15_000,
            mode: FlushMode::Full,
        }),
    ] {
        let scenario = imli_repro::sim::ScenarioSpec {
            flush,
            instructions: 20_000,
            ..base.clone()
        };
        let fused = simulate_scenario_multi(&specs, scenario.events().as_mut());
        assert_eq!(fused.len(), specs.len());
        for (spec, run) in specs.iter().zip(&fused) {
            let solo = simulate_scenario(spec, scenario.events().as_mut());
            assert_eq!(run, &solo, "{} diverged with flush {flush:?}", spec.name);
            assert_eq!(run.flushes > 0, flush.is_some(), "{}", spec.name);
        }
    }
}

#[test]
fn interleaved_tage_and_other_specs_keep_spec_order() {
    let bench = find_benchmark(BENCH).expect("paper benchmark");
    let instructions = 30_000;
    let trace = generate(&bench, instructions);
    let specs = specs(&[
        "tage-sc-l",
        "bimodal",
        "tage-gsc+wh",
        "tage-gsc",
        "gehl+imli",
        "tage-sc-l+imli",
        "gshare",
    ]);
    assert_eq!(
        plan_column(&specs),
        vec![
            HostPlan::TageFront(vec![0, 3, 5]),
            HostPlan::Solo(1),
            HostPlan::Solo(2),
            HostPlan::Solo(4),
            HostPlan::Solo(6),
        ]
    );
    let fused = fused(&specs, &bench, instructions);
    let attributed = fused_attributed(&specs, &bench, instructions, 10_000);
    for (i, spec) in specs.iter().enumerate() {
        let solo = simulate(spec.make().as_mut(), &trace);
        assert_eq!(fused[i], solo, "{}", spec.name);
        assert_eq!(attributed[i].result, solo, "{}", spec.name);
    }
}

#[test]
fn sweep_and_report_columns_build_the_expected_fronts() {
    // The full sweep column: 9 families at 6 budgets. Its 24 TAGE-SC
    // specs resolve to 8 distinct TAGE geometries.
    let sweep = sweep_specs(&SWEEP_FAMILIES);
    assert_eq!(sweep.len(), 54);
    let plan = plan_column(&sweep);
    let sweep_fronts = fronts(&plan);
    assert_eq!(sweep_fronts.len(), 8);
    assert_eq!(sweep_fronts.iter().map(|l| l.len()).sum::<usize>(), 24);
    assert_eq!(plan.len(), 54 - 24 + 8);

    // The report set: the five unwrapped TAGE-SC configs share the
    // default geometry; the wormhole-wrapped `tage-gsc+wh` stays solo.
    let report = paper_report_predictors();
    let plan = plan_column(&report);
    let report_fronts = fronts(&plan);
    assert_eq!(report_fronts.len(), 1);
    let names: Vec<&str> = report_fronts[0]
        .iter()
        .map(|&i| report[i].name.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "tage-gsc",
            "tage-gsc+sic",
            "tage-gsc+imli",
            "tage-sc-l",
            "tage-sc-l+imli"
        ]
    );
    let wh = report
        .iter()
        .position(|s| s.name == "tage-gsc+wh")
        .expect("in the report set");
    assert!(plan.contains(&HostPlan::Solo(wh)));

    // The scenario set: `tage-sc-l` and `tage-gsc+imli` share one front.
    let scenario = scenario_report_predictors();
    let scenario_plan = plan_column(&scenario);
    let scenario_fronts = fronts(&scenario_plan);
    assert_eq!(scenario_fronts.len(), 1);
    let names: Vec<&str> = scenario_fronts[0]
        .iter()
        .map(|&i| scenario[i].name.as_str())
        .collect();
    assert_eq!(names, ["tage-sc-l", "tage-gsc+imli"]);
}
