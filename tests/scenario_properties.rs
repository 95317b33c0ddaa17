//! Property layer for the workload combinators and the scenario
//! runner: determinism across runs and worker counts, exact tenant
//! conservation, and flush-period edge cases, under arbitrary
//! schedules and tenant mixes.

use imli_repro::sim::{
    lookup, run_scenario_with_cache, scenario_by_name, simulate_scenario, PredictorSpec,
    ScenarioFlush, ScenarioSpec, TenantSpec,
};
use imli_repro::trace::BranchStream;
use imli_repro::workloads::{
    context_switch, EventStream, FlushMode, Genome, InterleaveSchedule, ScenarioEvent, SingleTenant,
};
use proptest::prelude::*;

/// The cheap predictors the properties drive — the invariants under
/// test live in the combinator/scenario layer, not in the predictor,
/// so baseline configs keep each case fast.
fn predictors() -> Vec<PredictorSpec> {
    ["bimodal", "gshare"]
        .iter()
        .map(|n| lookup(n).expect("registered"))
        .collect()
}

/// An arbitrary valid interleave schedule (selector-mapped: the
/// vendored proptest shim has ranges/tuples/`prop_map` only).
fn arb_schedule() -> impl Strategy<Value = InterleaveSchedule> {
    (0u8..2, 1u32..200, any::<u64>(), 1u32..64, 0u32..200).prop_map(
        |(kind, quantum, seed, min, extra)| {
            if kind == 0 {
                InterleaveSchedule::RoundRobin { quantum }
            } else {
                InterleaveSchedule::SeededBursts {
                    seed,
                    min,
                    max: min + extra,
                }
            }
        },
    )
}

/// An arbitrary tenant: one of the paper benchmarks, or an adversarial
/// genome.
fn arb_tenant() -> impl Strategy<Value = TenantSpec> {
    (0u8..5, any::<u64>(), 1usize..8).prop_map(|(kind, seed, genes)| match kind {
        0 => TenantSpec::Benchmark("SPEC2K6-04".to_owned()),
        1 => TenantSpec::Benchmark("MM-4".to_owned()),
        2 => TenantSpec::Benchmark("CLIENT02".to_owned()),
        3 => TenantSpec::Benchmark("WS04".to_owned()),
        _ => TenantSpec::Adversarial { seed, genes },
    })
}

/// An arbitrary small multi-tenant scenario over paper benchmarks and
/// adversarial genomes.
fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        proptest::collection::vec(arb_tenant(), 1..4),
        arb_schedule(),
        (0u8..2, 1u64..30_000),
        2_000u64..12_000,
    )
        .prop_map(
            |(tenants, schedule, (has_flush, period), instructions)| ScenarioSpec {
                name: "prop".to_owned(),
                tenants,
                schedule,
                flush: (has_flush == 1).then_some(ScenarioFlush {
                    period,
                    mode: FlushMode::Partial,
                }),
                instructions,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The interleaved event sequence is a pure function of the spec:
    /// two independent event streams built from the same spec agree
    /// event for event.
    #[test]
    fn interleave_replays_identically(scenario in arb_scenario()) {
        prop_assert!(scenario.validate().is_ok());
        let mut a = scenario.events();
        let mut b = scenario.events();
        loop {
            let (ea, eb) = (a.next_event(), b.next_event());
            prop_assert_eq!(ea, eb, "event streams diverged");
            if ea.is_none() {
                break;
            }
        }
    }

    /// `run_scenario_with_cache` produces the identical report — bytes included —
    /// across repeated runs and across `--jobs 1` vs `--jobs 8`
    /// (solo-per-predictor vs fused scheduling).
    #[test]
    fn scenario_report_is_jobs_and_rerun_invariant(scenario in arb_scenario()) {
        let predictors = predictors();
        let solo = run_scenario_with_cache(&scenario, &predictors, 8, None, &|_| {}).expect("valid");
        let rerun = run_scenario_with_cache(&scenario, &predictors, 8, None, &|_| {}).expect("valid");
        let fused = run_scenario_with_cache(&scenario, &predictors, 1, None, &|_| {}).expect("valid");
        prop_assert_eq!(&solo, &rerun, "rerun diverged");
        prop_assert_eq!(&solo, &fused, "worker count changed the result");
        prop_assert_eq!(solo.to_json(), fused.to_json());
        prop_assert_eq!(solo.to_markdown(), fused.to_markdown());
    }

    /// Tenant conservation: the per-tenant tallies partition the
    /// combined run exactly — instructions, predictions, and
    /// mispredictions each sum to the totals, with nothing lost or
    /// double-counted, and every prediction attributed.
    #[test]
    fn tenant_tallies_partition_the_combined_run(scenario in arb_scenario()) {
        for spec in predictors() {
            let mut events = scenario.events();
            let run = simulate_scenario(&spec, events.as_mut());
            prop_assert_eq!(run.tenants.len(), scenario.tenants.len());
            let (mut instr, mut predicted, mut mispredicted, mut provided) = (0u64, 0u64, 0u64, 0u64);
            for tally in &run.tenants {
                instr += tally.instructions;
                predicted += tally.stats.predicted;
                mispredicted += tally.stats.mispredicted;
                provided += tally.attribution.total_provided();
            }
            prop_assert_eq!(instr, run.instructions, "{}: instructions leaked", &spec.name);
            prop_assert_eq!(predicted, run.stats.predicted, "{}: predictions leaked", &spec.name);
            prop_assert_eq!(
                mispredicted, run.stats.mispredicted,
                "{}: mispredictions leaked", &spec.name
            );
            prop_assert_eq!(provided, run.stats.predicted, "{}: unattributed predictions", &spec.name);
        }
    }

    /// A flush period longer than the whole combined stream is
    /// indistinguishable from no flush policy at all: zero flush events
    /// and the identical run.
    #[test]
    fn period_beyond_stream_length_never_flushes(
        seed in any::<u64>(),
        genes in 1usize..8,
        instructions in 1_000u64..8_000,
        slack in 1u64..1_000_000,
    ) {
        // Total stream length is bounded by the instruction budget, so
        // any period >= budget + slack can never be reached.
        let period = instructions + slack;
        let mut flushed = context_switch(
            SingleTenant::new(Genome::seeded(seed, genes).stream(instructions)),
            period,
            FlushMode::Partial,
        );
        let mut plain = Genome::seeded(seed, genes).stream(instructions);
        loop {
            match flushed.next_event() {
                Some(ScenarioEvent::Flush(_)) => prop_assert!(false, "flush fired before the period"),
                Some(ScenarioEvent::Record { record, tenant }) => {
                    prop_assert_eq!(tenant, 0u32);
                    prop_assert_eq!(Some(record), plain.next_record());
                }
                None => break,
            }
        }
        prop_assert!(plain.next_record().is_none(), "records were dropped");

        // And at the scenario level: the no-flush spec and the
        // over-long-period spec produce equal runs.
        let base = ScenarioSpec {
            name: "prop".to_owned(),
            tenants: vec![TenantSpec::Adversarial { seed, genes }],
            schedule: InterleaveSchedule::RoundRobin { quantum: 16 },
            flush: None,
            instructions,
        };
        let mut long = base.clone();
        long.flush = Some(ScenarioFlush { period, mode: FlushMode::Partial });
        let spec = lookup("gshare").expect("registered");
        let mut base_events = base.events();
        let mut long_events = long.events();
        let a = simulate_scenario(&spec, base_events.as_mut());
        let b = simulate_scenario(&spec, long_events.as_mut());
        prop_assert_eq!(a, b, "an unreachable flush period changed the run");
    }
}

/// Built-in scenarios stay deterministic end to end (non-proptest
/// smoke so a bare `cargo test scenario_properties` exercises it too).
#[test]
fn builtin_hostile_mix_is_rerun_invariant() {
    let mut scenario = scenario_by_name("hostile_mix").expect("builtin");
    scenario.instructions = 10_000;
    let predictors = predictors();
    let a = run_scenario_with_cache(&scenario, &predictors, 4, None, &|_| {}).expect("valid");
    let b = run_scenario_with_cache(&scenario, &predictors, 4, None, &|_| {}).expect("valid");
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}
