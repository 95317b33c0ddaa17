//! Crash-freedom properties for the text inputs a user hands the CLI:
//! predictor config files (`--config`) and scenario files
//! (`bp scenario FILE`). A mutated file must be rejected with an error
//! or run; it must never panic or allocate without bound. (Trace files
//! have their own bit-flip properties in `crates/trace`.)

use imli_repro::components::PredictorConfig;
use imli_repro::sim::{
    lookup, parse_predictor_file, parse_scenario_file, registry, simulate_scenario, simulate_stream,
};
use imli_repro::workloads::find_benchmark;
use proptest::prelude::*;

/// Values a mutant puts in place of a run of digits: bounds of the
/// usual bit widths, of u32 and u64, and a negative.
const MUTANT_NUMBERS: [&str; 12] = [
    "0",
    "1",
    "31",
    "32",
    "33",
    "63",
    "64",
    "65",
    "65535",
    "4294967296",
    "18446744073709551615",
    "-1",
];

/// Config mutants are built only below this exact storage, so the
/// property's memory stays bounded;
/// `storage_cap_admits_every_registry_config` shows the cap excludes
/// no shipped geometry.
const MUTANT_STORAGE_CAP_BITS: u64 = 1 << 23;

/// Instruction budget a scenario mutant is clamped to before it runs.
const MUTANT_SCENARIO_INSTRUCTIONS: u64 = 3_000;

/// A valid scenario file exercising every field.
const SCENARIO_FILE: &str = r#"{
    "name": "custom",
    "instructions": 60000,
    "tenants": [
        {"benchmark": "SPEC2K6-04"},
        {"adversarial": {"seed": 7, "genes": 12}}
    ],
    "schedule": {"seeded_bursts": {"seed": 3, "min": 8, "max": 64}},
    "flush": {"period": 20000, "mode": "full"}
}"#;

/// `text` with the digit runs picked by `edits` (run selector, index
/// into [`MUTANT_NUMBERS`]) replaced.
fn mutate_digits(text: &str, edits: &[(u64, usize)]) -> String {
    let bytes = text.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i > start {
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    let mut picked: Vec<(usize, &str)> = edits
        .iter()
        .map(|&(run, value)| ((run % runs.len() as u64) as usize, MUTANT_NUMBERS[value]))
        .collect();
    // Replace back to front so earlier ranges stay valid.
    picked.sort_by_key(|p| std::cmp::Reverse(p.0));
    picked.dedup_by_key(|p| p.0);
    let mut out = text.to_owned();
    for (run, value) in picked {
        out.replace_range(runs[run].0..runs[run].1, value);
    }
    out
}

fn arb_edits() -> impl Strategy<Value = Vec<(u64, usize)>> {
    proptest::collection::vec((any::<u64>(), 0usize..MUTANT_NUMBERS.len()), 1..4)
}

#[test]
fn storage_cap_admits_every_registry_config() {
    for spec in registry() {
        assert!(
            spec.storage_bits() < MUTANT_STORAGE_CAP_BITS,
            "{}: {} bits",
            spec.name,
            spec.storage_bits()
        );
    }
}

#[test]
fn unmutated_scenario_file_parses() {
    assert!(parse_scenario_file(SCENARIO_FILE).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A registry config with one to three numbers replaced either
    /// fails to parse or validate, or builds a predictor that runs.
    #[test]
    fn mutated_config_files_fail_cleanly_or_run(pick in any::<u64>(), edits in arb_edits()) {
        let specs = registry();
        let spec = &specs[(pick % specs.len() as u64) as usize];
        let config = mutate_digits(&spec.config.to_text(), &edits);
        let file = format!(r#"{{"predictors": [{{"name": "mutant", "config": {config}}}]}}"#);
        let Ok(mutants) = parse_predictor_file(&file) else {
            return Ok(());
        };
        let bench = find_benchmark("SPEC2K6-04").expect("registered benchmark");
        for mutant in mutants {
            if mutant.storage_bits() < MUTANT_STORAGE_CAP_BITS {
                let result = simulate_stream(mutant.make().as_mut(), bench.stream(2_000));
                prop_assert!(result.records > 0);
            }
        }
    }

    /// A scenario file with one to three numbers replaced either fails
    /// to parse or validate, or runs (clamped to a few thousand
    /// instructions per tenant).
    #[test]
    fn mutated_scenario_files_fail_cleanly_or_run(edits in arb_edits()) {
        let Ok(mut scenario) = parse_scenario_file(&mutate_digits(SCENARIO_FILE, &edits)) else {
            return Ok(());
        };
        scenario.instructions = scenario.instructions.min(MUTANT_SCENARIO_INSTRUCTIONS);
        let bimodal = lookup("bimodal").expect("registered");
        let run = simulate_scenario(&bimodal, scenario.events().as_mut());
        prop_assert_eq!(run.tenants.len(), scenario.tenants.len());
    }
}
