//! Property tests for the config layer and the budget-sweep solver.
//!
//! The config layer's contract is *exactness*: for every registry entry
//! and for every solver-produced configuration,
//! `storage_bits_estimate()` must equal the built predictor's itemized
//! `storage_items()` sum bit-for-bit; solver output must land within
//! the budget tolerance and be monotone in the budget; and the
//! hand-rolled text round-trip must reproduce both the bytes and the
//! built behaviour.

use imli_repro::components::{PredictorConfig, StorageBudget};
use imli_repro::sim::{
    registry, solve_budget, RegistryConfig, BUDGET_TOLERANCE, STANDARD_BUDGETS_KBIT, SWEEP_FAMILIES,
};
use proptest::prelude::*;

#[test]
fn every_registry_estimate_equals_built_storage_items_sum() {
    for spec in registry() {
        let built = spec.make();
        let items_sum: u64 = built.storage_items().iter().map(|i| i.bits).sum();
        assert_eq!(
            spec.config.storage_bits_estimate(),
            items_sum,
            "{}: config estimate diverges from built storage_items() sum",
            spec.name
        );
        // And the itemized total is what storage_bits() reports.
        assert_eq!(items_sum, built.storage_bits(), "{}", spec.name);
    }
}

#[test]
fn every_registry_config_round_trips_exactly() {
    for spec in registry() {
        let text = spec.config.to_text();
        let parsed =
            RegistryConfig::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(
            parsed.to_text(),
            text,
            "{}: serialization not stable",
            spec.name
        );
        assert_eq!(
            parsed.storage_bits_estimate(),
            spec.config.storage_bits_estimate(),
            "{}",
            spec.name
        );
        let a = parsed.build();
        let b = spec.make();
        assert_eq!(a.name(), b.name(), "{}", spec.name);
        assert_eq!(a.storage_items(), b.storage_items(), "{}", spec.name);
    }
}

/// A configuration that passes `validate()` must build without
/// panicking or misbehaving — fields that would trip a constructor
/// assert (`AdaptiveThreshold::new`), overflow a stored counter
/// (`conf_max`), or render a component inert (`confidence_threshold`)
/// must be rejected up front.
#[test]
fn out_of_range_config_fields_fail_validation_instead_of_building() {
    for spec in registry() {
        let text = spec.config.to_text();
        for (field, bad) in [
            ("threshold_init", 1 << 20),
            ("threshold_max", -1i64),
            ("conf_max", 255),
            ("confidence_threshold", 200),
            // Size-determining fields: a validated config must never
            // attempt a terabit-scale allocation at build time.
            ("bias_entries", 1 << 40),
            ("table_entries", 1 << 40),
            ("max_history", 1 << 50),
            ("sic_entries", 1 << 40),
            ("entries", 1 << 40),
            // The path-history register holds at most 64 bits.
            ("path_bits", 65),
            ("path_bits", 0),
        ] {
            let needle = format!("\"{field}\": ");
            let Some(at) = text.find(&needle) else {
                continue; // family has no adaptive threshold (baselines)
            };
            let end = text[at + needle.len()..]
                .find([',', '\n'])
                .map(|i| at + needle.len() + i)
                .expect("field has a terminator");
            let mutated = format!("{}{bad}{}", &text[..at + needle.len()], &text[end..]);
            let parsed = RegistryConfig::from_text(&mutated)
                .unwrap_or_else(|e| panic!("{} ({field}): {e}", spec.name));
            assert!(
                parsed.validate().is_err(),
                "{}: {field}={bad} passed validation",
                spec.name
            );
        }
    }
}

#[test]
fn solver_estimates_equal_built_storage_for_every_family_and_budget() {
    for family in SWEEP_FAMILIES {
        for kbit in STANDARD_BUDGETS_KBIT {
            let config = solve_budget(family, kbit * 1024)
                .unwrap_or_else(|e| panic!("{family}@{kbit}: {e}"));
            let estimate = config.storage_bits_estimate();
            let built: u64 = config.build().storage_items().iter().map(|i| i.bits).sum();
            assert_eq!(estimate, built, "{family}@{kbit}");
            let target = (kbit * 1024) as f64;
            let error = (estimate as f64 - target).abs() / target;
            assert!(
                error <= BUDGET_TOLERANCE,
                "{family}@{kbit}: {:.2}% off budget",
                error * 100.0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY pair of budgets in the supported range (not just the
    /// standard ladder), a larger budget never yields less storage —
    /// the candidate lattices are target-independent, so the
    /// nearest-point selection is monotone.
    #[test]
    fn solver_is_monotone_for_arbitrary_budget_pairs(
        family_idx in 0usize..SWEEP_FAMILIES.len(),
        a in 8u64..=256,
        b in 8u64..=256,
    ) {
        let family = SWEEP_FAMILIES[family_idx];
        let (lo, hi) = (a.min(b), a.max(b));
        // Arbitrary Kbit targets may be unreachable for the
        // power-of-two-only baseline families; monotonicity is only
        // claimed where the solver succeeds.
        let (Ok(lo_cfg), Ok(hi_cfg)) = (
            solve_budget(family, lo * 1024),
            solve_budget(family, hi * 1024),
        ) else {
            return Ok(());
        };
        prop_assert!(
            lo_cfg.storage_bits_estimate() <= hi_cfg.storage_bits_estimate(),
            "{family}: {} Kbit -> {} bits but {} Kbit -> {} bits",
            lo,
            lo_cfg.storage_bits_estimate(),
            hi,
            hi_cfg.storage_bits_estimate()
        );
    }

    /// Solved configurations behave like predictors: they build, answer
    /// the CBP protocol, and validate cleanly.
    #[test]
    fn solved_configs_build_and_predict(
        family_idx in 0usize..SWEEP_FAMILIES.len(),
        kbit_idx in 0usize..STANDARD_BUDGETS_KBIT.len(),
    ) {
        let family = SWEEP_FAMILIES[family_idx];
        let kbit = STANDARD_BUDGETS_KBIT[kbit_idx];
        let config = solve_budget(family, kbit * 1024).expect("standard ladder is solvable");
        prop_assert!(PredictorConfig::validate(&config).is_ok());
        let mut p = config.build();
        let _ = p.predict(0x4000);
        p.update(&imli_repro::trace::BranchRecord::conditional(0x4000, 0x4100, true));
        let _ = p.predict(0x4004);
        p.update(&imli_repro::trace::BranchRecord::conditional(0x4004, 0x3f00, false));
    }
}
