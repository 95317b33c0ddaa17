//! Integration tests for the instrumentation + reporting subsystem:
//! exact storage accounting against hand-computed values for the
//! paper's canonical configurations, and the guarantee that the
//! attribution channel never changes predictions.

use imli_repro::components::{
    Bimodal, ConditionalPredictor, GShare, ProviderComponent, StorageBudget,
};
use imli_repro::gehl::Gehl;
use imli_repro::perceptron::HashedPerceptron;
use imli_repro::sim::{
    registry, run_report_with_cache, simulate_stream, simulate_stream_attributed,
};
use imli_repro::tage::TageSc;
use imli_repro::trace::{BranchRecord, Trace};
use imli_repro::workloads::{find_benchmark, paper_suite, quick_benchmark};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Storage accounting: hand-computed bit costs for canonical configs.
// ---------------------------------------------------------------------

#[test]
fn bimodal_storage_is_two_bits_per_entry() {
    let p = Bimodal::new(16384);
    assert_eq!(p.storage_bits(), 16384 * 2);
    let items = p.storage_items();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].bits, 32768);
}

#[test]
fn gshare_storage_is_table_plus_history() {
    // The registry baseline: 2^14 2-bit counters + 12 history bits.
    let p = GShare::new(14, 12);
    assert_eq!(p.storage_bits(), (1 << 14) * 2 + 12);
    let items = p.storage_items();
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].bits, 32768);
    assert_eq!(items[1].bits, 12);
}

#[test]
fn gehl_204_kbit_is_seventeen_identical_tables() {
    // Paper §3.2.2: 17 tables × 2K entries × 6-bit counters = 204 Kbit
    // exactly, nothing else.
    let p = Gehl::gehl();
    let items = p.storage_items();
    assert_eq!(items.len(), 17);
    for item in &items {
        assert_eq!(item.bits, 2048 * 6, "{}", item.label);
    }
    assert_eq!(p.storage_bits(), 204 * 1024);
}

#[test]
fn perceptron_base_is_eight_weight_tables() {
    let p = HashedPerceptron::base();
    let items = p.storage_items();
    assert_eq!(items.len(), 8);
    for item in &items {
        assert_eq!(item.bits, 2048 * 6, "{}", item.label);
    }
    assert_eq!(p.storage_bits(), 8 * 2048 * 6);
}

#[test]
fn tage_gsc_storage_matches_hand_computation() {
    // TAGE part: 8K-entry shared-hysteresis base (8192 direction +
    // 2048 hysteresis bits), 12 tagged banks of 1K entries at
    // (3 ctr + 2 useful + tag) bits with tags 8,8,9,10,10,11,11,12,12,
    // 13,14,15, plus the 4-bit use_alt_on_na register.
    let tags: [u64; 12] = [8, 8, 9, 10, 10, 11, 11, 12, 12, 13, 14, 15];
    let tagged: u64 = tags.iter().map(|t| 1024 * (3 + 2 + t)).sum();
    let tage = 8192 + 2048 + tagged + 4;
    // SC part (GSC): two 512-entry 6-bit bias tables, four 512-entry
    // 6-bit global tables, and the adaptive threshold (8-bit θ for
    // θ_max = 255, plus the 8-bit adaptation counter).
    let sc = 2 * 512 * 6 + 4 * 512 * 6 + (8 + 8);
    let p = TageSc::tage_gsc();
    assert_eq!(p.storage_bits(), tage + sc);
    // The itemization carries exactly the same total and the per-bank
    // arithmetic.
    let items = p.storage_items();
    assert_eq!(items.iter().map(|i| i.bits).sum::<u64>(), p.storage_bits());
    for (i, tag) in tags.iter().enumerate() {
        let item = items
            .iter()
            .find(|it| it.label == format!("tage/tagged[{i}]"))
            .expect("tagged bank itemized");
        assert_eq!(item.bits, 1024 * (5 + tag));
    }
}

#[test]
fn imli_addition_costs_what_the_paper_says() {
    // Paper §4.4: SIC table 384 B, OH prediction table 192 B, outer
    // history 128 B, PIPE + counter ≈ 4 B. Our packaging: 3072 + 1536
    // + (1024 + 16) + 10 bits.
    let base = TageSc::tage_gsc().storage_bits();
    let with_imli = TageSc::tage_gsc_imli().storage_bits();
    assert_eq!(with_imli - base, 10 + 3072 + 1536 + 1024 + 16);
}

#[test]
fn every_registry_predictor_itemizes_consistently() {
    for spec in registry() {
        let p = spec.make();
        let items = p.storage_items();
        assert!(!items.is_empty(), "{} itemizes nothing", spec.name);
        assert_eq!(
            items.iter().map(|i| i.bits).sum::<u64>(),
            p.storage_bits(),
            "{}: itemization does not sum to the total",
            spec.name
        );
        assert_eq!(spec.storage_bits(), p.storage_bits());
    }
}

// ---------------------------------------------------------------------
// Attribution: the instrumented path never changes predictions.
// ---------------------------------------------------------------------

#[test]
fn attributed_simulation_is_bit_identical_for_every_registry_predictor() {
    let bench = find_benchmark("SPEC2K6-04").expect("registered");
    for spec in registry() {
        let plain = simulate_stream(spec.make().as_mut(), bench.stream(40_000));
        let attributed =
            simulate_stream_attributed(spec.make().as_mut(), bench.stream(40_000), 10_000);
        assert_eq!(plain, attributed.result, "{} diverged", spec.name);
    }
}

#[test]
fn attribution_components_match_the_predictor_architecture() {
    let trace = quick_benchmark("attr", 0xA11, 60_000);
    // TAGE host: tagged banks + base (+ corrector); never neural.
    let mut tage = TageSc::tage_gsc_imli();
    let run = simulate_stream_attributed(&mut tage, trace.stream(), 10_000);
    assert!(run.steady.attribution.get("tagged").is_some());
    assert!(run.steady.attribution.get("neural").is_none());
    // GEHL host: neural (+ loop for FTL); never tagged.
    let mut gehl = Gehl::gehl_imli();
    let run = simulate_stream_attributed(&mut gehl, trace.stream(), 10_000);
    assert!(run.steady.attribution.get("neural").is_some());
    assert!(run.steady.attribution.get("tagged").is_none());
}

/// Drives two fresh instances of the same predictor over the same
/// records, one through `predict`, one through `predict_attributed`,
/// asserting identical predictions at every step.
fn assert_paths_identical(
    make: &dyn Fn() -> Box<dyn ConditionalPredictor + Send>,
    records: &[BranchRecord],
) {
    let mut plain = make();
    let mut attributed = make();
    for (i, record) in records.iter().enumerate() {
        if record.is_conditional() {
            let p = plain.predict(record.pc);
            let (a, attr) = attributed.predict_attributed(record.pc);
            assert_eq!(p, a, "prediction diverged at record {i}");
            // A reported alternate must describe the losing path: when
            // it agrees with the prediction there was no disagreement
            // to arbitrate, which is legal, but the component must not
            // be Unattributed while claiming an alternate.
            if attr.alternate.is_some() {
                assert_ne!(attr.component, ProviderComponent::Unattributed);
            }
            plain.update(record);
            attributed.update(record);
        } else {
            plain.notify_nonconditional(record);
            attributed.notify_nonconditional(record);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Attribution-on and attribution-off runs produce identical
    /// predictions over arbitrary branch streams, for one host of each
    /// architecture family (TAGE+SC+loop, GEHL adder-tree, perceptron,
    /// wormhole wrapper, baseline).
    #[test]
    fn attribution_never_changes_predictions(
        steps in proptest::collection::vec((0u64..24, any::<bool>(), any::<bool>()), 1..300)
    ) {
        let records: Vec<BranchRecord> = steps
            .iter()
            .map(|&(slot, taken, backward)| {
                let pc = 0x4000 + slot * 4;
                let target = if backward { pc - 0x200 } else { pc + 0x200 };
                BranchRecord::conditional(pc, target, taken).with_leading_instructions(3)
            })
            .collect();
        for name in ["tage-sc-l+imli", "gehl+imli", "perceptron+imli", "gehl+wh", "bimodal"] {
            let factory = move || {
                imli_repro::sim::make_predictor(name).expect("registered")
            };
            assert_paths_identical(&factory, &records);
        }
    }
}

// ---------------------------------------------------------------------
// Report layer.
// ---------------------------------------------------------------------

#[test]
fn paper_report_is_deterministic_across_runs_and_worker_counts() {
    let predictors: Vec<_> = ["tage-gsc+imli", "gehl+wh"]
        .iter()
        .map(|n| imli_repro::sim::lookup(n).expect("registered"))
        .collect();
    let benchmarks: Vec<_> = paper_suite().into_iter().take(3).collect();
    let run = |jobs| {
        run_report_with_cache(
            "paper",
            &predictors,
            &benchmarks,
            30_000,
            6_000,
            jobs,
            None,
            &|_| {},
        )
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a, b);
    assert_eq!(a.to_markdown(), b.to_markdown());
    assert_eq!(a.to_json(), b.to_json());
    // The report carries the acceptance-relevant content: per-predictor
    // MPKI per benchmark, storage bits, and attribution.
    for row in &a.rows {
        assert_eq!(row.mpki.len(), benchmarks.len());
        assert!(row.storage_bits > 0);
        assert!(row.steady.attribution.total_provided() > 0);
    }
}

#[test]
fn warmup_split_respects_the_boundary() {
    let mut t = Trace::new("split");
    for i in 0..1000u64 {
        t.push(BranchRecord::conditional(0x40, 0x20, i % 3 == 0).with_leading_instructions(9));
    }
    let mut p = Bimodal::new(64);
    let run = simulate_stream_attributed(&mut p, t.stream(), 4_000);
    assert_eq!(run.warmup.instructions, 4_000);
    assert_eq!(run.steady.instructions, 6_000);
    assert_eq!(run.warmup.stats.predicted, 400);
    assert_eq!(run.steady.stats.predicted, 600);
    assert!(run.steady.mpki() > 0.0);
}
