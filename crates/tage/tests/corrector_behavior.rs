//! Behavioural tests of the statistical corrector and the composed
//! TAGE-SC predictors through the public API.

use bp_components::ConditionalPredictor;
use bp_tage::{ScConfig, StatisticalCorrector, TageSc, TageScConfig};
use bp_trace::BranchRecord;
use imli::ImliConfig;

/// Drives one conditional branch through a composed predictor.
fn drive(p: &mut TageSc, pc: u64, taken: bool) -> bool {
    let pred = p.predict(pc);
    p.update(&BranchRecord::conditional(pc, pc + 0x40, taken));
    pred
}

/// The corrector must not *hurt* an accurate TAGE: on an easy biased
/// branch, the composed predictor converges to near-zero mispredictions.
#[test]
fn corrector_does_not_destroy_easy_branches() {
    let mut p = TageSc::tage_gsc();
    let mut wrong = 0;
    for i in 0..3000 {
        let pred = drive(&mut p, 0x40, true);
        if i > 500 && !pred {
            wrong += 1;
        }
    }
    assert_eq!(wrong, 0, "easy always-taken branch must be perfect");
}

/// The corrector reverts a statistically biased TAGE: an 85 %-taken
/// branch whose not-taken instances follow a global-history pattern is
/// better than bimodal for the corrector's GEHL tables.
#[test]
fn composed_predictor_beats_main_on_statistical_bias() {
    let mut p = TageSc::tage_gsc();
    let mut correct = 0u32;
    let total = 8000u32;
    for i in 0..total {
        let taken = (i % 16) != 3 && (i % 16) != 9;
        let pred = drive(&mut p, 0x3030, taken);
        if i >= total / 2 {
            correct += u32::from(pred == taken);
        }
    }
    let acc = f64::from(correct) / f64::from(total / 2);
    assert!(acc > 0.97, "period-16 pattern accuracy {acc:.3}");
}

/// IMLI tables inside the SC leave non-loop code untouched: a workload
/// with no backward branches keeps `imli_count` at 0, so the IMLI-SIC
/// table degenerates to one more bias table and accuracy is unchanged
/// within noise.
#[test]
fn imli_is_neutral_without_loops() {
    let run = |mut p: TageSc| -> u32 {
        let mut wrong = 0;
        for i in 0..6000u32 {
            // Forward branches only.
            let pc = 0x100 + u64::from(i % 7) * 8;
            let taken = (i / 7) % 3 == 0;
            let pred = p.predict(pc);
            if i > 1000 && pred != taken {
                wrong += 1;
            }
            p.update(&BranchRecord::conditional(pc, pc + 0x40, taken));
        }
        wrong
    };
    let base_wrong = run(TageSc::tage_gsc());
    let imli_wrong = run(TageSc::tage_gsc_imli());
    let delta = (i64::from(imli_wrong) - i64::from(base_wrong)).abs();
    assert!(
        delta < 60,
        "IMLI must be ~neutral without loops: {base_wrong} vs {imli_wrong}"
    );
}

/// The raw corrector follows its threshold discipline: after heavy
/// training on consistent data, a fresh in-between branch does not
/// perturb trained state (regression guard for the predict/update
/// pairing).
#[test]
fn corrector_lookup_update_pairing_is_strict() {
    let mut sc = StatisticalCorrector::new(ScConfig::default());
    for _ in 0..100 {
        let l = sc.predict(0x40, true, false, 0, 0);
        let _ = l.pred; // use the lookup
        sc.update(true);
        sc.observe(&BranchRecord::conditional(0x40, 0x80, true));
    }
    let trained = sc.predict(0x40, true, false, 0, 0);
    assert!(trained.pred, "heavily trained taken branch");
    sc.update(true);
}

/// Configuration plumbing: `with_imli` swaps the IMLI geometry and the
/// display name.
#[test]
fn with_imli_overrides_config() {
    let config = TageScConfig::gsc_imli().with_imli(ImliConfig::delayed_update(63), "renamed");
    assert_eq!(config.name, "renamed");
    assert_eq!(
        config
            .sc
            .imli
            .expect("imli configured")
            .outer_history_update_delay,
        63
    );
    let p = TageSc::new(config);
    assert_eq!(p.name(), "renamed");
}
