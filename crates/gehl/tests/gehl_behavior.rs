//! Behavioural tests of the GEHL family through the public API.

use bp_components::ConditionalPredictor;
use bp_gehl::{Gehl, GehlConfig};
use bp_trace::BranchRecord;

fn drive(p: &mut Gehl, pc: u64, taken: bool) -> bool {
    let pred = p.predict(pc);
    p.update(&BranchRecord::conditional(pc, pc + 0x40, taken));
    pred
}

/// GEHL's long geometric histories capture a long-distance correlation
/// that short-history predictors miss: branch B repeats branch A's
/// outcome from ~100 branches earlier.
#[test]
fn long_history_captures_distant_correlator() {
    let mut p = Gehl::gehl();
    let mut queue = std::collections::VecDeque::new();
    let mut correct = 0u32;
    let total = 6000u32;
    for i in 0..total {
        let a = (i % 13) < 6;
        drive(&mut p, 0x100, a);
        queue.push_back(a);
        // ~48 filler branches (alternating, predictable).
        for f in 0..48u64 {
            drive(&mut p, 0x200 + f * 8, f % 2 == 0);
        }
        let b = if queue.len() > 2 {
            queue.pop_front().expect("non-empty")
        } else {
            a
        };
        let pred = drive(&mut p, 0x1000, b);
        if i > total / 2 {
            correct += u32::from(pred == b);
        }
    }
    let acc = f64::from(correct) / f64::from(total / 2 - 1);
    assert!(acc > 0.9, "distant correlator accuracy {acc:.3}");
}

/// FTL's local component captures interleaved per-branch periodic
/// patterns that pollute each other's global history.
#[test]
fn ftl_local_component_beats_global_only_on_interleaved_periodics() {
    let run = |mut p: Gehl| -> f64 {
        let mut positions = [0u32; 3];
        let periods = [7u32, 11, 13];
        let mut state = 0x9E37u64;
        let mut correct = 0u32;
        let mut counted = 0u32;
        for i in 0..40_000u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % 3) as usize;
            let taken = positions[j] < 3;
            positions[j] = (positions[j] + 1) % periods[j];
            let pc = 0x4000 + j as u64 * 8;
            let pred = p.predict(pc);
            if i > 20_000 {
                counted += 1;
                correct += u32::from(pred == taken);
            }
            p.update(&BranchRecord::conditional(pc, pc + 0x40, taken));
        }
        f64::from(correct) / f64::from(counted)
    };
    let gehl_acc = run(Gehl::gehl());
    let ftl_acc = run(Gehl::ftl());
    assert!(
        ftl_acc > gehl_acc + 0.01,
        "FTL must beat GEHL on interleaved periodics: {ftl_acc:.3} vs {gehl_acc:.3}"
    );
    assert!(ftl_acc > 0.9, "FTL accuracy {ftl_acc:.3}");
}

/// The loop predictor in FTL nails very long constant-trip loops.
#[test]
fn ftl_loop_predictor_handles_long_loops() {
    let mut p = Gehl::ftl();
    let mut wrong_exits = 0u32;
    let trip = 200u32;
    for outer in 0..120u32 {
        for m in 0..trip {
            let taken = m + 1 < trip;
            let pred = drive(&mut p, 0x808, taken);
            if outer > 60 && !taken && pred {
                wrong_exits += 1;
            }
        }
    }
    assert!(
        wrong_exits <= 2,
        "loop exits must be predicted once trained: {wrong_exits} missed"
    );
}

/// Config introspection stays consistent.
#[test]
fn config_accessors() {
    let p = Gehl::gehl_imli();
    assert!(p.imli().is_some());
    assert_eq!(p.config().num_tables, 17);
    assert!(Gehl::gehl().imli().is_none());
    let ftl = GehlConfig::ftl();
    assert!(ftl.local.is_some() && ftl.loop_predictor.is_some());
}
