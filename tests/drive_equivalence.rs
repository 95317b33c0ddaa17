//! Equivalence proof for the simulator's block drive.
//!
//! Every plain simulation entry point hands records to a predictor in
//! blocks through [`drive_block`] (the predictor's monomorphized
//! `run_block`): [`simulate`] as one whole-trace block,
//! [`simulate_stream_multi`] in simulator-sized blocks shared by a
//! column of predictor hosts. Block boundaries must be invisible. For
//! **every** registry configuration, each of those drives must produce
//! the same prediction statistics as a bare hand-rolled predict/update
//! loop, at every block split — including a block per record and
//! splits straddling the simulator's 4096-record block size.
//!
//! [`drive_block`]: imli_repro::sim::drive_block
//! [`simulate`]: imli_repro::sim::simulate
//! [`simulate_stream_multi`]: imli_repro::sim::simulate_stream_multi

use imli_repro::components::{ConditionalPredictor, PredictorStats};
use imli_repro::sim::{drive_block, registry, simulate, simulate_stream_multi};
use imli_repro::workloads::{cbp4_suite, generate, stream_benchmark};

const INSTRUCTIONS: u64 = 60_000;

/// Block lengths the drive is split at: 1 is a block per record, 61
/// keeps every split misaligned with the simulator's block size, and
/// 4095/4096/4097 straddle it.
const BLOCK_LENGTHS: [usize; 5] = [1, 61, 4095, 4096, 4097];

/// The reference semantics: the CBP protocol one record at a time,
/// with no block drive at all.
fn drive_plain(
    predictor: &mut (dyn ConditionalPredictor + Send),
    trace: &imli_repro::trace::Trace,
) -> PredictorStats {
    let mut stats = PredictorStats::default();
    for record in trace.iter() {
        if record.is_conditional() {
            let pred = predictor.predict(record.pc);
            stats.record(pred == record.taken);
            predictor.update(record);
        } else {
            predictor.notify_nonconditional(record);
        }
    }
    stats
}

#[test]
fn simulate_matches_plain_loop_for_every_registry_config() {
    let spec = &cbp4_suite()[0];
    let trace = generate(spec, INSTRUCTIONS);
    let specs = registry();
    assert!(specs.len() >= 20, "registry unexpectedly small");

    for spec_entry in &specs {
        let mut bare = spec_entry.make();
        let plain = drive_plain(bare.as_mut(), &trace);

        let mut whole = spec_entry.make();
        assert_eq!(
            simulate(whole.as_mut(), &trace).stats,
            plain,
            "{}: simulate diverged from the plain loop",
            spec_entry.name
        );
    }
}

#[test]
fn block_boundaries_are_invisible() {
    let spec = &cbp4_suite()[0];
    let trace = generate(spec, INSTRUCTIONS);
    assert!(
        trace.len() > 4097,
        "trace must span several simulator-sized blocks"
    );

    for spec_entry in &registry() {
        let mut bare = spec_entry.make();
        let plain = drive_plain(bare.as_mut(), &trace);

        for block_len in BLOCK_LENGTHS {
            let mut split = spec_entry.make();
            let mut stats = PredictorStats::default();
            for block in trace.records().chunks(block_len) {
                drive_block(split.as_mut(), block, &mut stats);
            }
            assert_eq!(
                stats, plain,
                "{}: block drive diverged at block length {block_len}",
                spec_entry.name
            );
        }
    }
}

#[test]
fn fused_multi_drive_matches_plain_loop_for_every_registry_config() {
    let spec = &cbp4_suite()[0];
    let trace = generate(spec, INSTRUCTIONS);
    let specs = registry();

    // One fused pass over all registry predictors (block-sliced drive
    // over one shared stream, the plain TAGE-SC configs as lanes of
    // one shared TAGE front)...
    let fused = simulate_stream_multi(&specs, stream_benchmark(spec, INSTRUCTIONS));

    // ...must match the bare per-predictor loop, prediction for
    // prediction.
    for (spec_entry, fused_result) in specs.iter().zip(&fused) {
        let mut bare = spec_entry.make();
        let plain = drive_plain(bare.as_mut(), &trace);
        assert_eq!(
            fused_result.stats, plain,
            "{}: fused block drive diverged from the plain loop",
            spec_entry.name
        );
    }
}
