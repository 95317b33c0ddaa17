//! Equivalence proof for the simulator's block drive.
//!
//! Every simulation runs one block drive ([`Column::drive`]): a solo
//! run ([`simulate`]) as a column of one host, whose plain drive calls
//! the predictor's monomorphized `ConditionalPredictor::run_block` once
//! per block, and a fused run as a column of many hosts over one
//! stream. Block boundaries must be invisible. For **every** registry
//! configuration, each of those drives must produce the same prediction
//! statistics as a bare hand-rolled predict/update loop, at every block
//! split — including a block per record and splits straddling the
//! simulator's 4096-record block size. The attributed drive must match a
//! record-by-record predict_attributed/update loop at the same edges,
//! warmup/steady split included.
//!
//! [`Column::drive`]: imli_repro::sim::Column::drive
//! [`simulate`]: imli_repro::sim::simulate

use imli_repro::components::{ConditionalPredictor, PredictorStats};
use imli_repro::sim::{
    registry, simulate, simulate_stream_attributed, stream_blocks, AttributedRun, Column, Counts,
    PhaseSummary, Phases, SimResult, BLOCK_RECORDS,
};
use imli_repro::trace::Trace;
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
                split.run_block(block, &mut stats);
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
    let fused = Column::build(&specs).run(
        &spec.name,
        &mut stream_blocks(stream_benchmark(spec, INSTRUCTIONS)),
        Counts::new(specs.len()),
    );

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

/// The attributed reference semantics: the CBP protocol through the
/// attribution channel one record at a time, each record in warmup
/// while the instructions retired through it stay within the boundary.
fn drive_attributed(
    predictor: &mut (dyn ConditionalPredictor + Send),
    trace: &Trace,
    warmup_instructions: u64,
) -> AttributedRun {
    let mut stats = PredictorStats::default();
    let (mut warmup, mut steady) = (PhaseSummary::default(), PhaseSummary::default());
    let mut instructions = 0;
    for record in trace.iter() {
        instructions += record.instructions();
        let phase = if instructions <= warmup_instructions {
            &mut warmup
        } else {
            &mut steady
        };
        phase.instructions += record.instructions();
        if record.is_conditional() {
            let (pred, attribution) = predictor.predict_attributed(record.pc);
            stats.record(pred == record.taken);
            phase.stats.record(pred == record.taken);
            phase.attribution.record(&attribution, pred, record.taken);
            predictor.update(record);
        } else {
            predictor.notify_nonconditional(record);
        }
    }
    AttributedRun {
        result: SimResult {
            benchmark: trace.name().to_owned(),
            predictor: predictor.name().to_owned(),
            instructions,
            records: trace.len() as u64,
            stats,
        },
        warmup_instructions,
        warmup,
        steady,
    }
}

#[test]
fn attributed_block_boundaries_are_invisible() {
    let spec = &cbp4_suite()[0];
    let full = generate(spec, INSTRUCTIONS);
    let specs = registry();
    // The instructions retired by the first block: a warmup boundary
    // one short of it splits the first block, one at it splits exactly
    // on the block edge, one past it splits the second block.
    let edge: u64 = full.records()[..BLOCK_RECORDS]
        .iter()
        .map(|r| r.instructions())
        .sum();
    for len in [BLOCK_RECORDS - 1, BLOCK_RECORDS, BLOCK_RECORDS + 1] {
        let trace: Trace = full.records()[..len].iter().copied().collect();
        for warmup in [edge - 1, edge, edge + 1] {
            let fused = Column::build(&specs).run(
                trace.name(),
                &mut stream_blocks(trace.stream()),
                Phases::new(specs.len(), warmup),
            );
            for (spec_entry, fused_run) in specs.iter().zip(&fused) {
                let reference = drive_attributed(spec_entry.make().as_mut(), &trace, warmup);
                let solo =
                    simulate_stream_attributed(spec_entry.make().as_mut(), trace.stream(), warmup);
                assert_eq!(
                    solo, reference,
                    "{}: attributed drive diverged at {len} records, warmup {warmup}",
                    spec_entry.name
                );
                assert_eq!(
                    fused_run, &reference,
                    "{}: fused attributed drive diverged at {len} records, warmup {warmup}",
                    spec_entry.name
                );
            }
        }
    }
}
