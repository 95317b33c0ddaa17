//! Property tests for the trace serialization format.

use bp_trace::{
    read_trace, write_trace, BlockWriter, BranchKind, BranchRecord, BranchStream, Trace,
    TraceReader,
};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        0u8..5,
        any::<bool>(),
        any::<u32>(),
    )
        .prop_map(|(pc, target, kind, taken, lead)| BranchRecord {
            pc,
            target,
            kind: BranchKind::from_code(kind).expect("in range"),
            taken,
            leading_instructions: lead,
        })
}

fn written(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, trace).expect("serialize");
    buf
}

/// A loop-shaped trace of `n` records: small PC deltas, as real traces
/// have.
fn regular(n: usize) -> Trace {
    let mut t = Trace::new("flips");
    for i in 0..n {
        let pc = 0x40_0000 + (i as u64 % 97) * 4;
        t.push(
            BranchRecord::conditional(pc, pc.wrapping_sub(0x40), i % 3 == 0)
                .with_leading_instructions((i % 11) as u32),
        );
    }
    t
}

proptest! {
    /// Any trace — arbitrary PCs, targets, kinds, flags, and name —
    /// survives a serialize/deserialize round trip bit-exactly.
    #[test]
    fn round_trip_is_identity(
        name in "[a-zA-Z0-9 _-]{0,40}",
        records in proptest::collection::vec(arb_record(), 0..300),
    ) {
        let mut trace = Trace::new(name);
        trace.extend(records);
        let back = read_trace(written(&trace).as_slice()).expect("deserialize");
        prop_assert_eq!(back, trace);
    }

    /// The streaming writer (record count unknown until finish)
    /// produces a file the reader replays identically.
    #[test]
    fn streamed_write_round_trips(
        records in proptest::collection::vec(arb_record(), 0..200),
    ) {
        let mut trace = Trace::new("streamed");
        trace.extend(records);
        let mut buf = Vec::new();
        let mut writer = BlockWriter::new(&mut buf, trace.name()).expect("header");
        for r in trace.iter() {
            writer.push(r).expect("push");
        }
        prop_assert_eq!(writer.finish().expect("finish"), trace.len() as u64);
        let back = read_trace(buf.as_slice()).expect("deserialize");
        prop_assert_eq!(back, trace);
    }

    /// Truncating a file at any point is a typed error — never a panic,
    /// never a shorter trace read as whole.
    #[test]
    fn truncation_never_panics(
        records in proptest::collection::vec(arb_record(), 0..100),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut trace = Trace::new("t");
        trace.extend(records);
        let buf = written(&trace);
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        prop_assert!(read_trace(&buf[..cut]).is_err(), "cut at {} of {}", cut, buf.len());
    }

    /// The block-framed, delta-encoded layout (first shipped as format
    /// v2) replays bit-exactly through the streaming reader too: the
    /// header count is exact and no error is stashed.
    #[test]
    fn v2_round_trip_is_identity(
        name in "[a-zA-Z0-9 _-]{0,40}",
        records in proptest::collection::vec(arb_record(), 0..300),
    ) {
        let mut trace = Trace::new(name);
        trace.extend(records);
        let buf = written(&trace);
        let mut reader = TraceReader::new(buf.as_slice()).expect("open");
        prop_assert_eq!(reader.name(), trace.name());
        prop_assert_eq!(reader.remaining(), trace.len());
        let mut back = Trace::new(reader.name());
        while let Some(record) = reader.try_next().expect("read") {
            back.push(record);
        }
        prop_assert!(reader.error().is_none());
        prop_assert_eq!(back, trace);
    }

    /// Truncating a file at any point never panics the streaming
    /// reader: it yields a prefix of the written records, then a typed
    /// error — never the end of a whole trace.
    #[test]
    fn v2_truncation_never_panics(
        records in proptest::collection::vec(arb_record(), 0..100),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut trace = Trace::new("t");
        trace.extend(records);
        let buf = written(&trace);
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        if let Ok(mut reader) = TraceReader::new(&buf[..cut]) {
            let mut yielded = 0;
            let end = loop {
                match reader.try_next() {
                    Ok(Some(record)) => {
                        prop_assert_eq!(&record, &trace.records()[yielded]);
                        yielded += 1;
                    }
                    other => break other,
                }
            };
            prop_assert!(end.is_err(), "cut at {} of {} read as whole", cut, buf.len());
        }
    }

    /// Statistics are invariant under serialization.
    #[test]
    fn stats_survive_round_trip(
        records in proptest::collection::vec(arb_record(), 1..100),
    ) {
        let mut trace = Trace::new("s");
        trace.extend(records);
        let back = read_trace(written(&trace).as_slice()).expect("deserialize");
        prop_assert_eq!(back.stats(), trace.stats());
        prop_assert_eq!(back.instruction_count(), trace.instruction_count());
        prop_assert_eq!(back.conditional_count(), trace.conditional_count());
    }

    /// The size is tightly bounded even on adversarial traces: a record
    /// is at worst 26 bytes (flags + two 10-byte zigzag varints + a
    /// 5-byte leading varint, when every delta is a full-width random
    /// u64), plus 12 bytes per block frame, a 20-byte terminator and the
    /// header. Realistic traces are a fraction of this (covered by unit
    /// tests and `bp bench`); this property pins the worst case.
    #[test]
    fn size_is_bounded_even_on_random_traces(
        records in proptest::collection::vec(arb_record(), 64..256),
    ) {
        let mut trace = Trace::new("sz");
        trace.extend(records);
        let header = 4 + 4 + 4 + trace.name().len() + 8;
        let worst = header + 26 * trace.len() + 12 + 20;
        let bytes = written(&trace).len();
        prop_assert!(bytes <= worst, "{} bytes > bound {}", bytes, worst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flipping 1–4 random bits anywhere in a multi-frame file is a
    /// typed error or reads back the original records — never different
    /// records.
    #[test]
    fn bit_flips_never_yield_different_records(
        flips in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let trace = regular(5_000);
        let mut buf = written(&trace);
        let bits = buf.len() as u64 * 8;
        for flip in flips {
            let bit = flip % bits;
            buf[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        if let Ok(back) = read_trace(buf.as_slice()) {
            prop_assert_eq!(back, trace);
        }
    }
}
