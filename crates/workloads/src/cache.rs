//! Caching generated benchmarks to disk in the trace format.
//!
//! Generation is deterministic but not free; re-simulating the same
//! benchmark across many predictor configurations regenerates the same
//! records every time. [`cache_benchmark`] streams a whole benchmark
//! into a [`BlockWriter`] — so a trace of any length caches in O(one
//! kernel phase) memory, and later runs replay it through
//! `bp_trace::TraceReader` instead of the kernel scheduler.

use crate::spec::BenchmarkSpec;
use bp_trace::{BlockWriter, BranchStream, TraceIoError};
use std::io::Write;

/// Generates `spec` at `instructions` retired instructions straight to
/// `writer` as a trace file, in O(one kernel phase) memory, returning the
/// record count.
///
/// The cached file replays record-for-record identically to
/// [`generate`](crate::generate) / [`BenchmarkSpec::stream`] via
/// `bp_trace::TraceReader` (generation is deterministic), so it can
/// substitute for regeneration in any simulation path.
///
/// # Errors
///
/// Returns the first [`TraceIoError`] writing hits; no terminator is
/// written after it, so a partial file is never mistaken for a complete
/// one.
pub fn cache_benchmark<W: Write>(
    spec: &BenchmarkSpec,
    instructions: u64,
    writer: W,
) -> Result<u64, TraceIoError> {
    let mut writer = BlockWriter::new(writer, &spec.name)?;
    let mut stream = spec.stream(instructions);
    while let Some(record) = stream.next_record() {
        writer.push(&record)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::generate;
    use crate::suites::cbp4_suite;
    use bp_trace::read_trace;
    use std::io;

    #[test]
    fn cached_file_replays_generation_exactly() {
        let spec = &cbp4_suite()[0];
        let mut buf = Vec::new();
        let records = cache_benchmark(spec, 60_000, &mut buf).expect("cache");
        let materialized = generate(spec, 60_000);
        assert_eq!(records as usize, materialized.len());
        let back = read_trace(buf.as_slice()).expect("read cached");
        assert_eq!(back, materialized);
        assert_eq!(back.name(), spec.name);
    }

    /// A writer that fails after a fixed number of bytes.
    struct FailingWriter {
        left: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left < buf.len() {
                return Err(io::Error::other("disk full"));
            }
            self.left -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failure_is_reported_at_finish_not_swallowed() {
        let spec = &cbp4_suite()[0];
        // Enough for the header, not for the first block.
        let err = cache_benchmark(spec, 200_000, FailingWriter { left: 64 }).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }
}
