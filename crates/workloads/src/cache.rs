//! Caching generated benchmarks to disk in the trace format.
//!
//! Generation is deterministic but not free; re-simulating the same
//! benchmark across many predictor configurations regenerates the same
//! records every time. [`TraceFileSink`] is a [`RecordSink`] whose
//! destination is a [`BlockWriter`] instead of memory, and
//! [`cache_benchmark`] streams a whole benchmark through it — so a
//! trace of any length caches in O(one kernel phase) memory, and later
//! runs replay it through `bp_trace::TraceReader` instead of the kernel
//! scheduler.

use crate::sink::RecordSink;
use crate::spec::BenchmarkSpec;
use bp_trace::{BlockWriter, BranchRecord, BranchStream, TraceIoError};
use std::io::Write;

/// A [`RecordSink`] that serializes every record to a trace stream
/// as it arrives.
///
/// Because [`RecordSink::push_record`] cannot surface I/O failures, a
/// mid-stream write error is stashed and later records are dropped;
/// [`TraceFileSink::finish`] reports the stashed error instead of
/// writing a terminator, so a partial file is never mistaken for a
/// complete one.
#[derive(Debug)]
pub struct TraceFileSink<W: Write> {
    writer: BlockWriter<W>,
    instructions: u64,
    records: u64,
    error: Option<TraceIoError>,
}

impl<W: Write> TraceFileSink<W> {
    /// Opens a sink writing a trace named `name` to `writer`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if writing the header fails.
    pub fn new(writer: W, name: &str) -> Result<Self, TraceIoError> {
        Ok(TraceFileSink {
            writer: BlockWriter::new(writer, name)?,
            instructions: 0,
            records: 0,
            error: None,
        })
    }

    /// Records accepted so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Finalizes the trace (final block + terminator frame) and returns
    /// the record count.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered, whether stashed during
    /// [`RecordSink::push_record`] or hit while finalizing.
    pub fn finish(self) -> Result<u64, TraceIoError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.finish()
    }
}

impl<W: Write> RecordSink for TraceFileSink<W> {
    fn push_record(&mut self, record: BranchRecord) {
        if self.error.is_some() {
            return;
        }
        match self.writer.push(&record) {
            Ok(()) => {
                self.instructions += record.instructions();
                self.records += 1;
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn instructions_emitted(&self) -> u64 {
        self.instructions
    }
}

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
/// Returns a [`TraceIoError`] if writing fails.
pub fn cache_benchmark<W: Write>(
    spec: &BenchmarkSpec,
    instructions: u64,
    writer: W,
) -> Result<u64, TraceIoError> {
    let mut sink = TraceFileSink::new(writer, &spec.name)?;
    let mut stream = spec.stream(instructions);
    while let Some(record) = stream.next_record() {
        sink.push_record(record);
        if sink.error.is_some() {
            break;
        }
    }
    sink.finish()
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

    #[test]
    fn sink_tracks_instructions_for_the_scheduler() {
        let spec = &cbp4_suite()[1];
        let mut buf = Vec::new();
        let mut sink = TraceFileSink::new(&mut buf, "tracked").expect("open");
        let mut stream = spec.stream(20_000);
        let mut pushed = 0u64;
        while let Some(r) = stream.next_record() {
            pushed += r.instructions();
            sink.push_record(r);
        }
        assert_eq!(sink.instructions_emitted(), pushed);
        assert!(sink.records() > 0);
        sink.finish().expect("finish");
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
