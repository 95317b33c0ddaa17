//! Branch trace model for the IMLI reproduction.
//!
//! This crate defines the input format consumed by every predictor in the
//! workspace: a stream of [`BranchRecord`]s, each describing one dynamic
//! branch instance together with the number of non-branch instructions that
//! retired since the previous branch. The format is deliberately close to
//! the record layout used by the Championship Branch Prediction (CBP)
//! frameworks, which the paper's evaluation is based on: the predictor
//! observes the program counter, the branch kind, the taken/not-taken
//! outcome, and the target.
//!
//! # Streaming versus materialized traces
//!
//! The simulator consumes the [`BranchStream`] trait — a named source of
//! records pulled one at a time — rather than `Vec<BranchRecord>`, so
//! benchmarks of any length simulate in O(1) memory. Three producers
//! implement it:
//!
//! * [`Trace::stream`] — a cursor over an in-memory [`Trace`] (the
//!   materialized representation, still the right tool for analyses
//!   that need random access or multiple passes);
//! * [`TraceReader`] — a streaming reader over serialized trace files
//!   (the [`write_trace`] / [`BlockWriter`] format), which never loads
//!   the whole file;
//! * `bp_workloads::stream_benchmark` — lazy synthetic-benchmark
//!   generation (in the workloads crate).
//!
//! # The trace file format
//!
//! There is one on-disk format (version 3, `io.rs`): a header with the
//! trace name and record count, then 4096-record blocks of
//! delta-encoded records (about 5 bytes per record on the synthetic
//! suites), then a terminator frame carrying the total count. Every
//! frame ends with a CRC-32C chained from the previous frame's, seeded
//! by the header, and [`TraceReader`] checks it before handing out any
//! of the frame's records: a corrupt file is a typed [`TraceIoError`]
//! (`ChecksumMismatch`, truncation, a bad frame), never different
//! records. Earlier format versions are rejected as
//! `UnsupportedVersion`.
//!
//! Streams are single-pass; every producer in the workspace is
//! deterministic, so constructing a fresh stream replays the identical
//! record sequence. [`BranchStream::collect_trace`] materializes any
//! stream back into a [`Trace`].
//!
//! # Example
//!
//! ```
//! use bp_trace::{BranchKind, BranchRecord, Trace};
//!
//! let mut trace = Trace::new("tiny");
//! // A two-iteration loop: backward conditional taken once, then fall out.
//! trace.push(BranchRecord::conditional(0x400, 0x3f0, true).with_leading_instructions(4));
//! trace.push(BranchRecord::conditional(0x400, 0x3f0, false).with_leading_instructions(4));
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.instruction_count(), 2 + 8);
//! assert!(trace.iter().all(|r| r.is_backward()));
//! ```

#![warn(missing_docs)]

mod io;
mod record;
mod stats;
mod stream;
mod trace;

pub use io::{read_trace, write_trace, BlockWriter, TraceIoError, TraceReader};
pub use record::{BranchKind, BranchRecord};
pub use stats::{KindCounts, TraceStats};
pub use stream::{BranchStream, Records, TraceStream};
pub use trace::{Trace, TraceIter};
