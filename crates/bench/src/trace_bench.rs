//! The trace-I/O throughput benchmark behind `bp bench`.
//!
//! Measures, for each benchmark of the quick suite, the on-disk data
//! path of the trace format:
//!
//! * **size** — bytes on disk and bytes per record;
//! * **write** — serialize the trace to a buffered file;
//! * **read** — stream every record back through
//!   `bp_trace::TraceReader`, CRC checks included;
//! * **read + simulate** — the same stream fed to a bimodal predictor
//!   via `simulate_stream`, the `bp simulate <file>` path.
//!
//! The report serializes to `BENCH_trace_io.json`, regenerated by CI so
//! a regression in the trace hot path is visible in review.
//!
//! Timings take the best of several repetitions (the usual
//! cache-warmup smoothing); sizes are exact.

use bp_components::Bimodal;
use bp_sim::simulate_stream;
use bp_trace::{write_trace, Trace, TraceIoError, TraceReader};
use bp_workloads::{cbp4_suite, generate, BenchmarkSpec};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
// bp-lint: allow(determinism, "wall-clock timing is the measurand of a throughput bench; timing fields are excluded from CI's byte-comparison")
use std::time::Instant;

/// Read-path repetitions; the minimum is reported.
const REPS: usize = 3;

/// Benchmarks from the CBP4-like suite used as the quick suite.
const QUICK_SUITE_LEN: usize = 3;

/// One benchmark's measurements.
#[derive(Debug, Clone)]
pub struct BenchmarkMeasurement {
    /// Benchmark name.
    pub benchmark: String,
    /// Dynamic branch records in the trace.
    pub records: u64,
    /// Retired instructions in the trace.
    pub instructions: u64,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// Seconds to write the file (buffered, including flush).
    pub write_seconds: f64,
    /// Seconds to stream every record back from the file.
    pub read_seconds: f64,
    /// Seconds to stream the file through a bimodal predictor.
    pub read_simulate_seconds: f64,
}

/// The full `bp bench` report.
#[derive(Debug, Clone)]
pub struct TraceIoReport {
    /// Per-benchmark instruction budget the traces were generated at.
    pub instructions: u64,
    /// Per-benchmark measurements.
    pub benchmarks: Vec<BenchmarkMeasurement>,
}

fn per(amount: f64, over: f64) -> f64 {
    if over <= 0.0 {
        0.0
    } else {
        amount / over
    }
}

impl BenchmarkMeasurement {
    /// Bytes on disk per record.
    pub fn bytes_per_record(&self) -> f64 {
        per(self.bytes as f64, self.records as f64)
    }

    /// Records per second for the pure read path.
    pub fn read_records_per_sec(&self) -> f64 {
        per(self.records as f64, self.read_seconds)
    }

    /// Records per second for the read + simulate path.
    pub fn read_simulate_records_per_sec(&self) -> f64 {
        per(self.records as f64, self.read_simulate_seconds)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\": {}, \"records\": {}, \"instructions\": {}, \"bytes\": {}, \
             \"bytes_per_record\": {}, \"write_seconds\": {}, \"read_seconds\": {}, \
             \"read_records_per_sec\": {}, \"read_simulate_seconds\": {}, \
             \"read_simulate_records_per_sec\": {}}}",
            json_string(&self.benchmark),
            self.records,
            self.instructions,
            self.bytes,
            json_f64(self.bytes_per_record()),
            json_f64(self.write_seconds),
            json_f64(self.read_seconds),
            json_f64(self.read_records_per_sec()),
            json_f64(self.read_simulate_seconds),
            json_f64(self.read_simulate_records_per_sec()),
        )
    }
}

impl TraceIoReport {
    /// The whole suite summed as one measurement named `totals`.
    pub fn totals(&self) -> BenchmarkMeasurement {
        let mut t = BenchmarkMeasurement {
            benchmark: "totals".to_owned(),
            records: 0,
            instructions: 0,
            bytes: 0,
            write_seconds: 0.0,
            read_seconds: 0.0,
            read_simulate_seconds: 0.0,
        };
        for b in &self.benchmarks {
            t.records += b.records;
            t.instructions += b.instructions;
            t.bytes += b.bytes;
            t.write_seconds += b.write_seconds;
            t.read_seconds += b.read_seconds;
            t.read_simulate_seconds += b.read_simulate_seconds;
        }
        t
    }

    /// Serializes the report as pretty-printed JSON (hand-rolled; the
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .benchmarks
            .iter()
            .map(|b| format!("    {}", b.to_json()))
            .collect();
        format!(
            "{{\n  \"bench\": \"trace_io\",\n  \"instructions\": {},\n  \"benchmarks\": [\n{}\n  ],\n  \
             \"totals\": {}\n}}\n",
            self.instructions,
            rows.join(",\n"),
            self.totals().to_json(),
        )
    }
}

/// Quotes and escapes `s` as a JSON string literal (quote, backslash,
/// and control characters). Delegates to [`bp_components::json_string`],
/// the one escaping implementation every hand-rolled JSON emitter in
/// the workspace shares (the workspace has no serde), so the escaping
/// rules cannot drift between them.
pub fn json_string(s: &str) -> String {
    bp_components::json_string(s)
}

/// JSON has no NaN/Infinity; degenerate timings serialize as 0.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_owned()
    }
}

/// The benchmarks `bp bench` measures: a small, fixed prefix of the
/// CBP4-like suite, so results are comparable run-to-run.
pub fn quick_suite() -> Vec<BenchmarkSpec> {
    cbp4_suite().into_iter().take(QUICK_SUITE_LEN).collect()
}

// bp-lint: allow-item(determinism, "wall-clock timing is the measurand of a throughput bench; timing fields are excluded from CI's byte-comparison")
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Best-of-`REPS` timing of a read-path leg, which must stream exactly
/// `expected` records: a short read would invalidate the numbers.
fn best_of(
    expected: u64,
    mut f: impl FnMut() -> Result<u64, TraceIoError>,
) -> Result<f64, TraceIoError> {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (records, seconds) = timed(&mut f);
        let records = records?;
        if records != expected {
            return Err(TraceIoError::CountMismatch {
                declared: expected,
                actual: records,
            });
        }
        best = best.min(seconds);
    }
    Ok(best)
}

fn open(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceIoError> {
    TraceReader::new(BufReader::new(File::open(path)?))
}

fn drain_reader(path: &Path) -> Result<u64, TraceIoError> {
    let mut reader = open(path)?;
    let mut records = 0u64;
    while reader.try_next()?.is_some() {
        records += 1;
    }
    Ok(records)
}

fn simulate_reader(path: &Path) -> Result<u64, TraceIoError> {
    let mut reader = open(path)?;
    let result = simulate_stream(&mut Bimodal::new(1_024), &mut reader);
    if let Some(e) = reader.error() {
        // simulate_stream cannot surface stream errors; re-check here
        // so a corrupt or truncated file fails the bench with the real
        // cause.
        return Err(TraceIoError::Io(std::io::Error::other(format!(
            "stream ended early after {} records: {e}",
            result.records
        ))));
    }
    Ok(result.records)
}

fn measure(
    spec: &BenchmarkSpec,
    trace: &Trace,
    path: &Path,
) -> Result<BenchmarkMeasurement, TraceIoError> {
    let (written, write_seconds) = timed(|| -> Result<(), TraceIoError> {
        write_trace(BufWriter::new(File::create(path)?), trace)
    });
    written?;
    let records = trace.len() as u64;
    Ok(BenchmarkMeasurement {
        benchmark: spec.name.clone(),
        records,
        instructions: trace.instruction_count(),
        bytes: std::fs::metadata(path)?.len(),
        write_seconds,
        read_seconds: best_of(records, || drain_reader(path))?,
        read_simulate_seconds: best_of(records, || simulate_reader(path))?,
    })
}

/// Runs the trace-I/O benchmark at `instructions` retired instructions
/// per benchmark, using `scratch_dir` for the trace files (created if
/// missing, cleaned up on success).
///
/// # Errors
///
/// Returns a [`TraceIoError`] if any write/read leg fails — including
/// a round-trip record-count mismatch, which would invalidate the
/// numbers.
pub fn run_trace_io_bench(
    instructions: u64,
    scratch_dir: &Path,
) -> Result<TraceIoReport, TraceIoError> {
    std::fs::create_dir_all(scratch_dir)?;
    let mut benchmarks = Vec::new();
    for spec in quick_suite() {
        let trace = generate(&spec, instructions);
        let path = scratch_dir.join(format!("{}.bptr", spec.name));
        benchmarks.push(measure(&spec, &trace, &path)?);
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(scratch_dir);
    Ok(TraceIoReport {
        instructions,
        benchmarks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests run on parallel threads, so each gets its own scratch
    /// directory, named by `test`.
    fn tiny_report(test: &str) -> TraceIoReport {
        let scratch =
            std::env::temp_dir().join(format!("bp-trace-bench-{test}-{}", std::process::id()));
        run_trace_io_bench(30_000, &scratch).expect("bench runs")
    }

    #[test]
    fn report_covers_the_quick_suite_and_meets_the_size_goal() {
        let report = tiny_report("size");
        assert_eq!(report.benchmarks.len(), QUICK_SUITE_LEN);
        for b in &report.benchmarks {
            assert!(b.records > 0 && b.bytes > 0);
            assert!(
                b.bytes_per_record() <= 11.0,
                "{}: {:.2} bytes/record",
                b.benchmark,
                b.bytes_per_record()
            );
            assert!(b.read_records_per_sec() > 0.0);
            assert!(b.read_simulate_records_per_sec() > 0.0);
        }
        assert!(report.totals().bytes_per_record() <= 11.0);
    }

    #[test]
    fn json_is_well_formed_enough_to_spot_check() {
        let report = tiny_report("json");
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"name\"").count(), QUICK_SUITE_LEN + 1);
        assert_eq!(
            json.matches("\"bytes_per_record\"").count(),
            QUICK_SUITE_LEN + 1
        );
        assert_eq!(
            json.matches("\"read_simulate_records_per_sec\"").count(),
            QUICK_SUITE_LEN + 1
        );
        assert!(json.contains("\"totals\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the workspace.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\u{1}"), "\"x\\u0001\"");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(1.5), "1.500000");
    }
}
