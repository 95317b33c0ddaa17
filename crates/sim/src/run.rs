//! The block drive's inputs and observers, and the solo entry points.
//!
//! Every simulation runs [`Column::drive`]: one loop over blocks of
//! [`BLOCK_RECORDS`] records from a [`Blocks`] input (a materialized
//! trace in zero-copy chunks, or a branch or scenario event stream
//! pulled into one reused buffer), each block run by every host of the
//! column, each prediction folded into a monomorphized [`Observer`].

use crate::column::{Column, ColumnHost};
use crate::report::{AttributedRun, PhaseSummary};
use crate::scenario::ScenarioRun;
use bp_components::{ConditionalPredictor, PredictorStats};
use bp_trace::{BranchRecord, BranchStream, Trace};
use bp_workloads::{EventStream, FlushMode, ScenarioEvent};
use std::fmt;
use std::ops::Range;

/// The result of simulating one predictor over one benchmark trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Predictor configuration name.
    pub predictor: String,
    /// Retired instructions in the trace.
    pub instructions: u64,
    /// Dynamic branch records consumed from the stream (all kinds, not
    /// just conditionals) — the denominator of records/sec throughput.
    pub records: u64,
    /// Prediction counts.
    pub stats: PredictorStats,
}

impl SimResult {
    /// MPKI of this run.
    pub fn mpki(&self) -> f64 {
        Mpki::of(self).value()
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.3} MPKI ({} mispredictions / {} instructions)",
            self.predictor,
            self.benchmark,
            self.mpki(),
            self.stats.mispredicted,
            self.instructions
        )
    }
}

/// Mispredictions Per Kilo Instructions — the paper's accuracy metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mpki(f64);

impl Mpki {
    /// Computes the MPKI of a simulation result.
    ///
    /// ```
    /// use bp_sim::{Mpki, SimResult};
    /// use bp_components::PredictorStats;
    /// let mut stats = PredictorStats::default();
    /// for i in 0..100 { stats.record(i % 10 != 0); }
    /// let r = SimResult {
    ///     benchmark: "b".into(),
    ///     predictor: "p".into(),
    ///     instructions: 5_000,
    ///     records: 100,
    ///     stats,
    /// };
    /// assert_eq!(Mpki::of(&r).value(), 2.0);
    /// ```
    pub fn of(result: &SimResult) -> Mpki {
        Mpki::from_counts(result.stats.mispredicted, result.instructions)
    }

    /// MPKI from raw counts.
    pub fn from_counts(mispredictions: u64, instructions: u64) -> Mpki {
        if instructions == 0 {
            return Mpki(0.0);
        }
        Mpki(mispredictions as f64 * 1000.0 / instructions as f64)
    }

    /// The numeric value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl fmt::Display for Mpki {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Records per block of the drive: large enough to amortize the
/// per-block host sweep, small enough (≈ 96 KiB of records) that the
/// block plus one predictor's tables stay cache-resident.
pub const BLOCK_RECORDS: usize = 4096;

/// One block of a drive's input: up to [`BLOCK_RECORDS`] records, the
/// tenant of each record (empty for a materialized trace), and the
/// context-switch flushes as `(position, mode)`: a flush at position
/// `i` applies before `records[i]`.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    /// The block's records, in stream order.
    pub records: &'a [BranchRecord],
    /// `tenants[i]` is the tenant of `records[i]`.
    pub tenants: &'a [u32],
    /// Flush points, in stream order.
    pub flushes: &'a [(usize, FlushMode)],
}

/// A drive's input, handed to [`Column::drive`] one block at a time.
pub trait Blocks {
    /// The next block. An empty block ends the input, and so does any
    /// block shorter than [`BLOCK_RECORDS`] records.
    fn next_block(&mut self) -> Block<'_>;
}

/// Records already in memory (a materialized trace), handed over as
/// zero-copy chunks.
impl Blocks for &[BranchRecord] {
    fn next_block(&mut self) -> Block<'_> {
        let (records, rest) = self.split_at(self.len().min(BLOCK_RECORDS));
        *self = rest;
        Block {
            records,
            tenants: &[],
            flushes: &[],
        }
    }
}

/// Records or scenario events pulled one at a time into one reused
/// block buffer. Build it with [`stream_blocks`] or [`event_blocks`].
pub struct Pulled<F> {
    pull: F,
    records: Vec<BranchRecord>,
    tenants: Vec<u32>,
    flushes: Vec<(usize, FlushMode)>,
}

impl<F: FnMut() -> Option<ScenarioEvent>> Pulled<F> {
    // bp-lint: allow-item(hot-path-alloc, "the block buffers are allocated once per input and reused for every block")
    fn new(pull: F) -> Self {
        Pulled {
            pull,
            records: Vec::with_capacity(BLOCK_RECORDS),
            tenants: Vec::with_capacity(BLOCK_RECORDS),
            flushes: Vec::with_capacity(64),
        }
    }
}

impl<F: FnMut() -> Option<ScenarioEvent>> Blocks for Pulled<F> {
    fn next_block(&mut self) -> Block<'_> {
        self.records.clear();
        self.tenants.clear();
        self.flushes.clear();
        while self.records.len() < BLOCK_RECORDS {
            match (self.pull)() {
                Some(ScenarioEvent::Record { record, tenant }) => {
                    self.records.push(record);
                    self.tenants.push(tenant);
                }
                Some(ScenarioEvent::Flush(mode)) => self.flushes.push((self.records.len(), mode)),
                None => break,
            }
        }
        Block {
            records: &self.records,
            tenants: &self.tenants,
            flushes: &self.flushes,
        }
    }
}

/// The records of `stream`, as one tenant, in O([`BLOCK_RECORDS`])
/// memory.
pub fn stream_blocks<S: BranchStream>(
    mut stream: S,
) -> Pulled<impl FnMut() -> Option<ScenarioEvent>> {
    Pulled::new(move || {
        let record = stream.next_record()?;
        Some(ScenarioEvent::Record { record, tenant: 0 })
    })
}

/// The events of a scenario stream: tenant-tagged records and flushes.
pub fn event_blocks(
    events: &mut dyn EventStream,
) -> Pulled<impl FnMut() -> Option<ScenarioEvent> + '_> {
    Pulled::new(move || events.next_event())
}

/// What one drive counted, shared by every spec of the column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveTotals {
    /// Instructions retired by the records.
    pub instructions: u64,
    /// Records driven.
    pub records: u64,
    /// Context-switch flushes applied.
    pub flushes: u64,
}

pub(crate) fn instructions_of(records: &[BranchRecord]) -> u64 {
    records.iter().map(BranchRecord::instructions).sum()
}

/// What a drive folds each prediction into, monomorphized into the
/// drive: [`Counts`] (plain), [`Phases`] (warmup/steady attribution)
/// or [`Tenants`] (per-tenant attribution).
pub trait Observer {
    /// One result per spec.
    type Output;

    /// Sees each block once, before any host runs it.
    fn block(&mut self, _: &Block<'_>) {}

    /// Runs `host` over `block.records[range]` (a run between flushes),
    /// folding every prediction in.
    fn run(&mut self, host: &mut ColumnHost<'_>, block: &Block<'_>, range: Range<usize>);

    /// The per-spec results, given each spec's plain result without its
    /// counts (benchmark, display name and the drive's totals).
    fn finish(
        self,
        heads: impl Iterator<Item = SimResult>,
        totals: &DriveTotals,
    ) -> Vec<Self::Output>;
}

/// Plain per-spec prediction counts, folded into [`SimResult`]s.
#[derive(Debug, Clone)]
pub struct Counts(pub Vec<PredictorStats>);

impl Counts {
    /// Empty counts for a column of `width` specs.
    // bp-lint: allow-item(hot-path-alloc, "per-run setup, once per column")
    pub fn new(width: usize) -> Self {
        Counts(vec![PredictorStats::default(); width])
    }
}

impl Observer for Counts {
    type Output = SimResult;

    #[inline]
    fn run(&mut self, host: &mut ColumnHost<'_>, block: &Block<'_>, range: Range<usize>) {
        host.run_counts(&block.records[range], &mut self.0);
    }

    // bp-lint: allow-item(hot-path-alloc, "result assembly, once per column")
    fn finish(self, heads: impl Iterator<Item = SimResult>, _: &DriveTotals) -> Vec<SimResult> {
        heads
            .zip(self.0)
            .map(|(head, stats)| SimResult { stats, ..head })
            .collect()
    }
}

/// Per-spec combined counts plus one attribution tally per bucket (a
/// warmup/steady phase, or a tenant), and each bucket's instructions.
#[derive(Debug, Clone)]
struct Buckets {
    instructions: Vec<u64>,
    runs: Vec<(PredictorStats, Vec<PhaseSummary>)>,
}

impl Buckets {
    // bp-lint: allow-item(hot-path-alloc, "per-run setup, once per column")
    fn new(width: usize, buckets: usize) -> Self {
        let tallies = vec![PhaseSummary::default(); buckets];
        Buckets {
            instructions: vec![0; buckets],
            runs: vec![(PredictorStats::default(), tallies); width],
        }
    }

    /// Runs `host` over `records` through the attribution channel,
    /// tallying `records[i]` into bucket `bucket(i)`.
    #[inline]
    fn run(
        &mut self,
        host: &mut ColumnHost<'_>,
        records: &[BranchRecord],
        bucket: impl Fn(usize) -> usize,
    ) {
        let runs = &mut self.runs;
        host.run_attributed(records, |spec, i, record, pred, attribution| {
            let (stats, tallies) = &mut runs[spec];
            let tally = &mut tallies[bucket(i)];
            let correct = pred == record.taken;
            stats.record(correct);
            tally.stats.record(correct);
            tally.attribution.record(&attribution, pred, record.taken);
        });
    }

    /// Each spec's combined counts and bucket tallies, with the
    /// buckets' instructions filled in.
    fn into_runs(self) -> impl Iterator<Item = (PredictorStats, Vec<PhaseSummary>)> {
        let instructions = self.instructions;
        self.runs.into_iter().map(move |(stats, mut tallies)| {
            for (tally, &retired) in tallies.iter_mut().zip(&instructions) {
                tally.instructions = retired;
            }
            (stats, tallies)
        })
    }
}

/// Per-spec attribution split at a warmup boundary, folded into
/// [`AttributedRun`]s. A record belongs to warmup while the running
/// instruction count *including that record* stays within the
/// boundary. The count only grows, so each block splits once into a
/// warmup prefix and a steady suffix, the same for every spec.
#[derive(Debug, Clone)]
pub struct Phases {
    warmup_instructions: u64,
    split: usize,
    phases: Buckets,
}

impl Phases {
    /// Empty phases for a column of `width` specs.
    pub fn new(width: usize, warmup_instructions: u64) -> Self {
        Phases {
            warmup_instructions,
            split: 0,
            phases: Buckets::new(width, 2),
        }
    }
}

impl Observer for Phases {
    type Output = AttributedRun;

    fn block(&mut self, block: &Block<'_>) {
        let mut retired: u64 = self.phases.instructions.iter().sum();
        self.split = block
            .records
            .iter()
            .position(|record| {
                retired += record.instructions();
                retired > self.warmup_instructions
            })
            .unwrap_or(block.records.len());
        let (warm, steady) = block.records.split_at(self.split);
        self.phases.instructions[0] += instructions_of(warm);
        self.phases.instructions[1] += instructions_of(steady);
    }

    #[inline]
    fn run(&mut self, host: &mut ColumnHost<'_>, block: &Block<'_>, range: Range<usize>) {
        let cut = self.split.clamp(range.start, range.end);
        self.phases
            .run(host, &block.records[range.start..cut], |_| 0);
        self.phases.run(host, &block.records[cut..range.end], |_| 1);
    }

    // bp-lint: allow-item(hot-path-alloc, "result assembly, once per column")
    fn finish(self, heads: impl Iterator<Item = SimResult>, _: &DriveTotals) -> Vec<AttributedRun> {
        let warmup_instructions = self.warmup_instructions;
        heads
            .zip(self.phases.into_runs())
            .map(|(head, (stats, phases))| {
                let [warmup, steady]: [PhaseSummary; 2] = phases.try_into().expect("two phases");
                AttributedRun {
                    result: SimResult { stats, ..head },
                    warmup_instructions,
                    warmup,
                    steady,
                }
            })
            .collect()
    }
}

/// Per-spec, per-tenant attribution of a scenario drive, folded into
/// [`ScenarioRun`]s. Each record's tenant is looked up by its position
/// in the block.
#[derive(Debug, Clone)]
pub struct Tenants(Buckets);

impl Tenants {
    /// Empty tallies for a column of `width` specs over `tenants`
    /// tenants.
    pub fn new(width: usize, tenants: usize) -> Self {
        Tenants(Buckets::new(width, tenants))
    }
}

impl Observer for Tenants {
    type Output = ScenarioRun;

    fn block(&mut self, block: &Block<'_>) {
        for (record, &tenant) in block.records.iter().zip(block.tenants) {
            self.0.instructions[tenant as usize] += record.instructions();
        }
    }

    #[inline]
    fn run(&mut self, host: &mut ColumnHost<'_>, block: &Block<'_>, range: Range<usize>) {
        let records = &block.records[range.start..range.end];
        let tenants = &block.tenants[range];
        self.0.run(host, records, |i| tenants[i] as usize);
    }

    // bp-lint: allow-item(hot-path-alloc, "result assembly, once per column")
    fn finish(
        self,
        heads: impl Iterator<Item = SimResult>,
        totals: &DriveTotals,
    ) -> Vec<ScenarioRun> {
        heads
            .zip(self.0.into_runs())
            .map(|(head, (stats, tenants))| ScenarioRun {
                predictor: head.predictor,
                instructions: head.instructions,
                records: head.records,
                stats,
                flushes: totals.flushes,
                tenants,
            })
            .collect()
    }
}

/// The one result of a column of one.
pub(crate) fn only<T>(mut results: Vec<T>) -> T {
    results.pop().expect("a column of one drives one spec")
}

/// Simulates `predictor` over `trace` with the CBP protocol: predict and
/// update every conditional branch, notify non-conditional branches.
///
/// The predictor is *not* reset — callers wanting cold-start behaviour
/// construct a fresh predictor per trace, as every [`crate::Engine`]
/// cell does. The trace's records are handed to the drive as zero-copy
/// blocks, and the result is bit-identical to [`simulate_stream`] over
/// the equivalent stream.
pub fn simulate(predictor: &mut dyn ConditionalPredictor, trace: &Trace) -> SimResult {
    only(Column::solo(predictor).run(trace.name(), &mut trace.records(), Counts::new(1)))
}

/// Simulates `predictor` over any [`BranchStream`] with the CBP
/// protocol, in O([`BLOCK_RECORDS`]) memory: paired with a streaming
/// producer (`bp_workloads::stream_benchmark`, `bp_trace::TraceReader`)
/// it runs a benchmark of any length. Block boundaries are invisible to
/// the per-record protocol.
// bp-lint: allow-item(hot-path-alloc, "the benchmark name, once per run")
pub fn simulate_stream<S: BranchStream>(
    predictor: &mut dyn ConditionalPredictor,
    stream: S,
) -> SimResult {
    let benchmark = stream.name().to_owned();
    let mut blocks = stream_blocks(stream);
    only(Column::solo(predictor).run(&benchmark, &mut blocks, Counts::new(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PredictorSpec;
    use bp_components::{AlwaysTaken, Bimodal};
    use bp_trace::BranchRecord;

    fn biased_trace(n: usize, taken: bool) -> Trace {
        let mut t = Trace::new("biased");
        for _ in 0..n {
            t.push(BranchRecord::conditional(0x40, 0x80, taken).with_leading_instructions(9));
        }
        t
    }

    #[test]
    fn always_taken_on_taken_trace_is_perfect() {
        let r = simulate(&mut AlwaysTaken, &biased_trace(100, true));
        assert_eq!(r.stats.mispredicted, 0);
        assert_eq!(r.mpki(), 0.0);
        assert_eq!(r.stats.predicted, 100);
    }

    #[test]
    fn always_taken_on_not_taken_trace_is_all_wrong() {
        let r = simulate(&mut AlwaysTaken, &biased_trace(100, false));
        assert_eq!(r.stats.mispredicted, 100);
        // 100 mispredictions over 1000 instructions = 100 MPKI.
        assert_eq!(r.mpki(), 100.0);
        assert!(format!("{r}").contains("MPKI"));
    }

    #[test]
    fn bimodal_learns_during_simulation() {
        let mut p = Bimodal::new(64);
        let r = simulate(&mut p, &biased_trace(1000, false));
        assert!(r.stats.mispredicted < 5, "only warmup mispredictions");
    }

    #[test]
    fn dyn_predictors_are_supported() {
        let mut boxed: Box<dyn ConditionalPredictor> = Box::new(AlwaysTaken);
        let r = simulate(boxed.as_mut(), &biased_trace(10, true));
        assert_eq!(r.predictor, "always-taken");
    }

    #[test]
    fn nonconditionals_do_not_count() {
        let mut t = biased_trace(10, true);
        t.push(BranchRecord::call(0x100, 0x1000));
        t.push(BranchRecord::ret(0x1008, 0x104));
        let r = simulate(&mut AlwaysTaken, &t);
        assert_eq!(r.stats.predicted, 10);
    }

    #[test]
    fn mpki_handles_empty() {
        assert_eq!(Mpki::from_counts(5, 0).value(), 0.0);
        assert_eq!(format!("{}", Mpki::from_counts(1, 1000)), "1.000");
    }

    #[test]
    fn streamed_and_materialized_results_are_identical() {
        let trace = biased_trace(500, false);
        let materialized = simulate(&mut Bimodal::new(64), &trace);
        let streamed = simulate_stream(&mut Bimodal::new(64), trace.stream());
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn multi_stream_matches_individual_runs_exactly() {
        let mut t = biased_trace(400, true);
        for i in 0..200u64 {
            t.push(BranchRecord::conditional(0x90, 0x40, i % 3 == 0));
            if i % 5 == 0 {
                t.push(BranchRecord::call(0x100, 0x1000));
            }
        }
        let specs: Vec<PredictorSpec> = ["bimodal", "tage-gsc", "gshare", "tage-sc-l+imli"]
            .iter()
            .map(|n| crate::registry::lookup(n).expect("registered"))
            .collect();
        let fused =
            Column::build(&specs).run("biased", &mut stream_blocks(t.stream()), Counts::new(4));
        assert_eq!(fused.len(), 4);
        for (f, spec) in fused.iter().zip(&specs) {
            let solo = simulate(spec.make().as_mut(), &t);
            assert_eq!(f, &solo, "fused cell must equal the per-predictor run");
        }
    }

    #[test]
    fn multi_stream_with_no_predictors_is_empty() {
        let t = biased_trace(10, true);
        let empty = Column::build(&[]).run("biased", &mut t.records(), Counts::new(0));
        assert!(empty.is_empty());
    }
}
