//! Columns: the predictor hosts one block drive runs.
//!
//! Every simulation is one [`Column`] driven over one input by
//! [`Column::drive`]. [`Column::build`] turns a column's specs into
//! *hosts*. Plain (not wormhole-wrapped) TAGE-SC specs with equal TAGE
//! geometry become the lanes of one multi-lane [`TageSc`]: the paper's
//! TAGE-GSC, +IMLI, TAGE-SC-L and +I+L differ only downstream of TAGE,
//! so one TAGE lookup and train per branch feeds all of them. Every
//! other spec is a solo host. A solo run ([`crate::simulate`]) is a
//! column of one host that borrows the caller's predictor.
//!
//! Sharing is exact. `Tage::update` trains on TAGE's own prediction,
//! TAGE's histories take only outcomes and PCs, and the corrector, loop
//! predictor and IMLI read TAGE's lookup and history but never write
//! them. So each lane's predictions are the ones a solo run of its spec
//! makes, and every column returns exactly the solo results, in spec
//! order.

use crate::registry::{FamilyConfig, PredictorSpec};
use crate::run::{instructions_of, Blocks, DriveTotals, Observer, SimResult, BLOCK_RECORDS};
use bp_components::{ConditionalPredictor, PredictionAttribution, PredictorStats};
use bp_tage::{TageSc, TageScConfig};
use bp_trace::BranchRecord;
use bp_workloads::FlushMode;

/// How [`Column::build`] hosts one group of a column's specs (spec
/// indices into the column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostPlan {
    /// One TAGE front feeding one lane per listed spec, in lane order.
    TageFront(Vec<usize>),
    /// One spec on a predictor of its own.
    Solo(usize),
}

/// The TAGE-SC configuration of `spec` if it can share a TAGE front:
/// a plain (not wormhole-wrapped) TAGE-SC spec.
fn lane_config(spec: &PredictorSpec) -> Option<&TageScConfig> {
    match (&spec.config.base, &spec.config.wormhole) {
        (FamilyConfig::TageSc(config), None) => Some(config),
        _ => None,
    }
}

/// Groups a column's specs into hosts, in order of first appearance:
/// each distinct TAGE geometry among the plain TAGE-SC specs gets one
/// front, every other spec stays solo.
// bp-lint: allow-item(hot-path-alloc, "column planning is cold, once per column")
pub fn plan_column(specs: &[PredictorSpec]) -> Vec<HostPlan> {
    let mut plans: Vec<HostPlan> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let Some(config) = lane_config(spec) else {
            plans.push(HostPlan::Solo(i));
            continue;
        };
        let front = plans.iter_mut().find_map(|plan| match plan {
            HostPlan::TageFront(lanes) if lane_config(&specs[lanes[0]])?.tage == config.tage => {
                Some(lanes)
            }
            _ => None,
        });
        match front {
            Some(lanes) => lanes.push(i),
            None => plans.push(HostPlan::TageFront(vec![i])),
        }
    }
    plans
}

/// The predictor behind one host.
enum Host<'p> {
    Owned(Box<dyn ConditionalPredictor + Send>),
    Borrowed(&'p mut dyn ConditionalPredictor),
    Lanes(Box<TageSc>),
}

/// One host of a column: its predictor and the spec index of each of
/// its lanes (one lane for a solo host). Observers drive it through
/// [`Observer::run`].
pub struct ColumnHost<'p> {
    lanes: Vec<usize>,
    host: Host<'p>,
}

impl<'p> ColumnHost<'p> {
    // bp-lint: allow-item(hot-path-alloc, "host construction is cold: once per column, and on a full context-switch flush")
    fn build(specs: &[PredictorSpec], lanes: Vec<usize>) -> Self {
        let host = match lane_config(&specs[lanes[0]]) {
            Some(_) => Host::Lanes(Box::new(TageSc::with_lanes(
                lanes
                    .iter()
                    .filter_map(|&i| lane_config(&specs[i]).cloned())
                    .collect(),
            ))),
            None => Host::Owned(specs[lanes[0]].make()),
        };
        ColumnHost { lanes, host }
    }

    /// Runs the CBP protocol over `records`, counting each spec's
    /// outcomes into `stats[spec]`. A solo host runs its own
    /// monomorphized [`ConditionalPredictor::run_block`]: one virtual
    /// call per run of records, not three per record.
    #[inline]
    pub(crate) fn run_counts(&mut self, records: &[BranchRecord], stats: &mut [PredictorStats]) {
        let spec = self.lanes[0];
        match &mut self.host {
            Host::Owned(predictor) => predictor.run_block(records, &mut stats[spec]),
            Host::Borrowed(predictor) => predictor.run_block(records, &mut stats[spec]),
            Host::Lanes(_) => self.run_attributed(records, |spec, _, record, pred, _| {
                stats[spec].record(pred == record.taken);
            }),
        }
    }

    /// Runs the CBP protocol over `records` through the attribution
    /// channel, handing each lane's prediction to `sink` as `(spec,
    /// index into records, record, prediction, attribution)`.
    #[inline]
    pub(crate) fn run_attributed(
        &mut self,
        records: &[BranchRecord],
        mut sink: impl FnMut(usize, usize, &BranchRecord, bool, PredictionAttribution),
    ) {
        let lanes = &self.lanes;
        let predictor: &mut dyn ConditionalPredictor = match &mut self.host {
            Host::Owned(predictor) => predictor.as_mut(),
            Host::Borrowed(predictor) => &mut **predictor,
            Host::Lanes(front) => {
                for (i, record) in records.iter().enumerate() {
                    if record.is_conditional() {
                        front.predict_lanes(record.pc, |lane, pred, attribution| {
                            sink(lanes[lane], i, record, pred, attribution);
                        });
                        front.update(record);
                    } else {
                        front.notify_nonconditional(record);
                    }
                }
                return;
            }
        };
        for (i, record) in records.iter().enumerate() {
            if record.is_conditional() {
                let (pred, attribution) = predictor.predict_attributed(record.pc);
                sink(lanes[0], i, record, pred, attribution);
                predictor.update(record);
            } else {
                predictor.notify_nonconditional(record);
            }
        }
    }

    /// Applies a context-switch flush: a partial flush erases every
    /// lane's history state, a full flush rebuilds the host cold from
    /// `specs` (every lane restarts together; a borrowed predictor has
    /// no spec to rebuild from, so that panics).
    fn flush(&mut self, mode: FlushMode, specs: &[PredictorSpec]) {
        match (mode, &mut self.host) {
            (FlushMode::Partial, Host::Owned(predictor)) => predictor.flush_history(),
            (FlushMode::Partial, Host::Borrowed(predictor)) => predictor.flush_history(),
            (FlushMode::Partial, Host::Lanes(front)) => front.flush_history(),
            (FlushMode::Full, Host::Borrowed(_)) => {
                panic!("a full flush needs a spec-built column")
            }
            (FlushMode::Full, _) => {
                *self = ColumnHost::build(specs, std::mem::take(&mut self.lanes));
            }
        }
    }
}

/// The hosts of one column, built from its specs by [`plan_column`]
/// (or one host borrowing a caller's predictor).
pub struct Column<'p> {
    specs: &'p [PredictorSpec],
    hosts: Vec<ColumnHost<'p>>,
}

impl<'p> Column<'p> {
    /// Builds fresh, cold hosts for `specs`.
    // bp-lint: allow-item(hot-path-alloc, "column construction is cold, once per column")
    pub fn build(specs: &'p [PredictorSpec]) -> Self {
        let hosts = plan_column(specs)
            .into_iter()
            .map(|plan| match plan {
                HostPlan::TageFront(lanes) => ColumnHost::build(specs, lanes),
                HostPlan::Solo(i) => ColumnHost::build(specs, vec![i]),
            })
            .collect();
        Column { specs, hosts }
    }

    /// A column of one host that drives the caller's `predictor`
    /// as is (not reset).
    // bp-lint: allow-item(hot-path-alloc, "column construction is cold, once per run")
    pub(crate) fn solo(predictor: &'p mut dyn ConditionalPredictor) -> Self {
        Column {
            specs: &[],
            hosts: vec![ColumnHost {
                lanes: vec![0],
                host: Host::Borrowed(predictor),
            }],
        }
    }

    /// The number of specs (result slots) the column drives.
    pub fn width(&self) -> usize {
        self.hosts.iter().map(|host| host.lanes.len()).sum()
    }

    /// Each spec's display name, in spec order.
    // bp-lint: allow-item(hot-path-alloc, "result assembly, once per column")
    pub fn names(&self) -> Vec<String> {
        let mut names = vec![String::new(); self.width()];
        for host in &self.hosts {
            for (lane, &spec) in host.lanes.iter().enumerate() {
                names[spec] = match &host.host {
                    Host::Owned(predictor) => predictor.name(),
                    Host::Borrowed(predictor) => predictor.name(),
                    Host::Lanes(front) => front.lane_name(lane),
                }
                .to_owned();
            }
        }
        names
    }

    /// The block drive: pulls `input` block by block and runs every
    /// host over the whole block before the next host starts, folding
    /// predictions into `observer`. One host's working set stays hot
    /// for thousands of records while the input is generated or decoded
    /// exactly once.
    ///
    /// A block's flushes split it into runs of records; between runs
    /// each host applies the flush in stream position. The drive stops
    /// on an empty block or after a short one (the input ran dry).
    pub fn drive<B: Blocks, O: Observer>(
        &mut self,
        input: &mut B,
        observer: &mut O,
    ) -> DriveTotals {
        let mut totals = DriveTotals::default();
        loop {
            let block = input.next_block();
            if block.records.is_empty() && block.flushes.is_empty() {
                break;
            }
            totals.instructions += instructions_of(block.records);
            totals.records += block.records.len() as u64;
            totals.flushes += block.flushes.len() as u64;
            observer.block(&block);
            for host in &mut self.hosts {
                let mut start = 0;
                for &(at, mode) in block.flushes {
                    observer.run(host, &block, start..at);
                    host.flush(mode, self.specs);
                    start = at;
                }
                observer.run(host, &block, start..block.records.len());
            }
            if block.records.len() < BLOCK_RECORDS {
                break;
            }
        }
        totals
    }

    /// Drives the column over `input` with a fresh `observer` and
    /// returns one result per spec, in spec order. `benchmark` names the
    /// input in the results.
    pub fn run<B: Blocks, O: Observer>(
        &mut self,
        benchmark: &str,
        input: &mut B,
        mut observer: O,
    ) -> Vec<O::Output> {
        let totals = self.drive(input, &mut observer);
        self.finish(observer, benchmark, &totals)
    }

    /// Folds what `observer` saw over a drive that counted `totals` into
    /// one result per spec, in spec order.
    // bp-lint: allow-item(hot-path-alloc, "result assembly, once per column")
    pub fn finish<O: Observer>(
        &self,
        observer: O,
        benchmark: &str,
        totals: &DriveTotals,
    ) -> Vec<O::Output> {
        let heads = self.names().into_iter().map(|predictor| SimResult {
            benchmark: benchmark.to_owned(),
            predictor,
            instructions: totals.instructions,
            records: totals.records,
            stats: PredictorStats::default(),
        });
        observer.finish(heads, totals)
    }
}
