//! Fused columns: the predictor hosts one shared stream drives.
//!
//! A fused column runs several predictor specs over one pass of one
//! stream ([`crate::simulate_stream_multi`],
//! [`crate::simulate_stream_attributed_multi`],
//! [`crate::simulate_scenario_multi`]). [`Column::build`] turns the
//! column's specs into *hosts*. Plain (not wormhole-wrapped) TAGE-SC
//! specs with equal TAGE geometry become the lanes of one multi-lane
//! [`TageSc`]: the paper's TAGE-GSC, +IMLI, TAGE-SC-L and +I+L differ
//! only downstream of TAGE, so one TAGE lookup and train per branch
//! feeds all of them. Every other spec is a solo host.
//!
//! Sharing is exact. `Tage::update` trains on TAGE's own prediction,
//! TAGE's histories take only outcomes and PCs, and the corrector, loop
//! predictor and IMLI read TAGE's lookup and history but never write
//! them. So each lane's predictions are the ones a solo run of its spec
//! makes, and every fused drive returns exactly the solo results, in
//! spec order.

use crate::registry::{FamilyConfig, PredictorSpec};
use bp_components::{ConditionalPredictor, PredictionAttribution, PredictorStats};
use bp_tage::{TageSc, TageScConfig};
use bp_trace::BranchRecord;

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
enum Host {
    Solo(Box<dyn ConditionalPredictor + Send>),
    Lanes(Box<TageSc>),
}

/// One host of a column: its predictor and the spec index of each of
/// its lanes (one lane for a solo host).
pub(crate) struct ColumnHost {
    lanes: Vec<usize>,
    host: Host,
}

impl ColumnHost {
    // bp-lint: allow-item(hot-path-alloc, "host construction is cold: once per column, and on a full context-switch flush")
    fn build(specs: &[PredictorSpec], lanes: Vec<usize>) -> Self {
        let host = match lane_config(&specs[lanes[0]]) {
            Some(_) => Host::Lanes(Box::new(TageSc::with_lanes(
                lanes
                    .iter()
                    .filter_map(|&i| lane_config(&specs[i]).cloned())
                    .collect(),
            ))),
            None => Host::Solo(specs[lanes[0]].make()),
        };
        ColumnHost { lanes, host }
    }

    /// Rebuilds the host cold from `specs` (a full context-switch
    /// flush): every lane restarts together.
    pub(crate) fn rebuild(&mut self, specs: &[PredictorSpec]) {
        *self = ColumnHost::build(specs, std::mem::take(&mut self.lanes));
    }

    /// Runs the CBP protocol for one record through the attribution
    /// channel, handing each lane's prediction to `sink` as `(spec,
    /// prediction, attribution)`.
    #[inline]
    pub(crate) fn step(
        &mut self,
        record: &BranchRecord,
        mut sink: impl FnMut(usize, bool, PredictionAttribution),
    ) {
        let lanes = &self.lanes;
        match &mut self.host {
            Host::Solo(predictor) => {
                if record.is_conditional() {
                    let (pred, attribution) = predictor.predict_attributed(record.pc);
                    sink(lanes[0], pred, attribution);
                    predictor.update(record);
                } else {
                    predictor.notify_nonconditional(record);
                }
            }
            Host::Lanes(host) => {
                if record.is_conditional() {
                    host.predict_lanes(record.pc, |lane, pred, attribution| {
                        sink(lanes[lane], pred, attribution);
                    });
                    host.update(record);
                } else {
                    host.notify_nonconditional(record);
                }
            }
        }
    }

    /// Erases every lane's history state (a partial context-switch
    /// flush).
    pub(crate) fn flush_history(&mut self) {
        match &mut self.host {
            Host::Solo(predictor) => predictor.flush_history(),
            Host::Lanes(host) => host.flush_history(),
        }
    }
}

/// The hosts of one fused column, built from its specs by
/// [`plan_column`].
pub struct Column {
    hosts: Vec<ColumnHost>,
    specs: usize,
}

impl Column {
    /// Builds fresh, cold hosts for `specs`.
    // bp-lint: allow-item(hot-path-alloc, "column construction is cold, once per column")
    pub fn build(specs: &[PredictorSpec]) -> Self {
        let hosts = plan_column(specs)
            .into_iter()
            .map(|plan| match plan {
                HostPlan::TageFront(lanes) => ColumnHost::build(specs, lanes),
                HostPlan::Solo(i) => ColumnHost::build(specs, vec![i]),
            })
            .collect();
        Column {
            hosts,
            specs: specs.len(),
        }
    }

    /// The hosts, for drives that interleave records with other events.
    pub(crate) fn hosts_mut(&mut self) -> &mut [ColumnHost] {
        &mut self.hosts
    }

    /// Each spec's display name, in spec order.
    // bp-lint: allow-item(hot-path-alloc, "result assembly, once per column")
    pub fn names(&self) -> Vec<String> {
        let mut names = vec![String::new(); self.specs];
        for host in &self.hosts {
            for (lane, &spec) in host.lanes.iter().enumerate() {
                names[spec] = match &host.host {
                    Host::Solo(predictor) => predictor.name(),
                    Host::Lanes(front) => front.lane_name(lane),
                }
                .to_owned();
            }
        }
        names
    }

    /// Drives every host through `block` with the CBP protocol, one host
    /// after another, accumulating each spec's outcomes into
    /// `stats[spec]`. A solo host runs its own monomorphized
    /// [`ConditionalPredictor::run_block`].
    ///
    /// # Panics
    ///
    /// Panics if `stats` has fewer entries than the column has specs.
    pub fn run_block(&mut self, block: &[BranchRecord], stats: &mut [PredictorStats]) {
        for host in &mut self.hosts {
            if let Host::Solo(predictor) = &mut host.host {
                predictor.run_block(block, &mut stats[host.lanes[0]]);
                continue;
            }
            for record in block {
                host.step(record, |spec, pred, _| {
                    stats[spec].record(pred == record.taken)
                });
            }
        }
    }

    /// Drives every host through `block` through the attribution
    /// channel, one host after another, handing each conditional's
    /// per-spec outcome to `sink` as `(spec, record, prediction,
    /// attribution)`.
    pub fn run_block_attributed(
        &mut self,
        block: &[BranchRecord],
        mut sink: impl FnMut(usize, &BranchRecord, bool, PredictionAttribution),
    ) {
        for host in &mut self.hosts {
            for record in block {
                host.step(record, |spec, pred, attribution| {
                    sink(spec, record, pred, attribution);
                });
            }
        }
    }
}
