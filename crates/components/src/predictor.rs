//! The simulator-facing predictor trait.

use crate::attribution::PredictionAttribution;
use crate::budget::{StorageBudget, StorageItem};
use bp_trace::BranchRecord;

/// A conditional branch direction predictor, driven with the CBP protocol:
/// for each conditional branch the simulator calls
/// [`predict`](ConditionalPredictor::predict) and then
/// [`update`](ConditionalPredictor::update) with the resolved outcome;
/// non-conditional branches are reported through
/// [`notify_nonconditional`](ConditionalPredictor::notify_nonconditional)
/// because they still shift path/target history (and, for IMLI-equipped
/// predictors, can matter to loop tracking).
///
/// `predict` takes `&mut self` because table-based predictors cache their
/// lookup state (computed indices, matching banks) between the prediction
/// and the update of the same branch, exactly as the reference CBP
/// simulators do.
///
/// Storage accounting comes from the [`StorageBudget`] supertrait, which
/// itemizes every table's exact bit cost; prediction attribution (which
/// component provided each prediction) from
/// [`predict_attributed`](ConditionalPredictor::predict_attributed),
/// which the hot simulation path simply never calls.
pub trait ConditionalPredictor: StorageBudget {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Predicts like [`predict`](ConditionalPredictor::predict) and also
    /// reports *which component provided* the prediction.
    ///
    /// Drop-in replacement in the CBP protocol (a subsequent
    /// [`update`](ConditionalPredictor::update) applies to it exactly as
    /// to `predict`), guaranteed to return the same direction and leave
    /// the predictor in the same state as `predict` would have. The
    /// default forwards to `predict` and reports
    /// [`PredictionAttribution::unattributed`], so implementing the
    /// channel is optional and the plain path never pays for it.
    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        (self.predict(pc), PredictionAttribution::unattributed())
    }

    /// Trains the predictor with the resolved outcome of the branch that
    /// was just predicted. `record.taken` is the true direction.
    fn update(&mut self, record: &BranchRecord);

    /// Erases the predictor's *history* state — global/folded/path
    /// registers, local-history tables, IMLI counters — while keeping
    /// its learned tables (counters, tags, useful bits, weights).
    ///
    /// This models a partial context-switch flush: an OS switch destroys
    /// the speculative fetch-engine state but leaves the large SRAM
    /// prediction tables (whose contents the incoming tenant then
    /// aliases into). A full flush is modeled by rebuilding the
    /// predictor from its configuration instead — see the scenario
    /// driver in `bp-sim`. Implementations must be allocation-free
    /// (zero existing buffers only), so scenario drive loops stay
    /// allocation-free in steady state, and must leave the predictor in
    /// a state it could have reached from construction (so subsequent
    /// predict/update behavior is well-defined). The default does
    /// nothing, which is exact for history-less predictors (bimodal).
    fn flush_history(&mut self) {}

    /// Reports a non-conditional branch (jump, call, return, indirect).
    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        let _ = record;
    }

    /// Drives this predictor through a block of records with the CBP
    /// protocol (predict/update conditionals, notify the rest),
    /// accumulating outcomes into `stats`.
    ///
    /// A provided method rather than a simulator-side loop so that each
    /// concrete predictor gets a *monomorphized* copy: when the
    /// simulator drives a `Box<dyn ConditionalPredictor>`, the loop
    /// body's `predict`/`update`/`notify_nonconditional` calls dispatch
    /// statically (and inline) inside the predictor's own copy, costing
    /// one virtual call per **block** instead of three per **record**.
    /// It defines the protocol, so implementations never override it.
    fn run_block(&mut self, block: &[BranchRecord], stats: &mut PredictorStats) {
        for record in block {
            if record.is_conditional() {
                let pred = self.predict(record.pc);
                stats.record(pred == record.taken);
                self.update(record);
            } else {
                self.notify_nonconditional(record);
            }
        }
    }

    /// A short human-readable configuration name, e.g. `"TAGE-GSC+IMLI"`.
    fn name(&self) -> &str;
}

/// Boxed predictors forward the whole protocol, so composed predictors
/// (e.g. the wormhole wrapper) can wrap a type-erased
/// `Box<dyn ConditionalPredictor + Send>` built from a configuration
/// value. `predict_attributed` forwards explicitly — falling back to
/// the trait default would silently drop the inner predictor's
/// attribution — and so does `run_block`, so a boxed drive runs the
/// inner predictor's monomorphized loop for one virtual call per block.
impl ConditionalPredictor for Box<dyn ConditionalPredictor + Send> {
    fn predict(&mut self, pc: u64) -> bool {
        (**self).predict(pc)
    }

    fn predict_attributed(&mut self, pc: u64) -> (bool, PredictionAttribution) {
        (**self).predict_attributed(pc)
    }

    fn update(&mut self, record: &BranchRecord) {
        (**self).update(record)
    }

    fn flush_history(&mut self) {
        (**self).flush_history()
    }

    fn notify_nonconditional(&mut self, record: &BranchRecord) {
        (**self).notify_nonconditional(record)
    }

    fn run_block(&mut self, block: &[BranchRecord], stats: &mut PredictorStats) {
        (**self).run_block(block, stats)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl StorageBudget for Box<dyn ConditionalPredictor + Send> {
    fn storage_items(&self) -> Vec<StorageItem> {
        (**self).storage_items()
    }
}

/// The trivial static predictor (predicts every branch taken). Useful as a
/// floor baseline and for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysTaken;

impl ConditionalPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64) -> bool {
        true
    }

    fn update(&mut self, _record: &BranchRecord) {}

    fn name(&self) -> &str {
        "always-taken"
    }
}

// bp-lint: allow-item(hot-path-alloc, "storage accounting is cold; never on the per-branch path")
impl StorageBudget for AlwaysTaken {
    fn storage_items(&self) -> Vec<StorageItem> {
        Vec::new()
    }
}

/// Running prediction accuracy statistics, maintained by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub predicted: u64,
    /// Conditional branches mispredicted.
    pub mispredicted: u64,
}

impl PredictorStats {
    /// Records one prediction outcome.
    #[inline]
    pub fn record(&mut self, correct: bool) {
        self.predicted += 1;
        if !correct {
            self.mispredicted += 1;
        }
    }

    /// Misprediction ratio in `[0, 1]`, or `None` before any prediction.
    pub fn misprediction_rate(&self) -> Option<f64> {
        (self.predicted != 0).then(|| self.mispredicted as f64 / self.predicted as f64)
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &PredictorStats) {
        self.predicted += other.predicted;
        self.mispredicted += other.mispredicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_behaviour() {
        let mut p = AlwaysTaken;
        assert!(p.predict(0x1234));
        p.update(&BranchRecord::conditional(0x1234, 0x1000, false));
        assert!(p.predict(0x1234), "static predictor never learns");
        assert_eq!(p.storage_bits(), 0);
        assert!(p.storage_items().is_empty());
        assert_eq!(p.name(), "always-taken");
    }

    #[test]
    fn default_attribution_is_unattributed_and_consistent() {
        let mut p = AlwaysTaken;
        let (pred, attr) = p.predict_attributed(0x40);
        assert!(pred);
        assert_eq!(attr, PredictionAttribution::unattributed());
    }

    #[test]
    fn stats_rates() {
        let mut s = PredictorStats::default();
        assert_eq!(s.misprediction_rate(), None);
        s.record(true);
        s.record(false);
        s.record(false);
        assert_eq!(s.predicted, 3);
        assert_eq!(s.mispredicted, 2);
        assert!((s.misprediction_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let mut t = PredictorStats::default();
        t.record(true);
        t.merge(&s);
        assert_eq!(t.predicted, 4);
        assert_eq!(t.mispredicted, 2);
    }

    #[test]
    fn default_notify_is_a_noop() {
        let mut p = AlwaysTaken;
        p.notify_nonconditional(&BranchRecord::call(0x10, 0x20));
    }
}
