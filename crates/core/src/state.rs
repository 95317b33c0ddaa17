//! The embeddable IMLI bundle and its speculative checkpoint.

use crate::config::ImliConfig;
use crate::counter::ImliCounter;
use crate::outer::{ImliOh, OuterHistory};
use crate::sic::ImliSic;
use bp_components::{StorageItem, SumComponent, SumCtx};
use bp_trace::BranchRecord;

/// Speculative checkpoint of the IMLI state: the counter and the PIPE
/// vector — **26 bits** in the paper's configuration (§4.4), versus the
/// per-in-flight-branch associative state a local-history or wormhole
/// predictor would need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImliCheckpoint {
    counter: u32,
    pipe: u16,
}

impl ImliCheckpoint {
    /// The IMLI counter value captured in this checkpoint.
    pub fn counter(&self) -> u32 {
        self.counter
    }

    /// The PIPE vector captured in this checkpoint.
    pub fn pipe(&self) -> u16 {
        self.pipe
    }
}

/// The complete IMLI mechanism as embedded in a host predictor: the
/// fetch-time counter, the outer-history structures, and the two
/// prediction components.
///
/// Host protocol, per conditional branch:
///
/// 1. [`fill_ctx`](ImliState::fill_ctx) before reading the summation
///    (loads `imli_count`, `Out[N-1][M]`, `Out[N-1][M-1]` into the
///    [`SumCtx`]);
/// 2. [`read`](ImliState::read) as part of the adder tree;
/// 3. on resolution, [`train`](ImliState::train) (gated by the host's
///    update threshold) and then [`observe`](ImliState::observe) exactly
///    once per branch (this writes the outer history and moves the
///    counter).
///
/// Non-conditional branches may be passed to `observe` too; they are
/// ignored, matching the paper's backward-*conditional* heuristic.
#[derive(Debug, Clone)]
pub struct ImliState {
    counter: ImliCounter,
    outer: OuterHistory,
    sic: Option<ImliSic>,
    oh: Option<ImliOh>,
    config: ImliConfig,
}

impl ImliState {
    /// Builds the bundle from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ImliConfig::check`].
    pub fn new(config: &ImliConfig) -> Self {
        config.check().unwrap_or_else(|e| panic!("{e}"));
        ImliState {
            counter: ImliCounter::new(config.counter_bits),
            outer: OuterHistory::new(
                config.outer_history_bits,
                config.pipe_bits,
                config.outer_history_update_delay,
            ),
            sic: config
                .sic_enabled
                .then(|| ImliSic::new(config.sic_entries, config.sic_counter_bits)),
            oh: config
                .oh_enabled
                .then(|| ImliOh::new(config.oh_entries, config.oh_counter_bits)),
            config: *config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ImliConfig {
        &self.config
    }

    /// Read-only access to the IMLI counter.
    pub fn counter(&self) -> &ImliCounter {
        &self.counter
    }

    /// Read-only access to the outer-history structures.
    pub fn outer_history(&self) -> &OuterHistory {
        &self.outer
    }

    /// Loads the IMLI fields of `ctx` for a prediction of the branch at
    /// `ctx.pc`.
    pub fn fill_ctx(&self, ctx: &mut SumCtx) {
        ctx.imli_count = self.counter.value();
        if self.config.oh_enabled {
            ctx.oh_same = self.outer.same_iteration(ctx.pc, ctx.imli_count);
            ctx.oh_prev = self.outer.previous_iteration(ctx.pc);
        } else {
            ctx.oh_same = false;
            ctx.oh_prev = false;
        }
    }

    /// Summed contribution of the enabled IMLI components.
    pub fn read(&self, ctx: &SumCtx) -> i32 {
        let mut sum = 0;
        if let Some(sic) = &self.sic {
            sum += sic.read(ctx);
        }
        if let Some(oh) = &self.oh {
            sum += oh.read(ctx);
        }
        sum
    }

    /// Trains the enabled components toward `taken`.
    pub fn train(&mut self, ctx: &SumCtx, taken: bool) {
        if let Some(sic) = &mut self.sic {
            sic.train(ctx, taken);
        }
        if let Some(oh) = &mut self.oh {
            oh.train(ctx, taken);
        }
    }

    /// Observes a resolved branch: writes the outer history (for
    /// conditionals, using the fetch-time counter value) and then applies
    /// the §4.1 counter heuristic. Call exactly once per branch record.
    pub fn observe(&mut self, record: &BranchRecord) {
        if record.is_conditional() {
            if self.config.oh_enabled {
                self.outer
                    .update(record.pc, self.counter.value(), record.taken);
            }
            self.counter.observe(record);
        }
    }

    /// Fetch-time (speculative) observation: advances only the IMLI
    /// counter, which is the structure a fetch engine updates with
    /// *predicted* directions (§4.2.1). Commit-time structures — the
    /// outer-history table and PIPE — are written by
    /// [`ImliState::observe`] when the branch retires, so wrong-path
    /// branches never touch them. A pipeline model calls this on the
    /// fetch path and repairs mispredictions with
    /// [`ImliState::restore`].
    pub fn observe_speculative(&mut self, record: &BranchRecord) {
        if record.is_conditional() {
            self.counter.observe(record);
        }
    }

    /// Takes the speculative checkpoint (counter + PIPE).
    pub fn checkpoint(&self) -> ImliCheckpoint {
        ImliCheckpoint {
            counter: self.counter.value(),
            pipe: self.outer.pipe(),
        }
    }

    /// Restores a checkpoint after a misprediction. The outer-history
    /// *bit table* is deliberately not restored: the paper shows precise
    /// management is unnecessary (§4.3.2) because the relevant branches
    /// sit in long loops whose previous-outer outcomes committed long ago.
    pub fn restore(&mut self, cp: &ImliCheckpoint) {
        self.counter.set(cp.counter);
        self.outer.set_pipe(cp.pipe);
    }

    /// Checkpoint width in bits (the paper's 10 + 16 = 26).
    pub fn checkpoint_bits(&self) -> u64 {
        self.config.checkpoint_bits()
    }

    /// Erases the fetch-engine history state (a context-switch flush):
    /// the IMLI counter and the outer-history PIPE both reset to 0. The
    /// outer-history *bit table* and SIC/OH prediction tables survive —
    /// the same asymmetry as [`ImliState::restore`] (§4.3.2): flushes
    /// model losing the in-flight fetch state, while learned SRAM
    /// content persists across the switch and aliases.
    pub fn flush_history(&mut self) {
        self.counter.set(0);
        self.outer.set_pipe(0);
    }

    /// Storage of the enabled structures in bits.
    pub fn storage_bits(&self) -> u64 {
        let mut bits = self.counter.bits() as u64;
        if let Some(sic) = &self.sic {
            bits += sic.storage_bits();
        }
        if let Some(oh) = &self.oh {
            bits += oh.storage_bits() + self.outer.storage_bits();
        }
        bits
    }

    /// Labels and sizes of the enabled components, for budget tables.
    pub fn budget_breakdown(&self) -> Vec<(String, u64)> {
        let mut parts = vec![("imli-counter".to_owned(), self.counter.bits() as u64)];
        if let Some(sic) = &self.sic {
            parts.push((sic.label().to_owned(), sic.storage_bits()));
        }
        if let Some(oh) = &self.oh {
            parts.push((oh.label().to_owned(), oh.storage_bits()));
            parts.push(("outer-history+pipe".to_owned(), self.outer.storage_bits()));
        }
        parts
    }

    /// [`budget_breakdown`](ImliState::budget_breakdown) as
    /// [`StorageItem`]s, for host predictors assembling their
    /// [`bp_components::StorageBudget`] itemization. Sums to exactly
    /// [`storage_bits`](ImliState::storage_bits).
    pub fn storage_items(&self) -> Vec<StorageItem> {
        self.budget_breakdown()
            .into_iter()
            .map(|(label, bits)| StorageItem::new(label, bits))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn backward(taken: bool) -> BranchRecord {
        BranchRecord::conditional(0x210, 0x200, taken)
    }

    fn body(pc: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, pc + 0x40, taken)
    }

    #[test]
    fn protocol_learns_diagonal_correlation() {
        // Out[N][M] = Out[N-1][M-1]: the wormhole-style correlation the
        // IMLI-OH component exists for. Simulate a 2-D nest of 32 inner
        // iterations with a pseudo-random diagonal pattern and check the
        // component predicts the body branch correctly once warm.
        let mut state = ImliState::new(&ImliConfig::default());
        let body_pc = 0x4008u64;
        let inner_trips = 32;
        let mut pattern: Vec<bool> = (0..inner_trips + 64).map(|i| (i * 7) % 3 == 0).collect();
        let mut correct = 0u32;
        let mut total = 0u32;
        for n in 0..200 {
            for m in 0..inner_trips {
                // Body branch: outcome = pattern shifted by outer index.
                let taken = pattern[m + 1];
                let mut ctx = SumCtx {
                    pc: body_pc,
                    ..SumCtx::default()
                };
                state.fill_ctx(&mut ctx);
                let pred = state.read(&ctx) >= 0;
                if n > 50 {
                    total += 1;
                    correct += u32::from(pred == taken);
                }
                state.train(&ctx, taken);
                state.observe(&body(body_pc, taken));
                // Inner loop backward branch.
                state.observe(&backward(m + 1 < inner_trips));
            }
            // Shift the pattern: next outer iteration sees it moved by 1,
            // so Out[N][M] == Out[N-1][M-1].
            pattern.rotate_left(1);
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(
            acc > 0.95,
            "IMLI-OH should nail the diagonal correlation, got {acc:.3}"
        );
    }

    #[test]
    fn counter_resets_across_outer_iterations() {
        let mut state = ImliState::new(&ImliConfig::default());
        for _ in 0..3 {
            state.observe(&backward(true));
        }
        assert_eq!(state.counter().value(), 3);
        state.observe(&backward(false));
        assert_eq!(state.counter().value(), 0);
    }

    #[test]
    fn checkpoint_restores_counter_and_pipe() {
        let mut state = ImliState::new(&ImliConfig::default());
        for _ in 0..5 {
            state.observe(&backward(true));
        }
        state.observe(&body(0x4008, true));
        let cp = state.checkpoint();
        assert_eq!(cp.counter(), 5);
        // Wrong path: counter moves, pipe may move.
        for _ in 0..20 {
            state.observe(&backward(true));
            state.observe(&body(0x4008, false));
        }
        state.restore(&cp);
        assert_eq!(state.counter().value(), 5);
        assert_eq!(state.outer_history().pipe(), cp.pipe());
        assert_eq!(state.checkpoint_bits(), 26);
    }

    #[test]
    fn storage_matches_config() {
        let state = ImliState::new(&ImliConfig::default());
        // Everything except the 6 rounding bits of the paper's "4 bytes
        // for PIPE + counter" line item.
        assert_eq!(state.storage_bits(), 10 + 3072 + 1536 + 1024 + 16);
        let breakdown = state.budget_breakdown();
        assert_eq!(breakdown.len(), 4);
        let total: u64 = breakdown.iter().map(|(_, b)| b).sum();
        assert_eq!(total, state.storage_bits());
    }

    #[test]
    fn disabled_components_cost_nothing_and_read_zero() {
        let sic_only = ImliState::new(&ImliConfig::sic_only());
        let ctx = SumCtx {
            pc: 0x40,
            ..SumCtx::default()
        };
        // SIC-only read is the single centered counter: odd, never 0.
        assert_eq!(sic_only.read(&ctx).abs() % 2, 1);
        assert_eq!(sic_only.storage_bits(), 10 + 3072);
        assert_eq!(sic_only.checkpoint_bits(), 10);

        let oh_only = ImliState::new(&ImliConfig::oh_only());
        assert_eq!(oh_only.storage_bits(), 10 + 1536 + 1024 + 16);
    }

    #[test]
    fn fill_ctx_without_oh_clears_bits() {
        let mut state = ImliState::new(&ImliConfig::sic_only());
        let mut ctx = SumCtx {
            pc: 0x40,
            oh_same: true,
            oh_prev: true,
            ..SumCtx::default()
        };
        state.observe(&backward(true));
        state.fill_ctx(&mut ctx);
        assert!(!ctx.oh_same && !ctx.oh_prev);
        assert_eq!(ctx.imli_count, 1);
    }

    proptest! {
        /// Checkpoint/restore always brings counter and PIPE back, for
        /// arbitrary branch streams.
        #[test]
        fn checkpoint_round_trips(
            good in proptest::collection::vec((any::<bool>(), 0u64..64), 0..100),
            wrong in proptest::collection::vec((any::<bool>(), 0u64..64), 0..100),
        ) {
            let mut state = ImliState::new(&ImliConfig::default());
            for &(taken, pcsel) in &good {
                let pc = 0x1000 + pcsel * 4;
                let target = if pcsel % 2 == 0 { pc - 0x100 } else { pc + 0x100 };
                state.observe(&BranchRecord::conditional(pc, target, taken));
            }
            let cp = state.checkpoint();
            for &(taken, pcsel) in &wrong {
                let pc = 0x1000 + pcsel * 4;
                let target = if pcsel % 2 == 0 { pc - 0x100 } else { pc + 0x100 };
                state.observe(&BranchRecord::conditional(pc, target, taken));
            }
            state.restore(&cp);
            prop_assert_eq!(state.counter().value(), cp.counter());
            prop_assert_eq!(state.outer_history().pipe(), cp.pipe());
        }
    }
}
