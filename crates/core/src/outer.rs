//! The IMLI-OH (Outer History) component (paper §4.3).

use bp_components::{fold_u64, mix64, pc_bits, SignedCounterTable, SumComponent, SumCtx};
use std::collections::VecDeque;

/// The outer-history bit table and its PIPE vector.
///
/// For a branch `B` at inner iteration `M` (the IMLI counter value), the
/// outcome is stored at `(hash(B) << log2(iterations)) + M` in a small bit
/// table (1 Kbit by default, tracking 16 static branches × 64 iterations).
/// Reading that slot *before* it is overwritten yields `Out[N-1][M]` — the
/// outcome of the same branch at the same inner iteration in the
/// *previous outer iteration*.
///
/// `Out[N-1][M-1]` would already be overwritten by `Out[N][M-1]`, so when
/// the update of iteration `M-1` overwrites the slot, the *previous*
/// content moves into the PIPE (Previous Inner iteration in Previous
/// External iteration) vector, one bit per tracked branch.
///
/// Speculation (paper §4.3.2): only the 16-bit PIPE vector needs
/// checkpointing; the bit table tolerates stale reads because the
/// branches that benefit sit in long-running loops whose previous-outer
/// outcomes committed long ago. The `delay` argument of
/// [`OuterHistory::new`] models that commit delay explicitly.
#[derive(Debug, Clone)]
pub struct OuterHistory {
    table: Vec<u64>,
    pipe: u16,
    pipe_mask: u32,
    iter_shift: u32,
    iter_mask: u32,
    table_mask: u32,
    delay: usize,
    pending: VecDeque<(u32, u32, bool)>,
}

impl OuterHistory {
    /// Creates an outer-history structure of `table_bits` outcome bits
    /// shared by `pipe_bits` tracked static branches, with updates applied
    /// after `delay` subsequent conditional branches (0 = immediate).
    ///
    /// # Panics
    ///
    /// Panics if the sizes are not powers of two, `table_bits < 64`, or
    /// `pipe_bits` exceeds 16 or `table_bits`.
    // bp-lint: allow-item(hot-path-alloc, "bit-table construction is cold, once per predictor; lookups and updates are allocation-free (tests/hotpath_allocations.rs)")
    pub fn new(table_bits: usize, pipe_bits: usize, delay: usize) -> Self {
        assert!(
            table_bits.is_power_of_two() && table_bits >= 64,
            "table size must be a power of two >= 64"
        );
        assert!(
            pipe_bits.is_power_of_two() && pipe_bits <= 16 && pipe_bits <= table_bits,
            "pipe width must be a power of two <= 16 and <= table size"
        );
        let iterations = table_bits / pipe_bits;
        OuterHistory {
            table: vec![0; table_bits / 64],
            pipe: 0,
            pipe_mask: pipe_bits as u32 - 1,
            iter_shift: iterations.trailing_zeros(),
            iter_mask: iterations as u32 - 1,
            table_mask: table_bits as u32 - 1,
            delay,
            pending: VecDeque::new(),
        }
    }

    /// Hash of a branch PC onto a tracked-branch slot: straight-line
    /// code, read three times per branch (two lookups and the update).
    #[inline]
    fn branch_slot(&self, pc: u64) -> u32 {
        (fold_u64(pc_bits(pc), 4) as u32) & self.pipe_mask
    }

    #[inline]
    fn bit_index(&self, slot: u32, imli: u32) -> u32 {
        ((slot << self.iter_shift) | (imli & self.iter_mask)) & self.table_mask
    }

    #[inline]
    fn read_bit(&self, idx: u32) -> bool {
        (self.table[(idx / 64) as usize] >> (idx % 64)) & 1 == 1
    }

    #[inline]
    fn write_bit(&mut self, idx: u32, v: bool) {
        let word = (idx / 64) as usize;
        let bit = idx % 64;
        if v {
            self.table[word] |= 1 << bit;
        } else {
            self.table[word] &= !(1 << bit);
        }
    }

    /// `Out[N-1][M]` for branch `pc` at inner iteration `imli`.
    #[inline]
    pub fn same_iteration(&self, pc: u64, imli: u32) -> bool {
        let slot = self.branch_slot(pc);
        self.read_bit(self.bit_index(slot, imli))
    }

    /// `Out[N-1][M-1]` for branch `pc` (from the PIPE vector).
    #[inline]
    pub fn previous_iteration(&self, pc: u64) -> bool {
        (self.pipe >> self.branch_slot(pc)) & 1 == 1
    }

    /// Records the resolved outcome of branch `pc` at inner iteration
    /// `imli`.
    ///
    /// The PIPE move is *fetch-side* state (paper §4.3.1): the engine
    /// saves the about-to-be-overwritten `Out[N-1][M]` into the PIPE the
    /// moment it processes iteration `M`, so the next iteration can still
    /// read `Out[N-1][M-1]` even though the bit-table *write* of
    /// `Out[N][M]` is a commit-side operation. With a configured delay
    /// the write is therefore queued and lands only after `delay` further
    /// calls (§4.3.2's large-instruction-window model), while the PIPE
    /// updates immediately.
    pub fn update(&mut self, pc: u64, imli: u32, taken: bool) {
        let slot = self.branch_slot(pc);
        let idx = self.bit_index(slot, imli);
        // Fetch-side: move the previous-outer outcome into the PIPE now.
        let previous = self.read_bit(idx);
        self.pipe = (self.pipe & !(1 << slot)) | (u16::from(previous) << slot);
        if self.delay == 0 {
            self.write_bit(idx, taken);
        } else {
            self.pending.push_back((slot, idx, taken));
            while self.pending.len() > self.delay {
                let (_, i, t) = self.pending.pop_front().expect("non-empty queue");
                self.write_bit(i, t);
            }
        }
    }

    /// The raw PIPE vector (the checkpointed speculative state).
    #[inline]
    pub fn pipe(&self) -> u16 {
        self.pipe
    }

    /// Restores the PIPE vector from a checkpoint.
    pub fn set_pipe(&mut self, pipe: u16) {
        self.pipe = pipe;
    }

    /// Iterations tracked per branch.
    pub fn iterations_per_branch(&self) -> usize {
        self.iter_mask as usize + 1
    }

    /// Storage in bits: bit table + PIPE vector.
    pub fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 64 + u64::from(self.pipe_mask) + 1
    }
}

/// The IMLI-OH prediction component: a signed-counter table indexed with
/// the PC hashed with `Out[N-1][M]` and `Out[N-1][M-1]` (paper Figure 12).
///
/// The two outer-history bits arrive through [`SumCtx::oh_same`] and
/// [`SumCtx::oh_prev`], filled by the host from [`OuterHistory`]. Because
/// the bits *select* the counter rather than feed a fixed weight, the
/// component learns identity (`Out[N][M] = Out[N-1][M-1]`, the paper's
/// SPEC2K6-12/CLIENT02/MM07 cases) and inversion
/// (`Out[N][M] = 1 - Out[N-1][M]`, the MM-4 case) equally well.
#[derive(Debug, Clone)]
pub struct ImliOh {
    table: SignedCounterTable,
}

impl ImliOh {
    /// Creates the prediction table with `entries` counters of `bits`
    /// width (paper: 256 × 6 bits).
    ///
    /// # Panics
    ///
    /// Panics under [`SignedCounterTable::new`]'s conditions.
    pub fn new(entries: usize, bits: usize) -> Self {
        ImliOh {
            table: SignedCounterTable::new(entries, bits),
        }
    }

    #[inline]
    fn index(ctx: &SumCtx) -> u64 {
        let key = pc_bits(ctx.pc) ^ (u64::from(ctx.oh_same) << 61) ^ (u64::from(ctx.oh_prev) << 62);
        mix64(key)
    }
}

impl SumComponent for ImliOh {
    fn read(&self, ctx: &SumCtx) -> i32 {
        self.table.read(Self::index(ctx))
    }

    fn train(&mut self, ctx: &SumCtx, taken: bool) {
        self.table.train(Self::index(ctx), taken);
    }

    fn storage_bits(&self) -> u64 {
        self.table.storage_bits()
    }

    fn label(&self) -> &str {
        "imli-oh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_iteration_survives_one_outer_iteration() {
        let mut oh = OuterHistory::new(1024, 16, 0);
        let pc = 0x4004;
        // Outer iteration N-1: record outcomes for iterations 0..8.
        for m in 0..8 {
            oh.update(pc, m, m % 3 == 0);
        }
        // Outer iteration N: before updating slot m, we read Out[N-1][m].
        for m in 0..8 {
            assert_eq!(oh.same_iteration(pc, m), m % 3 == 0);
            oh.update(pc, m, false);
        }
    }

    #[test]
    fn pipe_holds_previous_inner_iteration() {
        let mut oh = OuterHistory::new(1024, 16, 0);
        let pc = 0x4004;
        for m in 0..4 {
            oh.update(pc, m, m == 2); // N-1 outcomes: F F T F
        }
        // Outer iteration N: at iteration m, PIPE must hold Out[N-1][m-1].
        for m in 0..4u32 {
            if m > 0 {
                assert_eq!(oh.previous_iteration(pc), m - 1 == 2, "PIPE wrong at m={m}");
            }
            oh.update(pc, m, false);
        }
    }

    #[test]
    fn distinct_branches_use_distinct_slots() {
        let mut oh = OuterHistory::new(1024, 16, 0);
        // Find two PCs with different slots.
        let a = 0x4000u64;
        let mut b = 0x4004u64;
        while oh.branch_slot(b) == oh.branch_slot(a) {
            b += 4;
        }
        oh.update(a, 0, true);
        oh.update(b, 0, false);
        assert!(oh.same_iteration(a, 0));
        assert!(!oh.same_iteration(b, 0));
    }

    #[test]
    fn delayed_updates_land_after_delay() {
        let mut oh = OuterHistory::new(1024, 16, 3);
        let pc = 0x40;
        oh.update(pc, 0, true);
        assert!(!oh.same_iteration(pc, 0), "update still pending");
        oh.update(pc, 1, true);
        oh.update(pc, 2, true);
        oh.update(pc, 3, true); // queue exceeds delay: first write lands
        assert!(oh.same_iteration(pc, 0));
        assert!(!oh.same_iteration(pc, 3));
    }

    #[test]
    fn geometry_and_storage() {
        let oh = OuterHistory::new(1024, 16, 0);
        assert_eq!(oh.iterations_per_branch(), 64);
        assert_eq!(oh.storage_bits(), 1024 + 16);
    }

    #[test]
    fn imli_counter_wraps_within_branch_region() {
        let mut oh = OuterHistory::new(1024, 16, 0);
        let pc = 0x4004;
        // Iteration 64 aliases iteration 0 for this branch — by design,
        // the table covers 64 iterations.
        oh.update(pc, 64, true);
        assert!(oh.same_iteration(pc, 0));
    }

    #[test]
    fn oh_component_learns_inversion() {
        // Out[N][M] = !Out[N-1][M]: counter indexed by oh_same learns the
        // inverted mapping.
        let mut oh = ImliOh::new(256, 6);
        let mut ctx = SumCtx {
            pc: 0x400,
            ..SumCtx::default()
        };
        for round in 0..50 {
            ctx.oh_same = round % 2 == 0;
            let taken = !ctx.oh_same;
            oh.train(&ctx, taken);
        }
        ctx.oh_same = true;
        assert!(oh.read(&ctx) < 0);
        ctx.oh_same = false;
        assert!(oh.read(&ctx) > 0);
        assert_eq!(oh.label(), "imli-oh");
        assert_eq!(oh.storage_bits(), 256 * 6);
    }

    #[test]
    #[should_panic(expected = "pipe width")]
    fn rejects_oversized_pipe() {
        let _ = OuterHistory::new(1024, 32, 0);
    }
}

#[cfg(test)]
mod delay_semantics_tests {
    use super::*;

    /// §4.3.1/§4.3.2: the PIPE is fetch-side state — it must expose
    /// `Out[N-1][M-1]` immediately even while the bit-table writes are
    /// commit-delayed.
    #[test]
    fn pipe_is_fetch_side_under_delay() {
        let mut immediate = OuterHistory::new(1024, 16, 0);
        let mut delayed = OuterHistory::new(1024, 16, 7);
        let pc = 0x4004;
        // One full outer iteration trains both tables identically once
        // the delayed queue drains.
        for m in 0..16 {
            immediate.update(pc, m, m % 3 == 0);
            delayed.update(pc, m, m % 3 == 0);
        }
        // Second outer iteration: before each update, the PIPE views
        // must agree (fetch-side), even though the delayed machine's
        // table writes lag by 7.
        for m in 0..8 {
            assert_eq!(
                immediate.previous_iteration(pc),
                delayed.previous_iteration(pc),
                "PIPE diverged at inner iteration {m}"
            );
            immediate.update(pc, m, m % 5 == 0);
            delayed.update(pc, m, m % 5 == 0);
        }
    }

    /// With a delay shorter than the outer period, the same-iteration
    /// read still returns the previous outer iteration's outcome (the
    /// write from one outer iteration ago has landed by then).
    #[test]
    fn same_iteration_reads_survive_short_delay() {
        let trip = 32u32;
        let mut oh = OuterHistory::new(1024, 16, 8); // 8 << 32
        let pc = 0x4004;
        let out = |n: u32, m: u32| (n * 31 + m * 7) % 5 < 2;
        for n in 0..4 {
            for m in 0..trip {
                if n > 0 {
                    assert_eq!(
                        oh.same_iteration(pc, m),
                        out(n - 1, m),
                        "stale read at outer {n}, inner {m}"
                    );
                }
                oh.update(pc, m, out(n, m));
            }
        }
    }

    /// With a delay *longer* than the outer period the reads go stale by
    /// a full outer iteration — the regime the paper excludes by noting
    /// OH-benefitting branches sit in long loops.
    #[test]
    fn same_iteration_reads_go_stale_past_outer_period() {
        let trip = 8u32;
        let mut oh = OuterHistory::new(1024, 16, 64); // 64 >> 8
        let pc = 0x4004;
        for n in 0..3u32 {
            for m in 0..trip {
                oh.update(pc, m, n == 1 && m == 3);
            }
        }
        // The outer-2 reads would want outer-1 data, but nothing from
        // outer 1 has committed yet.
        assert!(
            !oh.same_iteration(pc, 3),
            "write must still be in the commit queue"
        );
    }
}
