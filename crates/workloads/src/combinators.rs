//! Workload combinators: hostile traffic composed from quiet streams.
//!
//! The paper measures one benchmark at a time against a private
//! predictor; production predictors are *shared* — context switches
//! wipe fetch-engine state, co-scheduled tenants alias each other's PC
//! space, and a hostile tenant can steer its own branches. This module
//! composes existing [`BranchStream`]s into those scenarios:
//!
//! * [`interleave`] — N tenant streams mixed under a deterministic
//!   [`InterleaveSchedule`] (round-robin quanta or seeded bursts), each
//!   tenant's PCs rebased into a disjoint region
//!   ([`TENANT_PC_STRIDE`] apart) so cross-tenant aliasing happens
//!   structurally through table indexing, and every record tagged with
//!   its tenant id;
//! * [`context_switch`] — periodic [`FlushMode`] flush events injected
//!   into any event stream on instruction-count boundaries;
//! * [`Genome`] / [`AdversarialStream`] — seeded branch-pattern
//!   genomes, the adversarial tenants of `bp-sim` scenarios (the
//!   stream replays its genome exactly).
//!
//! Everything is a pure function of its inputs: no wall-clock, no
//! global state, no iteration-order dependence. The degenerate cases
//! collapse exactly — an interleave of one tenant replays the inner
//! stream record-for-record (tenant 0 has PC offset 0), and a
//! context-switch period longer than the stream never fires — which is
//! what lets the differential tests pin the combinator layer as a
//! no-op when degenerate.

use bp_trace::{BranchRecord, BranchStream};

/// PC-space distance between tenants under [`interleave`]: tenant `i`'s
/// records are rebased by `i * TENANT_PC_STRIDE`. Large enough (4 GiB)
/// that distinct tenants can never collide in raw addresses — any
/// cross-tenant interference goes through table index folding, the
/// destructive-aliasing channel the scenario axis exists to measure.
/// Tenant 0's offset is 0, which keeps the single-tenant interleave
/// bit-identical to its inner stream.
pub const TENANT_PC_STRIDE: u64 = 0x1_0000_0000;

/// Base of the PC region [`AdversarialStream`] emits branches in —
/// above every generated kernel region, below the first rebased tenant.
pub const ADVERSARIAL_PC_BASE: u64 = 0x6000_0000;

/// How a context switch wipes predictor state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// Erase history state only (global/folded/path registers, local
    /// histories, IMLI counters) and keep the learned tables — the
    /// `ConditionalPredictor::flush_history` contract. Models an OS
    /// switch where SRAM contents survive.
    Partial,
    /// Rebuild the predictor cold from its configuration: tables,
    /// histories, thresholds. Models a full state wipe (or a different
    /// core's predictor).
    Full,
}

impl FlushMode {
    /// Stable lower-case label (`"partial"` / `"full"`).
    pub fn label(&self) -> &'static str {
        match self {
            FlushMode::Partial => "partial",
            FlushMode::Full => "full",
        }
    }
}

/// One event of a scenario stream: a tenant's branch record, or a
/// context-switch flush point between records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// A branch record attributed to tenant `tenant` (an index into the
    /// interleave's input order; 0 for single-tenant streams).
    Record {
        /// The (PC-rebased) branch record.
        record: BranchRecord,
        /// Which tenant emitted it.
        tenant: u32,
    },
    /// Flush the predictor before consuming the next record.
    Flush(FlushMode),
}

/// A deterministic stream of [`ScenarioEvent`]s — the scenario twin of
/// [`BranchStream`]. Implementations must be pure functions of their
/// construction inputs (same inputs, same event sequence, every run).
pub trait EventStream {
    /// Scenario stream label.
    fn name(&self) -> &str;

    /// Pulls the next event, or `None` when every tenant is exhausted.
    fn next_event(&mut self) -> Option<ScenarioEvent>;

    /// Number of tenants events may reference (tenant ids are
    /// `0..tenant_count`).
    fn tenant_count(&self) -> u32;
}

/// Deterministic tenant schedule of an [`interleave`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterleaveSchedule {
    /// Tenants take fixed turns of `quantum` records each, in input
    /// order, skipping exhausted tenants.
    RoundRobin {
        /// Records served per turn (>= 1).
        quantum: u32,
    },
    /// A seeded xorshift generator picks the next tenant uniformly among
    /// the live ones and a burst length in `min..=max` records —
    /// deterministic for a fixed seed, but bursty like real
    /// co-scheduling.
    SeededBursts {
        /// Generator seed; the same seed reproduces the same schedule.
        seed: u64,
        /// Shortest burst in records (>= 1).
        min: u32,
        /// Longest burst in records (>= `min`).
        max: u32,
    },
}

/// xorshift64* step — the schedule's only randomness source: seeded,
/// deterministic, and free of global state.
#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Non-zero xorshift state from an arbitrary seed.
#[inline]
fn seed_state(seed: u64) -> u64 {
    let mixed = seed ^ 0x9E37_79B9_7F4A_7C15;
    if mixed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        mixed
    }
}

/// One tenant of an [`InterleavedStream`].
struct Tenant {
    stream: Box<dyn BranchStream + Send>,
    offset: u64,
    exhausted: bool,
}

/// N tenant streams mixed under a deterministic schedule — see
/// [`interleave`].
pub struct InterleavedStream {
    name: String,
    tenants: Vec<Tenant>,
    schedule: InterleaveSchedule,
    /// Tenant currently being served.
    current: usize,
    /// Records left in the current turn/burst.
    remaining: u32,
    /// Schedule RNG state (seeded-burst mode only).
    rng: u64,
    /// Non-exhausted tenants.
    live: usize,
}

/// Mixes `streams` into one multi-tenant scenario stream.
///
/// Tenant `i` (input order) has every record's `pc` and `target`
/// rebased by `i * `[`TENANT_PC_STRIDE`], and each emitted event is
/// tagged with the tenant id. Scheduling follows `schedule`; when a
/// tenant's stream ends, the schedule skips it and the remaining
/// tenants keep running until all are exhausted — so the combined
/// stream always carries every record of every tenant exactly once
/// (tenant-tally conservation, property-tested in bp-sim).
///
/// A single-tenant interleave is bit-identical to its inner stream:
/// tenant 0's offset is 0 and the schedule degenerates to pass-through.
///
/// # Panics
///
/// Panics if `streams` is empty, a round-robin quantum is 0, or a
/// seeded-burst range is empty/inverted.
// bp-lint: allow-item(hot-path-alloc, "scenario construction is cold; the per-event pull loop below is allocation-free (tests/hotpath_allocations.rs)")
pub fn interleave(
    streams: Vec<Box<dyn BranchStream + Send>>,
    schedule: InterleaveSchedule,
) -> InterleavedStream {
    assert!(!streams.is_empty(), "interleave needs at least one tenant");
    let rng = match schedule {
        InterleaveSchedule::RoundRobin { quantum } => {
            assert!(quantum >= 1, "round-robin quantum must be >= 1");
            0
        }
        InterleaveSchedule::SeededBursts { seed, min, max } => {
            assert!(
                min >= 1 && min <= max,
                "seeded-burst range must satisfy 1 <= min <= max"
            );
            seed_state(seed)
        }
    };
    let mut name = String::from("mix(");
    for (i, s) in streams.iter().enumerate() {
        if i > 0 {
            name.push('+');
        }
        name.push_str(s.name());
    }
    name.push(')');
    let live = streams.len();
    let tenants: Vec<Tenant> = streams
        .into_iter()
        .enumerate()
        .map(|(i, stream)| Tenant {
            stream,
            offset: i as u64 * TENANT_PC_STRIDE,
            exhausted: false,
        })
        .collect();
    let mut out = InterleavedStream {
        name,
        tenants,
        schedule,
        current: 0,
        remaining: 0,
        rng,
        live,
    };
    out.advance_schedule();
    out
}

impl InterleavedStream {
    /// Starts the next turn/burst on a live tenant. Caller guarantees
    /// `self.live > 0`.
    fn advance_schedule(&mut self) {
        debug_assert!(self.live > 0);
        match self.schedule {
            InterleaveSchedule::RoundRobin { quantum } => {
                // Next live tenant in input order, wrapping; `current`
                // itself is re-eligible only after a full cycle.
                let n = self.tenants.len();
                let mut next = (self.current + 1) % n;
                while self.tenants[next].exhausted {
                    next = (next + 1) % n;
                }
                self.current = next;
                self.remaining = quantum;
            }
            InterleaveSchedule::SeededBursts { min, max, .. } => {
                // Uniform pick among live tenants, then a burst length.
                let pick = (xorshift(&mut self.rng) % self.live as u64) as usize;
                let mut seen = 0usize;
                for (i, t) in self.tenants.iter().enumerate() {
                    if !t.exhausted {
                        if seen == pick {
                            self.current = i;
                            break;
                        }
                        seen += 1;
                    }
                }
                let span = u64::from(max - min) + 1;
                self.remaining = min + (xorshift(&mut self.rng) % span) as u32;
            }
        }
    }
}

impl EventStream for InterleavedStream {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_event(&mut self) -> Option<ScenarioEvent> {
        loop {
            if self.live == 0 {
                return None;
            }
            if self.remaining == 0 || self.tenants[self.current].exhausted {
                self.advance_schedule();
                continue;
            }
            let tenant = self.current;
            let t = &mut self.tenants[tenant];
            match t.stream.next_record() {
                Some(mut record) => {
                    record.pc += t.offset;
                    record.target += t.offset;
                    self.remaining -= 1;
                    return Some(ScenarioEvent::Record {
                        record,
                        tenant: tenant as u32,
                    });
                }
                None => {
                    t.exhausted = true;
                    self.live -= 1;
                    self.remaining = 0;
                }
            }
        }
    }

    fn tenant_count(&self) -> u32 {
        self.tenants.len() as u32
    }
}

/// A plain [`BranchStream`] lifted to a single-tenant [`EventStream`]
/// (tenant id 0, no PC rebase, no flushes).
pub struct SingleTenant<S> {
    inner: S,
}

impl<S: BranchStream> SingleTenant<S> {
    /// Wraps `inner` as tenant 0.
    pub fn new(inner: S) -> Self {
        SingleTenant { inner }
    }
}

impl<S: BranchStream> EventStream for SingleTenant<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_event(&mut self) -> Option<ScenarioEvent> {
        self.inner
            .next_record()
            .map(|record| ScenarioEvent::Record { record, tenant: 0 })
    }

    fn tenant_count(&self) -> u32 {
        1
    }
}

/// Periodic context-switch flushes injected into an event stream — see
/// [`context_switch`].
pub struct ContextSwitchStream<S> {
    inner: S,
    period: u64,
    mode: FlushMode,
    /// Instructions retired so far.
    instructions: u64,
    /// Next flush boundary in retired instructions.
    next_boundary: u64,
    /// A record pulled from the inner stream while a flush had to be
    /// emitted first.
    pending: Option<ScenarioEvent>,
}

/// Injects a [`FlushMode`] flush every `period` retired instructions
/// into `stream`.
///
/// The flush fires *between* records: before the first record at or
/// beyond each multiple of `period` retired instructions. One flush
/// fires per crossing, however many boundaries a long record skips
/// (the boundary then advances past the current total). A period
/// longer than the whole stream therefore never fires — equal to
/// no-flush, the degenerate case the property tests pin. Flush events
/// already present in `stream` pass through unchanged, so context
/// switches compose.
///
/// # Panics
///
/// Panics if `period` is 0.
pub fn context_switch<S: EventStream>(
    stream: S,
    period: u64,
    mode: FlushMode,
) -> ContextSwitchStream<S> {
    assert!(period > 0, "context-switch period must be positive");
    ContextSwitchStream {
        inner: stream,
        period,
        mode,
        instructions: 0,
        next_boundary: period,
        pending: None,
    }
}

impl<S: EventStream> EventStream for ContextSwitchStream<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_event(&mut self) -> Option<ScenarioEvent> {
        if let Some(ev) = self.pending.take() {
            return Some(ev);
        }
        let ev = self.inner.next_event()?;
        if let ScenarioEvent::Record { record, .. } = &ev {
            if self.instructions >= self.next_boundary {
                while self.next_boundary <= self.instructions {
                    self.next_boundary += self.period;
                }
                self.instructions += record.instructions();
                self.pending = Some(ev);
                return Some(ScenarioEvent::Flush(self.mode));
            }
            self.instructions += record.instructions();
        }
        Some(ev)
    }

    fn tenant_count(&self) -> u32 {
        self.inner.tenant_count()
    }
}

/// An [`EventStream`] viewed as a plain [`BranchStream`]: flush events
/// are dropped and tenant tags ignored. This is the record sequence a
/// flush-free scenario feeds the predictor — the differential tests
/// compare `simulate_stream` over this view against the scenario
/// runner's per-tenant sums.
pub struct EventRecords<S> {
    inner: S,
}

impl<S: EventStream> EventRecords<S> {
    /// Wraps `inner`, exposing only its records.
    pub fn new(inner: S) -> Self {
        EventRecords { inner }
    }
}

impl<S: EventStream> BranchStream for EventRecords<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_record(&mut self) -> Option<BranchRecord> {
        loop {
            match self.inner.next_event()? {
                ScenarioEvent::Record { record, .. } => return Some(record),
                ScenarioEvent::Flush(_) => continue,
            }
        }
    }
}

/// One gene of an adversarial genome: a static branch (a `slot` in the
/// adversarial PC region) replaying a fixed direction `pattern` of
/// `period` bits, cyclically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gene {
    /// Branch slot: PC = [`ADVERSARIAL_PC_BASE`]` + slot * 16`.
    pub slot: u8,
    /// Direction pattern, bit `i` = outcome of visit `i mod period`.
    pub pattern: u64,
    /// Pattern length in bits, `1..=64`.
    pub period: u8,
}

/// A branch-pattern genome: the plain-data description of an
/// adversarial stream. Replaying it ([`Genome::stream`]) is exact and
/// deterministic, so the stream is reproducible from the genome alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    /// The genes, visited round-robin by the stream.
    pub genes: Vec<Gene>,
}

impl Genome {
    /// A random genome of `genes` genes from `seed` (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `genes` is 0.
    // bp-lint: allow-item(hot-path-alloc, "genome construction is scenario setup, never on the predict/update path")
    pub fn seeded(seed: u64, genes: usize) -> Genome {
        assert!(genes > 0, "genome needs at least one gene");
        let mut state = seed_state(seed);
        let genes = (0..genes)
            .map(|_| Gene {
                slot: (xorshift(&mut state) % 64) as u8,
                pattern: xorshift(&mut state),
                period: (xorshift(&mut state) % 64 + 1) as u8,
            })
            .collect();
        Genome { genes }
    }

    /// Replays this genome as a branch stream of (at least)
    /// `instructions` retired instructions.
    ///
    /// # Panics
    ///
    /// Panics if any gene's period is outside `1..=64`.
    // bp-lint: allow-item(hot-path-alloc, "stream construction is cold; next_record below is allocation-free")
    pub fn stream(&self, instructions: u64) -> AdversarialStream {
        for gene in &self.genes {
            assert!(
                (1..=64).contains(&gene.period),
                "gene period must be in 1..=64"
            );
        }
        AdversarialStream {
            genes: self.genes.clone(),
            counts: self.genes.iter().map(|_| 0).collect(),
            pos: 0,
            instructions: 0,
            target: instructions,
        }
    }
}

/// Deterministic replay of a [`Genome`]: genes emit their branches
/// round-robin, each following its own cyclic pattern, one instruction
/// per record (maximum branch density — the hostile end of the CBP
/// instruction mix).
pub struct AdversarialStream {
    genes: Vec<Gene>,
    counts: Vec<u32>,
    pos: usize,
    instructions: u64,
    target: u64,
}

impl BranchStream for AdversarialStream {
    fn name(&self) -> &str {
        "adversarial"
    }

    fn next_record(&mut self) -> Option<BranchRecord> {
        if self.instructions >= self.target {
            return None;
        }
        let gene = self.genes[self.pos];
        let visit = self.counts[self.pos];
        self.counts[self.pos] = visit.wrapping_add(1);
        self.pos = (self.pos + 1) % self.genes.len();
        let taken = (gene.pattern >> (visit % u32::from(gene.period))) & 1 == 1;
        let pc = ADVERSARIAL_PC_BASE + u64::from(gene.slot) * 16;
        let record = BranchRecord::conditional(pc, pc + 64, taken);
        self.instructions += record.instructions();
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::cbp4_suite;
    use bp_trace::BranchStream;

    fn tenant_streams(n: usize, instructions: u64) -> Vec<Box<dyn BranchStream + Send>> {
        cbp4_suite()
            .iter()
            .take(n)
            .map(|spec| Box::new(spec.stream(instructions)) as Box<dyn BranchStream + Send>)
            .collect()
    }

    fn drain<S: EventStream>(mut s: S) -> Vec<ScenarioEvent> {
        let mut out = Vec::new();
        while let Some(ev) = s.next_event() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn single_tenant_interleave_is_the_inner_stream() {
        let spec = &cbp4_suite()[0];
        let plain: Vec<BranchRecord> = spec.stream(20_000).collect();
        let events = drain(interleave(
            tenant_streams(1, 20_000),
            InterleaveSchedule::RoundRobin { quantum: 7 },
        ));
        assert_eq!(events.len(), plain.len());
        for (ev, rec) in events.iter().zip(&plain) {
            match ev {
                ScenarioEvent::Record { record, tenant } => {
                    assert_eq!(record, rec, "tenant 0 must not be rebased");
                    assert_eq!(*tenant, 0);
                }
                ScenarioEvent::Flush(_) => panic!("interleave emits no flushes"),
            }
        }
    }

    #[test]
    fn interleave_is_deterministic_and_conserves_records() {
        for schedule in [
            InterleaveSchedule::RoundRobin { quantum: 16 },
            InterleaveSchedule::SeededBursts {
                seed: 42,
                min: 4,
                max: 96,
            },
        ] {
            let a = drain(interleave(tenant_streams(3, 15_000), schedule));
            let b = drain(interleave(tenant_streams(3, 15_000), schedule));
            assert_eq!(a, b, "{schedule:?} must be deterministic");

            // Every tenant's record sequence, extracted back out, is the
            // inner stream rebased: conservation of records.
            for t in 0..3u32 {
                let got: Vec<BranchRecord> = a
                    .iter()
                    .filter_map(|ev| match ev {
                        ScenarioEvent::Record { record, tenant } if *tenant == t => Some(*record),
                        _ => None,
                    })
                    .collect();
                let expected: Vec<BranchRecord> = cbp4_suite()[t as usize]
                    .stream(15_000)
                    .map(|mut r| {
                        r.pc += u64::from(t) * TENANT_PC_STRIDE;
                        r.target += u64::from(t) * TENANT_PC_STRIDE;
                        r
                    })
                    .collect();
                assert_eq!(got, expected, "tenant {t} under {schedule:?}");
            }
        }
    }

    #[test]
    fn round_robin_serves_fixed_quanta() {
        let events = drain(interleave(
            tenant_streams(2, 5_000),
            InterleaveSchedule::RoundRobin { quantum: 5 },
        ));
        // While both tenants are live, tenant ids come in runs of 5.
        let tenants: Vec<u32> = events
            .iter()
            .map(|ev| match ev {
                ScenarioEvent::Record { tenant, .. } => *tenant,
                ScenarioEvent::Flush(_) => unreachable!(),
            })
            .collect();
        for chunk in tenants.chunks(10).take(20) {
            if chunk.len() == 10 {
                assert_eq!(&chunk[..5], &[chunk[0]; 5]);
                assert_eq!(&chunk[5..], &[chunk[5]; 5]);
                assert_ne!(chunk[0], chunk[5]);
            }
        }
    }

    #[test]
    fn tenant_pc_regions_are_disjoint() {
        let events = drain(interleave(
            tenant_streams(3, 10_000),
            InterleaveSchedule::SeededBursts {
                seed: 7,
                min: 1,
                max: 32,
            },
        ));
        for ev in &events {
            if let ScenarioEvent::Record { record, tenant } = ev {
                let lo = u64::from(*tenant) * TENANT_PC_STRIDE;
                assert!(
                    record.pc >= lo && record.pc < lo + TENANT_PC_STRIDE,
                    "tenant {tenant} pc {:#x} outside its region",
                    record.pc
                );
            }
        }
    }

    #[test]
    fn context_switch_fires_on_period_boundaries() {
        let spec = &cbp4_suite()[0];
        let inner = SingleTenant::new(spec.stream(20_000));
        let events = drain(context_switch(inner, 5_000, FlushMode::Partial));
        let mut instructions = 0u64;
        let mut flushes = 0u64;
        let mut since_flush_start = 0u64;
        for ev in &events {
            match ev {
                ScenarioEvent::Record { record, .. } => {
                    instructions += record.instructions();
                    since_flush_start += record.instructions();
                }
                ScenarioEvent::Flush(mode) => {
                    assert_eq!(*mode, FlushMode::Partial);
                    assert!(
                        instructions >= (flushes + 1) * 5_000,
                        "flush {flushes} fired early at {instructions}"
                    );
                    flushes += 1;
                    since_flush_start = 0;
                }
            }
            // A flush is never overdue by more than one record's
            // instructions past its boundary.
            let _ = since_flush_start;
        }
        assert!(
            (3..=4).contains(&flushes),
            "~20k instructions / 5k period, got {flushes} flushes"
        );
    }

    #[test]
    fn period_longer_than_stream_never_flushes() {
        let spec = &cbp4_suite()[0];
        let with = drain(context_switch(
            SingleTenant::new(spec.stream(8_000)),
            1_000_000,
            FlushMode::Full,
        ));
        let without = drain(SingleTenant::new(spec.stream(8_000)));
        assert_eq!(with, without);
    }

    #[test]
    fn context_switches_compose() {
        // Inner flushes pass through an outer context_switch unchanged.
        let spec = &cbp4_suite()[0];
        let inner = context_switch(
            SingleTenant::new(spec.stream(12_000)),
            4_000,
            FlushMode::Partial,
        );
        let events = drain(context_switch(inner, 6_000, FlushMode::Full));
        let partial = events
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::Flush(FlushMode::Partial)))
            .count();
        let full = events
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::Flush(FlushMode::Full)))
            .count();
        assert!(partial >= 2, "inner flushes survived: {partial}");
        assert!(full >= 1, "outer flushes injected: {full}");
    }

    #[test]
    fn event_records_view_drops_flushes_only() {
        let spec = &cbp4_suite()[0];
        let plain: Vec<BranchRecord> = spec.stream(10_000).collect();
        let viewed: Vec<BranchRecord> = {
            let mut view = EventRecords::new(context_switch(
                SingleTenant::new(spec.stream(10_000)),
                2_000,
                FlushMode::Partial,
            ));
            let mut out = Vec::new();
            while let Some(r) = view.next_record() {
                out.push(r);
            }
            out
        };
        assert_eq!(viewed, plain);
    }

    #[test]
    fn genome_replay_is_deterministic_and_seed_sensitive() {
        let g = Genome::seeded(1234, 8);
        assert_eq!(g, Genome::seeded(1234, 8));
        assert_ne!(g, Genome::seeded(1235, 8));
        let a: Vec<BranchRecord> = {
            let mut s = g.stream(5_000);
            std::iter::from_fn(move || s.next_record()).collect()
        };
        let b: Vec<BranchRecord> = {
            let mut s = g.stream(5_000);
            std::iter::from_fn(move || s.next_record()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000, "one instruction per record");
        assert!(a.iter().all(|r| r.is_conditional()));
        assert!(a.iter().all(|r| r.pc >= ADVERSARIAL_PC_BASE));
    }

    #[test]
    fn gene_pattern_cycles_exactly() {
        let g = Genome {
            genes: vec![Gene {
                slot: 3,
                pattern: 0b101,
                period: 3,
            }],
        };
        let mut s = g.stream(9);
        let taken: Vec<bool> = std::iter::from_fn(|| s.next_record())
            .map(|r| r.taken)
            .collect();
        assert_eq!(
            taken,
            vec![true, false, true, true, false, true, true, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_interleave_rejected() {
        let _ = interleave(Vec::new(), InterleaveSchedule::RoundRobin { quantum: 1 });
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let spec = &cbp4_suite()[0];
        let _ = context_switch(SingleTenant::new(spec.stream(100)), 0, FlushMode::Full);
    }
}
