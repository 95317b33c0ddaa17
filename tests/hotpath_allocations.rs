//! Allocation-regression guard for the simulator hot path.
//!
//! The steady-state predict/update loop runs once per conditional
//! branch — millions of times per MPKI point — and must never touch
//! the heap: per-branch `Vec`s and lookup clones are exactly the
//! regressions this PR removed (`TageLookup` used to allocate two
//! `Vec`s *and* clone itself on every branch). A counting global
//! allocator wraps the system allocator; after warmup, a measured
//! window of predict/update/notify calls must perform **zero**
//! allocations for every predictor the acceptance criteria name.

use imli_repro::sim::{event_blocks, lookup, make_predictor, scenario_by_name, Column, Counts};
use imli_repro::workloads::{cbp4_suite, EventStream, ScenarioEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation entering the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through wrapper around the `System` allocator
// plus a relaxed atomic increment; every GlobalAlloc contract
// obligation (layout validity, pointer provenance) is delegated
// unchanged to `System`, which upholds it.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller obligations forwarded verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, passed
        // through unchanged; `ptr` was produced by this same allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller obligations forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (`System` underneath)
        // with the same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One test drives all predictors sequentially: the counter is global,
/// so concurrent tests in this binary would alias each other's counts.
#[test]
fn steady_state_predict_update_is_allocation_free() {
    // Materialize the record stream *before* any measurement so the
    // driving loop itself cannot allocate.
    let spec = &cbp4_suite()[0];
    let records: Vec<_> = spec.stream(400_000).collect();
    let (warmup, measured) = records.split_at(records.len() / 2);
    assert!(measured.len() > 20_000, "need a real measurement window");

    // The three the acceptance criteria name, plus the other hosts
    // whose per-branch paths this PR de-allocated (IMLI variants reach
    // a steady outer-history queue depth during warmup).
    for name in [
        "tage-sc-l",
        "gshare",
        "perceptron",
        "gehl",
        "tage-sc-l+imli",
        "bimodal",
    ] {
        let mut predictor = make_predictor(name).expect("registered");
        let mut drive = |window: &[imli_repro::trace::BranchRecord]| -> u64 {
            let mut predicted = 0u64;
            for record in window {
                if record.is_conditional() {
                    let _ = predictor.predict(record.pc);
                    predictor.update(record);
                    predicted += 1;
                } else {
                    predictor.notify_nonconditional(record);
                }
            }
            predicted
        };
        drive(warmup);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let predicted = drive(measured);
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(predicted > 10_000, "{name}: window exercised the hot path");
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state predict/update allocated {} times over {} branches",
            after - before,
            predicted
        );
    }

    // The same guarantee for the per-predictor block loop the drive
    // runs on a solo host, in simulator-sized blocks: the monomorphized
    // `ConditionalPredictor::run_block`, driven here for one host of
    // each table-backed family.
    for name in [
        "tage-sc-l",
        "tage-sc-l+imli",
        "gehl",
        "ftl+imli",
        "perceptron+imli",
    ] {
        let mut predictor = make_predictor(name).expect("registered");
        let mut stats = imli_repro::components::PredictorStats::default();
        for block in warmup.chunks(4096) {
            predictor.run_block(block, &mut stats);
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for block in measured.chunks(4096) {
            predictor.run_block(block, &mut stats);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(stats.predicted > 20_000, "{name}: run_block ran");
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state run_block allocated {} times",
            after - before,
        );
    }

    // The first history push after `flush_history()` re-reads every long
    // fold's eviction window (the stale-window path of
    // `HistoryState::push`). Flushing before every branch sends each
    // measured push down that path; it refills buffers sized when the
    // folds were registered, so it must not allocate either.
    for name in ["tage-sc-l", "gehl", "perceptron"] {
        let mut predictor = make_predictor(name).expect("registered");
        for record in warmup.iter().filter(|r| r.is_conditional()) {
            let _ = predictor.predict(record.pc);
            predictor.update(record);
        }

        let mut refills = 0u64;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for record in measured.iter().filter(|r| r.is_conditional()).take(5_000) {
            predictor.flush_history();
            let _ = predictor.predict(record.pc);
            predictor.update(record);
            refills += 1;
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert_eq!(refills, 5_000, "{name}: every push followed a flush");
        assert_eq!(
            after - before,
            0,
            "{name}: {refills} pushes right after flush_history allocated {} times",
            after - before,
        );
    }

    // A fused column with shared TAGE lanes: five TAGE-SC variants on
    // one TAGE front beside a solo host, through the one block drive
    // (`Column::drive`) with the plain observer and with the
    // warmup/steady attribution observer. Lane state is sized when the
    // column is built and the observers when they are made, so neither
    // drive may allocate afterwards.
    {
        use imli_repro::sim::Phases;

        let specs: Vec<_> = [
            "tage-gsc",
            "tage-gsc+sic",
            "tage-gsc+imli",
            "tage-sc-l",
            "tage-sc-l+imli",
            "gehl+imli",
        ]
        .iter()
        .map(|n| lookup(n).expect("registered"))
        .collect();
        let mut plain = Column::build(&specs);
        let mut counts = Counts::new(specs.len());
        plain.drive(&mut &warmup[..], &mut counts);
        let mut blocks = measured;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        plain.drive(&mut blocks, &mut counts);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(counts.0.iter().all(|s| s.predicted > 20_000), "column ran");
        assert_eq!(
            after - before,
            0,
            "shared-lane column plain drive allocated {} times",
            after - before
        );

        let mut attributed = Column::build(&specs);
        attributed.drive(&mut &warmup[..], &mut Phases::new(specs.len(), 0));
        // The measured window splits into both phases.
        let boundary = measured.iter().map(|r| r.instructions()).sum::<u64>() / 2;
        let mut phases = Phases::new(specs.len(), boundary);
        let mut blocks = measured;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let totals = attributed.drive(&mut blocks, &mut phases);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        let runs = attributed.finish(phases, "measured", &totals);
        assert!(
            runs.iter()
                .all(|r| r.warmup.stats.predicted > 10_000 && r.steady.stats.predicted > 10_000),
            "both phases ran"
        );
        assert!(
            runs[..5]
                .iter()
                .all(|r| r.steady.attribution.get("corrector").is_some()),
            "lanes attributed"
        );
        assert_eq!(
            after - before,
            0,
            "shared-lane column phased drive allocated {} times",
            after - before
        );
    }

    // The attribution tally: the first prediction a component ever
    // provides fills its slot, and must not allocate (a map-backed
    // tally would allocate a node there).
    {
        use imli_repro::components::{ConfidenceBucket, PredictionAttribution, ProviderComponent};
        use imli_repro::sim::AttributionSummary;

        let components = [
            ProviderComponent::Unattributed,
            ProviderComponent::Base,
            ProviderComponent::Tagged(0),
            ProviderComponent::Tagged(11),
            ProviderComponent::Corrector,
            ProviderComponent::Neural,
            ProviderComponent::Loop,
            ProviderComponent::Wormhole,
        ];
        let mut summary = AttributionSummary::default();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for (i, &component) in components.iter().enumerate() {
            let attribution =
                PredictionAttribution::new(component, Some(i % 2 == 0), ConfidenceBucket::High);
            summary.record(&attribution, i % 3 == 0, true);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(summary.components().count(), 7, "every key tallied");
        assert_eq!(
            after - before,
            0,
            "AttributionSummary::record allocated {} times filling fresh slots",
            after - before
        );
    }

    // The scenario drive: multi-tenant records plus partial
    // context-switch flushes, through the one block drive with the
    // per-tenant observer, exactly as `simulate_scenario_multi` runs it.
    // The events are materialized up front (event *generation* may
    // allocate; consuming them must not), and partial flushes go
    // through `flush_history()`, which is required to reuse the
    // predictor's existing buffers. Full flushes rebuild the predictor
    // and are allocating by design, so they are excluded here. The
    // tallies start empty at the measured window, so it includes each
    // component's first provided prediction.
    {
        use imli_repro::sim::Tenants;

        let scenario = scenario_by_name("paper_switch").expect("builtin");
        let mut events = scenario.events();
        let mut all: Vec<ScenarioEvent> = Vec::new();
        while let Some(ev) = events.next_event() {
            all.push(ev);
        }
        let (warmup_events, measured_events) = all.split_at(all.len() / 2);
        let tenants = scenario.tenants.len();
        for name in ["tage-sc-l", "tage-gsc+imli", "gehl+imli"] {
            let specs = [lookup(name).expect("registered")];
            let mut column = Column::build(&specs);
            let mut warm = Replay::new(warmup_events, tenants);
            column.drive(&mut event_blocks(&mut warm), &mut Tenants::new(1, tenants));

            let mut tallies = Tenants::new(1, tenants);
            let mut window = Replay::new(measured_events, tenants);
            let mut blocks = event_blocks(&mut window);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let totals = column.drive(&mut blocks, &mut tallies);
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            drop(blocks);

            let run = &column.finish(tallies, "", &totals)[0];
            let predicted = run.stats.predicted;
            let flushes = totals.flushes;
            assert_eq!(
                run.tenants
                    .iter()
                    .map(|t| t.attribution.total_provided())
                    .sum::<u64>(),
                predicted,
                "{name}: every measured prediction was tallied"
            );
            assert!(
                run.tenants.iter().all(|t| t.stats.predicted > 0),
                "{name}: every tenant ran"
            );
            assert!(
                predicted > 20_000,
                "{name}: scenario window drove the hot path"
            );
            assert!(flushes > 0, "{name}: the window crossed flush boundaries");
            assert_eq!(
                after - before,
                0,
                "{name}: steady-state scenario drive (incl. {flushes} partial flushes) \
                 allocated {} times over {predicted} branches",
                after - before,
            );
        }
    }
}

/// A materialized window of scenario events, replayed as a stream.
struct Replay<'a> {
    events: std::slice::Iter<'a, ScenarioEvent>,
    tenants: u32,
}

impl<'a> Replay<'a> {
    fn new(events: &'a [ScenarioEvent], tenants: usize) -> Self {
        Replay {
            events: events.iter(),
            tenants: tenants as u32,
        }
    }
}

impl EventStream for Replay<'_> {
    fn name(&self) -> &str {
        "replay"
    }

    fn next_event(&mut self) -> Option<ScenarioEvent> {
        self.events.next().copied()
    }

    fn tenant_count(&self) -> u32 {
        self.tenants
    }
}
