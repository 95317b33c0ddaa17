//! Behavioral contract of the content-addressed result cache:
//!
//! * **Differential**: grid, report, and scenario outputs are
//!   bit-identical with the cache off, cold, and warm, across worker
//!   counts — over every registry configuration;
//! * **Key identity**: the cache key depends on config text, workload,
//!   and budgets only — never on worker count or predictor-list order
//!   — and separates every registry configuration and budget change;
//!   the engine keys each cell exactly as the public per-cell builders
//!   do;
//! * **Verify-then-trust**: truncated, bit-flipped, or wrong-key
//!   entries are silently recomputed (and repaired), never trusted and
//!   never fatal;
//! * **Partial warmth**: a cache holding only some cells runs only the
//!   rest, computes a same-config twin once, and reports progress
//!   exactly once per cell.

use imli_repro::cache::{CacheKey, CacheStore};
use imli_repro::components::PredictorConfig as _;
use imli_repro::sim::{
    grid_cell_key, lookup, registry, report_cell_key, run_report_with_cache,
    run_scenario_with_cache, scenario_by_name, scenario_cell_key, scenario_report_predictors,
    CachePolicy, CellUpdate, Engine, GridStrategy, PredictorSpec, SimCache,
};
use imli_repro::workloads::{cbp4_suite, BenchmarkSpec};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const INSTR: u64 = 10_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-cache-behavior-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn nuke(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn benchmarks() -> Vec<BenchmarkSpec> {
    cbp4_suite().into_iter().take(2).collect()
}

/// Every `.json` entry file under the store, as sorted
/// store-relative paths — the cache's on-disk identity.
fn entry_files(root: &Path) -> BTreeSet<String> {
    let mut files = BTreeSet::new();
    let Ok(prefixes) = std::fs::read_dir(root) else {
        return files;
    };
    for prefix in prefixes.flatten() {
        let Ok(entries) = std::fs::read_dir(prefix.path()) else {
            continue;
        };
        for entry in entries.flatten() {
            files.insert(format!(
                "{}/{}",
                prefix.file_name().to_string_lossy(),
                entry.file_name().to_string_lossy()
            ));
        }
    }
    files
}

#[test]
fn grid_bit_identical_off_cold_warm_across_jobs_every_config() {
    let predictors = registry();
    let benchmarks = benchmarks();
    let dir = scratch("grid-diff");
    let baseline = Engine::with_jobs(1).run_grid(&predictors, &benchmarks, INSTR);
    let cold = SimCache::new(&dir, CachePolicy::ReadWrite);
    let cold_grid = Engine::with_jobs(8)
        .with_cache(Some(cold.clone()))
        .run_grid(&predictors, &benchmarks, INSTR);
    assert_eq!(baseline, cold_grid);
    assert_eq!(cold.hits(), 0);
    for jobs in [1, 8] {
        for strategy in [
            GridStrategy::Auto,
            GridStrategy::PerCell,
            GridStrategy::FusedColumns,
        ] {
            let warm = SimCache::new(&dir, CachePolicy::ReadWrite);
            let warm_grid = Engine::with_jobs(jobs)
                .with_strategy(strategy)
                .with_cache(Some(warm.clone()))
                .run_grid(&predictors, &benchmarks, INSTR);
            assert_eq!(baseline, warm_grid, "jobs={jobs} {strategy:?}");
            assert_eq!(
                warm.hits() as usize,
                predictors.len() * benchmarks.len(),
                "warm grid must not simulate (jobs={jobs} {strategy:?})"
            );
            assert_eq!(warm.stores(), 0);
        }
    }
    nuke(&dir);
}

#[test]
fn report_bytes_identical_off_cold_warm_across_jobs_every_config() {
    let predictors = registry();
    let benchmarks = benchmarks();
    let dir = scratch("report-diff");
    let warmup = INSTR / 5;
    let off = run_report_with_cache(
        "cbp4",
        &predictors,
        &benchmarks,
        INSTR,
        warmup,
        1,
        None,
        &|_| {},
    );
    let cold = SimCache::new(&dir, CachePolicy::ReadWrite);
    let cold_report = run_report_with_cache(
        "cbp4",
        &predictors,
        &benchmarks,
        INSTR,
        warmup,
        8,
        Some(&cold),
        &|_| {},
    );
    assert_eq!(off.to_json(), cold_report.to_json());
    assert_eq!(off.to_markdown(), cold_report.to_markdown());
    for jobs in [1, 8] {
        let warm = SimCache::new(&dir, CachePolicy::ReadWrite);
        let warm_report = run_report_with_cache(
            "cbp4",
            &predictors,
            &benchmarks,
            INSTR,
            warmup,
            jobs,
            Some(&warm),
            &|_| {},
        );
        assert_eq!(off.to_json(), warm_report.to_json(), "jobs={jobs}");
        assert_eq!(off.to_markdown(), warm_report.to_markdown(), "jobs={jobs}");
        assert_eq!(warm.hits() as usize, predictors.len() * benchmarks.len());
        assert_eq!(warm.stores(), 0);
    }
    nuke(&dir);
}

#[test]
fn scenario_bytes_identical_off_cold_warm_across_jobs() {
    let mut scenario = scenario_by_name("paper_mix").expect("built-in");
    scenario.instructions = 20_000;
    let predictors = scenario_report_predictors();
    let dir = scratch("scenario-diff");
    let off = run_scenario_with_cache(&scenario, &predictors, 1, None, &|_| {}).expect("runs");
    let cold = SimCache::new(&dir, CachePolicy::ReadWrite);
    let cold_report =
        run_scenario_with_cache(&scenario, &predictors, 8, Some(&cold), &|_| {}).expect("runs");
    assert_eq!(off.to_json(), cold_report.to_json());
    for jobs in [1, 8] {
        let warm = SimCache::new(&dir, CachePolicy::ReadWrite);
        let warm_report =
            run_scenario_with_cache(&scenario, &predictors, jobs, Some(&warm), &|_| {})
                .expect("runs");
        assert_eq!(off.to_json(), warm_report.to_json(), "jobs={jobs}");
        assert_eq!(off.to_markdown(), warm_report.to_markdown(), "jobs={jobs}");
        assert_eq!(warm.hits() as usize, predictors.len());
        assert_eq!(warm.stores(), 0);
    }
    nuke(&dir);
}

/// Four registry configs plus a same-config twin of `gshare` under a
/// second name.
fn twin_set() -> Vec<PredictorSpec> {
    let mut specs: Vec<PredictorSpec> = ["bimodal", "gshare", "tage-gsc+imli", "gehl+imli"]
        .iter()
        .map(|n| lookup(n).expect("registered"))
        .collect();
    let twin = PredictorSpec::new(
        "gshare-twin",
        "same config as gshare",
        specs[1].config.clone(),
    );
    specs.push(twin);
    specs
}

/// Warms a fresh cache with two of [`twin_set`]'s five rows (neither
/// `gshare` nor its twin), then runs all five through `run` against it
/// and checks the outcome: the result equals the uncached run, the
/// pre-warmed cells all hit, each remaining (config, workload) cell is
/// computed and stored once (the twin is not), and progress fires once
/// per cell with `completed` taking every value in `1..=total` once.
type Progress<'a> = &'a (dyn Fn(CellUpdate<'_>) + Sync);
fn check_partially_warm<R: PartialEq + std::fmt::Debug>(
    tag: &str,
    run: impl Fn(&[PredictorSpec], Option<&SimCache>, Progress<'_>) -> R,
) {
    let specs = twin_set();
    let dir = scratch(tag);
    let baseline = run(&specs, None, &|_| {});
    let warming = SimCache::new(&dir, CachePolicy::ReadWrite);
    run(
        &[specs[0].clone(), specs[2].clone()],
        Some(&warming),
        &|_| {},
    );
    let per_row = warming.stores() as usize / 2;
    assert!(per_row > 0, "{tag}: warming stored cells");

    let cache = SimCache::new(&dir, CachePolicy::ReadWrite);
    let updates = Mutex::new(Vec::new());
    let result = run(&specs, Some(&cache), &|u| {
        updates.lock().unwrap().push((u.completed, u.total));
    });
    assert_eq!(result, baseline, "{tag}: partially warm run diverged");
    assert_eq!(
        cache.hits() as usize,
        2 * per_row,
        "{tag}: pre-warmed cells hit"
    );
    assert_eq!(
        cache.stores() as usize,
        2 * per_row,
        "{tag}: gshare and gehl+imli stored once each, the twin never"
    );
    let total = specs.len() * per_row;
    let updates = updates.into_inner().unwrap();
    assert!(updates.iter().all(|&(_, t)| t == total), "{tag}: total");
    let mut completed: Vec<usize> = updates.iter().map(|&(c, _)| c).collect();
    completed.sort_unstable();
    assert_eq!(
        completed,
        (1..=total).collect::<Vec<_>>(),
        "{tag}: progress"
    );
    nuke(&dir);
}

#[test]
fn partially_warm_cache_runs_only_the_misses_for_every_payload() {
    let benchmarks = benchmarks();
    let mut scenario = scenario_by_name("paper_mix").expect("built-in");
    scenario.instructions = 10_000;
    for jobs in [1, 8] {
        for strategy in [
            GridStrategy::Auto,
            GridStrategy::PerCell,
            GridStrategy::FusedColumns,
        ] {
            check_partially_warm(
                &format!("grid-{jobs}-{strategy:?}"),
                |specs, cache, progress| {
                    Engine::with_jobs(jobs)
                        .with_strategy(strategy)
                        .with_cache(cache.cloned())
                        .run_grid_with_progress(specs, &benchmarks, INSTR, progress)
                },
            );
        }
        check_partially_warm(&format!("report-{jobs}"), |specs, cache, progress| {
            let report = run_report_with_cache(
                "cbp4",
                specs,
                &benchmarks,
                INSTR,
                INSTR / 5,
                jobs,
                cache,
                progress,
            );
            (report.to_json(), report)
        });
        check_partially_warm(&format!("scenario-{jobs}"), |specs, cache, progress| {
            let report =
                run_scenario_with_cache(&scenario, specs, jobs, cache, progress).expect("runs");
            (report.to_json(), report)
        });
    }
}

#[test]
fn cache_files_invariant_under_jobs_and_predictor_order() {
    let mut predictors: Vec<PredictorSpec> = registry().into_iter().take(4).collect();
    let benchmarks = benchmarks();
    let forward = scratch("order-fwd");
    let reversed = scratch("order-rev");
    Engine::with_jobs(1)
        .with_cache(Some(SimCache::new(&forward, CachePolicy::ReadWrite)))
        .run_grid(&predictors, &benchmarks, INSTR);
    predictors.reverse();
    Engine::with_jobs(8)
        .with_cache(Some(SimCache::new(&reversed, CachePolicy::ReadWrite)))
        .run_grid(&predictors, &benchmarks, INSTR);
    let files = entry_files(&forward);
    assert!(!files.is_empty());
    assert_eq!(
        files,
        entry_files(&reversed),
        "worker count and predictor order must not change the key set"
    );
    nuke(&forward);
    nuke(&reversed);
}

#[test]
fn keys_separate_every_registry_config_and_budget() {
    let predictors = registry();
    let mut hashes = BTreeSet::new();
    let mut config_texts = BTreeSet::new();
    for spec in &predictors {
        hashes.insert(grid_cell_key(spec, "bench", INSTR).hash_hex());
        config_texts.insert(spec.config.to_text());
    }
    // Keys are exactly as distinct as the canonical config texts: every
    // distinct configuration gets its own entry, and only identical
    // configurations (which compute identical results) share one.
    assert_eq!(hashes.len(), config_texts.len());

    let spec = &predictors[0];
    let base = report_cell_key(spec, "bench", INSTR, 100);
    for (label, other) in [
        ("workload", report_cell_key(spec, "other", INSTR, 100)),
        (
            "instructions",
            report_cell_key(spec, "bench", INSTR + 1, 100),
        ),
        ("warmup", report_cell_key(spec, "bench", INSTR, 101)),
        ("kind", grid_cell_key(spec, "bench", INSTR)),
    ] {
        assert_ne!(base.hash_hex(), other.hash_hex(), "{label} must re-key");
    }

    let scenario = scenario_by_name("paper_mix").expect("built-in");
    let mut other = scenario.clone();
    other.instructions += 1;
    assert_ne!(
        scenario_cell_key(spec, &scenario).hash_hex(),
        scenario_cell_key(spec, &other).hash_hex(),
        "scenario spec change must re-key"
    );
}

/// The store under `dir` holds exactly the entries of `keys`, and each
/// key loads: the engine keyed every cell byte-for-byte as the public
/// builder that made `keys` does.
fn assert_entries_are_exactly(dir: &Path, keys: &[CacheKey]) {
    let store = CacheStore::new(dir);
    let expected: BTreeSet<String> = keys
        .iter()
        .map(|key| {
            let path = store.entry_path(key);
            let rel = path.strip_prefix(dir).expect("entry under the root");
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect();
    assert_eq!(entry_files(dir), expected);
    for key in keys {
        assert!(store.load(key).is_some(), "{key:?} must hit");
    }
}

#[test]
fn engine_keys_equal_the_public_cell_keys_every_config() {
    let predictors = registry();
    let benchmarks = benchmarks();
    let warmup = INSTR / 5;
    let mut scenario = scenario_by_name("paper_mix").expect("built-in");
    scenario.instructions = 5_000;
    let bench_keys = |key: &dyn Fn(&PredictorSpec, &str) -> CacheKey| -> Vec<CacheKey> {
        predictors
            .iter()
            .flat_map(|spec| benchmarks.iter().map(move |b| key(spec, &b.name)))
            .collect()
    };

    let dir = scratch("keys-grid");
    Engine::with_jobs(2)
        .with_cache(Some(SimCache::new(&dir, CachePolicy::ReadWrite)))
        .run_grid(&predictors, &benchmarks, INSTR);
    assert_entries_are_exactly(&dir, &bench_keys(&|s, b| grid_cell_key(s, b, INSTR)));
    nuke(&dir);

    let dir = scratch("keys-report");
    let cache = SimCache::new(&dir, CachePolicy::ReadWrite);
    run_report_with_cache(
        "cbp4",
        &predictors,
        &benchmarks,
        INSTR,
        warmup,
        2,
        Some(&cache),
        &|_| {},
    );
    let keys = bench_keys(&|s, b| report_cell_key(s, b, INSTR, warmup));
    assert_entries_are_exactly(&dir, &keys);
    nuke(&dir);

    let dir = scratch("keys-scenario");
    let cache = SimCache::new(&dir, CachePolicy::ReadWrite);
    run_scenario_with_cache(&scenario, &predictors, 2, Some(&cache), &|_| {}).expect("runs");
    let keys: Vec<CacheKey> = predictors
        .iter()
        .map(|spec| scenario_cell_key(spec, &scenario))
        .collect();
    assert_entries_are_exactly(&dir, &keys);
    nuke(&dir);
}

#[test]
fn corrupted_entries_are_recomputed_and_repaired_never_fatal() {
    let predictors: Vec<PredictorSpec> = registry().into_iter().take(4).collect();
    let benchmarks = benchmarks();
    let dir = scratch("corruption");
    let warmup = INSTR / 5;
    let baseline = run_report_with_cache(
        "cbp4",
        &predictors,
        &benchmarks,
        INSTR,
        warmup,
        2,
        None,
        &|_| {},
    );
    let cold = SimCache::new(&dir, CachePolicy::ReadWrite);
    run_report_with_cache(
        "cbp4",
        &predictors,
        &benchmarks,
        INSTR,
        warmup,
        2,
        Some(&cold),
        &|_| {},
    );
    let total = predictors.len() * benchmarks.len();
    assert_eq!(cold.stores() as usize, total);

    let store = CacheStore::new(&dir);
    let key_of =
        |p: usize, b: usize| report_cell_key(&predictors[p], &benchmarks[b].name, INSTR, warmup);
    // Truncate one entry, bit-flip a second, plant a third whose
    // envelope belongs to a different key (hash collision stand-in).
    let truncated = store.entry_path(&key_of(0, 0));
    let good = std::fs::read(&truncated).expect("entry exists");
    std::fs::write(&truncated, &good[..good.len() / 2]).expect("truncate");
    let flipped = store.entry_path(&key_of(1, 0));
    let mut bytes = std::fs::read(&flipped).expect("entry exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&flipped, &bytes).expect("flip");
    let planted = store.entry_path(&key_of(2, 1));
    let foreign = CacheKey {
        kind: "report".to_owned(),
        config: "not: this config\n".to_owned(),
        workload: benchmarks[1].name.clone(),
        instructions: INSTR,
        warmup,
    };
    std::fs::write(&planted, foreign.entry_text("{\"mpki\": 0}")).expect("plant");

    let warm = SimCache::new(&dir, CachePolicy::ReadWrite);
    let repaired = run_report_with_cache(
        "cbp4",
        &predictors,
        &benchmarks,
        INSTR,
        warmup,
        2,
        Some(&warm),
        &|_| {},
    );
    assert_eq!(baseline.to_json(), repaired.to_json());
    assert_eq!(warm.hits() as usize, total - 3, "3 corrupt entries miss");
    assert_eq!(warm.stores(), 3, "recomputed cells repair their entries");

    // The repair round overwrote the bad entries: now everything hits.
    let verify = SimCache::new(&dir, CachePolicy::ReadWrite);
    let verified = run_report_with_cache(
        "cbp4",
        &predictors,
        &benchmarks,
        INSTR,
        warmup,
        2,
        Some(&verify),
        &|_| {},
    );
    assert_eq!(baseline.to_json(), verified.to_json());
    assert_eq!(verify.hits() as usize, total);
    nuke(&dir);
}

#[test]
fn read_only_policy_reads_but_never_writes() {
    let predictors: Vec<PredictorSpec> = registry().into_iter().take(2).collect();
    let benchmarks = benchmarks();
    let dir = scratch("policies");
    let total = predictors.len() * benchmarks.len();
    // ReadOnly over an empty store: all misses, nothing written.
    let ro = SimCache::new(&dir, CachePolicy::ReadOnly);
    let baseline =
        Engine::with_jobs(2)
            .with_cache(Some(ro.clone()))
            .run_grid(&predictors, &benchmarks, INSTR);
    assert_eq!(ro.misses() as usize, total);
    assert_eq!(ro.stores(), 0);
    assert!(entry_files(&dir).is_empty());
    // ReadOnly over a warmed store: every cell hits, nothing written.
    let warm_up = SimCache::new(&dir, CachePolicy::ReadWrite);
    Engine::with_jobs(2)
        .with_cache(Some(warm_up.clone()))
        .run_grid(&predictors, &benchmarks, INSTR);
    let files = entry_files(&dir);
    let warm_ro = SimCache::new(&dir, CachePolicy::ReadOnly);
    let served = Engine::with_jobs(2)
        .with_cache(Some(warm_ro.clone()))
        .run_grid(&predictors, &benchmarks, INSTR);
    assert_eq!(baseline, served);
    assert_eq!(warm_ro.hits() as usize, total);
    assert_eq!(warm_ro.stores(), 0);
    assert_eq!(entry_files(&dir), files);
    nuke(&dir);
}

#[test]
fn reseeded_or_remixed_benchmark_never_reuses_another_specs_entry() {
    // Same benchmark name, different seed or kernel mix: different
    // streams, so neither may be served the other's grid or report
    // cells, under either cache warm-up order.
    let predictors: Vec<PredictorSpec> = registry().into_iter().take(3).collect();
    let original = benchmarks();
    let mut reseeded = original.clone();
    for bench in &mut reseeded {
        bench.seed ^= 0x5EED;
    }
    let mut remixed = original.clone();
    for bench in &mut remixed {
        assert!(
            bench.kernels.len() > 1,
            "a reweighted single kernel is the same mix"
        );
        bench.kernels[0].1 *= 4.0;
    }
    let warmup = INSTR / 5;
    for other in [&reseeded, &remixed] {
        assert_eq!(
            other.iter().map(|b| &b.name).collect::<Vec<_>>(),
            original.iter().map(|b| &b.name).collect::<Vec<_>>()
        );
        for (first, second) in [(&original, other), (other, &original)] {
            let dir = scratch("reseeded");
            let cache = SimCache::new(&dir, CachePolicy::ReadWrite);
            let engine = Engine::with_jobs(2).with_cache(Some(cache.clone()));
            engine.run_grid(&predictors, first, INSTR);
            run_report_with_cache(
                "cbp4",
                &predictors,
                first,
                INSTR,
                warmup,
                2,
                Some(&cache),
                &|_| {},
            );
            let hits_before = cache.hits();

            let grid = engine.run_grid(&predictors, second, INSTR);
            let report = run_report_with_cache(
                "cbp4",
                &predictors,
                second,
                INSTR,
                warmup,
                2,
                Some(&cache),
                &|_| {},
            );
            assert_eq!(
                cache.hits(),
                hits_before,
                "a same-name spec's entry was reused"
            );
            assert_eq!(
                grid,
                Engine::with_jobs(2).run_grid(&predictors, second, INSTR)
            );
            let uncached =
                run_report_with_cache("cbp4", &predictors, second, INSTR, warmup, 2, None, &|_| {});
            assert_eq!(report.to_json(), uncached.to_json());
            assert_ne!(
                grid,
                Engine::with_jobs(2).run_grid(&predictors, first, INSTR),
                "the specs must really simulate differently"
            );
            nuke(&dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The canonical key text round-trips every budget combination into
    /// a distinct hash: any change to instructions or warmup re-keys.
    #[test]
    fn prop_budget_changes_rekey(instr in 1u64..1_000_000, warmup in 0u64..1_000_000, delta in 1u64..1_000) {
        let spec = registry().remove(0);
        let base = report_cell_key(&spec, "bench", instr, warmup);
        prop_assert!(
            base.hash_hex() != report_cell_key(&spec, "bench", instr + delta, warmup).hash_hex()
        );
        prop_assert!(
            base.hash_hex() != report_cell_key(&spec, "bench", instr, warmup + delta).hash_hex()
        );
    }

    /// Arbitrary single-byte corruption anywhere in an entry is either
    /// survivable (payload still decodes to the same bytes) or a silent
    /// miss — never a panic, never a wrong result.
    #[test]
    fn prop_byte_corruption_never_trusted_or_fatal(pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let spec = registry().remove(0);
        let dir = scratch(&format!("prop-corrupt-{pos_frac:.6}-{flip}"));
        let store = CacheStore::new(&dir);
        let key = grid_cell_key(&spec, "bench", INSTR);
        let payload = "{\n  \"benchmark\": \"bench\"\n}";
        store.save(&key, payload).expect("save");
        let path = store.entry_path(&key);
        let mut bytes = std::fs::read(&path).expect("read");
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let changed = std::fs::write(&path, &bytes).is_ok();
        let loaded = store.load(&key);
        if let Some(text) = loaded {
            // Only an envelope that still verifies byte-for-byte may
            // surface its payload (the flip landed in the payload, which
            // the strict decoder upstream re-checks).
            prop_assert!(changed);
            prop_assert!(key.entry_text(&text) == String::from_utf8(bytes).unwrap_or_default());
        }
        nuke(&dir);
    }
}
