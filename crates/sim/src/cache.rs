//! The simulator's face of the content-addressed result cache.
//!
//! `bp-cache` knows nothing about predictors: it hashes canonical key
//! text and stores opaque payloads with verify-then-trust envelopes.
//! This module supplies the simulator half:
//!
//! * [`SimCache`] — a [`bp_cache::CacheStore`] plus a
//!   [`CachePolicy`] and thread-safe hit/miss/store counters, cloneable
//!   into worker closures;
//! * canonical **key builders** for the three cell kinds the engine
//!   computes — plain grid cells (`"sim"`), attributed report cells
//!   (`"report"`), and scenario runs (`"scenario"`). Keys are built
//!   from the predictor's round-trippable config text and the workload
//!   identity, never from registry display names, worker counts, or
//!   scheduling strategy — so a cache warmed at `--jobs 1` hits at
//!   `--jobs 8`, and a sweep config solved under one budget label hits
//!   under another. Grid and report cells key on the benchmark name and
//!   store the benchmark's full [`workload_identity`] (name, seed,
//!   kernel mix) in the payload, checked on every probe. The public
//!   builders render the config text per call; the engine renders it
//!   once per spec and keys every cell of that row from it, through
//!   the same per-kind constructors;
//! * **payload codecs** serializing [`SimResult`], [`AttributedRun`],
//!   and [`ScenarioRun`] through the deterministic
//!   [`ConfigValue`] renderer and parsing them back *strictly*: any
//!   missing field, unknown attribution component, or type mismatch
//!   makes the whole entry a miss to be recomputed — a corrupted
//!   payload can never produce a wrong result or a panic.

use crate::column::Column;
use crate::engine::{Payload, Workload};
use crate::registry::PredictorSpec;
use crate::report::{component_key_slot, AttributedRun, ComponentTally, PhaseSummary};
use crate::run::{event_blocks, stream_blocks, Counts, Phases, SimResult, Tenants};
use crate::scenario::{ScenarioRun, ScenarioSpec};
use bp_cache::fnv1a_128;
use bp_components::{ConfigError, ConfigValue, PredictorConfig as _, PredictorStats};
use bp_workloads::BenchmarkSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use bp_cache::{CacheKey, CachePolicy, CacheStats, CacheStore, GcOutcome};

/// A `u64` counter as a `ConfigValue` integer. Counters in this
/// workspace never approach `i64::MAX`; saturating keeps the encode
/// path panic-free, and a saturated value simply fails the strict
/// decode on read-back.
pub(crate) fn int_u64(v: u64) -> ConfigValue {
    ConfigValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Cumulative probe/store counters of one [`SimCache`], shared across
/// its clones (worker threads).
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

/// The engine's handle on the result cache: store + policy + counters.
///
/// Cloning is cheap and shares the counters, so the engine can hand
/// clones to worker closures and the CLI reads one set of totals at
/// the end.
#[derive(Debug, Clone)]
pub struct SimCache {
    store: CacheStore,
    policy: CachePolicy,
    counters: Arc<CacheCounters>,
}

impl SimCache {
    /// A cache over `dir` under `policy`.
    pub fn new(dir: impl Into<PathBuf>, policy: CachePolicy) -> Self {
        SimCache {
            store: CacheStore::new(dir),
            policy,
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// The configured policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Verified cache hits so far.
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Probes that missed (absent, unverifiable, or undecodable
    /// entries).
    pub fn misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Entries written back so far.
    pub fn stores(&self) -> u64 {
        self.counters.stores.load(Ordering::Relaxed)
    }

    /// The generic verified probe: load the envelope-checked payload,
    /// parse it, decode it strictly. Every failure mode is a counted
    /// miss; only a fully decoded value is a counted hit.
    fn lookup<T>(
        &self,
        key: &CacheKey,
        decode: impl FnOnce(&ConfigValue) -> Result<T, ConfigError>,
    ) -> Option<T> {
        let decoded = self
            .store
            .load(key)
            .and_then(|payload| ConfigValue::parse(&payload).ok())
            .and_then(|value| decode(&value).ok());
        let counter = if decoded.is_some() {
            &self.counters.hits
        } else {
            &self.counters.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        decoded
    }

    /// Write `payload_value` back under `key` if the policy allows.
    /// Write failures (read-only cache dir, disk full) are swallowed:
    /// the result was computed either way.
    fn store_value(&self, key: &CacheKey, payload_value: &ConfigValue) {
        if self.policy != CachePolicy::ReadWrite {
            return;
        }
        let text = payload_value.to_text();
        if self.store.save(key, text.trim_end()).is_ok() {
            self.counters.stores.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A benchmark's identity in the result cache: the 128-bit FNV-1a hash
/// of [`BenchmarkSpec::identity_text`] — name, seed and kernel mix — as
/// 32 hex digits. Grid and report cells are keyed by benchmark *name*;
/// every such entry also stores this identity, and a probe whose
/// identity differs is a miss. A spec re-seeded or re-mixed under a
/// known name therefore never reuses another spec's result. Compute it
/// once per benchmark per call, not per cell.
pub fn workload_identity(bench: &BenchmarkSpec) -> String {
    format!("{:032x}", fnv1a_128(bench.identity_text().as_bytes()))
}

/// Key of one plain grid cell: the config's canonical text × the
/// benchmark name × the instruction budget. Registry display names and
/// grid position are deliberately absent; the rest of the benchmark's
/// identity is checked from the payload ([`workload_identity`]).
pub fn grid_cell_key(spec: &PredictorSpec, benchmark: &str, instructions: u64) -> CacheKey {
    bench_key("sim", spec.config.to_text(), benchmark, instructions, 0)
}

/// Key of one attributed report cell; the warmup boundary joins the
/// key because it changes the phase split.
pub fn report_cell_key(
    spec: &PredictorSpec,
    benchmark: &str,
    instructions: u64,
    warmup_instructions: u64,
) -> CacheKey {
    bench_key(
        "report",
        spec.config.to_text(),
        benchmark,
        instructions,
        warmup_instructions,
    )
}

/// Key of one scenario run: the workload identity is the scenario's
/// whole canonical spec text ([`ScenarioSpec::canonical_text`]), so
/// *any* change to tenants, schedule, flush policy, or budget re-keys
/// the run.
pub fn scenario_cell_key(spec: &PredictorSpec, scenario: &ScenarioSpec) -> CacheKey {
    ScenarioRun::key(&spec.config.to_text(), scenario, ())
}

/// Key of one benchmark-keyed cell of `kind` (`"sim"` or `"report"`)
/// over already-rendered config text.
fn bench_key(
    kind: &str,
    config: String,
    benchmark: &str,
    instructions: u64,
    warmup: u64,
) -> CacheKey {
    CacheKey {
        kind: kind.to_owned(),
        config,
        workload: benchmark.to_owned(),
        instructions,
        warmup,
    }
}

impl Workload for BenchmarkSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn identity(&self) -> String {
        workload_identity(self)
    }
}

/// A scenario's key already carries its whole canonical spec.
impl Workload for ScenarioSpec {
    fn name(&self) -> &str {
        &self.name
    }
}

// Cell payloads: each kind's key, probe, store and drive. Grid and
// report probes re-check the decoded benchmark name as a final
// payload-corruption tripwire on top of the envelope and identity.

impl Payload for SimResult {
    type Workload = BenchmarkSpec;
    /// Instructions per benchmark.
    type Params = u64;

    fn key(config: &str, bench: &BenchmarkSpec, instructions: u64) -> CacheKey {
        bench_key("sim", config.to_owned(), &bench.name, instructions, 0)
    }

    fn lookup(cache: &SimCache, key: &CacheKey, bench: &BenchmarkSpec, id: &str) -> Option<Self> {
        cache
            .lookup(key, |v| decode_sim(cell_of_workload(v, id)?))
            .filter(|r| r.benchmark == bench.name)
    }

    fn store(&self, cache: &SimCache, key: &CacheKey, id: &str) {
        cache.store_value(key, &workload_cell(id, sim_to_value(self)));
    }

    fn mpki(&self) -> f64 {
        SimResult::mpki(self)
    }

    fn run(column: &mut Column<'_>, bench: &BenchmarkSpec, instructions: u64) -> Vec<Self> {
        let counts = Counts::new(column.width());
        column.run(
            &bench.name,
            &mut stream_blocks(bench.stream(instructions)),
            counts,
        )
    }
}

impl Payload for AttributedRun {
    type Workload = BenchmarkSpec;
    /// Instructions per benchmark and the warmup boundary.
    type Params = (u64, u64);

    fn key(config: &str, bench: &BenchmarkSpec, (instr, warmup): (u64, u64)) -> CacheKey {
        bench_key("report", config.to_owned(), &bench.name, instr, warmup)
    }

    fn lookup(cache: &SimCache, key: &CacheKey, bench: &BenchmarkSpec, id: &str) -> Option<Self> {
        cache
            .lookup(key, |v| decode_attributed(cell_of_workload(v, id)?))
            .filter(|r| r.result.benchmark == bench.name)
    }

    fn store(&self, cache: &SimCache, key: &CacheKey, id: &str) {
        cache.store_value(key, &workload_cell(id, attributed_to_value(self)));
    }

    fn mpki(&self) -> f64 {
        self.result.mpki()
    }

    fn run(
        column: &mut Column<'_>,
        bench: &BenchmarkSpec,
        (instr, warmup): (u64, u64),
    ) -> Vec<Self> {
        let phases = Phases::new(column.width(), warmup);
        column.run(&bench.name, &mut stream_blocks(bench.stream(instr)), phases)
    }
}

impl Payload for ScenarioRun {
    type Workload = ScenarioSpec;
    type Params = ();

    fn key(config: &str, scenario: &ScenarioSpec, (): ()) -> CacheKey {
        CacheKey {
            kind: "scenario".to_owned(),
            config: config.to_owned(),
            workload: scenario.canonical_text(),
            instructions: scenario.instructions,
            warmup: 0,
        }
    }

    fn lookup(cache: &SimCache, key: &CacheKey, scenario: &ScenarioSpec, _: &str) -> Option<Self> {
        cache
            .lookup(key, decode_scenario)
            .filter(|r| r.tenants.len() == scenario.tenants.len())
    }

    fn store(&self, cache: &SimCache, key: &CacheKey, _: &str) {
        cache.store_value(key, &scenario_to_value(self));
    }

    fn mpki(&self) -> f64 {
        ScenarioRun::mpki(self)
    }

    fn run(column: &mut Column<'_>, scenario: &ScenarioSpec, (): ()) -> Vec<Self> {
        let mut events = scenario.events();
        let tenants = Tenants::new(column.width(), events.tenant_count() as usize);
        let mut blocks = event_blocks(events.as_mut());
        column.run("", &mut blocks, tenants)
    }
}

// ---------------------------------------------------------------------
// Payload codecs. Encoders render through ConfigValue::to_text (the
// deterministic serializer every artifact already uses); decoders are
// strict: expect_keys + typed accessors, so any drift or corruption in
// a payload surfaces as Err -> miss -> recompute.
// ---------------------------------------------------------------------

/// A benchmark-keyed payload stored with its benchmark's
/// [`workload_identity`].
fn workload_cell(identity: &str, cell: ConfigValue) -> ConfigValue {
    ConfigValue::map()
        .set("workload", ConfigValue::str(identity))
        .set("cell", cell)
}

/// The cell of a [`workload_cell`] payload, if it was stored for the
/// benchmark whose identity is `identity`.
fn cell_of_workload<'a>(
    value: &'a ConfigValue,
    identity: &str,
) -> Result<&'a ConfigValue, ConfigError> {
    value.expect_keys("cached benchmark cell", &["workload", "cell"])?;
    if value.req("workload")?.as_str("workload")? != identity {
        return Err(ConfigError::new(
            "cached cell was computed for another spec of this benchmark name",
        ));
    }
    value.req("cell")
}

fn stats_set(value: ConfigValue, stats: &PredictorStats) -> ConfigValue {
    value
        .set("predicted", int_u64(stats.predicted))
        .set("mispredicted", int_u64(stats.mispredicted))
}

fn decode_stats(value: &ConfigValue) -> Result<PredictorStats, ConfigError> {
    Ok(PredictorStats {
        predicted: value.req("predicted")?.as_u64("predicted")?,
        mispredicted: value.req("mispredicted")?.as_u64("mispredicted")?,
    })
}

fn sim_to_value(result: &SimResult) -> ConfigValue {
    stats_set(
        ConfigValue::map()
            .set("benchmark", ConfigValue::str(result.benchmark.as_str()))
            .set("predictor", ConfigValue::str(result.predictor.as_str()))
            .set("instructions", int_u64(result.instructions))
            .set("records", int_u64(result.records)),
        &result.stats,
    )
}

fn decode_sim(value: &ConfigValue) -> Result<SimResult, ConfigError> {
    value.expect_keys(
        "cached sim result",
        &[
            "benchmark",
            "predictor",
            "instructions",
            "records",
            "predicted",
            "mispredicted",
        ],
    )?;
    Ok(SimResult {
        benchmark: value.req("benchmark")?.as_str("benchmark")?.to_owned(),
        predictor: value.req("predictor")?.as_str("predictor")?.to_owned(),
        instructions: value.req("instructions")?.as_u64("instructions")?,
        records: value.req("records")?.as_u64("records")?,
        stats: decode_stats(value)?,
    })
}

fn attribution_to_value(summary: &crate::report::AttributionSummary) -> ConfigValue {
    let mut map = ConfigValue::map();
    for (key, tally) in summary.components() {
        map = map.set(
            key,
            ConfigValue::map()
                .set("provided", int_u64(tally.provided))
                .set("correct", int_u64(tally.correct))
                .set("high_confidence", int_u64(tally.high_confidence))
                .set("saves", int_u64(tally.saves))
                .set("losses", int_u64(tally.losses)),
        );
    }
    map
}

fn decode_attribution(
    value: &ConfigValue,
) -> Result<crate::report::AttributionSummary, ConfigError> {
    let ConfigValue::Map(entries) = value else {
        return Err(ConfigError::new("cached attribution must be a map"));
    };
    let mut summary = crate::report::AttributionSummary::default();
    for (key, tally_value) in entries {
        let slot = component_key_slot(key)
            .ok_or_else(|| ConfigError::new(format!("unknown attribution component `{key}`")))?;
        tally_value.expect_keys(
            "cached component tally",
            &["provided", "correct", "high_confidence", "saves", "losses"],
        )?;
        let tally = ComponentTally {
            provided: tally_value.req("provided")?.as_u64("provided")?,
            correct: tally_value.req("correct")?.as_u64("correct")?,
            high_confidence: tally_value
                .req("high_confidence")?
                .as_u64("high_confidence")?,
            saves: tally_value.req("saves")?.as_u64("saves")?,
            losses: tally_value.req("losses")?.as_u64("losses")?,
        };
        summary.insert_tally(slot, tally);
    }
    Ok(summary)
}

fn phase_to_value(phase: &PhaseSummary) -> ConfigValue {
    stats_set(
        ConfigValue::map().set("instructions", int_u64(phase.instructions)),
        &phase.stats,
    )
    .set("attribution", attribution_to_value(&phase.attribution))
}

fn decode_phase(value: &ConfigValue) -> Result<PhaseSummary, ConfigError> {
    value.expect_keys(
        "cached phase summary",
        &["instructions", "predicted", "mispredicted", "attribution"],
    )?;
    Ok(PhaseSummary {
        instructions: value.req("instructions")?.as_u64("instructions")?,
        stats: decode_stats(value)?,
        attribution: decode_attribution(value.req("attribution")?)?,
    })
}

fn attributed_to_value(run: &AttributedRun) -> ConfigValue {
    ConfigValue::map()
        .set("sim", sim_to_value(&run.result))
        .set("warmup_instructions", int_u64(run.warmup_instructions))
        .set("warmup", phase_to_value(&run.warmup))
        .set("steady", phase_to_value(&run.steady))
}

fn decode_attributed(value: &ConfigValue) -> Result<AttributedRun, ConfigError> {
    value.expect_keys(
        "cached attributed run",
        &["sim", "warmup_instructions", "warmup", "steady"],
    )?;
    Ok(AttributedRun {
        result: decode_sim(value.req("sim")?)?,
        warmup_instructions: value
            .req("warmup_instructions")?
            .as_u64("warmup_instructions")?,
        warmup: decode_phase(value.req("warmup")?)?,
        steady: decode_phase(value.req("steady")?)?,
    })
}

fn scenario_to_value(run: &ScenarioRun) -> ConfigValue {
    stats_set(
        ConfigValue::map()
            .set("predictor", ConfigValue::str(run.predictor.as_str()))
            .set("instructions", int_u64(run.instructions))
            .set("records", int_u64(run.records)),
        &run.stats,
    )
    .set("flushes", int_u64(run.flushes))
    .set(
        "tenants",
        ConfigValue::List(run.tenants.iter().map(phase_to_value).collect()),
    )
}

fn decode_scenario(value: &ConfigValue) -> Result<ScenarioRun, ConfigError> {
    value.expect_keys(
        "cached scenario run",
        &[
            "predictor",
            "instructions",
            "records",
            "predicted",
            "mispredicted",
            "flushes",
            "tenants",
        ],
    )?;
    Ok(ScenarioRun {
        predictor: value.req("predictor")?.as_str("predictor")?.to_owned(),
        instructions: value.req("instructions")?.as_u64("instructions")?,
        records: value.req("records")?.as_u64("records")?,
        stats: decode_stats(value)?,
        flushes: value.req("flushes")?.as_u64("flushes")?,
        tenants: value
            .req("tenants")?
            .as_list("tenants")?
            .iter()
            .map(decode_phase)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lookup;
    use crate::report::{simulate_stream_attributed, AttributionSummary};
    use crate::run::simulate_stream;
    use crate::scenario::{scenario_by_name, simulate_scenario};
    use std::path::Path;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bp-sim-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn nuke(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sim_payload_round_trips() {
        let spec = lookup("tage-gsc+imli").expect("registered");
        let bench = bp_workloads::cbp4_suite().remove(0);
        let result = simulate_stream(spec.make().as_mut(), bench.stream(20_000));
        let decoded =
            decode_sim(&ConfigValue::parse(&sim_to_value(&result).to_text()).expect("parses"))
                .expect("decodes");
        assert_eq!(decoded, result);
    }

    #[test]
    fn attributed_payload_round_trips() {
        let spec = lookup("tage-sc-l+imli").expect("registered");
        let bench = bp_workloads::cbp4_suite().remove(0);
        let run = simulate_stream_attributed(spec.make().as_mut(), bench.stream(30_000), 10_000);
        let decoded = decode_attributed(
            &ConfigValue::parse(&attributed_to_value(&run).to_text()).expect("parses"),
        )
        .expect("decodes");
        assert_eq!(decoded, run);
    }

    #[test]
    fn scenario_payload_round_trips() {
        let scenario = scenario_by_name("hostile_mix").expect("built-in");
        let spec = lookup("gshare").expect("registered");
        let mut events = scenario.events();
        let run = simulate_scenario(&spec, events.as_mut());
        let decoded = decode_scenario(
            &ConfigValue::parse(&scenario_to_value(&run).to_text()).expect("parses"),
        )
        .expect("decodes");
        assert_eq!(decoded, run);
    }

    #[test]
    fn attribution_round_trips_zero_provided_entries() {
        // A decoded tally that never provided is still an entry, and
        // survives another encode/decode as one.
        let mut summary = AttributionSummary::default();
        let zero = ComponentTally::default();
        let some = ComponentTally {
            provided: 9,
            correct: 7,
            high_confidence: 4,
            saves: 2,
            losses: 1,
        };
        summary.insert_tally(component_key_slot("loop").expect("known"), zero);
        summary.insert_tally(component_key_slot("tagged").expect("known"), some);
        let decoded = decode_attribution(
            &ConfigValue::parse(&attribution_to_value(&summary).to_text()).expect("parses"),
        )
        .expect("decodes");
        assert_eq!(decoded, summary);
        let listed: Vec<_> = decoded.components().map(|(k, t)| (k, *t)).collect();
        assert_eq!(listed, vec![("loop", zero), ("tagged", some)]);
        assert_ne!(decoded, AttributionSummary::default());
    }

    #[test]
    fn unknown_attribution_component_fails_decode() {
        let payload = ConfigValue::map().set(
            "martian",
            ConfigValue::map()
                .set("provided", ConfigValue::int(1u64))
                .set("correct", ConfigValue::int(1u64))
                .set("high_confidence", ConfigValue::int(0u64))
                .set("saves", ConfigValue::int(0u64))
                .set("losses", ConfigValue::int(0u64)),
        );
        assert!(decode_attribution(&payload).is_err());
    }

    #[test]
    fn cache_policies_gate_reads_and_writes() {
        let dir = scratch("policies");
        let spec = lookup("bimodal").expect("registered");
        let bench = bp_workloads::cbp4_suite().remove(0);
        let result = simulate_stream(spec.make().as_mut(), bench.stream(10_000));
        let key = grid_cell_key(&spec, &bench.name, 10_000);
        let identity = workload_identity(&bench);

        let ro = SimCache::new(&dir, CachePolicy::ReadOnly);
        result.store(&ro, &key, &identity);
        assert_eq!(
            SimResult::lookup(&ro, &key, &bench, &identity),
            None,
            "ro never wrote"
        );
        assert_eq!((ro.hits(), ro.misses(), ro.stores()), (0, 1, 0));

        let rw = SimCache::new(&dir, CachePolicy::ReadWrite);
        result.store(&rw, &key, &identity);
        assert_eq!(
            SimResult::lookup(&rw, &key, &bench, &identity).as_ref(),
            Some(&result)
        );
        assert_eq!((rw.hits(), rw.misses(), rw.stores()), (1, 0, 1));

        // Read-only serves the now-present entry but still never writes.
        assert_eq!(
            SimResult::lookup(&ro, &key, &bench, &identity).as_ref(),
            Some(&result)
        );
        result.store(&ro, &key, &identity);
        assert_eq!((ro.hits(), ro.misses(), ro.stores()), (1, 1, 0));

        // A benchmark-name mismatch in the decoded payload is a miss,
        // and so is an entry stored for another spec of the same name.
        let renamed = BenchmarkSpec {
            name: "not-this-benchmark".to_owned(),
            ..bench.clone()
        };
        assert_eq!(SimResult::lookup(&rw, &key, &renamed, &identity), None);
        let mut reseeded = bench.clone();
        reseeded.seed ^= 1;
        assert_ne!(workload_identity(&reseeded), identity);
        assert_eq!(
            SimResult::lookup(&rw, &key, &bench, &workload_identity(&reseeded)),
            None
        );
        nuke(&dir);
    }

    #[test]
    fn keys_separate_kinds_and_budgets() {
        let spec = lookup("gshare").expect("registered");
        let sim = grid_cell_key(&spec, "B", 1000);
        let rep = report_cell_key(&spec, "B", 1000, 0);
        assert_ne!(sim.hash_hex(), rep.hash_hex(), "kind separates entries");
        assert_ne!(
            report_cell_key(&spec, "B", 1000, 100).hash_hex(),
            rep.hash_hex(),
            "warmup separates entries"
        );
        let scenario = scenario_by_name("paper_mix").expect("built-in");
        let scn = scenario_cell_key(&spec, &scenario);
        assert_eq!(scn.workload, scenario.canonical_text());
        assert_ne!(scn.hash_hex(), sim.hash_hex());
    }
}
