//! `bp` — command-line front end for the IMLI reproduction.
//!
//! ```text
//! bp list                       list the registered predictor
//!                               configurations (name, family, paper
//!                               reference, exact storage)
//! bp list benchmarks            list the 80 synthetic benchmarks
//! bp list predictors            same as `bp list`
//! bp generate <bench> <instr> <file>
//!                               generate a benchmark trace to disk,
//!                               streamed in O(1) memory
//! bp simulate <config> <bench-or-file> [instr]
//!                               run one predictor over a benchmark name
//!                               or a trace file (every frame's CRC-32C
//!                               is checked; a corrupt file is an error)
//! bp profile <config> <bench> [instr] [top]
//!                               per-static-branch misprediction profile
//! bp compare <bench> [instr]    all registered predictors on one benchmark
//! bp grid <suite> [--jobs N] [--json] [--instr N]
//!         [--family F] [--predictors a,b,c] [--config FILE]
//!                               the full (predictor × benchmark) grid on
//!                               the parallel engine
//! bp report <suite> [--jobs N] [--instr N] [--warmup N] [--json]
//!           [--family F] [--predictors a,b,c] [--config FILE]
//!           [--out-dir D]
//!                               attributed grid run emitting the
//!                               deterministic paper-style report to
//!                               REPORT_<suite>.md / REPORT_<suite>.json
//!                               (suites: cbp4, cbp3, paper)
//! bp scenario <name-or-file> [--jobs N] [--instr N] [--json]
//!             [--family F] [--predictors a,b,c] [--config FILE]
//!             [--out-dir D]
//!                               shared-predictor scenario: N tenant
//!                               streams interleaved into one fetch
//!                               stream (per-tenant PC regions),
//!                               optional periodic context-switch
//!                               flushes, per-tenant MPKI and component
//!                               attribution; emits the deterministic
//!                               SCENARIO_<name>.md / SCENARIO_<name>.json
//!                               artifacts (built-ins: paper_mix,
//!                               paper_switch, hostile_mix)
//! bp sweep <suite> [--budgets 8,16,...] [--families a,b,c]
//!          [--jobs N] [--instr N] [--json] [--out-dir D] [--quick]
//!                               storage-budget sweep: solve each
//!                               family for each Kbit budget (within
//!                               2% exact storage), run the fused
//!                               (config × benchmark) grid, and emit
//!                               the deterministic SWEEP_<suite>.md /
//!                               SWEEP_<suite>.json artifacts
//! bp claims [--jobs N] [--instr N] [--json] [--out-dir D]
//!                               the paper-claims ledger: every checked
//!                               claim's shape verdict, written to the
//!                               deterministic CLAIMS_paper.md /
//!                               CLAIMS_paper.json
//! bp bench [--quick] [--instr N] [--out FILE]
//!                               trace-I/O benchmark (bytes/record,
//!                               write, read, read+simulate); emits
//!                               BENCH_trace_io.json
//! bp bench --sim [--quick] [--instr N] [--out FILE] [--baseline FILE]
//!                [--reps N] [--gate-pct P]
//!                               simulator throughput benchmark
//!                               (predict/update records/sec per
//!                               predictor family); emits
//!                               BENCH_sim.json
//! bp lint [--json] [--fix-audit]
//!                               workspace invariant lint gate:
//!                               unsafe-audit, determinism,
//!                               hot-path-alloc, and panic-surface
//!                               rules over every workspace source
//!                               file; --fix-audit regenerates
//!                               UNSAFE_AUDIT.md
//! bp cache stats|gc|clear [DIR]
//!                               inspect or maintain a result cache
//!                               directory (default .bp-cache):
//!                               deterministic entry/byte counts, gc of
//!                               invalid files, full clear
//! ```
//!
//! `bp grid|report|sweep|scenario|claims` additionally take `--cache [DIR]`
//! (default `.bp-cache`) and `--cache-mode rw|ro`: cells whose
//! content-addressed key (config text × workload × budgets) is already
//! in the cache are spliced in without simulating, and only the misses
//! run. Artifacts are byte-identical with the cache off, cold, or warm.

use imli_repro::bench::claims::{run_claims, DEFAULT_INSTRUCTIONS};
use imli_repro::bench::sim_bench::{
    parse_predictor_throughputs, run_sim_bench, throughput_regressions, DEFAULT_REPS,
};
use imli_repro::bench::trace_bench::{json_string, run_trace_io_bench};
use imli_repro::lint::{find_workspace_root, lint_workspace};
use imli_repro::sim::{
    family_members, lookup, make_predictor, paper_report_predictors, parse_predictor_file,
    parse_scenario_file, registry, run_report_with_cache, run_scenario_with_cache,
    run_sweep_with_cache, scenario_by_name, scenario_report_predictors, simulate, simulate_stream,
    CachePolicy, CacheStore, CellUpdate, Engine, MispredictionProfile, PredictorFamily,
    PredictorSpec, SimCache, TextTable, SCENARIO_NAMES, STANDARD_BUDGETS_KBIT, SWEEP_FAMILIES,
};
use imli_repro::trace::{read_trace, Trace, TraceReader};
use imli_repro::workloads::{
    cache_benchmark, cbp3_suite, cbp4_suite, find_benchmark, generate, suite_by_name,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

/// Why a command failed.
enum CmdError {
    /// A message, printed as `error: …` with exit status 1.
    Message(String),
    /// Writing to stdout failed. A closed pipe (`bp … | head`) ends the
    /// command quietly with exit status 0.
    Stdout(std::io::Error),
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError::Message(message)
    }
}

impl From<&str> for CmdError {
    fn from(message: &str) -> Self {
        CmdError::Message(message.to_owned())
    }
}

/// `print!` through [`CmdError::Stdout`]: every stdout write of a
/// command goes through here, so a closed stdout is an error the
/// command returns, not a panic.
macro_rules! out {
    ($($arg:tt)*) => {{
        let mut stdout = std::io::stdout().lock();
        write!(stdout, $($arg)*)
            .and_then(|()| stdout.flush())
            .map_err(CmdError::Stdout)?
    }};
}

/// `println!` through [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// The progress callback of the grid-shaped commands: when `show`, a
/// `[done/total] config on benchmark (MPKI)` line on stderr.
fn progress(show: bool) -> impl Fn(CellUpdate<'_>) + Sync {
    move |update| {
        if show {
            eprint!(
                "\r[{}/{}] {} on {} ({:.3} MPKI)          ",
                update.completed, update.total, update.predictor, update.benchmark, update.mpki
            );
            let _ = std::io::stderr().flush();
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bp list [benchmarks|predictors]\n  bp generate <bench> <instr> <file>\n  \
         bp simulate <config> <bench-or-file> [instr]\n  bp profile <config> <bench> [instr] [top]\n  \
         bp compare <bench> [instr]\n  \
         bp grid <suite> [--jobs N] [--json] [--instr N] [--family F] [--predictors a,b,c] \
         [--config FILE] [--cache [DIR]] [--cache-mode M]\n  \
         bp report <suite> [--jobs N] [--instr N] [--warmup N] [--json] [--family F] \
         [--predictors a,b,c] [--config FILE] [--out-dir D] [--cache [DIR]] [--cache-mode M]\n  \
         bp scenario <name-or-file> [--jobs N] [--instr N] [--json] [--family F] \
         [--predictors a,b,c] [--config FILE] [--out-dir D] [--cache [DIR]] [--cache-mode M]\n  \
         bp sweep <suite> [--budgets 8,16,...] [--families a,b,c] [--jobs N] [--instr N] \
         [--json] [--out-dir D] [--quick] [--cache [DIR]] [--cache-mode M]\n  \
         bp claims [--jobs N] [--instr N] [--json] [--out-dir D] [--cache [DIR]] \
         [--cache-mode M]\n  \
         bp bench [--quick] [--instr N] [--out FILE]\n  \
         bp bench --sim [--quick] [--instr N] [--out FILE] [--baseline FILE] [--reps N] \
         [--gate-pct P]\n  \
         bp lint [--json] [--fix-audit]\n  \
         bp cache <stats|gc|clear> [DIR]"
    );
    ExitCode::FAILURE
}

fn load_trace(source: &str, instructions: u64) -> Result<Trace, String> {
    if let Some(spec) = find_benchmark(source) {
        return Ok(generate(&spec, instructions));
    }
    let file = File::open(source).map_err(|e| format!("cannot open {source}: {e}"))?;
    read_trace(BufReader::new(file)).map_err(|e| format!("cannot parse {source}: {e}"))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad {what}: {s}"))
}

fn run(args: &[String]) -> Result<Option<()>, CmdError> {
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["list", "benchmarks"] => {
            for (suite, specs) in [("CBP4", cbp4_suite()), ("CBP3", cbp3_suite())] {
                for spec in specs {
                    outln!("{suite}/{}", spec.name);
                }
            }
            Ok(())
        }
        // `bp list` and `bp list predictors` are the discoverability
        // command: every registry name with its family, exact storage
        // (the config-level accounting, equal to the built itemization),
        // and paper reference.
        ["list"] | ["list", "predictors"] => {
            let mut table = TextTable::new(vec![
                "name",
                "family",
                "configuration",
                "Kbit",
                "bits",
                "paper",
            ]);
            for spec in registry() {
                let p = spec.make();
                table.row(vec![
                    spec.name.clone(),
                    spec.family.to_string(),
                    p.name().to_owned(),
                    format!("{:.2}", spec.storage_kbit()),
                    spec.storage_bits().to_string(),
                    spec.paper_ref.clone(),
                ]);
            }
            outln!("{table}");
            Ok(())
        }
        ["generate", bench, instr, path] => {
            let instructions = parse_u64(instr, "instruction count")?;
            let spec = find_benchmark(bench)
                .ok_or_else(|| format!("unknown benchmark {bench} (try `bp list benchmarks`)"))?;
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            // Streams straight to disk: no materialized trace.
            let records = cache_benchmark(&spec, instructions, BufWriter::new(file))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            outln!("wrote {} ({records} records)", spec.name);
            Ok(())
        }
        ["simulate", config, source] | ["simulate", config, source, _] => {
            let instructions = args
                .get(3)
                .map(|s| parse_u64(s, "instruction count"))
                .transpose()?
                .unwrap_or(1_000_000);
            let mut p = make_predictor(config)
                .ok_or_else(|| format!("unknown predictor {config} (try `bp list predictors`)"))?;
            // Both benchmark names and trace files simulate through the
            // streaming path in O(1) memory.
            let result = if let Some(spec) = find_benchmark(source) {
                simulate_stream(p.as_mut(), spec.stream(instructions))
            } else {
                let file = File::open(source).map_err(|e| format!("cannot open {source}: {e}"))?;
                let mut reader = TraceReader::new(BufReader::new(file))
                    .map_err(|e| format!("cannot parse {source}: {e}"))?;
                let result = simulate_stream(p.as_mut(), &mut reader);
                if let Some(e) = reader.error() {
                    return Err(format!("error while streaming {source}: {e}").into());
                }
                result
            };
            outln!("{result}");
            Ok(())
        }
        ["profile", config, bench] | ["profile", config, bench, ..] => {
            let instructions = args
                .get(3)
                .map(|s| parse_u64(s, "instruction count"))
                .transpose()?
                .unwrap_or(1_000_000);
            let top = args
                .get(4)
                .map(|s| parse_u64(s, "top count"))
                .transpose()?
                .unwrap_or(10) as usize;
            let trace = load_trace(bench, instructions)?;
            let mut p =
                make_predictor(config).ok_or_else(|| format!("unknown predictor {config}"))?;
            let profile = MispredictionProfile::collect(p.as_mut(), &trace);
            outln!(
                "{config} on {}: {:.3} MPKI; top-{top} branches cause {:.0} % of mispredictions",
                trace.name(),
                profile.mpki(),
                profile.concentration(top) * 100.0
            );
            let mut table = TextTable::new(vec!["pc", "occurrences", "mispredicted", "rate"]);
            for b in profile.top(top) {
                table.row(vec![
                    format!("{:#x}{}", b.pc, if b.backward { " (bwd)" } else { "" }),
                    b.occurrences.to_string(),
                    b.mispredictions.to_string(),
                    format!("{:.1} %", b.misprediction_rate() * 100.0),
                ]);
            }
            outln!("{table}");
            Ok(())
        }
        ["grid", suite, ..] => run_grid(suite, &args[2..]),
        ["report", suite, ..] => run_report_cmd(suite, &args[2..]),
        ["scenario", spec, ..] => run_scenario_cmd(spec, &args[2..]),
        ["sweep", suite, ..] => run_sweep_cmd(suite, &args[2..]),
        ["claims", ..] => run_claims_cmd(&args[1..]),
        ["bench", ..] => run_bench(&args[1..]),
        ["lint", ..] => run_lint(&args[1..]),
        ["cache", ..] => run_cache_cmd(&args[1..]),
        ["compare", bench] | ["compare", bench, _] => {
            let instructions = args
                .get(2)
                .map(|s| parse_u64(s, "instruction count"))
                .transpose()?
                .unwrap_or(1_000_000);
            let trace = load_trace(bench, instructions)?;
            let mut rows: Vec<(String, f64)> = registry()
                .into_iter()
                .map(|spec| {
                    let mut p = spec.make();
                    (spec.name.to_owned(), simulate(p.as_mut(), &trace).mpki())
                })
                .collect();
            rows.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut table = TextTable::new(vec!["config", "MPKI"]);
            for (name, mpki) in rows {
                table.row(vec![name, format!("{mpki:.3}")]);
            }
            outln!("{} ({} instructions)\n{table}", trace.name(), instructions);
            Ok(())
        }
        _ => return Ok(None),
    }
    .map(Some)
}

/// The default on-disk location of the result cache when `--cache` is
/// given without a directory.
const DEFAULT_CACHE_DIR: &str = ".bp-cache";

/// Parses `--cache`'s optional directory operand: consumed only when
/// the next token does not look like another flag.
fn take_cache_dir(it: &mut std::slice::Iter<'_, String>) -> String {
    match it.clone().next() {
        Some(v) if !v.starts_with('-') => {
            it.next();
            v.clone()
        }
        _ => DEFAULT_CACHE_DIR.to_owned(),
    }
}

/// Parses a `--cache-mode` operand.
fn parse_cache_mode(v: &str) -> Result<CachePolicy, String> {
    match v.to_ascii_lowercase().as_str() {
        "rw" | "read-write" => Ok(CachePolicy::ReadWrite),
        "ro" | "read-only" => Ok(CachePolicy::ReadOnly),
        other => Err(format!("unknown cache mode {other} (rw, ro)")),
    }
}

/// Builds the [`SimCache`] from parsed `--cache` / `--cache-mode`
/// flags; a mode without `--cache` is rejected instead of silently
/// ignored.
fn build_cache(dir: Option<String>, mode: Option<CachePolicy>) -> Result<Option<SimCache>, String> {
    match (dir, mode) {
        (Some(dir), mode) => Ok(Some(SimCache::new(dir, mode.unwrap_or_default()))),
        (None, Some(_)) => Err("--cache-mode needs --cache".to_owned()),
        (None, None) => Ok(None),
    }
}

/// The flags of the grid-shaped commands, parsed by
/// [`parse_sweep_flags`]; each command accepts its own subset and
/// rejects the rest as unknown. A value a command may default is
/// `None` when its flag is absent.
struct SweepFlags {
    jobs: Option<usize>,
    json: bool,
    instructions: Option<u64>,
    predictors: Option<Vec<PredictorSpec>>,
    warmup: Option<u64>,
    budgets: Option<Vec<u64>>,
    families: Option<Vec<String>>,
    quick: bool,
    out_dir: String,
    cache: Option<SimCache>,
}

impl SweepFlags {
    /// The worker count: `--jobs`, else one per available core.
    fn workers(&self) -> usize {
        self.jobs.unwrap_or_else(|| Engine::new().jobs())
    }

    /// The engine `--jobs` and `--cache` ask for.
    fn engine(&self) -> Engine {
        Engine::with_jobs(self.workers()).with_cache(self.cache.clone())
    }

    /// Ends a run of `cells` cells: closes the progress line and prints
    /// the cache tally, both on stderr, so the artifacts and the
    /// `--json` stream stay byte-identical with the cache on or off.
    fn end_run(&self, cells: usize) {
        if !self.json {
            eprintln!();
        }
        if let Some(cache) = &self.cache {
            eprintln!(
                "cache: {}/{} cells hit, {} stored ({})",
                cache.hits(),
                cells,
                cache.stores(),
                cache.store().root().display()
            );
        }
    }

    /// The tail of every artifact command: [`end_run`](Self::end_run),
    /// write the rendered pair to `<out_dir>/<stem>.md` and `.json`,
    /// then print the JSON (`--json`) or `summary` and the two paths.
    fn finish(
        &self,
        cells: usize,
        stem: &str,
        (markdown, json): (String, String),
        summary: &str,
    ) -> Result<(), CmdError> {
        self.end_run(cells);
        let out_dir = &self.out_dir;
        std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
        let dir = std::path::Path::new(out_dir);
        let (md_path, json_path) = (
            dir.join(format!("{stem}.md")),
            dir.join(format!("{stem}.json")),
        );
        for (path, text) in [(&md_path, &markdown), (&json_path, &json)] {
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if self.json {
            out!("{json}");
        } else {
            outln!(
                "{summary}wrote {} and {}",
                md_path.display(),
                json_path.display()
            );
        }
        Ok(())
    }
}

/// The flags every grid-shaped command accepts, and those that pick its
/// predictor set.
const SHARED_FLAGS: &[&str] = &["--jobs", "--instr", "--json", "--cache", "--cache-mode"];
const PREDICTOR_FLAGS: &[&str] = &["--family", "--predictors", "--config"];

/// Parses the flags of a grid-shaped command (`--jobs`, `--instr`,
/// `--json`, `--family`, `--predictors`, `--config`, `--cache [DIR]`,
/// `--cache-mode M`, `--warmup`, `--budgets`, `--families`, `--quick`,
/// `--out-dir`), accepting only those in the `accepted` lists.
/// `command` names the subcommand for error messages.
fn parse_sweep_flags(
    command: &str,
    args: &[String],
    accepted: &[&[&str]],
) -> Result<SweepFlags, String> {
    let mut parsed = SweepFlags {
        jobs: None,
        json: false,
        instructions: None,
        predictors: None,
        warmup: None,
        budgets: None,
        families: None,
        quick: false,
        out_dir: ".".to_owned(),
        cache: None,
    };
    let mut cache_dir: Option<String> = None;
    let mut cache_mode: Option<CachePolicy> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !accepted.iter().any(|set| set.contains(&flag.as_str())) {
            return Err(format!("unknown {command} flag {flag}"));
        }
        if flag == "--cache" {
            cache_dir = Some(take_cache_dir(&mut it));
            continue;
        }
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a {what}"))
        };
        match flag.as_str() {
            "--cache-mode" => cache_mode = Some(parse_cache_mode(value("cache mode")?)?),
            "--jobs" => {
                let v = value("worker count")?;
                parsed.jobs = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad worker count: {v}"))?,
                );
            }
            "--instr" => {
                parsed.instructions =
                    Some(parse_u64(value("instruction count")?, "instruction count")?);
            }
            "--json" => parsed.json = true,
            "--family" => {
                let v = value("family name")?;
                let family = PredictorFamily::ALL
                    .into_iter()
                    .find(|f| f.to_string() == v.to_ascii_lowercase())
                    .ok_or_else(|| {
                        format!("unknown family {v} (tage, gehl, perceptron, baseline)")
                    })?;
                parsed.predictors = Some(family_members(family));
            }
            "--predictors" => {
                let v = value("comma-separated list")?;
                parsed.predictors = Some(
                    v.split(',')
                        .map(|name| {
                            lookup(name.trim()).ok_or_else(|| {
                                format!(
                                    "unknown predictor {} (try `bp list predictors`)",
                                    name.trim()
                                )
                            })
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            "--config" => {
                // A config file *replaces* the predictor set with
                // custom configurations (same precedence as --family /
                // --predictors: last flag wins).
                let path = value("config file path")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                parsed.predictors =
                    Some(parse_predictor_file(&text).map_err(|e| format!("{path}: {e}"))?);
            }
            "--warmup" => {
                parsed.warmup = Some(parse_u64(value("instruction count")?, "instruction count")?);
            }
            "--budgets" => {
                parsed.budgets = Some(
                    value("comma-separated Kbit list")?
                        .split(',')
                        .map(|b| parse_u64(b.trim(), "budget (Kbit)"))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--families" => {
                parsed.families = Some(
                    value("comma-separated family list")?
                        .split(',')
                        .map(|f| f.trim().to_owned())
                        .collect(),
                );
            }
            "--quick" => parsed.quick = true,
            "--out-dir" => {
                parsed.out_dir = value("directory")?.to_owned();
            }
            other => return Err(format!("unknown {command} flag {other}")),
        }
    }
    parsed.cache = build_cache(cache_dir, cache_mode)?;
    Ok(parsed)
}

/// Parses and runs `bp grid <suite> [--jobs N] [--json] [--instr N]
/// [--family F] [--predictors a,b,c] [--config FILE]`.
fn run_grid(suite_name: &str, args: &[String]) -> Result<(), CmdError> {
    let benchmarks = suite_by_name(suite_name)
        .ok_or_else(|| format!("unknown suite {suite_name} (try cbp4, cbp3, or paper)"))?;
    let mut flags = parse_sweep_flags("grid", args, &[SHARED_FLAGS, PREDICTOR_FLAGS])?;
    let instructions = flags.instructions.unwrap_or(1_000_000);
    let predictors = flags.predictors.take().unwrap_or_else(registry);

    let engine = flags.engine();
    let started = std::time::Instant::now();
    let grid = engine.run_grid_with_progress(
        &predictors,
        &benchmarks,
        instructions,
        &progress(!flags.json),
    );
    let elapsed = started.elapsed();
    flags.end_run(predictors.len() * benchmarks.len());

    if flags.json {
        outln!(
            "{}",
            grid_to_json(suite_name, instructions, engine.jobs(), &grid)
        );
    } else {
        let mut table = TextTable::new(vec!["config", "mean MPKI", "Kbit", "Mrec/s"]);
        let mut means: Vec<(usize, &str, f64)> = grid
            .mean_mpki_rows()
            .into_iter()
            .enumerate()
            .map(|(p, (name, mean))| (p, name, mean))
            .collect();
        means.sort_by(|a, b| a.2.total_cmp(&b.2));
        for (p, name, mean) in means {
            // Resolve storage from the specs actually run (a --config
            // file's custom names are not in the global registry).
            let kbit = predictors
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, PredictorSpec::storage_kbit);
            table.row(vec![
                name.to_owned(),
                format!("{mean:.3}"),
                format!("{kbit:.0}"),
                format!("{:.2}", grid.row_records_per_sec(p) / 1e6),
            ]);
        }
        outln!(
            "{} grid: {} predictors x {} benchmarks at {} instructions, {} jobs, {:.2}s\n{table}",
            suite_name,
            grid.predictors.len(),
            grid.benchmarks.len(),
            instructions,
            engine.jobs(),
            elapsed.as_secs_f64(),
        );
    }
    Ok(())
}

/// Parses and runs `bp report <suite> [--jobs N] [--instr N]
/// [--warmup N] [--json] [--family F] [--predictors a,b,c]
/// [--config FILE] [--out-dir D]`: the attributed (predictor ×
/// benchmark) grid, folded into the deterministic paper-style report
/// and written to `REPORT_<suite>.md` / `REPORT_<suite>.json`.
///
/// The `paper` suite is the quick path: the eight benchmarks the paper
/// analyzes per-name, against the Table 1/2 configuration ladder. The
/// report depends only on its inputs — two runs with the same flags
/// produce byte-identical files.
fn run_report_cmd(suite_name: &str, args: &[String]) -> Result<(), CmdError> {
    let benchmarks = suite_by_name(suite_name)
        .ok_or_else(|| format!("unknown suite {suite_name} (try cbp4, cbp3, or paper)"))?;
    let mut flags = parse_sweep_flags(
        "report",
        args,
        &[SHARED_FLAGS, PREDICTOR_FLAGS, &["--warmup", "--out-dir"]],
    )?;
    let instructions = flags.instructions.unwrap_or(500_000);
    let predictors = flags.predictors.take().unwrap_or_else(|| {
        if suite_name.eq_ignore_ascii_case("paper") {
            paper_report_predictors()
        } else {
            registry()
        }
    });
    // Default warmup: the first fifth of each benchmark.
    let warmup = flags.warmup.unwrap_or(instructions / 5);
    if warmup >= instructions {
        return Err(format!(
            "warmup ({warmup}) must be smaller than the instruction budget ({instructions})"
        )
        .into());
    }

    let report = run_report_with_cache(
        &suite_name.to_ascii_lowercase(),
        &predictors,
        &benchmarks,
        instructions,
        warmup,
        flags.workers(),
        flags.cache.as_ref(),
        &progress(!flags.json),
    );
    // The Mrec/s column is live telemetry from the engine's per-cell
    // timings; it goes to stdout only — the written report files stay
    // byte-deterministic.
    let mut table = TextTable::new(vec!["config", "mean MPKI", "steady MPKI", "Kbit", "Mrec/s"]);
    for (p, row) in report.rows.iter().enumerate() {
        table.row(vec![
            row.name.clone(),
            format!("{:.3}", row.mean_mpki()),
            format!("{:.3}", row.steady_mpki()),
            format!("{:.0}", row.storage_kbit()),
            format!("{:.2}", report.row_records_per_sec(p) / 1e6),
        ]);
    }
    flags.finish(
        predictors.len() * benchmarks.len(),
        &format!("REPORT_{}", suite_name.to_ascii_lowercase()),
        (report.to_markdown(), report.to_json()),
        &format!(
            "{} report: {} predictors x {} benchmarks at {} instructions (warmup {})\n{table}",
            suite_name,
            report.rows.len(),
            report.benchmarks.len(),
            instructions,
            warmup,
        ),
    )
}

/// Parses and runs `bp scenario <name-or-file> [--jobs N] [--instr N]
/// [--json] [--family F] [--predictors a,b,c] [--config FILE]
/// [--out-dir D]`: the shared-predictor scenario runner.
///
/// The scenario is a built-in name (`paper_mix`, `paper_switch`,
/// `hostile_mix`) or a path to a scenario file (see
/// [`parse_scenario_file`]): N tenant streams interleaved into one
/// fetch stream with per-tenant PC regions, optional periodic
/// context-switch flushes, and per-tenant MPKI/attribution reporting.
/// `--instr` overrides the per-tenant instruction budget; `--config`
/// replaces the predictor set with custom configurations, as in
/// `bp report`. Artifacts `SCENARIO_<name>.md` / `SCENARIO_<name>.json`
/// are byte-deterministic: same inputs, same bytes, any `--jobs`.
fn run_scenario_cmd(spec_arg: &str, args: &[String]) -> Result<(), CmdError> {
    let mut scenario = match scenario_by_name(spec_arg) {
        Some(s) => s,
        None => {
            let text = std::fs::read_to_string(spec_arg).map_err(|e| {
                format!(
                    "unknown scenario {spec_arg} (try {}) and cannot read it as a file: {e}",
                    SCENARIO_NAMES.join(", ")
                )
            })?;
            parse_scenario_file(&text).map_err(|e| format!("{spec_arg}: {e}"))?
        }
    };
    let mut flags = parse_sweep_flags(
        "scenario",
        args,
        &[SHARED_FLAGS, PREDICTOR_FLAGS, &["--out-dir"]],
    )?;
    scenario.instructions = flags.instructions.unwrap_or(scenario.instructions);
    let predictors = flags
        .predictors
        .take()
        .unwrap_or_else(scenario_report_predictors);

    let report = run_scenario_with_cache(
        &scenario,
        &predictors,
        flags.workers(),
        flags.cache.as_ref(),
        &progress(!flags.json),
    )?;
    let mut table = TextTable::new(vec!["config", "family", "combined MPKI", "flushes"]);
    for row in &report.rows {
        table.row(vec![
            row.name.clone(),
            row.family.clone(),
            format!("{:.3}", row.run.mpki()),
            row.run.flushes.to_string(),
        ]);
    }
    flags.finish(
        predictors.len(),
        &format!("SCENARIO_{}", report.scenario),
        (report.to_markdown(), report.to_json()),
        &format!(
            "scenario {}: {} tenants x {} instructions, schedule {}, flush {}\n{table}",
            report.scenario,
            report.tenants.len(),
            report.instructions,
            report.schedule,
            report.flush,
        ),
    )
}

/// Parses and runs `bp sweep <suite> [--budgets 8,16,...]
/// [--families a,b,c] [--jobs N] [--instr N] [--json] [--out-dir D]
/// [--quick]`: the storage-budget sweep.
///
/// For every (budget, family) pair the solver produces a configuration
/// whose **exact** `storage_items()` total lands within 2% of the
/// target; the solved configurations run as one fused grid (each
/// benchmark stream decoded once for all of them) and the results are
/// written as the byte-deterministic `SWEEP_<suite>.md` /
/// `SWEEP_<suite>.json` artifacts. `--quick` is the CI smoke setting
/// (the paper's 64/256-Kbit points at a small instruction budget).
fn run_sweep_cmd(suite_name: &str, args: &[String]) -> Result<(), CmdError> {
    let benchmarks = suite_by_name(suite_name)
        .ok_or_else(|| format!("unknown suite {suite_name} (try cbp4, cbp3, or paper)"))?;
    let mut flags = parse_sweep_flags(
        "sweep",
        args,
        &[
            SHARED_FLAGS,
            &["--budgets", "--families", "--quick", "--out-dir"],
        ],
    )?;
    // --quick is the CI smoke shape: the paper's two headline budgets
    // at a small instruction budget. Explicit --budgets and --instr win.
    let (default_budgets, default_instructions) = if flags.quick {
        (vec![64, 256], 50_000)
    } else {
        (STANDARD_BUDGETS_KBIT.to_vec(), 500_000)
    };
    let budgets = flags.budgets.take().unwrap_or(default_budgets);
    let instructions = flags.instructions.unwrap_or(default_instructions);
    let families = flags
        .families
        .take()
        .unwrap_or_else(|| SWEEP_FAMILIES.iter().map(|&f| f.to_owned()).collect());
    if budgets.is_empty() || families.is_empty() {
        return Err("sweep needs at least one budget and one family"
            .to_owned()
            .into());
    }

    let jobs = flags.workers();
    let started = std::time::Instant::now();
    let report = run_sweep_with_cache(
        &suite_name.to_ascii_lowercase(),
        &benchmarks,
        &budgets,
        &families,
        instructions,
        jobs,
        flags.cache.as_ref(),
        &progress(!flags.json),
    )
    .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    let mut table = TextTable::new(vec![
        "config",
        "target Kbit",
        "actual Kbit",
        "err %",
        "mean MPKI",
    ]);
    for row in &report.rows {
        table.row(vec![
            format!("{}@{}", row.family, row.budget_kbit),
            row.budget_kbit.to_string(),
            format!("{:.2}", row.storage_bits as f64 / 1024.0),
            format!("{:+.2}", row.budget_error() * 100.0),
            format!("{:.3}", row.mean_mpki()),
        ]);
    }
    flags.finish(
        budgets.len() * families.len() * benchmarks.len(),
        &format!("SWEEP_{}", suite_name.to_ascii_lowercase()),
        (report.to_markdown(), report.to_json()),
        &format!(
            "{} sweep: {} budgets x {} families x {} benchmarks at {} instructions, {} jobs, \
             {:.2}s\n{table}",
            suite_name,
            report.budgets_kbit.len(),
            report.families.len(),
            report.benchmarks.len(),
            instructions,
            jobs,
            elapsed.as_secs_f64(),
        ),
    )
}

/// Parses and runs `bp claims [--jobs N] [--instr N] [--json]
/// [--out-dir D] [--cache [DIR]] [--cache-mode M]`: the paper-claims
/// ledger, one grid over both suites, written to the byte-deterministic
/// `CLAIMS_paper.md` / `CLAIMS_paper.json`. There is one ledger, so the
/// command takes no suite and no predictor flags.
fn run_claims_cmd(args: &[String]) -> Result<(), CmdError> {
    let flags = parse_sweep_flags("claims", args, &[SHARED_FLAGS, &["--out-dir"]])?;
    let instructions = flags.instructions.unwrap_or(DEFAULT_INSTRUCTIONS);
    let ledger = run_claims(&flags.engine(), instructions, &progress(!flags.json));
    let mut summary = String::new();
    for row in ledger.rows.iter().filter(|r| !r.holds) {
        let suite = row.suite.map_or("", |s| s.label());
        summary += &format!("fails: {} {suite}: {}\n", row.claim.id, row.ours);
    }
    summary += &format!(
        "claims: {} of {} rows hold at {} instructions\n",
        ledger.holding(),
        ledger.rows.len(),
        instructions,
    );
    let m = &ledger.measured;
    flags.finish(
        m.configs.len() * m.benchmarks.len(),
        "CLAIMS_paper",
        (ledger.to_markdown(), ledger.to_json()),
        &summary,
    )
}

/// Parses and runs `bp cache <stats|gc|clear> [DIR]`: result-cache
/// maintenance. Output is deterministic for a given cache state — the
/// store walks its directories in sorted order and prints plain
/// counts, no timestamps or wall-clock.
fn run_cache_cmd(args: &[String]) -> Result<(), CmdError> {
    let (action, dir) = match args {
        [action] => (action.as_str(), DEFAULT_CACHE_DIR),
        [action, dir] => (action.as_str(), dir.as_str()),
        _ => return Err("usage: bp cache <stats|gc|clear> [DIR]".to_owned().into()),
    };
    let store = CacheStore::new(dir);
    match action {
        "stats" => {
            let stats = store.stats();
            outln!(
                "{dir}: {} entries, {} bytes, {} invalid files",
                stats.entries,
                stats.bytes,
                stats.invalid
            );
        }
        "gc" => {
            let outcome = store.gc();
            outln!(
                "{dir}: kept {} entries, removed {} invalid files",
                outcome.kept,
                outcome.removed
            );
        }
        "clear" => {
            let removed = store.clear();
            outln!("{dir}: removed {removed} entries");
        }
        other => return Err(format!("unknown cache action {other} (stats, gc, clear)").into()),
    }
    Ok(())
}

/// Parses and runs `bp lint [--json] [--fix-audit]`: the workspace
/// invariant lint gate.
///
/// Scans every workspace `.rs` file (excluding `vendor/` and `target/`)
/// with the four rule families (unsafe-audit, determinism,
/// hot-path-alloc, panic-surface), prints `file:line: rule: message`
/// diagnostics, and checks that the committed `UNSAFE_AUDIT.md`
/// matches the regenerated inventory (`--fix-audit` rewrites it
/// instead). Exits nonzero on any violation, so CI can gate on it.
fn run_lint(flags: &[String]) -> Result<(), CmdError> {
    let mut json = false;
    let mut fix_audit = false;
    for flag in flags {
        match flag.as_str() {
            "--json" => json = true,
            "--fix-audit" => fix_audit = true,
            other => return Err(format!("unknown bp lint flag: {other}").into()),
        }
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = find_workspace_root(&cwd)
        .ok_or("bp lint must run inside the workspace (no [workspace] Cargo.toml found)")?;
    let mut report = lint_workspace(&root)?;

    let audit = report.render_audit();
    let audit_path = root.join("UNSAFE_AUDIT.md");
    if fix_audit {
        std::fs::write(&audit_path, &audit)
            .map_err(|e| format!("cannot write {}: {e}", audit_path.display()))?;
    } else {
        let committed = std::fs::read_to_string(&audit_path).unwrap_or_default();
        if committed != audit {
            report.diagnostics.push(imli_repro::lint::Diagnostic {
                path: "UNSAFE_AUDIT.md".to_owned(),
                line: 0,
                rule: imli_repro::lint::Rule::UnsafeAudit,
                message: if committed.is_empty() {
                    "missing unsafe inventory; run `bp lint --fix-audit` and commit it".to_owned()
                } else {
                    "inventory drifted from the source tree; run `bp lint --fix-audit` \
                     and review the diff"
                        .to_owned()
                },
            });
            report.diagnostics.sort();
        }
    }

    if json {
        out!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            outln!("{d}");
        }
        outln!(
            "bp lint: {} files scanned, {} unsafe sites audited, {} violation(s){}",
            report.files_scanned,
            report.unsafe_sites.len(),
            report.diagnostics.len(),
            if fix_audit {
                format!("; wrote {}", audit_path.display())
            } else {
                String::new()
            }
        );
    }
    if report.diagnostics.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lint violation(s)", report.diagnostics.len()).into())
    }
}

/// Runs `bp bench`: the trace-I/O benchmark (see
/// `bp_bench::trace_bench`), written as JSON to `BENCH_trace_io.json`
/// (or `--out`) and summarized on stdout. The default budget matches
/// the paper's trace scale (~30M instructions per CBP trace); `--quick`
/// is the CI smoke setting.
fn run_bench(flags: &[String]) -> Result<(), CmdError> {
    let mut quick = false;
    let mut sim = false;
    let mut instr: Option<u64> = None;
    let mut reps: Option<usize> = None;
    let mut gate_pct: Option<f64> = None;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--sim" => sim = true,
            "--instr" => {
                let v = it.next().ok_or("--instr needs an instruction count")?;
                instr = Some(parse_u64(v, "instruction count")?);
            }
            "--reps" => {
                let v = it.next().ok_or("--reps needs a repetition count")?;
                reps = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad repetition count: {v}"))?,
                );
            }
            "--gate-pct" => {
                let v = it.next().ok_or("--gate-pct needs a percentage")?;
                gate_pct = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|p| p.is_finite() && (0.0..100.0).contains(p))
                        .ok_or_else(|| format!("bad gate percentage: {v}"))?,
                );
            }
            "--out" => {
                out_path = Some(it.next().ok_or("--out needs a file path")?.clone());
            }
            "--baseline" => {
                baseline_path = Some(it.next().ok_or("--baseline needs a file path")?.clone());
            }
            other => return Err(format!("unknown bench flag {other}").into()),
        }
    }
    if quick && instr.is_some() {
        return Err("--quick and --instr are mutually exclusive"
            .to_owned()
            .into());
    }
    if (baseline_path.is_some() || reps.is_some()) && !sim {
        return Err("--baseline and --reps only apply to bench --sim"
            .to_owned()
            .into());
    }
    if gate_pct.is_some() && baseline_path.is_none() {
        return Err("--gate-pct needs a --baseline to gate against"
            .to_owned()
            .into());
    }
    if sim {
        return run_sim_bench_cmd(
            quick,
            instr,
            reps.unwrap_or(DEFAULT_REPS),
            gate_pct,
            out_path.unwrap_or_else(|| "BENCH_sim.json".to_owned()),
            baseline_path,
        );
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_trace_io.json".to_owned());
    let instructions = instr.unwrap_or(if quick { 200_000 } else { 30_000_000 });

    let scratch = std::env::temp_dir().join(format!("bp-bench-{}", std::process::id()));
    let report = run_trace_io_bench(instructions, &scratch)
        .map_err(|e| format!("trace-io bench failed: {e}"))?;
    std::fs::write(&out_path, report.to_json())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;

    let mut table = TextTable::new(vec![
        "benchmark",
        "records",
        "bytes",
        "B/record",
        "read Mrec/s",
        "read+sim Mrec/s",
    ]);
    for b in report.benchmarks.iter().chain([&report.totals()]) {
        table.row(vec![
            b.benchmark.clone(),
            b.records.to_string(),
            b.bytes.to_string(),
            format!("{:.2}", b.bytes_per_record()),
            format!("{:.2}", b.read_records_per_sec() / 1e6),
            format!("{:.2}", b.read_simulate_records_per_sec() / 1e6),
        ]);
    }
    outln!("{table}\nwrote {out_path}");
    Ok(())
}

/// Runs `bp bench --sim`: the simulator-throughput benchmark (see
/// `bp_bench::sim_bench`), written as JSON to `BENCH_sim.json` (or
/// `--out`) and summarized on stdout. `--baseline FILE` embeds a
/// previous run's records/sec as the comparison baseline; `--quick` is
/// the CI smoke setting.
fn run_sim_bench_cmd(
    quick: bool,
    instr: Option<u64>,
    reps: usize,
    gate_pct: Option<f64>,
    out_path: String,
    baseline_path: Option<String>,
) -> Result<(), CmdError> {
    let instructions = instr.unwrap_or(if quick { 200_000 } else { 2_000_000 });
    let baseline = match &baseline_path {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let parsed = parse_predictor_throughputs(&json);
            if parsed.is_empty() {
                return Err(format!("no predictor throughputs found in {path}").into());
            }
            parsed
        }
        None => Vec::new(),
    };

    let report = run_sim_bench(instructions, reps, &baseline);
    std::fs::write(&out_path, report.to_json())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;

    let with_baseline = report
        .predictors
        .iter()
        .any(|p| p.baseline_records_per_sec.is_some());
    let mut headers = vec!["config", "family", "Mrec/s", "median ms", "p90 ms"];
    if with_baseline {
        headers.push("baseline Mrec/s");
        headers.push("speedup");
    }
    let mut table = TextTable::new(headers);
    for p in &report.predictors {
        let mut row = vec![
            p.name.clone(),
            p.family.clone(),
            format!("{:.2}", p.records_per_sec / 1e6),
            format!("{:.1}", p.stats.median_seconds * 1e3),
            format!("{:.1}", p.stats.p90_seconds * 1e3),
        ];
        if with_baseline {
            row.push(
                p.baseline_records_per_sec
                    .map_or_else(|| "-".to_owned(), |b| format!("{:.2}", b / 1e6)),
            );
            row.push(
                p.speedup()
                    .map_or_else(|| "-".to_owned(), |s| format!("{s:.2}x")),
            );
        }
        table.row(row);
    }
    outln!(
        "simulate throughput on {} ({} records, min of {} reps after warmup)\n{table}",
        report.benchmark,
        report.predictors[0].records,
        report.reps
    );
    outln!("wrote {out_path}");
    if let Some(pct) = gate_pct {
        let regressions = throughput_regressions(&report, pct);
        if regressions.is_empty() {
            outln!("gate: no predictor regressed more than {pct}% vs baseline");
        } else {
            let worst: Vec<String> = regressions
                .iter()
                .map(|(name, speedup)| format!("{name} at {speedup:.2}x"))
                .collect();
            return Err(format!(
                "throughput regression gate ({pct}% tolerance) failed: {}",
                worst.join(", ")
            )
            .into());
        }
    }
    Ok(())
}

fn grid_to_json(
    suite: &str,
    instructions: u64,
    jobs: usize,
    grid: &imli_repro::sim::GridResult,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"suite\": {},\n  \"instructions\": {},\n  \"jobs\": {},\n  \"benchmarks\": [",
        json_string(suite),
        instructions,
        jobs
    ));
    for (i, b) in grid.benchmarks.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(b));
    }
    out.push_str("],\n  \"rows\": [\n");
    let means = grid.mean_mpki_rows();
    for (p, name) in grid.predictors.iter().enumerate() {
        let row = grid.row(p);
        let mean = means[p].1;
        out.push_str(&format!(
            "    {{\"predictor\": {}, \"mean_mpki\": {:.6}, \"mpki\": [",
            json_string(name),
            mean
        ));
        for (b, cell) in row.iter().enumerate() {
            if b > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{:.6}", cell.mpki()));
        }
        // Per-cell throughput telemetry (wall-clock, so not part of the
        // deterministic sections): records/sec from the engine's
        // per-cell timings.
        out.push_str("], \"records_per_sec\": [");
        for b in 0..grid.benchmarks.len() {
            if b > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{:.1}", grid.records_per_sec(p, b)));
        }
        out.push_str(&format!(
            "], \"row_records_per_sec\": {:.1}}}",
            grid.row_records_per_sec(p)
        ));
        out.push_str(if p + 1 < grid.predictors.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str(&format!(
        "  ],\n  \"mean_records_per_sec\": {:.1}\n}}",
        grid.mean_records_per_sec()
    ));
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Some(())) => ExitCode::SUCCESS,
        Ok(None) => usage(),
        Err(CmdError::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CmdError::Stdout(e)) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(CmdError::Message(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
