//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the end-to-end benchmark from the root of a
//! repository checkout and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. The lines before it
//! are the noise record, one JSON object per timed sample. Scratch files
//! live under `.bench_work/` in the working directory; a traced run
//! leaves its spans there.

use e2ebench::check::Doc;
use e2ebench::metrics::result_line;
use e2ebench::workload::{set_up, Inputs, Scale, Workload};
use e2ebench::{run, Args};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: e2ebench --workload <sweep_paper|scenario_paper_mix|report_warm> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Scratch root, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one set-up in a child process, so that every set-up starts as
/// cold as a `bp` command does, and the measuring process's memory and
/// state stay its own.
fn set_up_in_child(workload: Workload, dir: &Path, inputs: &Inputs) -> Result<Doc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = Command::new(exe)
        .arg("--set-up")
        .arg(workload.name())
        .arg(dir)
        .arg(inputs.seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the set-up: {e}"))?;
    if !status.success() {
        return Err(format!("set-up exited with {status}"));
    }
    let read = |ext: &str| {
        let path = dir.with_extension(ext);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    Ok(Doc {
        json: read("json")?,
        md: read("md")?,
    })
}

/// The child side of [`set_up_in_child`]:
/// `--set-up <workload> <dir> <seed>`.
fn set_up_child(workload: &str, dir: &str, seed: &str) -> Result<(), String> {
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
    let dir = Path::new(dir);
    let doc = set_up(workload, dir, &Inputs::new(seed, Scale::artifact()))?;
    let write = |ext: &str, text: &str| {
        let path = dir.with_extension(ext);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("json", &doc.json)?;
    write("md", &doc.md)
}

fn bench(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let work_root = PathBuf::from(WORK_ROOT);
    let work = work_root.join(format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let outcome = run(&args, &Scale::artifact(), &work, &set_up_in_child);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;

    if let Some(layers) = &outcome.layers {
        let spans = work_root.join("spans");
        let path = spans.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        std::fs::create_dir_all(&spans)
            .and_then(|()| std::fs::write(&path, layers.tracer.to_json_lines()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (i, s) in outcome.samples.iter().enumerate() {
        println!(
            "{{\"sample\": {i}, \"passes\": {}, \"wall_s\": {}, \"cpu_s\": {}, \"calib_s\": {}, \
             \"steal_pct\": {}}}",
            s.passes, s.wall_s, s.cpu_s, s.calib_s, s.steal_pct
        );
    }
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics()
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [flag, workload, dir, seed] if flag == "--set-up" => set_up_child(workload, dir, seed),
        _ => bench(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
