//! `bp` writes its stdout through one fallible writer: a reader that
//! closes the pipe early (`bp list benchmarks | head -1`) ends the
//! command quietly with exit status 0, never a panic. The grid-shaped
//! commands share one flag parser: its sweep-only `--quick` yields to an
//! explicit `--instr` or `--budgets`, and a flag it does not know exits
//! 1 with a named error.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Runs `bp args`, hands its stdout to `reader` (which drops it), and
/// returns the exit code and stderr.
fn run_with_reader(args: &[&str], reader: impl FnOnce(std::process::ChildStdout)) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bp"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bp starts");
    reader(child.stdout.take().expect("piped stdout"));
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    let status = child.wait().expect("bp exits");
    (status.code().unwrap_or(-1), stderr)
}

#[test]
fn closed_stdout_ends_list_commands_quietly() {
    for args in [["list", "benchmarks"], ["list", "predictors"]] {
        // Closed before bp writes anything: its first write fails.
        let (code, stderr) = run_with_reader(&args, drop);
        assert_eq!(code, 0, "bp {args:?} with a closed stdout: {stderr}");
        assert!(!stderr.contains("panicked"), "bp {args:?}: {stderr}");

        // `| head -1`: one line read, then the pipe goes away.
        let (code, stderr) = run_with_reader(&args, |stdout| {
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("one line");
            assert!(!line.is_empty());
        });
        assert_ne!(code, 101, "bp {args:?} | head -1: {stderr}");
        assert_eq!(code, 0, "bp {args:?} | head -1: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "bp {args:?} | head -1: {stderr}"
        );
    }
}

/// Runs `bp args` to completion: exit code, stdout and stderr.
fn run_bp(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bp"))
        .args(args)
        .output()
        .expect("bp runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn sweep_quick_yields_to_explicit_instructions_and_budgets() {
    let dir = std::env::temp_dir().join(format!("bp-cli-sweep-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp dir");
    let sweep = |extra: &[&str]| {
        let mut args = vec!["sweep", "paper", "--quick", "--families", "bimodal"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--json", "--out-dir", dir]);
        let (code, json, stderr) = run_bp(&args);
        assert_eq!(code, 0, "bp {args:?}: {stderr}");
        json
    };
    // --quick --instr N: N instructions at quick's two budgets.
    let json = sweep(&["--instr", "3000"]);
    assert!(json.contains("\"instructions\": 3000,"), "{json}");
    assert!(json.contains("\"budgets_kbit\": [64, 256],"), "{json}");
    // --quick --budgets B: budget B at quick's instruction count.
    let json = sweep(&["--budgets", "32"]);
    assert!(json.contains("\"instructions\": 50000,"), "{json}");
    assert!(json.contains("\"budgets_kbit\": [32],"), "{json}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn removed_flags_exit_1_with_a_named_error() {
    let cache = std::env::temp_dir().join(format!("bp-cli-cache-{}", std::process::id()));
    let cache = cache.to_str().expect("utf-8 temp dir");
    let cases: [(&[&str], &str); 4] = [
        (
            &["sweep", "paper", "--config", "sweep.json"],
            "unknown sweep flag --config",
        ),
        (
            &["grid", "paper", "--strategy", "cell"],
            "unknown grid flag --strategy",
        ),
        (
            &["grid", "paper", "--cache", cache, "--cache-mode", "refresh"],
            "unknown cache mode refresh",
        ),
        (
            &[
                "sweep",
                "paper",
                "--cache",
                cache,
                "--cache-mode",
                "refresh",
            ],
            "unknown cache mode refresh",
        ),
    ];
    for (args, error) in cases {
        let (code, stdout, stderr) = run_bp(args);
        assert_eq!(code, 1, "bp {args:?}: {stderr}");
        assert!(stderr.contains(error), "bp {args:?}: {stderr}");
        assert!(stdout.is_empty(), "bp {args:?}: {stdout}");
    }
    assert!(!std::path::Path::new(cache).exists());
}
