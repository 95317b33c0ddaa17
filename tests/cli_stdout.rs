//! `bp` writes its stdout through one fallible writer: a reader that
//! closes the pipe early (`bp list benchmarks | head -1`) ends the
//! command quietly with exit status 0, never a panic.

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
