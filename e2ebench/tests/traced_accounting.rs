//! Traced runs of every workload at a tiny scale: they report every
//! per-layer metric, pass their own correctness check, and their layer
//! self times plus `engine.overhead_s` add up to the traced wall time.

use e2ebench::metrics::PER_LAYER;
use e2ebench::workload::{set_up, Scale, Workload};
use e2ebench::{run, Args};
use std::path::PathBuf;

fn work_dir(workload: Workload) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "traced-{}-{}",
        workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

#[test]
fn traced_layers_account_for_the_traced_wall() {
    for workload in Workload::ALL {
        let work = work_dir(workload);
        let args = Args {
            workload,
            seed: 3,
            seconds: 0.05,
            trace: true,
        };
        let outcome = run(&args, &Scale::tiny(), &work, &set_up).expect("traced run");
        let _ = std::fs::remove_dir_all(&work);
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0, "{workload:?}");

        let layers = outcome.layers.as_ref().expect("traced run has layers");
        let names: Vec<&str> = outcome.metrics().iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, expected);
        for (name, workers) in &layers.accounted {
            assert!(expected.contains(&name.as_str()), "{name}");
            assert!(*workers >= 1.0);
        }

        // The traced wall is the recorded entry path, not a sum.
        let entry_path: f64 = layers
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "entry_path")
            .map(|s| s.duration())
            .sum();
        assert_eq!(layers.traced_wall, entry_path);
        assert!(layers.traced_wall > 0.0);

        let overhead = layers.metrics["engine.overhead_s"];
        let total = layers.accounted_sum() + overhead;
        assert!(
            (total - layers.traced_wall).abs() <= 1e-9 * layers.traced_wall.max(1.0),
            "{workload:?}: layers {} + overhead {overhead} != traced wall {}",
            layers.accounted_sum(),
            layers.traced_wall
        );

        // Only layers the entry path reaches are charged to it...
        let mut accounted: Vec<String> = layers.accounted.iter().map(|(n, _)| n.clone()).collect();
        accounted.sort_unstable();
        assert_eq!(accounted, entry_path_layers(workload), "{workload:?}");
        // ...so their replayed time cannot much exceed the traced wall
        // (the replay re-runs work the entry path does once).
        assert!(
            overhead >= -0.5 * layers.traced_wall,
            "{workload:?}: layers {} exceed the traced wall {}",
            layers.accounted_sum(),
            layers.traced_wall
        );
    }
}

/// The layers each workload's entry point runs, sorted. A warm report
/// serves every cell from the cache: it builds and drives no predictor.
fn entry_path_layers(workload: Workload) -> Vec<String> {
    let drive = ["baseline", "gehl", "perceptron", "tage"]
        .iter()
        .flat_map(|f| [format!("drive.{f}.build_s"), format!("drive.{f}.s")]);
    let rest: &[&str] = match workload {
        Workload::SweepPaper => &["workloads.gen_s", "sweep.solve_s", "sweep.render_s"],
        Workload::ScenarioPaperMix => &[
            "workloads.gen_s",
            "workloads.interleave_s",
            "report.attrib_s",
            "scenario.drive_s",
            "scenario.render_s",
        ],
        Workload::ReportWarm => &[
            "cache.key_s",
            "cache.load_s",
            "cache.codec_s",
            "report.render_s",
        ],
    };
    let mut layers: Vec<String> = rest.iter().map(|n| (*n).to_owned()).collect();
    if workload != Workload::ReportWarm {
        layers.extend(drive);
    }
    layers.sort_unstable();
    layers
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let workload = Workload::ScenarioPaperMix;
    let work = work_dir(workload);
    let args = Args {
        workload,
        seed: 0,
        seconds: 0.05,
        trace: false,
    };
    let outcome = run(&args, &Scale::tiny(), &work, &set_up).expect("run");
    let _ = std::fs::remove_dir_all(&work);
    assert_eq!(outcome.failed, 0);
    let names: Vec<&str> = outcome.metrics().iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = e2ebench::metrics::END_TO_END
        .iter()
        .map(|(n, _, _)| *n)
        .collect();
    assert_eq!(names, expected);
    for (name, value) in outcome.metrics() {
        assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
    }
}
