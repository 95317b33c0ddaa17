//! Shootout: every registered predictor configuration over a slice of
//! the CBP4-like suite, ranked by mean MPKI, with storage budgets.
//!
//! ```sh
//! cargo run --release --example predictor_shootout
//! ```

use imli_repro::sim::{registry, Engine, TextTable};
use imli_repro::workloads::cbp4_suite;

fn main() {
    // A representative slice: the two flagship planted benchmarks plus
    // four generic ones. (`bp claims` runs the full 2×40 benchmarks.)
    let suite: Vec<_> = cbp4_suite()
        .into_iter()
        .filter(|s| {
            [
                "SPEC2K6-04",
                "SPEC2K6-12",
                "MM-4",
                "SPEC2K6-01",
                "SERVER-3",
                "CLIENT-2",
            ]
            .contains(&s.name.as_str())
        })
        .collect();

    let specs = registry();
    let grid = Engine::new().run_grid(&specs, &suite, 400_000);
    let mut rows: Vec<(&str, f64, u64)> = grid
        .mean_mpki_rows()
        .into_iter()
        .zip(&specs)
        .map(|((name, mpki), spec)| (name, mpki, spec.storage_bits()))
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));

    let mut table = TextTable::new(vec!["rank", "config", "mean MPKI", "Kbit"]);
    for (i, (name, mpki, bits)) in rows.iter().enumerate() {
        table.row(vec![
            (i + 1).to_string(),
            (*name).to_owned(),
            format!("{mpki:.3}"),
            format!("{:.0}", *bits as f64 / 1024.0),
        ]);
    }
    println!("{table}");
}
