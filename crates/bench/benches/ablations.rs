//! Ablations of the IMLI design (the paper numbers they relate to are in
//! the `src/bin/exp_*.rs` doc comments): accuracy as a function of the
//! IMLI table geometries. Criterion measures the fixed-geometry
//! simulation cost; the printed MPKI sweeps are the accuracy ablation.
//!
//! Run with `cargo bench -p bp-bench --bench ablations`.

use bp_sim::simulate;
use bp_tage::{TageSc, TageScConfig};
use bp_workloads::{find_benchmark, generate};
use criterion::{criterion_group, criterion_main, Criterion};
use imli::ImliConfig;

/// MPKI of TAGE-GSC+IMLI with a custom IMLI geometry on one of the
/// paper's flagship benchmarks.
fn mpki_with(imli: ImliConfig, bench: &str) -> f64 {
    let spec = find_benchmark(bench).expect("flagship benchmark exists");
    let trace = generate(&spec, 150_000);
    let mut p = TageSc::new(TageScConfig::gsc_imli().with_imli(imli, "ablation"));
    simulate(&mut p, &trace).mpki()
}

fn sic_size_sweep(c: &mut Criterion) {
    println!("\nablation: IMLI-SIC table size on SPEC2K6-04 (variable-trip SIC workload)");
    for entries in [64usize, 128, 256, 512, 1024, 2048] {
        let config = ImliConfig {
            sic_entries: entries,
            ..ImliConfig::default()
        };
        println!(
            "  sic_entries={entries:5}: {:.3} MPKI",
            mpki_with(config, "SPEC2K6-04")
        );
    }
    c.bench_function("ablation_sic_default", |b| {
        b.iter(|| mpki_with(ImliConfig::default(), "SPEC2K6-04"));
    });
}

fn oh_size_sweep(c: &mut Criterion) {
    println!("\nablation: outer-history table size on SPEC2K6-12 (diagonal workload)");
    for bits in [256usize, 512, 1024, 2048] {
        let config = ImliConfig {
            outer_history_bits: bits,
            ..ImliConfig::default()
        };
        println!(
            "  outer_history_bits={bits:5}: {:.3} MPKI",
            mpki_with(config, "SPEC2K6-12")
        );
    }
    c.bench_function("ablation_oh_default", |b| {
        b.iter(|| mpki_with(ImliConfig::default(), "SPEC2K6-12"));
    });
}

fn counter_width_sweep(c: &mut Criterion) {
    println!("\nablation: IMLI counter width on SPEC2K6-04");
    for bits in [4usize, 6, 8, 10, 12] {
        let config = ImliConfig {
            counter_bits: bits,
            ..ImliConfig::default()
        };
        println!(
            "  counter_bits={bits:3}: {:.3} MPKI",
            mpki_with(config, "SPEC2K6-04")
        );
    }
    c.bench_function("ablation_counter_default", |b| {
        b.iter(|| mpki_with(ImliConfig::default(), "SPEC2K6-04"));
    });
}

fn configure() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = configure();
    targets = sic_size_sweep, oh_size_sweep, counter_width_sweep
}
criterion_main!(benches);
