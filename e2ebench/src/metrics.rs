//! Metric names, units, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (untraced runs): name, unit, and which way is
/// better.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("wall_norm", "ratio", "lower"),
    ("sim_minstr_per_s", "Minstr/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("mpki_mean", "MPKI", "lower"),
];

/// Per-layer metrics (traced runs): name, unit, and which way is
/// better. Every workload reports all of them; a layer the workload
/// does not reach reads 0.
pub const PER_LAYER: [(&str, &str, &str); 39] = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.gen_mrec_per_s", "Mrec/s", "higher"),
    ("workloads.records", "count", "lower"),
    ("workloads.interleave_s", "s", "lower"),
    ("workloads.events", "count", "lower"),
    ("workloads.flushes", "count", "lower"),
    ("drive.baseline.s", "s", "lower"),
    ("drive.baseline.mrec_per_s", "Mrec/s", "higher"),
    ("drive.baseline.build_s", "s", "lower"),
    ("drive.perceptron.s", "s", "lower"),
    ("drive.perceptron.mrec_per_s", "Mrec/s", "higher"),
    ("drive.perceptron.build_s", "s", "lower"),
    ("drive.gehl.s", "s", "lower"),
    ("drive.gehl.mrec_per_s", "Mrec/s", "higher"),
    ("drive.gehl.build_s", "s", "lower"),
    ("drive.tage.s", "s", "lower"),
    ("drive.tage.mrec_per_s", "Mrec/s", "higher"),
    ("drive.tage.build_s", "s", "lower"),
    ("drive.records", "count", "lower"),
    ("report.attrib_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("sweep.solve_s", "s", "lower"),
    ("sweep.configs", "count", "lower"),
    ("sweep.render_s", "s", "lower"),
    ("scenario.drive_s", "s", "lower"),
    ("scenario.render_s", "s", "lower"),
    ("engine.cell_s.p50", "s", "lower"),
    ("engine.cell_s.p90", "s", "lower"),
    ("engine.idle_s", "s", "lower"),
    ("engine.overhead_s", "s", "lower"),
    ("cache.key_s", "s", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.save_s", "s", "lower"),
    ("cache.codec_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes", "bytes", "lower"),
    ("cache.entries", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Is `name` a valid metric name (`[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a known metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, unit, _)| unit)
}

/// Renders the benchmark's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; a layer with nothing to
        // divide by reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
    }

    /// The quoted value after `"<key>": ` in each object of `text`.
    fn field_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\": \"");
        text.match_indices(&needle)
            .map(|(i, _)| {
                let rest = &text[i + needle.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = crate::workload::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let (head, per_layer) = text.split_at(text.find("\"per_layer\"").expect("per_layer"));
        let e2e = &head[head.find("\"end_to_end\"").expect("end_to_end")..];
        let expect = |table: &[(&str, &str, &str)]| {
            table
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        };
        let got = |part: &str| {
            let names = field_values(part, "name");
            let units = field_values(part, "unit");
            let better = field_values(part, "better");
            names
                .iter()
                .zip(&units)
                .zip(&better)
                .map(|((n, u), b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(got(e2e), expect(&END_TO_END));
        assert_eq!(got(per_layer), expect(&PER_LAYER));
        for name in field_values(&text, "name") {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("wall_s", 1.25), ("mpki_mean", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"mpki_mean\": {\"value\": 0, \"unit\": \"MPKI\"}}}"
        );
    }
}
