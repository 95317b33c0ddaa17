//! Benchmark specifications: named, seeded kernel mixes.

use crate::kernels::KernelSpec;
use crate::stream::BenchmarkStream;
use bp_trace::Trace;

/// A named synthetic benchmark: a weighted mix of kernels plus a seed.
///
/// Generation interleaves the kernels in phases (as a real program
/// interleaves its loops), with per-phase budgets proportional to the
/// kernel weights, until the requested instruction count is reached.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (mirrors the paper's CBP labels, e.g.
    /// `"SPEC2K6-12"`).
    pub name: String,
    /// The kernel mix: `(kernel, weight)`.
    pub kernels: Vec<(KernelSpec, f64)>,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl BenchmarkSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or any weight is non-positive.
    pub fn new(name: impl Into<String>, seed: u64, kernels: Vec<(KernelSpec, f64)>) -> Self {
        assert!(!kernels.is_empty(), "benchmark needs at least one kernel");
        assert!(
            kernels.iter().all(|(_, w)| *w > 0.0),
            "kernel weights must be positive"
        );
        BenchmarkSpec {
            name: name.into(),
            kernels,
            seed,
        }
    }

    /// The spec's complete identity as text: name, seed and kernel mix
    /// (every kernel parameter and weight). Specs with equal identity
    /// texts generate equal streams; the result cache checks a hash of
    /// it before reusing a benchmark's entry.
    pub fn identity_text(&self) -> String {
        format!("{} seed {} mix {:?}", self.name, self.seed, self.kernels)
    }

    /// Opens a lazy record stream for this benchmark — the O(1)-memory
    /// path (see [`BenchmarkStream`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec was constructed manually with an empty kernel
    /// list.
    pub fn stream(&self, instructions: u64) -> BenchmarkStream {
        BenchmarkStream::new(self, instructions)
    }
}

/// Instructions emitted per generation phase (per unit weight).
pub(crate) const PHASE_INSTRUCTIONS: u64 = 4_000;

/// Generates the benchmark's trace with (at least) `instructions`
/// retired instructions, fully materialized in memory.
///
/// Deterministic: the same spec and instruction budget always produce
/// the identical trace. This is a thin collect wrapper over
/// [`BenchmarkSpec::stream`] — simulation paths that do not need random
/// access should consume the stream directly and skip the O(n)
/// allocation.
///
/// # Panics
///
/// Panics under the same conditions as [`BenchmarkSpec::new`] if the
/// spec was constructed manually with an empty kernel list.
pub fn generate(spec: &BenchmarkSpec, instructions: u64) -> Trace {
    let est = (instructions as usize / 5).min(1 << 26);
    let mut trace = Trace::with_capacity(spec.name.clone(), est);
    trace.extend(spec.stream(instructions));
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::TripCount;

    fn sample_spec() -> BenchmarkSpec {
        BenchmarkSpec::new(
            "sample",
            7,
            vec![
                (
                    KernelSpec::Biased {
                        probabilities: vec![0.9, 0.3],
                    },
                    1.0,
                ),
                (
                    KernelSpec::SameIteration {
                        trip: TripCount::Fixed(12),
                        drift: 0.1,
                        noise_branches: 1,
                    },
                    2.0,
                ),
            ],
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = sample_spec();
        let a = generate(&spec, 100_000);
        let b = generate(&spec, 100_000);
        assert_eq!(a, b);
        assert_eq!(a.name(), "sample");
    }

    #[test]
    fn generation_reaches_budget() {
        let t = generate(&sample_spec(), 250_000);
        assert!(t.instruction_count() >= 250_000);
        // And does not wildly overshoot (one kernel phase at most).
        assert!(t.instruction_count() < 300_000);
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = sample_spec();
        let a = generate(&spec, 50_000);
        spec.seed = 8;
        let b = generate(&spec, 50_000);
        assert_ne!(a, b);
    }

    #[test]
    fn weights_skew_the_mix() {
        let t = generate(&sample_spec(), 200_000);
        let stats = t.stats();
        // The nest kernel (weight 2) must dominate the record count:
        // its PCs live in the second kernel's region.
        let nest_records = t
            .iter()
            .filter(|r| r.pc >= 0x41_0000 && r.pc < 0x42_0000)
            .count();
        assert!(nest_records as f64 > t.len() as f64 * 0.5);
        assert!(stats.conditionals() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn rejects_empty_specs() {
        let _ = BenchmarkSpec::new("x", 0, vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_weights() {
        let _ = BenchmarkSpec::new(
            "x",
            0,
            vec![(
                KernelSpec::Irregular {
                    branches: 1,
                    spread: 0.1,
                },
                0.0,
            )],
        );
    }
}
