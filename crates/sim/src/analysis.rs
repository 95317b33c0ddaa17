//! Per-static-branch misprediction analysis.
//!
//! The paper's motivation (§6): "most of these mispredictions are
//! encountered due to a small number of hard-to-predict branches". This
//! module attributes a run's mispredictions to static branches so that
//! experiments can show *which* branch class a component fixed.

use bp_components::ConditionalPredictor;
use bp_trace::Trace;
use std::collections::HashMap;
use std::fmt;

/// Misprediction counts for one static branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchProfile {
    /// The branch PC.
    pub pc: u64,
    /// Dynamic occurrences.
    pub occurrences: u64,
    /// Mispredicted occurrences.
    pub mispredictions: u64,
    /// Taken occurrences.
    pub taken: u64,
    /// Whether the (taken-)target lies below the PC.
    pub backward: bool,
}

impl BranchProfile {
    /// Misprediction ratio for this branch.
    pub fn misprediction_rate(&self) -> f64 {
        if self.occurrences == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.occurrences as f64
        }
    }
}

impl fmt::Display for BranchProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#x}{}: {}/{} mispredicted ({:.1} %)",
            self.pc,
            if self.backward { " (backward)" } else { "" },
            self.mispredictions,
            self.occurrences,
            self.misprediction_rate() * 100.0
        )
    }
}

/// A per-static-branch breakdown of one simulation.
#[derive(Debug, Clone)]
pub struct MispredictionProfile {
    profiles: Vec<BranchProfile>,
    instructions: u64,
}

impl MispredictionProfile {
    /// Runs `predictor` over `trace`, attributing every misprediction to
    /// its static branch.
    pub fn collect<P: ConditionalPredictor + ?Sized>(
        predictor: &mut P,
        trace: &Trace,
    ) -> MispredictionProfile {
        let mut map: HashMap<u64, BranchProfile> = HashMap::new();
        for record in trace.iter() {
            if record.is_conditional() {
                let pred = predictor.predict(record.pc);
                let entry = map.entry(record.pc).or_insert(BranchProfile {
                    pc: record.pc,
                    occurrences: 0,
                    mispredictions: 0,
                    taken: 0,
                    backward: record.is_backward(),
                });
                entry.occurrences += 1;
                entry.taken += u64::from(record.taken);
                entry.mispredictions += u64::from(pred != record.taken);
                predictor.update(record);
            } else {
                predictor.notify_nonconditional(record);
            }
        }
        let mut profiles: Vec<BranchProfile> = map.into_values().collect();
        profiles.sort_by(|a, b| {
            b.mispredictions
                .cmp(&a.mispredictions)
                .then(a.pc.cmp(&b.pc))
        });
        MispredictionProfile {
            profiles,
            instructions: trace.instruction_count(),
        }
    }

    /// The `n` static branches with the most mispredictions, descending.
    pub fn top(&self, n: usize) -> &[BranchProfile] {
        &self.profiles[..n.min(self.profiles.len())]
    }

    /// All profiled branches (sorted by mispredictions, descending).
    pub fn all(&self) -> &[BranchProfile] {
        &self.profiles
    }

    /// Total mispredictions across all branches.
    pub fn total_mispredictions(&self) -> u64 {
        self.profiles.iter().map(|p| p.mispredictions).sum()
    }

    /// Fraction of all mispredictions caused by the `n` worst branches —
    /// the paper's "small number of hard-to-predict branches" claim,
    /// quantified.
    pub fn concentration(&self, n: usize) -> f64 {
        let total = self.total_mispredictions();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = self.top(n).iter().map(|p| p.mispredictions).sum();
        top as f64 / total as f64
    }

    /// Overall MPKI of the profiled run.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_mispredictions() as f64 * 1000.0 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_components::{AlwaysTaken, Bimodal};
    use bp_trace::BranchRecord;

    fn mixed_trace() -> Trace {
        let mut t = Trace::new("mixed");
        for i in 0..300u64 {
            // An easy branch and a hard one.
            t.push(BranchRecord::conditional(0x100, 0x180, true).with_leading_instructions(4));
            t.push(BranchRecord::conditional(0x200, 0x80, i % 2 == 0).with_leading_instructions(4));
        }
        t
    }

    #[test]
    fn attributes_mispredictions_to_the_hard_branch() {
        let profile = MispredictionProfile::collect(&mut Bimodal::new(64), &mixed_trace());
        let top = profile.top(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].pc, 0x200, "the alternating branch is hardest");
        assert!(top[0].backward);
        assert!(top[0].misprediction_rate() > 0.3);
        assert!(!format!("{}", top[0]).is_empty());
    }

    #[test]
    fn concentration_reflects_skew() {
        let profile = MispredictionProfile::collect(&mut Bimodal::new(64), &mixed_trace());
        assert!(
            profile.concentration(1) > 0.9,
            "one branch causes almost all mispredictions: {:.2}",
            profile.concentration(1)
        );
        assert!((profile.concentration(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn totals_match_simulation() {
        let trace = mixed_trace();
        let profile = MispredictionProfile::collect(&mut AlwaysTaken, &trace);
        // AlwaysTaken mispredicts exactly the not-taken halves of 0x200.
        assert_eq!(profile.total_mispredictions(), 150);
        assert!(profile.mpki() > 0.0);
        assert_eq!(profile.all().len(), 2);
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let profile = MispredictionProfile::collect(&mut AlwaysTaken, &Trace::new("empty"));
        assert_eq!(profile.total_mispredictions(), 0);
        assert_eq!(profile.concentration(5), 0.0);
        assert_eq!(profile.mpki(), 0.0);
        assert!(profile.top(3).is_empty());
    }
}
