//! Configuration of the IMLI components.

use bp_components::{ConfigError, ConfigValue};

/// Geometry of the IMLI components.
///
/// The default reproduces the paper's §4.4 budget of **708 bytes**:
/// 384 bytes of IMLI-SIC table, 128 bytes of outer-history table,
/// 192 bytes of IMLI-OH prediction table, and 4 bytes for the PIPE vector
/// plus the IMLI counter.
///
/// ```
/// use imli::ImliConfig;
/// let c = ImliConfig::default();
/// assert_eq!(c.storage_bits(), 708 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImliConfig {
    /// IMLI counter width in bits (paper: 10).
    pub counter_bits: usize,
    /// IMLI-SIC table entries (paper: 512).
    pub sic_entries: usize,
    /// IMLI-SIC counter width (paper: 6).
    pub sic_counter_bits: usize,
    /// Outer-history bit table size in bits (paper: 1 Kbit).
    pub outer_history_bits: usize,
    /// PIPE vector width: one bit per tracked static branch (paper: 16).
    pub pipe_bits: usize,
    /// IMLI-OH prediction table entries (paper: 256).
    pub oh_entries: usize,
    /// IMLI-OH counter width (paper: 6).
    pub oh_counter_bits: usize,
    /// Commit-delay (in conditional branches) applied to outer-history
    /// table updates; `0` models the idealized immediate update, the
    /// paper's §4.3.2 experiment uses 63.
    pub outer_history_update_delay: usize,
    /// Enable the IMLI-SIC component.
    pub sic_enabled: bool,
    /// Enable the IMLI-OH component.
    pub oh_enabled: bool,
}

impl Default for ImliConfig {
    fn default() -> Self {
        ImliConfig {
            counter_bits: 10,
            sic_entries: 512,
            sic_counter_bits: 6,
            outer_history_bits: 1024,
            pipe_bits: 16,
            oh_entries: 256,
            oh_counter_bits: 6,
            outer_history_update_delay: 0,
            sic_enabled: true,
            oh_enabled: true,
        }
    }
}

impl ImliConfig {
    /// Configuration with only the IMLI-SIC component active (the paper's
    /// "IMLI-SIC alone" bars in Figures 8-11).
    pub fn sic_only() -> Self {
        ImliConfig {
            oh_enabled: false,
            ..Self::default()
        }
    }

    /// Configuration with only the IMLI-OH component active (Figure 13's
    /// IMLI-OH-vs-WH comparison).
    pub fn oh_only() -> Self {
        ImliConfig {
            sic_enabled: false,
            ..Self::default()
        }
    }

    /// The §4.3.2 delayed-update experiment: outer-history updates land
    /// only after the next 63 conditional branches have been fetched.
    pub fn delayed_update(delay: usize) -> Self {
        ImliConfig {
            outer_history_update_delay: delay,
            ..Self::default()
        }
    }

    /// Total storage of the *enabled* components in bits, including the
    /// counter and PIPE vector.
    pub fn storage_bits(&self) -> u64 {
        let mut bits = self.counter_bits as u64;
        if self.sic_enabled {
            bits += (self.sic_entries * self.sic_counter_bits) as u64;
        }
        if self.oh_enabled {
            bits += self.outer_history_bits as u64
                + self.pipe_bits as u64
                + (self.oh_entries * self.oh_counter_bits) as u64
            // Round the counter+PIPE group up to the paper's 4 bytes.
                + (32 - self.counter_bits as u64 - self.pipe_bits as u64);
        }
        bits
    }

    /// Width of the speculative checkpoint in bits: the IMLI counter plus
    /// (when IMLI-OH is enabled) the PIPE vector — the paper's §4.4
    /// complexity argument.
    pub fn checkpoint_bits(&self) -> u64 {
        self.counter_bits as u64
            + if self.oh_enabled {
                self.pipe_bits as u64
            } else {
                0
            }
    }

    /// Checks internal consistency, returning the first violation
    /// instead of panicking (the config-layer entry point; the
    /// constructors panic on its error).
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(self.sic_entries.is_power_of_two() && self.oh_entries.is_power_of_two()) {
            return Err("table entry counts must be powers of two".into());
        }
        if self.sic_entries > 1 << 24 || self.oh_entries > 1 << 24 {
            return Err("table entry counts must be at most 2^24".into());
        }
        if !self.outer_history_bits.is_power_of_two() {
            return Err("outer history size must be a power of two".into());
        }
        if self.outer_history_bits < 64 {
            // The outer-history structure is always constructed (IMLI-OH
            // merely gates its use), and it stores whole 64-bit words.
            return Err("outer history table must hold at least 64 bits".into());
        }
        if self.outer_history_bits > 1 << 24 {
            return Err("outer history table must hold at most 2^24 bits".into());
        }
        if !self.pipe_bits.is_power_of_two() || self.pipe_bits > 16 {
            return Err("pipe vector width must be a power of two <= 16".into());
        }
        if !(1..=16).contains(&self.counter_bits) {
            return Err("counter width must be in 1..=16".into());
        }
        if self.outer_history_bits < self.pipe_bits {
            return Err("outer history must cover every PIPE-tracked branch".into());
        }
        if !((1..=7).contains(&self.sic_counter_bits) && (1..=7).contains(&self.oh_counter_bits)) {
            return Err("counter widths must be in 1..=7".into());
        }
        Ok(())
    }

    /// Exact storage in bits of the *built*
    /// [`ImliState`](crate::ImliState) — its `storage_items` sum: the
    /// counter, the SIC table when enabled, and (when IMLI-OH is
    /// enabled) the OH prediction table plus the outer-history bit
    /// table and PIPE vector.
    ///
    /// This differs from [`ImliConfig::storage_bits`], which reproduces
    /// the paper's §4.4 *quoted* budget by rounding the counter+PIPE
    /// group up to 4 bytes; the config layer needs the exact built
    /// itemization.
    pub fn state_storage_bits(&self) -> u64 {
        let mut bits = self.counter_bits as u64;
        if self.sic_enabled {
            bits += (self.sic_entries * self.sic_counter_bits) as u64;
        }
        if self.oh_enabled {
            bits += (self.oh_entries * self.oh_counter_bits) as u64
                + self.outer_history_bits as u64
                + self.pipe_bits as u64;
        }
        bits
    }

    /// Serializes as a [`ConfigValue`] object.
    pub fn to_value(&self) -> ConfigValue {
        ConfigValue::map()
            .set("counter_bits", ConfigValue::int(self.counter_bits))
            .set("sic_entries", ConfigValue::int(self.sic_entries))
            .set("sic_counter_bits", ConfigValue::int(self.sic_counter_bits))
            .set(
                "outer_history_bits",
                ConfigValue::int(self.outer_history_bits),
            )
            .set("pipe_bits", ConfigValue::int(self.pipe_bits))
            .set("oh_entries", ConfigValue::int(self.oh_entries))
            .set("oh_counter_bits", ConfigValue::int(self.oh_counter_bits))
            .set(
                "outer_history_update_delay",
                ConfigValue::int(self.outer_history_update_delay),
            )
            .set("sic_enabled", ConfigValue::Bool(self.sic_enabled))
            .set("oh_enabled", ConfigValue::Bool(self.oh_enabled))
    }

    /// Parses from a [`ConfigValue`] object (strict keys).
    pub fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        value.expect_keys(
            "imli config",
            &[
                "counter_bits",
                "sic_entries",
                "sic_counter_bits",
                "outer_history_bits",
                "pipe_bits",
                "oh_entries",
                "oh_counter_bits",
                "outer_history_update_delay",
                "sic_enabled",
                "oh_enabled",
            ],
        )?;
        Ok(ImliConfig {
            counter_bits: value.req("counter_bits")?.as_usize("counter_bits")?,
            sic_entries: value.req("sic_entries")?.as_usize("sic_entries")?,
            sic_counter_bits: value
                .req("sic_counter_bits")?
                .as_usize("sic_counter_bits")?,
            outer_history_bits: value
                .req("outer_history_bits")?
                .as_usize("outer_history_bits")?,
            pipe_bits: value.req("pipe_bits")?.as_usize("pipe_bits")?,
            oh_entries: value.req("oh_entries")?.as_usize("oh_entries")?,
            oh_counter_bits: value.req("oh_counter_bits")?.as_usize("oh_counter_bits")?,
            outer_history_update_delay: value
                .req("outer_history_update_delay")?
                .as_usize("outer_history_update_delay")?,
            sic_enabled: value.req("sic_enabled")?.as_bool("sic_enabled")?,
            oh_enabled: value.req("oh_enabled")?.as_bool("oh_enabled")?,
        })
    }

    /// Iterations per tracked branch in the outer-history table
    /// (paper: 1024 / 16 = 64).
    pub fn iterations_per_branch(&self) -> usize {
        self.outer_history_bits / self.pipe_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_budget() {
        let c = ImliConfig::default();
        c.check().expect("valid config");
        // §4.4: 384 B SIC + 128 B OH history + 192 B OH table + 4 B
        // PIPE/counter = 708 bytes.
        assert_eq!(c.storage_bits(), 708 * 8);
        assert_eq!(c.checkpoint_bits(), 26);
        assert_eq!(c.iterations_per_branch(), 64);
    }

    #[test]
    fn sic_only_budget() {
        let c = ImliConfig::sic_only();
        c.check().expect("valid config");
        assert_eq!(c.storage_bits(), 512 * 6 + 10);
        assert_eq!(c.checkpoint_bits(), 10);
        assert!(!c.oh_enabled && c.sic_enabled);
    }

    #[test]
    fn oh_only_flags() {
        let c = ImliConfig::oh_only();
        c.check().expect("valid config");
        assert!(c.oh_enabled && !c.sic_enabled);
    }

    #[test]
    fn delayed_update_sets_delay() {
        assert_eq!(
            ImliConfig::delayed_update(63).outer_history_update_delay,
            63
        );
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn validate_rejects_bad_sizes() {
        crate::state::ImliState::new(&ImliConfig {
            sic_entries: 500,
            ..ImliConfig::default()
        });
    }
}
