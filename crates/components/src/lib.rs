//! Branch predictor building blocks.
//!
//! This crate defines the pieces every predictor in the workspace is
//! assembled from:
//!
//! * [`SaturatingCounter`] — the ubiquitous n-bit signed confidence
//!   counter;
//! * [`ConditionalPredictor`] — the trait the simulator drives
//!   (CBP-style `predict`/`update` protocol) plus storage accounting;
//! * [`BimodalTable`] and the [`Bimodal`]/[`GShare`] reference predictors;
//! * [`LoopPredictor`] — the Intel-style loop-exit predictor (paper
//!   §2.2.1), also used by the wormhole predictor to learn trip counts;
//! * [`AdaptiveThreshold`] — the O-GEHL dynamic update threshold shared by
//!   GEHL and the statistical corrector;
//! * [`SumComponent`]/[`SumCtx`] — the adder-tree abstraction of
//!   neural-inspired predictors. The IMLI components of the paper are
//!   `SumComponent`s added to a host's summation (paper Figures 5 and 6);
//! * [`StorageBudget`]/[`StorageItem`] — exact per-table storage
//!   accounting behind the paper's fixed-budget comparisons;
//! * [`PredictionAttribution`]/[`ProviderComponent`] — the opt-in
//!   instrumentation channel reporting which component provided each
//!   prediction (consumed by `bp-sim`'s report layer);
//! * [`PredictorConfig`]/[`ConfigValue`] — the typed configuration
//!   layer: every predictor family is buildable, validatable, and
//!   serializable from data (consumed by `bp-sim`'s registry and its
//!   budget-sweep solver), with [`BimodalConfig`] and [`GShareConfig`]
//!   covering the baselines defined in this crate.

#![warn(missing_docs)]

mod attribution;
mod bimodal;
mod budget;
mod config;
mod counter;
mod gshare;
mod hash;
mod kernel;
mod loop_pred;
mod predictor;
mod sum;
mod threshold;

pub use attribution::{
    AttributionOutcome, ConfidenceBucket, PredictionAttribution, ProviderComponent,
};
pub use bimodal::{Bimodal, BimodalTable};
pub use budget::{StorageBudget, StorageItem};
pub use config::{
    json_string, BimodalConfig, ConfigError, ConfigValue, GShareConfig, PredictorConfig,
};
pub use counter::SaturatingCounter;
pub use gshare::GShare;
pub use hash::{fold_u64, mix64, pc_bits};
pub use kernel::{sum_centered, sum_centered_padded, sum_i8, sum_i8_reference};
pub use loop_pred::{LoopPrediction, LoopPredictor, LoopPredictorConfig};
pub use predictor::{AlwaysTaken, ConditionalPredictor, PredictorStats};
pub use sum::{CounterBank, SignedCounterTable, SumComponent, SumCtx};
pub use threshold::AdaptiveThreshold;
