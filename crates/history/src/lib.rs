//! Branch history substrates.
//!
//! The predictors in this workspace consume four forms of history, all
//! defined here:
//!
//! * [`GlobalHistory`] — the global direction history, stored in a circular
//!   bit buffer behind a monotonically increasing head.
//! * [`FoldedHistory`] — incrementally maintained CRC-style folds of a long
//!   history segment down to index/tag width, as used by TAGE and the
//!   GEHL-style components.
//! * [`PathHistory`] — a shift register of low PC bits of every taken-path
//!   redirection.
//! * [`LocalHistoryTable`] — per-static-branch direction histories, the
//!   expensive-to-speculate structure the paper argues against (§2.3.2).
//!
//! [`HistoryState`] bundles a global history with a set of folded histories
//! and a path history and keeps them consistent under `push` and `flush`.
//!
//! The simulator is trace-driven: every pushed outcome is committed, so
//! nothing here checkpoints or rewinds history and the head never moves
//! backwards. The paper's speculation argument (§4.4) concerns only the
//! IMLI state, whose 26-bit checkpoint lives in the `imli` crate.

#![warn(missing_docs)]

mod folded;
mod global;
mod local;
mod path;
mod state;

pub use folded::FoldedHistory;
pub use global::GlobalHistory;
pub use local::LocalHistoryTable;
pub use path::PathHistory;
pub use state::{FoldId, HistoryState};
