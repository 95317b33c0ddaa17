//! The paper-claims ledger and the measurement harnesses behind
//! `bp claims` and `bp bench`.
//!
//! * [`claims`] — every checked claim of the paper's evaluation as one
//!   data row, run as one engine grid over both suites and rendered as
//!   the byte-deterministic `CLAIMS_paper.md` / `CLAIMS_paper.json`;
//! * [`sim_bench`] — predictor throughput and its regression gate
//!   (`bp bench --sim`);
//! * [`trace_bench`] — trace-file size and decode throughput
//!   (`bp bench`).

#![warn(missing_docs)]

pub mod claims;
pub mod sim_bench;
pub mod trace_bench;
