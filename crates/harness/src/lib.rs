//! Experiment harness: regenerates every table and figure of the TSVD
//! evaluation (§5).
//!
//! The harness runs (module × detector × run-count) with trap-file
//! carry-over between runs, measures overhead against an instrumented
//! no-delay baseline, aggregates unique bugs under the paper's identity
//! (unordered static-location pair, scoped per module since generated
//! modules share scenario source), and prints each table/figure. The
//! `repro` binary drives it:
//!
//! ```text
//! cargo run --release -p tsvd-harness --bin repro -- all
//! cargo run --release -p tsvd-harness --bin repro -- table2 --modules 200 --runs 2
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod report;

pub use chaos::{run_chaos, ChaosOptions, ChaosReport};
