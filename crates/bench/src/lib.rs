//! # edgenn-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the EdgeNN paper's evaluation (Section V). Each experiment lives in
//! [`experiments`] under a name (`fig06_edge_cpu_speedups`,
//! `fig08_ablation`, …, `tab1_hybrid_layer_improvement`), and its report
//! prints the paper's reported values next to the reproduction's
//! measured values.
//!
//! Run everything at once, or name the experiments to run:
//!
//! ```bash
//! cargo run --release -p edgenn-bench --bin experiments
//! cargo run --release -p edgenn-bench --bin experiments -- fig08_ablation --json
//! ```
//!
//! Shape, not absolute numbers: the substrate is a calibrated simulator
//! (see `edgenn-sim`), so the comparisons to check are *who wins, by
//! roughly what factor, and where the crossovers fall*.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod experiments;
pub mod functional_bench;
pub mod report;
pub mod timing;

pub use report::{Comparison, ExperimentReport};
