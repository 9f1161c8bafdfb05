//! # rhsd-bench
//!
//! Reproduction harness for the paper's evaluation, run by the `repro`
//! binary: [`args`] is its command line, the [`pipeline`] trains each
//! detector once per [`pipeline::Run`] and times it, [`table`] renders
//! the reports and [`viz`] draws Figure-9-style SVG comparisons. A run's
//! ledger is on by default; `cargo xtask report` renders its span tree.

pub mod args;
pub mod pipeline;
pub mod table;
pub mod viz;

pub use args::{fail, usage, BenchArgs, Experiment};
