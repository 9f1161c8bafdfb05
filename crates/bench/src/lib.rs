//! # rhsd-bench
//!
//! Reproduction harness for the paper's evaluation: the [`pipeline`]
//! trains and times every detector of Table 1, [`table`] renders the
//! report, and [`viz`] draws Figure-9-style SVG comparisons. The
//! `repro_table1`, `repro_fig9` and `repro_fig10` binaries regenerate the
//! corresponding table/figures.
//!
//! All binaries share the [`args`] flag parser: `--quick` for reduced
//! effort and `--ledger <path>` for the run ledger (on by default; see
//! `rhsd-obs`); `cargo xtask report` renders a ledger's span tree.

pub mod args;
pub mod pipeline;
pub mod table;
pub mod viz;

pub use args::{fail, usage, BenchArgs};
