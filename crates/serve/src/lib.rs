//! # rhsd-serve
//!
//! A long-lived scan server over the trained detector — the deployment
//! shape the paper's fast-inference claim is for. One process loads a
//! saved model once ([`rhsd_core::persist`]), listens on loopback TCP,
//! and serves layout-scan requests framed as length-prefixed JSON
//! ([`proto`]). Each scan request is one pass over the `rhsd-par` pool,
//! one task per region, run from its connection thread ([`server`]);
//! scans from concurrent connections meet in the pool's own task queue.
//! Its [`cache`] is a fixed table with one entry per scan a request can
//! name: each case's labelled benchmark and each `(case, half)`'s region
//! tiles, built on first request and kept with their stem activations.
//! It is the only scan cache in the workspace, because a server is the
//! only process whose traffic repeats and whose network never changes.
//!
//! The load-bearing invariant: a served scan is **bit-identical** to
//! the offline scan of the same case ([`offline_scan`]). Sharing the
//! pool is output-invariant (per-region detection is independent and
//! reads the network without mutating it), a replayed stem holds exactly
//! the bits a fresh stem pass computes, and both the server and the
//! offline reference writer serialise results through the same
//! [`proto::scan_response_json`], so CI checks the whole claim with a
//! byte comparison of two files.
//!
//! Zero new dependencies: JSON comes from `rhsd_obs::json`, networking
//! from `std::net`, parallelism from `rhsd-par`.

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{Half, ProtoError, Request};
pub use server::{offline_scan, ServeConfig, ServeError, ServeSummary, Server};
