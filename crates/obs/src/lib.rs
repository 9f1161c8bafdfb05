//! # rhsd-obs
//!
//! Zero-dependency observability substrate for the RHSD pipeline:
//!
//! - **hierarchical span timers** ([`span`]) — RAII guards, nestable,
//!   thread-safe; a closing span adds to its stack path's totals and
//!   nothing else;
//! - a **metrics registry** ([`metrics`]) of named counters and value
//!   histograms (count, sum, min, max, mean, last), read through
//!   [`snapshot`] and written as the ledger's `run_end` counters and peaks;
//! - a **global no-op mode**: instrumentation is disabled by default and
//!   costs a single relaxed atomic load per call site until
//!   [`set_enabled`]`(true)` is called;
//! - a **run ledger** ([`ledger`]) — an append-only JSONL event stream
//!   (run manifest, per-epoch telemetry, evaluation rows, and a final
//!   `run_end` line with the status, counters and span totals) flushed
//!   line-by-line so crashed runs stay readable;
//! - **span-tree attribution** ([`spantree`]) — closed spans aggregated
//!   at close by their full stack path, read as a hierarchy with
//!   inclusive/exclusive time, call counts and a per-thread breakdown
//!   ([`span_tree`]).
//!
//! # Example
//!
//! ```
//! rhsd_obs::set_enabled(true);
//! {
//!     let _outer = rhsd_obs::span("scan-region");
//!     let _inner = rhsd_obs::span("cpn");
//!     // … work …
//! } // guards drop: durations land in the span totals
//! rhsd_obs::counter("regions", 1);
//! rhsd_obs::record("train.loss", 0.5);
//! let tree = rhsd_obs::span_tree();
//! assert_eq!(tree.roots["scan-region"].children["cpn"].count, 1);
//! assert_eq!(rhsd_obs::snapshot().histograms["train.loss"].max, 0.5);
//! # rhsd_obs::reset();
//! # rhsd_obs::set_enabled(false);
//! ```

pub mod json;
pub mod ledger;
pub mod metrics;
pub mod span;
pub mod spantree;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

pub use metrics::{HistogramSummary, MetricsSnapshot};
pub use span::{base_stack, current_stack, span, BaseStackGuard, SpanGuard};
pub use spantree::SpanTree;

/// Global switch; all instrumentation is a no-op while this is `false`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns instrumentation on or off globally (default: off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub(crate) fn registry() -> MutexGuard<'static, metrics::Registry> {
    static REGISTRY: OnceLock<Mutex<metrics::Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(metrics::Registry::default()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Adds `delta` to the named counter (no-op while disabled).
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    registry().add_counter(name, delta);
}

/// Records a value into the named histogram (no-op while disabled).
pub fn record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    registry().record(name, value);
}

/// A snapshot of every counter and histogram summary.
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// The span tree of every span closed so far: calls, inclusive and
/// exclusive seconds, and seconds per thread, per stack path.
pub fn span_tree() -> SpanTree {
    SpanTree::from_totals(&registry().spans)
}

/// Clears all recorded spans, counters and histograms (the enabled flag
/// is left unchanged).
pub fn reset() {
    registry().clear();
}

/// A plain always-on wall-clock timer.
///
/// Unlike [`span`] it measures even when observability is disabled —
/// the replacement for ad-hoc `Instant::now()` timing in reporting code
/// that must keep working without instrumentation.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: WallClock,
}

/// The workspace's one sanctioned wall clock: spans, the ledger and
/// [`Stopwatch`] read it, and every other caller times through
/// [`Stopwatch`].
#[expect(
    clippy::disallowed_types,
    reason = "rhsd-obs owns the wall clock; timing elsewhere goes through Stopwatch"
)]
pub(crate) type WallClock = std::time::Instant;

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Stopwatch {
            start: WallClock::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stops, records the elapsed time into the named histogram (when
    /// enabled) and returns it in seconds.
    pub fn stop_into(self, name: &str) -> f64 {
        let secs = self.secs();
        record(name, secs);
        secs
    }
}
