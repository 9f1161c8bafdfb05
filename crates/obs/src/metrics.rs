//! Named counters and latency histograms with percentile summaries,
//! closed-span totals per stack path, and the `metrics.json` snapshot.

use std::collections::BTreeMap;

use crate::json::{number, object_of};
use crate::spantree::SpanNode;

/// Samples stored per histogram before new values stop being retained
/// for percentile estimation (count/sum/min/max/last stay exact).
pub const MAX_SAMPLES: usize = 1 << 16;

/// A latency/value histogram: exact count, sum, min, max and last, with
/// percentiles computed over up to [`MAX_SAMPLES`] retained samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.last = value;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(value);
        }
    }

    /// Total samples recorded (including ones beyond the retention cap).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0 < q <= 1`) by the nearest-rank rule over the
    /// retained samples; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        nearest_rank(&self.sorted(), q)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Summarises the histogram (one sort for all three quantiles).
    pub fn summary(&self) -> HistogramSummary {
        let sorted = self.sorted();
        let q = |q| nearest_rank(&sorted, q).unwrap_or(0.0);
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: if self.count > 0 {
                self.sum / self.count as f64
            } else {
                0.0
            },
            last: self.last,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
        }
    }
}

/// The `q`-quantile of ascending `sorted` by the nearest-rank rule.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

/// Scalar summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Mean over all samples.
    pub mean: f64,
    /// Most recent sample.
    pub last: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// A point-in-time copy of every counter and histogram summary.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// The global mutable store behind the crate's free functions.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
    /// Closed-span totals by full `;`-joined path (flat nodes, no
    /// children). Span names are static, so this grows with the number
    /// of distinct paths only.
    pub(crate) spans: BTreeMap<String, SpanNode>,
}

/// Applies `f` to `map[key]`, inserting a default first; allocates only
/// when `key` is new.
fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

impl Registry {
    pub(crate) fn add_counter(&mut self, name: &str, delta: u64) {
        update(&mut self.counters, name, |c| *c += delta);
    }

    pub(crate) fn record(&mut self, name: &str, value: f64) {
        update(&mut self.histograms, name, |h| h.record(value));
    }

    /// Adds one span of `secs` closed on thread `tid` to its path's totals.
    pub(crate) fn close_span(&mut self, path: &str, tid: u64, secs: f64) {
        update(&mut self.spans, path, |node| node.add(secs, tid));
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
        self.spans.clear();
    }
}

/// Renders a metrics snapshot as JSON: counters and histogram summaries
/// (count/sum/min/max/mean/last/p50/p95/p99).
pub(crate) fn metrics_json(snap: &MetricsSnapshot) -> String {
    let counters = object_of(snap.counters.iter().map(|(k, v)| (k, v.to_string())));
    let histograms = object_of(snap.histograms.iter().map(|(k, s)| {
        let fields = [
            ("count", s.count.to_string()),
            ("sum", number(s.sum)),
            ("min", number(s.min)),
            ("max", number(s.max)),
            ("mean", number(s.mean)),
            ("last", number(s.last)),
            ("p50", number(s.p50)),
            ("p95", number(s.p95)),
            ("p99", number(s.p99)),
        ];
        (k, object_of(fields))
    }));
    object_of([("counters", counters), ("histograms", histograms)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::span::tests::global_lock;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn one_sample_dominates_every_quantile() {
        let mut h = Histogram::default();
        h.record(42.0);
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(42.0), "q={q}");
        }
        let s = h.summary();
        assert_eq!((s.min, s.max, s.mean, s.last), (42.0, 42.0, 42.0, 42.0));
    }

    #[test]
    fn uniform_samples_hit_nearest_rank_percentiles() {
        let mut h = Histogram::default();
        // insert 1..=100 shuffled (deterministic stride walk)
        for i in 0..100u64 {
            h.record(((i * 37 + 13) % 100 + 1) as f64);
        }
        assert_eq!(h.quantile(0.50), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        let s = h.summary();
        assert_eq!((s.p50, s.p95, s.p99), (50.0, 95.0, 99.0));
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_rank_clamps_at_both_ends() {
        let mut h = Histogram::default();
        h.record(1.0);
        h.record(2.0);
        // q ≈ 0 still selects the first sample (rank clamped to 1), and
        // q = 1 the last; out-of-range q never panics or walks off the end
        assert_eq!(h.quantile(1e-12), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(2.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(2.0), Some(2.0));
    }

    #[test]
    fn two_samples_split_at_the_median() {
        let mut h = Histogram::default();
        h.record(10.0);
        h.record(20.0);
        // nearest-rank: ceil(0.5·2) = 1 → first sample
        assert_eq!(h.quantile(0.5), Some(10.0));
        assert_eq!(h.quantile(0.51), Some(20.0));
        let s = h.summary();
        assert_eq!(s.p50, 10.0);
        assert_eq!((s.count, s.mean), (2, 15.0));
    }

    #[test]
    fn min_max_track_extremes() {
        let mut h = Histogram::default();
        h.record(5.0);
        h.record(-3.0);
        h.record(9.0);
        let s = h.summary();
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.last, 9.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::default();
        r.add_counter("a", 2);
        r.add_counter("a", 3);
        r.add_counter("b", 1);
        let s = r.snapshot();
        assert_eq!(s.counters["a"], 5);
        assert_eq!(s.counters["b"], 1);
    }

    #[test]
    fn metrics_json_is_valid_and_complete() {
        let _g = global_lock();
        crate::set_enabled(true);
        crate::reset();
        crate::counter("scanned", 7);
        for v in [1.0, 2.0, 3.0] {
            crate::record("lat", v);
        }
        let json = crate::metrics_json();
        crate::set_enabled(false);
        validate(&json).unwrap_or_else(|at| panic!("invalid metrics at {at}: {json}"));
        assert!(json.contains("\"scanned\":7"));
        assert!(json.contains("\"p95\":3"));
    }

    #[test]
    fn empty_registry_exports_validate() {
        let _g = global_lock();
        crate::set_enabled(false);
        crate::reset();
        assert!(validate(&crate::metrics_json()).is_ok());
        assert!(crate::span_tree().is_empty());
    }
}
