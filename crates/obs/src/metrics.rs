//! Named counters and value histograms, and closed-span totals per
//! stack path.

use std::collections::BTreeMap;

use crate::spantree::SpanNode;

/// A value histogram: exact count, sum, min, max and last.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
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
    }

    /// Summarises the histogram.
    pub fn summary(&self) -> HistogramSummary {
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
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarises_to_zero() {
        let s = Histogram::default().summary();
        assert_eq!((s.count, s.sum, s.mean, s.max), (0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn one_sample_is_every_statistic() {
        let mut h = Histogram::default();
        h.record(42.0);
        let s = h.summary();
        assert_eq!((s.min, s.max, s.mean, s.last), (42.0, 42.0, 42.0, 42.0));
    }

    #[test]
    fn sum_and_mean_cover_every_sample() {
        let mut h = Histogram::default();
        for i in 1..=100u64 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!((s.count, s.sum, s.min, s.max), (100, 5050.0, 1.0, 100.0));
        assert!((s.mean - 50.5).abs() < 1e-9);
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
}
