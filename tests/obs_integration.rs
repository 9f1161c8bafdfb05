//! End-to-end observability test: a demo-scale build → train → scan run
//! with instrumentation enabled must emit every pipeline stage span with
//! a nonzero duration, a valid Chrome trace and a metrics snapshot with
//! per-stage latency summaries.
//!
//! Kept as a single `#[test]` in its own binary: the obs registry is
//! process-global, so this test must not share a process with other
//! tests that reset or populate it concurrently.

use rand::SeedableRng;
use rhsd::core::{train, RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;
use rhsd::obs;

/// Stage spans the instrumented pipeline must emit (ISSUE acceptance
/// set; `backbone` and `scan` ride along as extras).
const STAGES: &[&str] = &[
    "raster",
    "litho",
    "train-epoch",
    "scan-region",
    "cpn",
    "hnms",
    "refine",
];

#[test]
fn demo_scan_emits_stage_spans_and_valid_exports() {
    obs::reset();
    obs::set_enabled(true);

    // Build (rasterisation + litho labelling happen inside), train two
    // epochs on a handful of regions, then scan the unseen test half.
    let bench = Benchmark::demo(CaseId::Case2);
    let region = RegionConfig::demo();
    let mut samples = train_regions(&bench, &region);
    samples.truncate(4);
    assert!(!samples.is_empty(), "demo bench yields training regions");

    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = region.region_px;
    cfg.clip_px = region.clip_px;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    let mut net = RhsdNetwork::new(cfg, &mut rng);
    let history = train(&mut net, &samples, &TrainConfig::tiny());
    assert_eq!(history.len(), 2);

    let detector = RegionDetector::new(net, region);
    let result = detector.scan_test_half(&bench);
    assert!(result.regions > 0);

    obs::set_enabled(false);

    // --- Every stage span is present with a nonzero duration.
    let events = obs::span_events();
    for stage in STAGES {
        let spans: Vec<_> = events.iter().filter(|e| e.name == *stage).collect();
        assert!(!spans.is_empty(), "missing stage span {stage:?}");
        assert!(
            spans.iter().any(|e| e.dur_secs > 0.0),
            "stage {stage:?} has only zero-duration spans"
        );
    }

    // Span nesting: scan-region spans contain cpn spans one level deeper.
    let outer = events
        .iter()
        .find(|e| e.name == "scan-region")
        .expect("scan-region span");
    let inner = events
        .iter()
        .find(|e| e.name == "cpn" && e.ts_us >= outer.ts_us)
        .expect("cpn span during the scan");
    assert!(
        inner.depth > outer.depth,
        "cpn should nest under scan-region"
    );

    // --- The Chrome trace is valid JSON and names every stage.
    let trace = obs::chrome_trace_json();
    obs::json::validate(&trace).expect("trace is valid JSON");
    assert!(trace.contains("traceEvents"));
    for stage in STAGES {
        assert!(trace.contains(stage), "trace missing {stage:?}");
    }

    // --- The metrics snapshot summarises each stage's latencies.
    let snapshot = obs::snapshot();
    for stage in STAGES {
        let h = snapshot
            .histograms
            .get(*stage)
            .unwrap_or_else(|| panic!("no latency histogram for {stage:?}"));
        assert!(h.count > 0);
        assert!(h.p50 <= h.p95, "{stage}: p50 {} > p95 {}", h.p50, h.p95);
        assert!(h.max > 0.0);
    }
    // Training diagnostics flowed into the registry.
    assert!(snapshot.histograms.contains_key("train.loss"));
    assert!(snapshot.histograms.contains_key("train.grad_norm"));
    assert_eq!(snapshot.counters.get("train.samples"), Some(&8));

    let metrics = obs::metrics_json();
    obs::json::validate(&metrics).expect("metrics snapshot is valid JSON");
    assert!(metrics.contains("p95"));

    obs::reset();
}
