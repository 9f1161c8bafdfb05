//! End-to-end observability test: a demo-scale build → train → scan run
//! with instrumentation enabled must put every pipeline stage in the span
//! tree with a nonzero duration, leave a ledger whose Chrome trace is
//! valid JSON, and fill a metrics snapshot with per-stage latency
//! summaries.
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
    let ledger_path =
        std::env::temp_dir().join(format!("rhsd_obs_it_{}.jsonl", std::process::id()));
    obs::ledger::open(&ledger_path, obs::ledger::Manifest::default()).expect("open ledger");

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
    obs::ledger::close("ok");

    // --- Every stage is in the span tree with a nonzero duration.
    let tree = obs::span_tree();
    let nodes = tree.nodes();
    let leaf = |path: &str| path.rsplit(';').next().unwrap_or_default().to_owned();
    for stage in STAGES {
        let spans: Vec<_> = nodes
            .iter()
            .filter(|(path, node)| node.count > 0 && leaf(path) == *stage)
            .collect();
        assert!(!spans.is_empty(), "missing stage span {stage:?}");
        assert!(
            spans.iter().any(|(_, node)| node.incl_secs > 0.0),
            "stage {stage:?} has only zero-duration spans"
        );
    }

    // Span nesting: cpn spans close below a scan-region span.
    assert!(
        nodes.iter().any(|(path, node)| {
            node.count > 0 && leaf(path) == "cpn" && path.split(';').any(|f| f == "scan-region")
        }),
        "cpn should nest under scan-region:\n{}",
        tree.render()
    );

    // --- The Chrome trace rendered from the ledger is valid JSON and
    // names every stage.
    let ledger = std::fs::read_to_string(&ledger_path).expect("read ledger");
    std::fs::remove_file(&ledger_path).ok();
    let trace = obs::ledger::chrome_trace_json(&ledger);
    obs::json::validate(&trace).expect("trace is valid JSON");
    assert!(trace.contains("traceEvents"));
    for stage in STAGES {
        assert!(
            trace.contains(&format!("\"name\":\"{stage}\"")),
            "trace missing {stage:?}"
        );
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
