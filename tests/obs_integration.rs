//! End-to-end observability test: a demo-scale build → train → scan run
//! with instrumentation enabled must put every pipeline stage in the span
//! tree with a nonzero duration, leave a ledger whose `run_end` line
//! carries that tree bit for bit (and no per-span line), nest the
//! refinement head's convolutions under its module spans, key the bench
//! record's `stage_secs` by the same paths, and fill a metrics snapshot
//! with the training diagnostics.
//!
//! Kept as a single `#[test]` in its own binary: the obs registry is
//! process-global, so this test must not share a process with other
//! tests that reset or populate it concurrently.

use rand::SeedableRng;
use rhsd::core::{train, RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;
use rhsd::obs;
use rhsd::obs::json::Value;

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

    // The refinement head's convolutions, backward as forward, sit
    // under its module spans, never straight under the phase span.
    let head_convs: Vec<&str> = nodes
        .iter()
        .filter(|(path, node)| {
            node.count > 0
                && path.split(';').any(|f| f == "train-heads")
                && leaf(path).starts_with("Conv2d#")
        })
        .map(|(path, _)| path.as_str())
        .collect();
    assert!(
        !head_convs.is_empty(),
        "no head convolution under train-heads:\n{}",
        tree.render()
    );
    for path in &head_convs {
        assert!(
            path.split(';')
                .any(|f| f == "inception-a" || f == "inception-b"),
            "{path} lies under no inception span"
        );
    }

    // --- The ledger holds no per-span line: its `run_end` carries the
    // tree, which parses back equal to the registry's for every path.
    let ledger = std::fs::read_to_string(&ledger_path).expect("read ledger");
    std::fs::remove_file(&ledger_path).ok();
    let lines: Vec<Value> = ledger
        .lines()
        .map(|l| obs::json::parse(l).expect("ledger line parses"))
        .collect();
    let events: Vec<&str> = lines
        .iter()
        .filter_map(|v| v.get("event").and_then(Value::as_str))
        .collect();
    let epochs = vec!["epoch"; history.len()];
    assert_eq!(events, [&["run_start"][..], &epochs, &["run_end"]].concat());
    let logged = obs::ledger::run_end_spans(lines.last().expect("run_end"));
    let logged_nodes = logged.nodes();
    assert_eq!(logged_nodes.len(), nodes.len(), "{}", logged.render());
    for ((path, node), (want_path, want)) in logged_nodes.iter().zip(&nodes) {
        assert_eq!(path, want_path);
        assert_eq!(node.count, want.count, "{path}");
        assert_eq!(node.incl_secs.to_bits(), want.incl_secs.to_bits(), "{path}");
        let bits = |n: &obs::spantree::SpanNode| -> Vec<(u64, u64)> {
            n.by_thread.iter().map(|(t, s)| (*t, s.to_bits())).collect()
        };
        assert_eq!(bits(node), bits(want), "{path}");
    }
    for stage in STAGES {
        assert!(
            logged_nodes
                .iter()
                .any(|(path, node)| node.count > 0 && leaf(path) == *stage),
            "run_end spans miss {stage:?}"
        );
    }

    // --- The bench record's stage_secs are the tree's closed paths.
    let record = rhsd_bench::pipeline::bench_json("obs-it", true, 5, &[]);
    let record = obs::json::parse(&record).expect("bench record parses");
    let stage_secs = record
        .get("stage_secs")
        .and_then(Value::entries)
        .expect("stage_secs object");
    let closed: Vec<(String, f64)> = nodes
        .iter()
        .filter(|(_, node)| node.count > 0)
        .map(|(path, node)| (path.clone(), node.incl_secs))
        .collect();
    let recorded: Vec<(String, f64)> = stage_secs
        .iter()
        .map(|(path, secs)| (path.clone(), secs.as_f64().expect("seconds")))
        .collect();
    assert_eq!(recorded, closed);

    // --- Spans feed no histogram; training diagnostics do.
    let snapshot = obs::snapshot();
    for stage in STAGES {
        assert!(
            !snapshot.histograms.contains_key(*stage),
            "span {stage:?} recorded a histogram"
        );
    }
    // Training diagnostics flowed into the registry.
    assert!(snapshot.histograms.contains_key("train.loss"));
    assert!(snapshot.histograms.contains_key("train.grad_norm"));
    assert_eq!(snapshot.counters.get("train.samples"), Some(&8));

    obs::reset();
}
