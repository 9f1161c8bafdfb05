//! End-to-end integration: layout synthesis → litho labelling → region
//! dataset → training → detection → metrics, across every crate.

use std::sync::OnceLock;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{test_regions, train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;

fn bench() -> &'static Benchmark {
    static BENCH: OnceLock<Benchmark> = OnceLock::new();
    BENCH.get_or_init(|| Benchmark::demo(CaseId::Case3))
}

fn tiny_net_config() -> RhsdConfig {
    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = RegionConfig::demo().region_px;
    cfg.clip_px = RegionConfig::demo().clip_px;
    cfg
}

#[test]
fn pipeline_produces_consistent_ground_truth() {
    let b = bench();
    let cfg = RegionConfig::demo();
    let train = train_regions(b, &cfg);
    let test = test_regions(b, &cfg);
    assert!(!train.is_empty() && !test.is_empty());

    // every ground-truth clip corresponds to a litho defect in its window
    for r in train.iter().chain(test.iter()) {
        assert_eq!(r.gt_clips.len(), b.hotspots_in(&r.window).len());
    }
}

#[test]
fn training_step_and_detection_run_through_all_crates() {
    let b = bench();
    let cfg = RegionConfig::demo();
    let regions = train_regions(b, &cfg);
    let with_hotspots: Vec<_> = regions
        .iter()
        .filter(|r| !r.gt_clips.is_empty())
        .take(2)
        .cloned()
        .collect();
    assert!(!with_hotspots.is_empty(), "need hotspot regions to train");

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut net = RhsdNetwork::new(tiny_net_config(), &mut rng);
    let mut tc = TrainConfig::tiny();
    tc.epochs = 1;
    let history = rhsd::core::train(&mut net, &with_hotspots, &tc);
    assert_eq!(history.len(), 1);
    assert!(history[0].mean_loss.is_finite());

    let det = RegionDetector::new(net, cfg);
    let (dets, eval) = det.detect_region(&with_hotspots[0]);
    assert_eq!(eval.ground_truth, with_hotspots[0].gt_clips.len());
    for d in &dets {
        assert!(d.score.is_finite());
    }
}

#[test]
fn scan_metrics_aggregate_over_regions() {
    let b = bench();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let net = RhsdNetwork::new(tiny_net_config(), &mut rng);
    let det = RegionDetector::new(net, RegionConfig::demo());
    let result = det.scan_test_half(b);
    // ground truth equals the sum over tiled regions
    let expected: usize = test_regions(b, &RegionConfig::demo())
        .iter()
        .map(|r| r.gt_clips.len())
        .sum();
    assert_eq!(result.evaluation.ground_truth, expected);
    // every detection originates from a region tiling the test half;
    // the clip itself is an unclamped regression output (an untrained
    // network may place it far outside its region)
    for d in &result.detections {
        assert!(b.test_extent.contains_rect(&d.region));
    }
}

#[test]
fn detection_improves_with_oracle_weights() {
    // Sanity on the metric plumbing: a "perfect" detector built from the
    // ground truth scores 100% accuracy and 0 false alarms.
    let b = bench();
    let cfg = RegionConfig::demo();
    let regions = test_regions(b, &cfg);
    let mut total = rhsd::core::Evaluation::default();
    for r in &regions {
        let dets: Vec<rhsd::core::Detection> = r
            .gt_clips
            .iter()
            .map(|c| rhsd::core::Detection {
                bbox: *c,
                score: 1.0,
            })
            .collect();
        total.merge(&rhsd::core::evaluate_region(&dets, &r.gt_centers));
    }
    assert_eq!(total.accuracy(), 1.0);
    assert_eq!(total.false_alarms, 0);
}
