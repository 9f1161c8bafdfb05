//! Integration of the Table-1 baseline detectors with the shared
//! benchmark and evaluation machinery.

use std::sync::OnceLock;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::baselines::{
    evaluate_layout, faster_rcnn_config, ssd_config, LayoutClip, Tcad18Config, Tcad18Detector,
};
use rhsd::core::{RegionDetector, RhsdNetwork};
use rhsd::data::{Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;
use rhsd::layout::Rect;

fn bench() -> &'static Benchmark {
    static BENCH: OnceLock<Benchmark> = OnceLock::new();
    BENCH.get_or_init(|| Benchmark::demo(CaseId::Case2))
}

#[test]
fn tcad18_scan_produces_consistent_metrics() {
    let b = bench();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut cfg = Tcad18Config::demo();
    cfg.epochs = 1;
    cfg.biased_epochs = 0;
    let mut det = Tcad18Detector::new(cfg, &mut rng);
    det.train_on_benchmark(b, &b.train_extent.clone(), 1);
    // restrict to a sub-extent to keep the debug-mode test fast
    let sub = Rect::new(
        b.test_extent.x0,
        b.test_extent.y0,
        b.test_extent.x0 + 1920,
        b.test_extent.y0 + 1920,
    );
    let (marked, eval) = det.scan(b, &sub);
    assert_eq!(eval.ground_truth, b.hotspots_in(&sub).len());
    assert!(eval.true_positives + eval.false_alarms <= marked.len().max(1));
    // re-evaluating the same marked set reproduces the metrics
    let again = evaluate_layout(&marked, &b.hotspots_in(&sub));
    assert_eq!(eval, again);
}

#[test]
fn generic_detectors_share_the_region_harness() {
    let b = bench();
    let region = RegionConfig::demo();
    for cfg in [faster_rcnn_config(&region), ssd_config(&region)] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = RhsdNetwork::new(cfg, &mut rng);
        let det = RegionDetector::new(net, region);
        let result = det.scan_test_half(b);
        assert_eq!(result.regions, 18);
        assert_eq!(
            result.evaluation.ground_truth,
            rhsd::data::test_regions(b, &region)
                .iter()
                .map(|r| r.gt_clips.len())
                .sum::<usize>()
        );
    }
}

#[test]
fn perfect_clip_detector_scores_perfectly_in_layout_space() {
    let b = bench();
    let hotspots = b.test_hotspots();
    let clips: Vec<LayoutClip> = hotspots
        .iter()
        .map(|p| LayoutClip {
            clip: Rect::centered(p.x, p.y, 320, 320),
            score: 1.0,
        })
        .collect();
    let eval = evaluate_layout(&clips, &hotspots);
    assert_eq!(eval.true_positives, hotspots.len());
    assert_eq!(eval.false_alarms, 0);
    assert_eq!(eval.accuracy(), 1.0);
}

#[test]
fn dct_features_distinguish_dense_from_sparse_clips() {
    // The DCT front end must at least carry density information — the DC
    // coefficient of a dense clip dominates a sparse one.
    use rhsd::baselines::dct::feature_tensor;
    use rhsd_tensor::Tensor;
    let dense = Tensor::full([1, 32, 32], 0.9);
    let sparse = Tensor::full([1, 32, 32], 0.1);
    let fd = feature_tensor(&dense, 8, 4);
    let fs = feature_tensor(&sparse, 8, 4);
    assert!(fd.get(&[0, 0, 0]) > 3.0 * fs.get(&[0, 0, 0]));
}
