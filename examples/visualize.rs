//! Figure-9-style visualisation: renders a test region's ground truth and
//! a trained detector's output as SVG files.
//!
//! Run with: `cargo run --release --example visualize`
//! Output: `visualize_truth.svg`, `visualize_ours.svg`

#![expect(clippy::print_stdout, reason = "an example prints its results")]
#![expect(clippy::expect_used, reason = "an example stops on the first failure")]

use rand::SeedableRng;
use rhsd::baselines::LayoutClip;
use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{test_regions, train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;
use rhsd::layout::Rect;
use rhsd_bench::viz::{render_svg, viz_counts};

fn main() {
    println!("building benchmark Case3 and training a small model…");
    let bench = Benchmark::demo(CaseId::Case3);
    let region_cfg = RegionConfig::demo();
    let samples = train_regions(&bench, &region_cfg);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let mut net = RhsdNetwork::new(RhsdConfig::demo(), &mut rng);
    let mut tc = TrainConfig::demo();
    tc.epochs = 6;
    rhsd::core::train(&mut net, &samples, &tc);
    let detector = RegionDetector::new(net, region_cfg);

    // Pick the densest test region.
    let regions = test_regions(&bench, &region_cfg);
    let best = regions
        .iter()
        .max_by_key(|r| r.gt_clips.len())
        .expect("test regions exist");
    let hotspots = bench.hotspots_in(&best.window);
    println!(
        "visualising region {} with {} ground-truth hotspots",
        best.window,
        hotspots.len()
    );

    // Ground truth as perfect detections.
    let truth: Vec<LayoutClip> = hotspots
        .iter()
        .map(|p| LayoutClip {
            clip: Rect::centered(p.x, p.y, region_cfg.clip_nm(), region_cfg.clip_nm()),
            score: 1.0,
        })
        .collect();

    // The detector's view.
    let (dets, eval) = detector.detect_region(best);
    let ours: Vec<LayoutClip> = dets
        .iter()
        .map(|d| LayoutClip {
            clip: d.bbox.to_rect(&best.spec),
            score: d.score,
        })
        .collect();
    println!("detector result on this region: {eval}");

    for (tag, clips) in [("truth", &truth), ("ours", &ours)] {
        let svg = render_svg(&bench.layout, &best.window, clips, &hotspots, 0.4);
        let name = format!("visualize_{tag}.svg");
        std::fs::write(&name, svg).expect("write svg");
        let c = viz_counts(clips, &hotspots);
        println!(
            "{name}: detected {}, missed {}, false alarms {}",
            c.detected, c.missed, c.false_alarms
        );
    }
}
