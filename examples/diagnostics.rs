//! Training diagnostics: loss decomposition, feature-spread collapse
//! detection, and score-separation statistics.
//!
//! These are the instruments that uncovered the demo-scale training
//! pathologies documented in DESIGN.md §1.1 (bias-shortcut feature
//! collapse, exploding regression gradients); they are kept as a runnable
//! example so downstream users adapting the stack can re-check the same
//! invariants.
//!
//! Run with: `cargo run --release --example diagnostics`

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use rand::SeedableRng;
use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{test_regions, RegionConfig, RegionSample};
use rhsd::nn::{Layer, Tape};
use rhsd_bench::pipeline::{build_benchmarks, merged_train_regions};

/// Mean absolute difference of backbone feature maps across regions.
///
/// Healthy networks keep this well above zero; a value near zero means
/// the features have collapsed to an input-independent constant (the
/// pathology leaky ReLUs guard against — DESIGN.md §1.1).
fn feature_spread(net: &RhsdNetwork, regions: &[RegionSample]) -> f32 {
    let feats: Vec<_> = regions
        .iter()
        .take(4)
        .map(|r| {
            net.extractor()
                .forward(r.image.clone(), &mut Tape::inference())
        })
        .collect();
    let mut d = 0.0f32;
    let mut n = 0;
    for i in 0..feats.len() {
        for j in i + 1..feats.len() {
            d += feats[i].zip_with(&feats[j], |a, b| (a - b).abs()).mean();
            n += 1;
        }
    }
    d / n.max(1) as f32
}

fn main() {
    let benches = build_benchmarks();
    let region = RegionConfig::demo();
    let samples = merged_train_regions(&benches, &region, true);
    let tests = test_regions(&benches[1], &region);

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(103);
    let mut net = RhsdNetwork::new(RhsdConfig::demo(), &mut rng);
    println!(
        "feature spread at init: {:.4} (must stay well above 0 through training)",
        feature_spread(&net, &tests)
    );

    let mut tc = TrainConfig::demo();
    tc.epochs = 10;
    let hist = rhsd::core::train(&mut net, &samples, &tc);
    for h in &hist {
        println!(
            "epoch {:>2}: total {:.3}  cpn_cls {:.3}  cpn_reg {:.3}  refine_cls {:.3}  lr {:.4}",
            h.epoch, h.mean_loss, h.mean_cpn_cls, h.mean_cpn_reg, h.mean_refine_cls, h.lr
        );
    }
    println!(
        "feature spread after training: {:.4}",
        feature_spread(&net, &tests)
    );

    // Score separation: the max stage-1 proposal score should be clearly
    // higher on regions that contain hotspots.
    let mut hot = Vec::new();
    let mut clean = Vec::new();
    for r in &tests {
        let m = net
            .proposals(&r.image)
            .iter()
            .map(|p| p.score)
            .fold(0.0f32, f32::max);
        if r.gt_clips.is_empty() {
            clean.push(m);
        } else {
            hot.push(m);
        }
    }
    let avg = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    println!(
        "max stage-1 score: hotspot regions {:.3} vs clean regions {:.3}",
        avg(&hot),
        avg(&clean)
    );

    let det = RegionDetector::new(net, region);
    for b in &benches {
        let r = det.scan_test_half(b);
        println!("{}: {}", b.id.name(), r.evaluation);
    }
}
