//! The full training pipeline with checkpointing and ablation switches —
//! the workflow a DFM team would run to produce a deployable detector.
//!
//! Run with:
//! `cargo run --release --example train_pipeline -- [--no-ed] [--no-l2] [--no-refine] [--epochs N]`

#![expect(clippy::print_stdout, reason = "an example prints its results")]
#![expect(clippy::expect_used, reason = "an example stops on the first failure")]

use rand::SeedableRng;
use rhsd::core::persist::{load_from_path, save_to_path};
use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::augment::{flip_region, Flip};
use rhsd::data::{train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let epochs = args
        .iter()
        .position(|a| a == "--epochs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);

    let mut cfg = RhsdConfig::demo();
    cfg.use_encoder_decoder = !flag("--no-ed");
    cfg.use_l2 = !flag("--no-l2");
    cfg.use_refinement = !flag("--no-refine");
    println!(
        "config: ED={} L2={} Refine={} epochs={epochs}",
        cfg.use_encoder_decoder, cfg.use_l2, cfg.use_refinement
    );

    // Merge all three evaluated cases' training halves (paper protocol)
    // and augment with flips.
    let region_cfg = RegionConfig::demo();
    let benches: Vec<Benchmark> = CaseId::EVALUATED
        .iter()
        .map(|&c| Benchmark::demo(c))
        .collect();
    let mut samples = Vec::new();
    for b in &benches {
        samples.extend(train_regions(b, &region_cfg));
    }
    let flipped: Vec<_> = samples
        .iter()
        .flat_map(|s| {
            [
                flip_region(s, Flip::Horizontal),
                flip_region(s, Flip::Vertical),
            ]
        })
        .collect();
    samples.extend(flipped);
    println!(
        "training on {} samples (with flip augmentation)…",
        samples.len()
    );

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2019);
    let mut net = RhsdNetwork::new(cfg, &mut rng);
    let mut tc = TrainConfig::demo();
    tc.epochs = epochs;
    let history = rhsd::core::train(&mut net, &samples, &tc);
    for h in &history {
        println!(
            "  epoch {:>2}: mean loss {:.4} (lr {:.4})",
            h.epoch, h.mean_loss, h.lr
        );
    }

    // Checkpoint to disk and restore — what a production flow would ship.
    let path = std::env::temp_dir().join("rhsd_model.json");
    save_to_path(&net, &path).expect("save checkpoint");
    println!("checkpoint written to {}", path.display());
    let restored = load_from_path(&path).expect("load checkpoint");

    // Evaluate the restored model on every case's unseen half.
    let detector = RegionDetector::new(restored, region_cfg);
    for b in &benches {
        let r = detector.scan_test_half(b);
        println!("{}: {}", b.id.name(), r.evaluation);
    }
}
