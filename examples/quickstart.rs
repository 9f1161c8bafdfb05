//! Quickstart: build a synthetic benchmark, train the region-based
//! hotspot detector on its training half, and evaluate on the unseen test
//! half.
//!
//! Run with: `cargo run --release --example quickstart`

#![expect(clippy::print_stdout, reason = "an example prints its results")]
#![expect(
    clippy::disallowed_types,
    reason = "the example reports wall-clock time"
)]

use rand::SeedableRng;
use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;

fn main() {
    // 1. Build a lithography-labelled benchmark — the synthetic analogue
    //    of an ICCAD-2016 contest design. Ground-truth hotspots come from
    //    a process-window litho simulation (bridges and pinches).
    println!("building benchmark Case2 (layout synthesis + litho labelling)…");
    let bench = Benchmark::demo(CaseId::Case2);
    println!(
        "  {} hotspots total ({} train / {} test)",
        bench.defects.len(),
        bench.train_hotspots().len(),
        bench.test_hotspots().len()
    );

    // 2. Train the R-HSD network end-to-end on region samples.
    let region_cfg = RegionConfig::demo();
    let regions = train_regions(&bench, &region_cfg);
    println!("training on {} regions…", regions.len());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2019);
    let mut net = RhsdNetwork::new(RhsdConfig::demo(), &mut rng);
    let mut tc = TrainConfig::demo();
    tc.epochs = 8;
    let history = rhsd::core::train(&mut net, &regions, &tc);
    for h in &history {
        println!("  epoch {:>2}: mean loss {:.4}", h.epoch, h.mean_loss);
    }

    // 3. Scan the test half — one feed-forward pass per region, multiple
    //    hotspots per pass (the paper's headline capability).
    let detector = RegionDetector::new(net, region_cfg);
    let t0 = std::time::Instant::now();
    let result = detector.scan_test_half(&bench);
    println!(
        "\ntest half: {} regions scanned in {:.2}s",
        result.regions,
        t0.elapsed().as_secs_f64()
    );
    println!("result: {}", result.evaluation);
    for d in result.detections.iter().take(5) {
        println!("  e.g. clip {} score {:.2}", d.clip, d.score);
    }
}
