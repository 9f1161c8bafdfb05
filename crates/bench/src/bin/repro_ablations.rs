//! Extension ablations beyond Figure 10: evaluation-time studies on a
//! single trained model —
//!
//! 1. **h-NMS vs conventional NMS** (the Algorithm 1 / Fig. 5 design
//!    choice): same weights, different suppression, measured accuracy/FA.
//! 2. **Operating-curve sweep** (LithoROC-style): accuracy and false
//!    alarms across score thresholds, with the best operating point.
//!
//! Usage: `cargo run -p rhsd-bench --release --bin repro_ablations --
//! [--quick] [--ledger <path>] [--threads <n>]`

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use rhsd_bench::args::BenchArgs;
use rhsd_bench::pipeline::{
    build_benchmarks, merged_train_regions, ours_config, train_region_network, Effort, OURS_SEED,
};
use rhsd_core::roc::{
    best_operating_point, default_thresholds, sweep_thresholds, RegionDetections,
};
use rhsd_core::Evaluation;
use rhsd_data::{test_regions, RegionConfig};
use rhsd_obs::json::number;

fn main() {
    let mut args = BenchArgs::parse("repro_ablations");
    let effort = args.effort();
    args.start_run(
        "repro_ablations",
        OURS_SEED,
        "eval-time ablations: h-NMS vs NMS, score-threshold operating curve",
    );
    eprintln!("repro_ablations: effort = {effort:?}");
    let benches = build_benchmarks();
    let region = RegionConfig::demo();
    let samples = merged_train_regions(&benches, &region, effort == Effort::Full);
    eprintln!("training one full model…");
    let (mut det, _training) = train_region_network(ours_config(), &samples, effort, OURS_SEED);
    args.save_model_if_requested(&det);

    // --- 1. h-NMS vs conventional NMS at evaluation time.
    println!("\n== h-NMS (Algorithm 1) vs conventional NMS, same weights ==");
    println!("{:>16} {:>12} {:>8}", "suppression", "accuracy(%)", "FA");
    for (label, use_hnms) in [("hotspot NMS", true), ("conventional", false)] {
        det.network_mut().set_use_hnms(use_hnms);
        let mut total = Evaluation::default();
        for b in &benches {
            total.merge(&det.scan_test_half(b).evaluation);
        }
        println!(
            "{:>16} {:>12.2} {:>8}",
            label,
            100.0 * total.accuracy(),
            total.false_alarms
        );
    }
    det.network_mut().set_use_hnms(true);

    // --- 2. Threshold sweep (operating curve).
    println!("\n== Operating curve (score-threshold sweep over all cases) ==");
    // collect raw detections at a permissive threshold
    det.network_mut().set_score_threshold(0.05);
    let mut raw: Vec<RegionDetections> = Vec::new();
    for b in &benches {
        for r in test_regions(b, &region) {
            let (dets, _) = det.detect_region(&r);
            raw.push((dets, r.gt_centers.clone()));
        }
    }
    let points = sweep_thresholds(&raw, &default_thresholds());
    println!("{:>10} {:>12} {:>8}", "threshold", "accuracy(%)", "FA");
    for p in points.iter().step_by(2) {
        println!(
            "{:>10.2} {:>12.2} {:>8}",
            p.threshold,
            100.0 * p.accuracy,
            p.false_alarms
        );
    }
    if let Some(best) = best_operating_point(&points) {
        println!(
            "\nbest operating point: threshold {:.2} → {:.2}% accuracy, {} FA",
            best.threshold,
            100.0 * best.accuracy,
            best.false_alarms
        );
    }

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"threshold\": {}, \"accuracy\": {}, \"false_alarms\": {}}}",
                number(f64::from(p.threshold)),
                number(p.accuracy),
                p.false_alarms
            )
        })
        .collect();
    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    std::fs::write("ablation_roc.json", json)
        .unwrap_or_else(|e| rhsd_bench::fail("write ablation_roc.json", e));
    args.note_artifact("ablation_roc.json");
    args.finish_run("ok");
}
