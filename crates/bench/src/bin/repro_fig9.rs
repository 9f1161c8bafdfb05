//! Regenerates **Figure 9** of the paper: side-by-side visualisations of
//! (a) ground truth, (b) the TCAD'18 clip-based detector's output and
//! (c) our region-based detector's output on one test region per case.
//!
//! Usage: `cargo run -p rhsd-bench --release --bin repro_fig9 --
//! [--quick] [--ledger <path>] [--threads <n>]`
//!
//! Writes `fig9_<case>_{truth,tcad18,ours}.svg` files into the working
//! directory.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use rhsd_baselines::LayoutClip;
use rhsd_bench::args::BenchArgs;
use rhsd_bench::pipeline::{
    build_benchmarks, evaluate_tcad18, merged_train_regions, ours_config, train_region_network,
    train_tcad18, Effort, OURS_SEED,
};
use rhsd_bench::viz::{render_svg, viz_counts};
use rhsd_data::RegionConfig;

fn main() {
    let mut args = BenchArgs::parse("repro_fig9");
    let effort = args.effort();
    args.start_run(
        "repro_fig9",
        OURS_SEED,
        "demo-scale Figure 9 visualisations: truth vs TCAD'18 vs Ours",
    );
    eprintln!("repro_fig9: effort = {effort:?}{}", effort.hint());
    let benches = build_benchmarks();
    let region = RegionConfig::demo();
    let samples = merged_train_regions(&benches, &region, effort == Effort::Full);

    eprintln!("training ours + TCAD'18…");
    let (ours, _training) = train_region_network(ours_config(), &samples, effort, OURS_SEED);
    args.save_model_if_requested(&ours);
    let tcad = train_tcad18(&benches, effort);

    for bench in &benches {
        // pick the test region with the most ground-truth hotspots
        let regions = rhsd_data::test_regions(bench, &region);
        let Some(best) = regions.iter().max_by_key(|r| r.gt_clips.len()) else {
            continue;
        };
        let window = best.window;
        let hotspots = bench.hotspots_in(&window);

        // ground truth: draw GT clips as perfect detections
        let truth: Vec<LayoutClip> = hotspots
            .iter()
            .map(|p| LayoutClip {
                clip: rhsd_layout::Rect::centered(p.x, p.y, region.clip_nm(), region.clip_nm()),
                score: 1.0,
            })
            .collect();

        // ours: region detection mapped to nm
        let (dets, _) = ours.detect_region(best);
        let ours_clips: Vec<LayoutClip> = dets
            .iter()
            .map(|d| LayoutClip {
                clip: d.bbox.to_rect(&best.spec),
                score: d.score,
            })
            .collect();

        // TCAD'18: scan restricted to this window
        let (_, all_marked) = evaluate_tcad18(&tcad, bench);
        let tcad_clips: Vec<LayoutClip> = all_marked
            .iter()
            .filter(|c| window.intersects(&c.clip))
            .copied()
            .collect();

        let px_per_nm = 0.4;
        for (tag, clips) in [
            ("truth", &truth),
            ("tcad18", &tcad_clips),
            ("ours", &ours_clips),
        ] {
            let svg = render_svg(&bench.layout, &window, clips, &hotspots, px_per_nm);
            let name = format!("fig9_{}_{tag}.svg", bench.id.name().to_lowercase());
            std::fs::write(&name, svg).unwrap_or_else(|e| rhsd_bench::fail(&name, e));
            args.note_artifact(&name);
            let c = viz_counts(clips, &hotspots);
            println!(
                "{name}: detected {}, missed {}, false alarms {}",
                c.detected, c.missed, c.false_alarms
            );
        }
    }
    eprintln!("done — open the fig9_*.svg files to compare detectors.");
    args.finish_run("ok");
}
