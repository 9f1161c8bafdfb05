//! Runtime-scaling study: wall-clock of region-based detection vs the
//! conventional overlapping clip scan as the scanned layout area grows —
//! the mechanism behind Table 1's ~45× average speedup (the clip flow
//! re-examines every location ~9× through overlapping cores, and pays a
//! per-clip feature-extraction overhead on top).
//!
//! Usage: `cargo run -p rhsd-bench --release --bin repro_scaling --
//! [--quick] [--ledger <path>] [--threads <n>]`

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_baselines::{Tcad18Config, Tcad18Detector};
use rhsd_bench::args::BenchArgs;
use rhsd_bench::pipeline::Effort;
use rhsd_core::{RegionDetector, RhsdConfig, RhsdNetwork};
use rhsd_data::clips::scan_windows;
use rhsd_data::{Benchmark, RegionConfig};
use rhsd_layout::synth::CaseId;
use rhsd_layout::Rect;
use rhsd_obs::Stopwatch;

/// Seed of the untrained scaling-study networks.
const SCALING_SEED: u64 = 17;

fn main() {
    let mut args = BenchArgs::parse("repro_scaling");
    let effort = args.effort();
    args.start_run(
        "repro_scaling",
        SCALING_SEED,
        "runtime scaling: region scan vs clip scan over growing layout area",
    );
    eprintln!("repro_scaling: effort = {effort:?}");
    let bench = Benchmark::demo(CaseId::Case3);
    let region_cfg = RegionConfig::demo();
    let mut rng = ChaCha8Rng::seed_from_u64(SCALING_SEED);
    let net = RhsdNetwork::new(RhsdConfig::demo(), &mut rng);
    let ours = RegionDetector::new(net, region_cfg);
    // Scaling networks are untrained by design; the saved model is still
    // loadable and scannable (useful for protocol-level smoke tests).
    args.save_model_if_requested(&ours);
    let tcad = Tcad18Detector::new(Tcad18Config::demo(), &mut rng);

    let sides: &[i64] = if effort == Effort::Quick {
        &[1280, 2560]
    } else {
        &[1280, 2560, 3840]
    };

    println!(
        "{:>10} {:>9} {:>12} {:>9} {:>12} {:>9}",
        "area(µm²)", "regions", "region(s)", "clips", "clip(s)", "speedup"
    );
    for &side in sides {
        let extent = Rect::new(
            bench.layout.extent().x0,
            bench.layout.extent().y0,
            bench.layout.extent().x0 + side,
            bench.layout.extent().y0 + side,
        );
        let timer = Stopwatch::start();
        let r = ours.scan(&bench, &extent);
        let t_region = timer.secs();

        let clips = scan_windows(&extent, tcad.config().clip_px).len();
        let timer = Stopwatch::start();
        let _ = tcad.scan(&bench, &extent);
        let t_clip = timer.secs();

        println!(
            "{:>10.1} {:>9} {:>12.3} {:>9} {:>12.3} {:>8.1}×",
            (side as f64 / 1000.0).powi(2),
            r.regions,
            t_region,
            clips,
            t_clip,
            t_clip / t_region.max(1e-9),
        );
    }
    println!(
        "\nThe clip count grows ~9× faster than the region count (stride =\n\
         core = clip/3), so the gap widens with area — the paper's speedup\n\
         mechanism, reproduced without its GPU batching."
    );
    args.finish_run("ok");
}
