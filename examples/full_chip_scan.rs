//! Full-chip scan contrast: the paper's motivating experiment — scanning
//! the same layout area with (a) the conventional overlapping clip flow
//! (Fig. 1) and (b) one-pass region-based detection (Fig. 2) — and
//! reporting the wall-clock difference.
//!
//! Run with: `cargo run --release --example full_chip_scan`

#![expect(clippy::print_stdout, reason = "an example prints its results")]
#![expect(
    clippy::disallowed_types,
    reason = "the example reports wall-clock time"
)]

use rand::SeedableRng;
use rhsd::baselines::{Tcad18Config, Tcad18Detector};
use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork};
use rhsd::data::{clips::scan_windows, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;

fn main() {
    println!("building benchmark Case3…");
    let bench = Benchmark::demo(CaseId::Case3);
    let extent = bench.test_extent;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);

    // Region-based scan (untrained weights — this example measures the
    // *scan machinery*; see `quickstart` for a trained evaluation).
    let region_cfg = RegionConfig::demo();
    let net = RhsdNetwork::new(RhsdConfig::demo(), &mut rng);
    let ours = RegionDetector::new(net, region_cfg);
    let t0 = std::time::Instant::now();
    let result = ours.scan(&bench, &extent);
    let t_region = t0.elapsed().as_secs_f64();
    println!(
        "region-based: {:>5} network passes  {:>7.2}s",
        result.regions, t_region
    );

    // Conventional clip scan over the same area.
    let tcad = Tcad18Detector::new(Tcad18Config::demo(), &mut rng);
    let n_windows = scan_windows(&extent, tcad.config().clip_px).len();
    let t0 = std::time::Instant::now();
    let _ = tcad.scan(&bench, &extent);
    let t_clip = t0.elapsed().as_secs_f64();
    println!("clip-based:   {n_windows:>5} clip inferences  {t_clip:>7.2}s");

    println!(
        "\nspeedup of region-based over clip-based: {:.1}×",
        t_clip / t_region.max(1e-9)
    );
    println!(
        "(the paper reports ≈45× on average vs the TCAD'18 flow — the gap\n\
         comes from exactly this redundancy: {} overlapping clips to cover\n\
         what {} region passes cover once)",
        n_windows, result.regions
    );
}
