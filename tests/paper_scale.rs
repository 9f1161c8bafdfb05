//! Paper-scale smoke tests.
//!
//! These verify the `RhsdConfig::paper()` architecture — 256-px regions,
//! the Fig. 3/4 channel widths (576-channel inception-B output, 512-wide
//! CPN trunk, 24/48-deep heads) — actually builds and runs a forward
//! pass, even though demo-scale is used for routine CI. The forward pass
//! runs the encoder–decoder's folds at the paper's 256-px geometry and
//! takes a few seconds.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::core::{RhsdConfig, RhsdNetwork};
use rhsd::tensor::Tensor;

#[test]
fn paper_scale_network_builds_and_detects() {
    let cfg = RhsdConfig::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let net = RhsdNetwork::new(cfg.clone(), &mut rng);
    assert!(
        net.param_count() > 1_000_000,
        "paper scale is million-param class"
    );
    let image = Tensor::rand_uniform([1, cfg.region_px, cfg.region_px], 0.0, 1.0, &mut rng);
    let dets = net.detect(&image);
    for d in &dets {
        assert!(d.score.is_finite());
    }
}

#[test]
fn paper_config_anchor_grid_matches_fig4() {
    // 256-px input at stride 16 → 16×16 grid × 12 anchors; the paper's
    // Fig. 4 shows 14×14 for its 224-px post-crop geometry — same stride.
    let cfg = RhsdConfig::paper();
    assert_eq!(cfg.feature_px(), 16);
    assert_eq!(cfg.total_anchors(), 16 * 16 * 12);
    assert_eq!(
        224 / cfg.stride,
        14,
        "the Fig. 4 grid at the paper's 224-px crop"
    );
}
