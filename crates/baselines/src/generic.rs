//! Generic object-detection baselines: Faster R-CNN-style and SSD-style
//! configurations of the region-detection machinery.
//!
//! Table 1 of the paper compares against vanilla Faster R-CNN [Ren et al.]
//! and SSD [Liu et al.] "which are two classic techniques that match the
//! region-based objective" — and shows they perform poorly on hotspot
//! patterns. This module reproduces those comparisons as *configuration
//! ports*: the same training/inference substrate with the design choices
//! generic object detectors make, and **without** the paper's
//! hotspot-specific components:
//!
//! - generic anchor scales (no sub-clip 0.25× scale tuned to hotspot cores),
//! - no encoder–decoder layout-feature front end,
//! - conventional whole-box NMS instead of core-aware h-NMS,
//! - (SSD) single-shot: no refinement stage at all.

use rhsd_core::RhsdConfig;
use rhsd_data::RegionConfig;

/// Faster R-CNN-style configuration: two-stage, 9 generic anchors,
/// conventional NMS, no layout-specific front end.
pub fn faster_rcnn_config(region: &RegionConfig) -> RhsdConfig {
    let mut cfg = RhsdConfig::demo();
    cfg.region_px = region.region_px;
    // Generic object-detection anchors: one octave up/down around a base
    // sized for "objects" (half the region), far coarser than hotspots.
    cfg.clip_px = region.region_px / 2;
    cfg.scales = vec![0.5, 1.0, 2.0];
    cfg.aspect_ratios = vec![0.5, 1.0, 2.0];
    cfg.use_encoder_decoder = false;
    cfg.use_hnms = false;
    cfg.use_refinement = true;
    cfg.use_l2 = true;
    cfg
}

/// SSD-style configuration: single-shot (no refinement), generic anchors,
/// conventional NMS.
pub fn ssd_config(region: &RegionConfig) -> RhsdConfig {
    let mut cfg = faster_rcnn_config(region);
    cfg.use_refinement = false;
    // SSD predicts denser default boxes with slightly finer scales but
    // still object-sized.
    cfg.scales = vec![0.25, 0.5, 1.0, 2.0];
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_core::RhsdNetwork;

    #[test]
    fn configs_differ_from_ours_in_the_documented_ways() {
        let region = RegionConfig::demo();
        let ours = RhsdConfig::demo();
        let frcnn = faster_rcnn_config(&region);
        assert!(!frcnn.use_encoder_decoder);
        assert!(!frcnn.use_hnms);
        assert!(frcnn.use_refinement);
        assert!(frcnn.clip_px > ours.clip_px, "generic anchors are coarser");
        assert_eq!(frcnn.anchors_per_position(), 9);

        let ssd = ssd_config(&region);
        assert!(!ssd.use_refinement, "SSD is single-shot");
        assert!(!ssd.use_hnms);
        assert!(ssd.is_valid() && frcnn.is_valid());
    }

    #[test]
    fn generic_detectors_build_and_run() {
        let region = RegionConfig::demo();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = RhsdNetwork::new(ssd_config(&region), &mut rng);
        let image = rhsd_tensor::Tensor::zeros([1, region.region_px, region.region_px]);
        let _ = net.detect(&image);
    }
}
