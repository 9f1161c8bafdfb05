//! Full-layout detection: scanning a benchmark's extent region by region
//! and aggregating detections and metrics — the deployment flow of Fig. 2.
//!
//! A scan is many independent inferences on one set of trained weights:
//! every region is one `rhsd-par` task running
//! [`RhsdNetwork::detect`] on the shared `&RhsdNetwork`. Inference
//! records nothing and mutates nothing, so no task copies the network,
//! and the per-region results merge in region order — identical at any
//! thread count.

use rhsd_data::{tile_regions, Benchmark, RegionConfig, RegionSample};
use rhsd_layout::Rect;

use crate::metrics::{evaluate_region, Evaluation};
use crate::model::{Detection, RhsdNetwork};

/// A detection mapped back to layout coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutDetection {
    /// The detected clip in nm.
    pub clip: Rect,
    /// Hotspot confidence.
    pub score: f32,
    /// The region window the detection came from.
    pub region: Rect,
}

/// Result of scanning an extent.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// All detections, in layout coordinates.
    pub detections: Vec<LayoutDetection>,
    /// Aggregated metrics against the lithography ground truth.
    pub evaluation: Evaluation,
    /// Number of regions processed.
    pub regions: usize,
}

/// A trained network bound to its region geometry, able to scan layouts.
///
/// Every scan takes `&self`, so one detector (e.g. behind an `Arc`) can
/// serve concurrent scans from several threads.
pub struct RegionDetector {
    network: RhsdNetwork,
    region_config: RegionConfig,
}

impl RegionDetector {
    /// Wraps a trained network.
    ///
    /// # Panics
    ///
    /// Panics if the region geometry does not match the network's input
    /// size.
    pub fn new(network: RhsdNetwork, region_config: RegionConfig) -> Self {
        assert_eq!(
            network.config().region_px,
            region_config.region_px,
            "network input {} != region config {}",
            network.config().region_px,
            region_config.region_px
        );
        RegionDetector {
            network,
            region_config,
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &RhsdNetwork {
        &self.network
    }

    /// Mutable access to the wrapped network.
    pub fn network_mut(&mut self) -> &mut RhsdNetwork {
        &mut self.network
    }

    /// The region geometry.
    pub fn region_config(&self) -> &RegionConfig {
        &self.region_config
    }

    /// Detects hotspots in one prepared region sample and scores them
    /// against its ground truth.
    pub fn detect_region(&self, sample: &RegionSample) -> (Vec<Detection>, Evaluation) {
        let dets = self.network.detect(&sample.image);
        let eval = evaluate_region(&dets, &sample.gt_centers);
        (dets, eval)
    }

    /// Scans an extent of a benchmark, e.g. its test half.
    ///
    /// Regions run as parallel tasks over the `rhsd-par` pool, all on the
    /// one shared network, and per-region results are merged strictly in
    /// region order afterwards, so the scan output (detections,
    /// evaluation counters) is identical at any thread count. The h-NMS
    /// inside each region's `detect` stays sequential — suppression
    /// order is part of its semantics.
    pub fn scan(&self, bench: &Benchmark, extent: &Rect) -> ScanResult {
        let samples = tile_regions(bench, extent, &self.region_config);
        let _sp = rhsd_obs::span("scan");
        let per_region = rhsd_par::map(samples.len(), 1, |i| {
            let _rsp = rhsd_obs::span("scan-region");
            self.detect_region(&samples[i])
        });
        merge_scan(&samples, per_region)
    }

    /// Scans the test half of a benchmark (the paper's evaluation split).
    pub fn scan_test_half(&self, bench: &Benchmark) -> ScanResult {
        self.scan(bench, &bench.test_extent.clone())
    }
}

/// Folds per-region results back into one [`ScanResult`]: evaluations
/// merge in region order, detections map to layout coordinates through
/// their sample's raster spec.
///
/// `per_region` must be index-aligned with `regions`.
pub fn merge_scan<'a>(
    regions: impl IntoIterator<Item = &'a RegionSample>,
    per_region: Vec<(Vec<Detection>, Evaluation)>,
) -> ScanResult {
    let count = per_region.len();
    let mut detections = Vec::new();
    let mut evaluation = Evaluation::default();
    let mut merged = 0;
    for (sample, (dets, eval)) in regions.into_iter().zip(per_region) {
        merged += 1;
        evaluation.merge(&eval);
        for d in dets {
            detections.push(LayoutDetection {
                clip: d.bbox.to_rect(&sample.spec),
                score: d.score,
                region: sample.window,
            });
        }
    }
    debug_assert_eq!(merged, count, "one result per region");
    ScanResult {
        detections,
        evaluation,
        regions: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RhsdConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_layout::synth::CaseId;
    use std::sync::Arc;

    fn tiny_detector() -> RegionDetector {
        let mut cfg = RhsdConfig::tiny();
        cfg.region_px = 128; // match demo region geometry
        let mut rng = ChaCha8Rng::seed_from_u64(90);
        let net = RhsdNetwork::new(cfg, &mut rng);
        RegionDetector::new(net, RegionConfig::demo())
    }

    #[test]
    fn scan_covers_all_test_regions() {
        let bench = Benchmark::demo(CaseId::Case2);
        let det = tiny_detector();
        let result = det.scan_test_half(&bench);
        assert_eq!(result.regions, 18); // 3×6 demo tiling of the half
        assert_eq!(
            result.evaluation.ground_truth,
            bench
                .test_hotspots()
                .iter()
                .filter(|p| {
                    // hotspots inside complete region tiles only
                    tile_regions(&bench, &bench.test_extent.clone(), &RegionConfig::demo())
                        .iter()
                        .any(|r| r.window.contains(**p))
                })
                .count()
        );
    }

    #[test]
    fn detections_are_inside_their_regions() {
        let bench = Benchmark::demo(CaseId::Case3);
        let det = tiny_detector();
        let result = det.scan_test_half(&bench);
        // detections may overhang the region border (clips are not
        // clamped — clamping would shift cores off border hotspots), but
        // never by more than the largest anchor extent
        let slack = (RegionConfig::demo().clip_nm()) * 2;
        for d in &result.detections {
            assert!(
                d.region.inflated(slack).contains_rect(&d.clip),
                "detection {d:?} escapes its region"
            );
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs callers outside the pool"
    )]
    fn concurrent_scans_through_one_shared_detector_match_a_serial_scan() {
        let bench = Benchmark::demo(CaseId::Case2);
        let det = Arc::new(tiny_detector());
        let serial = det.scan_test_half(&bench);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (det, bench) = (Arc::clone(&det), bench.clone());
                std::thread::spawn(move || det.scan_test_half(&bench))
            })
            .collect();
        for handle in threads {
            let result = handle.join().unwrap();
            assert_eq!(result.detections, serial.detections);
            assert_eq!(result.evaluation, serial.evaluation);
            assert_eq!(result.regions, serial.regions);
        }
    }

    #[test]
    #[should_panic(expected = "network input")]
    fn mismatched_geometry_rejected() {
        let cfg = RhsdConfig::tiny(); // 64-px input
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let net = RhsdNetwork::new(cfg, &mut rng);
        RegionDetector::new(net, RegionConfig::demo()); // 128-px regions
    }
}
