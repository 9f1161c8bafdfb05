//! Full-layout detection: scanning a benchmark's extent region by region
//! and aggregating detections and metrics — the deployment flow of Fig. 2.
//!
//! A scan is many independent inferences on one set of trained weights:
//! every region is one `rhsd-par` task running
//! [`RhsdNetwork::detect`] on the shared `&RhsdNetwork`. Inference
//! records nothing and mutates nothing, so no task copies the network,
//! and the per-region results merge in region order — identical at any
//! thread count.

use std::sync::Arc;

use rhsd_data::{
    tile_regions, tile_regions_cached, Benchmark, RegionConfig, RegionSample, RegionTileCache,
    NM_PER_PX,
};
use rhsd_layout::Rect;

use crate::feature_cache::StemFeatureCache;
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
        let samples: Vec<Arc<RegionSample>> = tile_regions(bench, extent, &self.region_config)
            .into_iter()
            .map(Arc::new)
            .collect();
        self.scan_samples(&samples, None)
    }

    /// [`RegionDetector::scan`] through the incremental-scan caches:
    /// tiles come from (and populate) `tiles`, so repeated scans of one
    /// benchmark rasterise each window once, and stem activations replay
    /// through `stems` when the same raster recurs under unchanged
    /// weights. Output is bit-identical to the uncached scan.
    pub fn scan_cached(
        &self,
        bench: &Benchmark,
        extent: &Rect,
        tiles: &RegionTileCache,
        stems: Option<&StemFeatureCache>,
    ) -> ScanResult {
        let samples = tile_regions_cached(bench, extent, &self.region_config, tiles);
        self.scan_samples(&samples, stems)
    }

    /// Shared scan core over prepared samples (see [`RegionDetector::scan`]
    /// for the determinism argument).
    fn scan_samples(
        &self,
        regions: &[Arc<RegionSample>],
        stems: Option<&StemFeatureCache>,
    ) -> ScanResult {
        let mut sp = rhsd_obs::span("scan");
        let per_region = self.scan_batch(regions, stems);
        let result = merge_scan(regions, per_region);
        sp.add("regions", result.regions as f64);
        sp.add("detections", result.detections.len() as f64);
        result
    }

    /// Detects on every prepared sample, returning per-region results in
    /// sample order — the batched forward pass behind every scan.
    ///
    /// Each region is one pool task on the shared, read-only network, so
    /// a batch that concatenates the regions of several logically
    /// separate scans produces exactly the per-region results of running
    /// those scans alone. This is the property the `rhsd-serve` request
    /// coalescer relies on: served, batched scans stay bit-identical to
    /// offline scans.
    pub fn scan_batch(
        &self,
        regions: &[Arc<RegionSample>],
        stems: Option<&StemFeatureCache>,
    ) -> Vec<(Vec<Detection>, Evaluation)> {
        rhsd_par::map(regions.len(), 1, |i| {
            let sample = &regions[i];
            let mut rsp = rhsd_obs::span("scan-region");
            let dets = match stems {
                Some(cache) => self.network.detect_cached(&sample.image, cache),
                None => self.network.detect(&sample.image),
            };
            let eval = evaluate_region(&dets, &sample.gt_centers);
            rsp.add("detections", dets.len() as f64);
            (dets, eval)
        })
    }

    /// Scans the test half of a benchmark (the paper's evaluation split).
    pub fn scan_test_half(&self, bench: &Benchmark) -> ScanResult {
        self.scan(bench, &bench.test_extent.clone())
    }

    /// [`RegionDetector::scan_test_half`] through the incremental-scan
    /// caches (see [`RegionDetector::scan_cached`]).
    pub fn scan_test_half_cached(
        &self,
        bench: &Benchmark,
        tiles: &RegionTileCache,
        stems: Option<&StemFeatureCache>,
    ) -> ScanResult {
        self.scan_cached(bench, &bench.test_extent.clone(), tiles, stems)
    }
}

/// Folds the per-region results of [`RegionDetector::scan_batch`] back
/// into one [`ScanResult`]: evaluations merge in region order, detections
/// map to layout coordinates through their sample's raster spec.
///
/// `per_region` must be index-aligned with `regions` (a slice of the
/// batch results covering exactly these samples).
pub fn merge_scan(
    regions: &[Arc<RegionSample>],
    per_region: Vec<(Vec<Detection>, Evaluation)>,
) -> ScanResult {
    debug_assert_eq!(regions.len(), per_region.len());
    let mut detections = Vec::new();
    let mut evaluation = Evaluation::default();
    for (idx, (dets, eval)) in per_region.into_iter().enumerate() {
        let sample = &regions[idx];
        evaluation.merge(&eval);
        for d in dets {
            detections.push(LayoutDetection {
                clip: d.bbox.to_rect(&sample.spec),
                score: d.score,
                region: sample.window,
            });
        }
    }
    ScanResult {
        detections,
        evaluation,
        regions: regions.len(),
    }
}

/// Converts a pixel-space detection in `sample` to layout nm (helper for
/// callers working with raw [`RhsdNetwork::detect`] output).
pub fn detection_to_nm(det: &Detection, sample: &RegionSample) -> Rect {
    det.bbox.to_rect(&sample.spec)
}

/// Rough nm-per-px sanity constant re-exported for callers.
pub const DETECTOR_NM_PER_PX: f64 = NM_PER_PX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RhsdConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_layout::synth::CaseId;

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
    fn cached_scan_is_bit_identical_to_plain_scan() {
        let bench = Benchmark::demo(CaseId::Case2);
        let det = tiny_detector();
        let plain = det.scan_test_half(&bench);

        let tiles = RegionTileCache::new(rhsd_data::DEFAULT_TILE_CACHE_CAP);
        let stems = StemFeatureCache::new(crate::DEFAULT_STEM_CACHE_CAP);
        let first = det.scan_test_half_cached(&bench, &tiles, Some(&stems));
        assert_eq!(plain.detections, first.detections);
        assert_eq!(plain.evaluation, first.evaluation);
        assert_eq!(tiles.misses(), plain.regions as u64);

        // a rescan reuses every tile and every stem activation, and the
        // result is still bit-identical
        let second = det.scan_test_half_cached(&bench, &tiles, Some(&stems));
        assert_eq!(plain.detections, second.detections);
        assert_eq!(tiles.hits(), plain.regions as u64);
        assert!(
            stems.hits() >= plain.regions as u64,
            "rescan must replay cached stem activations (hits {})",
            stems.hits()
        );
    }

    #[test]
    fn coalesced_batch_reproduces_individual_scans() {
        // Concatenating two scans' samples into one batched pass (the
        // rhsd-serve coalescer) must give each scan exactly the results
        // it gets when scanned alone.
        let b2 = Benchmark::demo(CaseId::Case2);
        let b3 = Benchmark::demo(CaseId::Case3);
        let det = tiny_detector();
        let cfg = RegionConfig::demo();
        let s2: Vec<Arc<RegionSample>> = tile_regions(&b2, &b2.test_extent.clone(), &cfg)
            .into_iter()
            .map(Arc::new)
            .collect();
        let s3: Vec<Arc<RegionSample>> = tile_regions(&b3, &b3.test_extent.clone(), &cfg)
            .into_iter()
            .map(Arc::new)
            .collect();

        let alone2 = det.scan_batch(&s2, None);
        let alone3 = det.scan_batch(&s3, None);

        let mut combined: Vec<Arc<RegionSample>> = s2.clone();
        combined.extend(s3.iter().cloned());
        let batched = det.scan_batch(&combined, None);
        assert_eq!(&batched[..s2.len()], &alone2[..]);
        assert_eq!(&batched[s2.len()..], &alone3[..]);

        // ... and the merged ScanResult equals the full scan path.
        let merged = merge_scan(&s2, alone2);
        let plain = det.scan_test_half(&b2);
        assert_eq!(merged.detections, plain.detections);
        assert_eq!(merged.evaluation, plain.evaluation);
        assert_eq!(merged.regions, plain.regions);
    }

    #[test]
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
