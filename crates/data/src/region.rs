//! Region sampling: large layout windows with hotspot clip ground truth —
//! the input unit of the region-based detector.

use rhsd_layout::{rasterize, Point, RasterSpec, Rect, METAL1};
use rhsd_tensor::Tensor;

use crate::bbox::BBox;
use crate::benchmark::{Benchmark, NM_PER_PX};

/// One training/evaluation sample: a rasterised layout region and the
/// ground-truth hotspot clips inside it (pixel coordinates).
#[derive(Debug, Clone)]
pub struct RegionSample {
    /// `[1, size, size]` raster of the region.
    pub image: Tensor,
    /// The layout window this raster images.
    pub window: Rect,
    /// The raster mapping (for converting detections back to nm).
    pub spec: RasterSpec,
    /// Ground-truth hotspot clips, in pixels.
    pub gt_clips: Vec<BBox>,
    /// Ground-truth hotspot centres, in pixels.
    pub gt_centers: Vec<(f32, f32)>,
}

/// Geometry of region sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionConfig {
    /// Region raster side, in pixels.
    pub region_px: usize,
    /// Ground-truth clip side, in pixels.
    pub clip_px: usize,
}

impl RegionConfig {
    /// The paper's geometry: 256-px regions, 48-px ground-truth clips.
    pub fn paper() -> Self {
        RegionConfig {
            region_px: 256,
            clip_px: 48,
        }
    }

    /// Demo geometry for CPU-scale training: 128-px regions, 32-px clips.
    pub fn demo() -> Self {
        RegionConfig {
            region_px: 128,
            clip_px: 32,
        }
    }

    /// Region side in nm.
    pub fn region_nm(&self) -> i64 {
        (self.region_px as f64 * NM_PER_PX) as i64
    }

    /// Clip side in nm.
    pub fn clip_nm(&self) -> i64 {
        (self.clip_px as f64 * NM_PER_PX) as i64
    }
}

/// Extracts one region sample from a benchmark at window `origin`.
///
/// Hotspots inside the window become ground-truth clips of
/// `config.clip_px` square centred on the defect.
pub fn extract_region(bench: &Benchmark, origin: Point, config: &RegionConfig) -> RegionSample {
    let side = config.region_nm();
    let window = Rect::new(origin.x, origin.y, origin.x + side, origin.y + side);
    let spec = RasterSpec::new(window, config.region_px, config.region_px);
    let image = rasterize(&bench.layout, METAL1, &spec);
    let mut gt_clips = Vec::new();
    let mut gt_centers = Vec::new();
    for p in bench.hotspots_in(&window) {
        let px = ((p.x - window.x0) as f64 / NM_PER_PX) as f32;
        let py = ((p.y - window.y0) as f64 / NM_PER_PX) as f32;
        gt_centers.push((px, py));
        // Clips are NOT clamped to the raster: a clamped clip would shift
        // its core region off the defect, making border hotspots
        // undetectable by definition (Def. 1).
        gt_clips.push(BBox::new(
            px,
            py,
            config.clip_px as f32,
            config.clip_px as f32,
        ));
    }
    RegionSample {
        image,
        window,
        spec,
        gt_clips,
        gt_centers,
    }
}

/// The origin grid of [`tile_regions`]: row-major window origins of every
/// complete `side`-nm tile inside `extent`.
pub fn tile_origins(extent: &Rect, side: i64) -> Vec<Point> {
    let mut origins = Vec::new();
    let mut y = extent.y0;
    while y + side <= extent.y1 {
        let mut x = extent.x0;
        while x + side <= extent.x1 {
            origins.push(Point::new(x, y));
            x += side;
        }
        y += side;
    }
    origins
}

/// Tiles an extent into non-overlapping region samples.
///
/// Regions that would extend past the extent are dropped (the synthetic
/// extents are sized as multiples of the region side).
pub fn tile_regions(bench: &Benchmark, extent: &Rect, config: &RegionConfig) -> Vec<RegionSample> {
    let origins = tile_origins(extent, config.region_nm());
    // Rasterisation + ground-truth lookup per tile is read-only, so
    // tiles extract in parallel; `map` returns them in grid order.
    rhsd_par::map(origins.len(), 1, |i| {
        extract_region(bench, origins[i], config)
    })
}

/// Samples `count` regions at random origins inside `extent` (training
/// augmentation: hotspots appear at varied positions instead of the fixed
/// tile grid). Deterministic for a given seed.
pub fn sample_regions(
    bench: &Benchmark,
    extent: &Rect,
    config: &RegionConfig,
    count: usize,
    seed: u64,
) -> Vec<RegionSample> {
    use rand::Rng;
    use rand::SeedableRng;
    let side = config.region_nm();
    if extent.width() < side || extent.height() < side {
        return Vec::new();
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    // Origin selection consumes the seeded RNG sequentially; only the
    // read-only extraction runs in parallel, so the sample list is
    // identical at any thread count.
    let origins: Vec<Point> = (0..count)
        .map(|_| {
            let x = rng.gen_range(extent.x0..=extent.x1 - side);
            let y = rng.gen_range(extent.y0..=extent.y1 - side);
            Point::new(x, y)
        })
        .collect();
    rhsd_par::map(origins.len(), 1, |i| {
        extract_region(bench, origins[i], config)
    })
}

/// Tiles the training half of a benchmark.
pub fn train_regions(bench: &Benchmark, config: &RegionConfig) -> Vec<RegionSample> {
    tile_regions(bench, &bench.train_extent, config)
}

/// Tiles the testing half of a benchmark.
pub fn test_regions(bench: &Benchmark, config: &RegionConfig) -> Vec<RegionSample> {
    tile_regions(bench, &bench.test_extent, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_layout::synth::CaseId;

    fn demo_bench() -> Benchmark {
        Benchmark::demo(CaseId::Case3)
    }

    #[test]
    fn extracted_region_has_expected_shape() {
        let b = demo_bench();
        let cfg = RegionConfig::demo();
        let r = extract_region(&b, Point::new(0, 0), &cfg);
        assert_eq!(r.image.dims(), &[1, 128, 128]);
        assert_eq!(r.window.width(), cfg.region_nm());
    }

    #[test]
    fn gt_clips_match_hotspot_counts() {
        let b = demo_bench();
        let cfg = RegionConfig::demo();
        let r = extract_region(&b, Point::new(0, 0), &cfg);
        assert_eq!(r.gt_clips.len(), b.hotspots_in(&r.window).len());
        assert_eq!(r.gt_clips.len(), r.gt_centers.len());
    }

    #[test]
    fn gt_clip_centres_are_inside_the_raster() {
        let b = demo_bench();
        let cfg = RegionConfig::demo();
        for r in tile_regions(&b, &b.train_extent, &cfg) {
            for (c, &(px, py)) in r.gt_clips.iter().zip(r.gt_centers.iter()) {
                assert!((c.cx - px).abs() < 1e-3 && (c.cy - py).abs() < 1e-3);
                assert!((0.0..=128.0).contains(&px) && (0.0..=128.0).contains(&py));
                assert_eq!(c.w as usize, cfg.clip_px, "clips keep full size");
            }
        }
    }

    #[test]
    fn tiling_covers_the_training_half() {
        let b = demo_bench();
        let cfg = RegionConfig::demo();
        let regions = train_regions(&b, &cfg);
        // demo extent is 7680 wide; half = 3840; regions 1280 → 3×6 = 18
        assert_eq!(regions.len(), 18);
        // all regions inside the train half
        for r in &regions {
            assert!(b.train_extent.contains_rect(&r.window));
        }
    }

    #[test]
    fn train_and_test_regions_disjoint() {
        let b = demo_bench();
        let cfg = RegionConfig::demo();
        for tr in train_regions(&b, &cfg) {
            for te in test_regions(&b, &cfg) {
                assert!(!tr.window.intersects(&te.window));
            }
        }
    }

    #[test]
    fn some_region_contains_hotspots() {
        let b = demo_bench();
        let cfg = RegionConfig::demo();
        let total: usize = train_regions(&b, &cfg)
            .iter()
            .map(|r| r.gt_clips.len())
            .sum();
        assert!(total > 0, "training regions should contain hotspots");
    }
}
