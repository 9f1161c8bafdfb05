//! Rasterisation of layout windows into image tensors.
//!
//! The neural detectors consume fixed-size binary rasters of layout
//! regions (the paper uses 256×256-pixel inputs); this module converts a
//! [`Layout`] window into a `[1, H, W]` tensor with anti-aliased partial
//! coverage on shape borders.

use rhsd_tensor::Tensor;

use crate::geom::Rect;
use crate::layout::{LayerId, Layout};

/// Maps between layout nanometres and raster pixels for a given window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RasterSpec {
    /// The layout window being imaged.
    pub window: Rect,
    /// Output raster width in pixels.
    pub width: usize,
    /// Output raster height in pixels.
    pub height: usize,
}

impl RasterSpec {
    /// Creates a raster spec.
    ///
    /// # Panics
    ///
    /// Panics if the window is degenerate or a pixel count is zero.
    pub fn new(window: Rect, width: usize, height: usize) -> Self {
        assert!(!window.is_degenerate(), "raster window must have area");
        assert!(width > 0 && height > 0, "raster size must be positive");
        RasterSpec {
            window,
            width,
            height,
        }
    }

    /// Converts a layout rectangle to (fractional) pixel coordinates
    /// `(x0, y0, x1, y1)` in this raster. Row 0 is the window's *bottom*
    /// (y0) edge, so layout and image coordinates share orientation.
    pub fn to_px(&self, r: &Rect) -> (f64, f64, f64, f64) {
        let sx = self.width as f64 / self.window.width() as f64;
        let sy = self.height as f64 / self.window.height() as f64;
        (
            (r.x0 - self.window.x0) as f64 * sx,
            (r.y0 - self.window.y0) as f64 * sy,
            (r.x1 - self.window.x0) as f64 * sx,
            (r.y1 - self.window.y0) as f64 * sy,
        )
    }

    /// Converts a pixel-space rectangle (x0, y0, x1, y1) back to layout nm.
    pub fn to_nm(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        let sx = self.window.width() as f64 / self.width as f64;
        let sy = self.window.height() as f64 / self.height as f64;
        Rect::new(
            self.window.x0 + (x0 * sx).round() as i64,
            self.window.y0 + (y0 * sy).round() as i64,
            self.window.x0 + (x1 * sx).round() as i64,
            self.window.y0 + (y1 * sy).round() as i64,
        )
    }
}

/// Rasterises one layer of a layout window into a `[1, H, W]` tensor.
///
/// Pixel values are the fraction of the pixel covered by shapes, clamped
/// to `[0, 1]` (overlapping shapes saturate rather than add).
pub fn rasterize(layout: &Layout, layer: LayerId, spec: &RasterSpec) -> Tensor {
    let _sp = rhsd_obs::span("raster");
    let mut img = Tensor::zeros([1, spec.height, spec.width]);
    let data = img.as_mut_slice();
    for shape in layout.query(layer, &spec.window) {
        let clipped = match shape.intersection(&spec.window) {
            Some(c) => c,
            None => continue,
        };
        let (px0, py0, px1, py1) = spec.to_px(&clipped);
        let ix0 = px0.floor().max(0.0) as usize;
        let iy0 = py0.floor().max(0.0) as usize;
        let ix1 = (px1.ceil() as usize).min(spec.width);
        let iy1 = (py1.ceil() as usize).min(spec.height);
        for y in iy0..iy1 {
            // vertical coverage of this pixel row
            let cy0 = (y as f64).max(py0);
            let cy1 = ((y + 1) as f64).min(py1);
            let fy = (cy1 - cy0).max(0.0);
            for x in ix0..ix1 {
                let cx0 = (x as f64).max(px0);
                let cx1 = ((x + 1) as f64).min(px1);
                let fx = (cx1 - cx0).max(0.0);
                let off = y * spec.width + x;
                data[off] = (data[off] + (fx * fy) as f32).min(1.0);
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::METAL1;

    fn layout_with(shapes: &[Rect]) -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        for &s in shapes {
            l.add(METAL1, s);
        }
        l
    }

    #[test]
    fn empty_layout_rasters_to_zero() {
        let l = layout_with(&[]);
        let spec = RasterSpec::new(Rect::new(0, 0, 1000, 1000), 16, 16);
        let img = rasterize(&l, METAL1, &spec);
        assert_eq!(img.dims(), &[1, 16, 16]);
        assert_eq!(img.sum(), 0.0);
    }

    #[test]
    fn full_coverage_rasters_to_one() {
        let l = layout_with(&[Rect::new(0, 0, 1000, 1000)]);
        let spec = RasterSpec::new(Rect::new(0, 0, 1000, 1000), 8, 8);
        let img = rasterize(&l, METAL1, &spec);
        for &v in img.as_slice() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pixel_aligned_shape_covers_exact_pixels() {
        // 1000nm window at 10px → 100nm per pixel; shape covers pixels 2..4 in x
        let l = layout_with(&[Rect::new(200, 0, 400, 1000)]);
        let spec = RasterSpec::new(Rect::new(0, 0, 1000, 1000), 10, 10);
        let img = rasterize(&l, METAL1, &spec);
        assert_eq!(img.get(&[0, 5, 2]), 1.0);
        assert_eq!(img.get(&[0, 5, 3]), 1.0);
        assert_eq!(img.get(&[0, 5, 1]), 0.0);
        assert_eq!(img.get(&[0, 5, 4]), 0.0);
    }

    #[test]
    fn partial_coverage_antialiases() {
        // shape covering half of pixel 0 in x
        let l = layout_with(&[Rect::new(0, 0, 50, 1000)]);
        let spec = RasterSpec::new(Rect::new(0, 0, 1000, 1000), 10, 10);
        let img = rasterize(&l, METAL1, &spec);
        assert!((img.get(&[0, 0, 0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn overlapping_shapes_saturate() {
        let l = layout_with(&[Rect::new(0, 0, 1000, 1000), Rect::new(0, 0, 1000, 1000)]);
        let spec = RasterSpec::new(Rect::new(0, 0, 1000, 1000), 4, 4);
        let img = rasterize(&l, METAL1, &spec);
        assert!(img.max() <= 1.0);
    }

    #[test]
    fn raster_area_matches_density() {
        let l = layout_with(&[Rect::new(100, 100, 600, 350)]);
        let window = Rect::new(0, 0, 1000, 1000);
        let spec = RasterSpec::new(window, 50, 50);
        let img = rasterize(&l, METAL1, &spec);
        let raster_density = img.mean() as f64;
        let true_density = l.density(METAL1, &window);
        assert!(
            (raster_density - true_density).abs() < 1e-3,
            "{raster_density} vs {true_density}"
        );
    }

    #[test]
    fn to_px_to_nm_roundtrip() {
        let spec = RasterSpec::new(Rect::new(0, 0, 2560, 2560), 256, 256);
        let r = Rect::new(300, 400, 800, 900);
        let (x0, y0, x1, y1) = spec.to_px(&r);
        let back = spec.to_nm(x0, y0, x1, y1);
        assert_eq!(back, r);
    }

    #[test]
    fn window_offset_respected() {
        let l = layout_with(&[Rect::new(500, 500, 600, 600)]);
        let spec = RasterSpec::new(Rect::new(500, 500, 700, 700), 2, 2);
        let img = rasterize(&l, METAL1, &spec);
        // shape fills the lower-left pixel of the window
        assert!((img.get(&[0, 0, 0]) - 1.0).abs() < 1e-6);
        assert_eq!(img.get(&[0, 1, 1]), 0.0);
    }
}
