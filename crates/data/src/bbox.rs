//! Floating-point bounding boxes in raster (pixel) coordinates.
//!
//! The neural networks regress clip locations as continuous
//! centre/size vectors (the `[x, y, w, h]` of Fig. 4); [`BBox`] is that
//! representation, convertible to and from integer layout rectangles.

use rhsd_layout::{RasterSpec, Rect};

/// A box in pixel coordinates: centre `(cx, cy)` and full size `(w, h)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Centre x in pixels.
    pub cx: f32,
    /// Centre y in pixels.
    pub cy: f32,
    /// Width in pixels.
    pub w: f32,
    /// Height in pixels.
    pub h: f32,
}

impl BBox {
    /// Creates a box from centre and size.
    pub fn new(cx: f32, cy: f32, w: f32, h: f32) -> Self {
        BBox { cx, cy, w, h }
    }

    /// Creates a box from corner coordinates.
    pub fn from_corners(x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        let (x0, x1) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (y0, y1) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        BBox {
            cx: (x0 + x1) / 2.0,
            cy: (y0 + y1) / 2.0,
            w: x1 - x0,
            h: y1 - y0,
        }
    }

    /// Left edge.
    pub fn x0(&self) -> f32 {
        self.cx - self.w / 2.0
    }

    /// Bottom edge.
    pub fn y0(&self) -> f32 {
        self.cy - self.h / 2.0
    }

    /// Right edge.
    pub fn x1(&self) -> f32 {
        self.cx + self.w / 2.0
    }

    /// Top edge.
    pub fn y1(&self) -> f32 {
        self.cy + self.h / 2.0
    }

    /// Area in px².
    pub fn area(&self) -> f32 {
        self.w.max(0.0) * self.h.max(0.0)
    }

    /// Intersection-over-Union with another box — Eq. (2) in continuous
    /// coordinates.
    pub fn iou(&self, other: &BBox) -> f32 {
        let ix = (self.x1().min(other.x1()) - self.x0().max(other.x0())).max(0.0);
        let iy = (self.y1().min(other.y1()) - self.y0().max(other.y0())).max(0.0);
        let inter = ix * iy;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// The middle-third core region (§2: hotspot cores).
    pub fn core(&self) -> BBox {
        BBox {
            cx: self.cx,
            cy: self.cy,
            w: self.w / 3.0,
            h: self.h / 3.0,
        }
    }

    /// IoU computed between the two boxes' *core* regions — the
    /// `Centre_IoU` of Algorithm 1 (h-NMS), which scores overlap of the
    /// structurally meaningful middle thirds instead of the full clips.
    pub fn centre_iou(&self, other: &BBox) -> f32 {
        self.core().iou(&other.core())
    }

    /// Returns `true` if `(x, y)` lies inside the box.
    pub fn contains(&self, x: f32, y: f32) -> bool {
        x >= self.x0() && x < self.x1() && y >= self.y0() && y < self.y1()
    }

    /// Converts to an integer layout rectangle via a raster mapping.
    pub fn to_rect(&self, spec: &RasterSpec) -> Rect {
        spec.to_nm(
            self.x0() as f64,
            self.y0() as f64,
            self.x1() as f64,
            self.y1() as f64,
        )
    }

    /// Builds a pixel box from a layout rectangle via a raster mapping.
    pub fn from_rect(rect: &Rect, spec: &RasterSpec) -> Self {
        let (x0, y0, x1, y1) = spec.to_px(rect);
        BBox::from_corners(x0 as f32, y0 as f32, x1 as f32, y1 as f32)
    }

    /// The box clamped to `[0, w] × [0, h]` raster bounds.
    pub fn clamped(&self, w: f32, h: f32) -> BBox {
        let x0 = self.x0().clamp(0.0, w);
        let x1 = self.x1().clamp(0.0, w);
        let y0 = self.y0().clamp(0.0, h);
        let y1 = self.y1().clamp(0.0, h);
        BBox::from_corners(x0, y0, x1, y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_roundtrip() {
        let b = BBox::from_corners(1.0, 2.0, 5.0, 10.0);
        assert_eq!(b.cx, 3.0);
        assert_eq!(b.cy, 6.0);
        assert_eq!(b.w, 4.0);
        assert_eq!(b.h, 8.0);
        assert_eq!(b.x0(), 1.0);
        assert_eq!(b.y1(), 10.0);
    }

    #[test]
    fn from_corners_normalises_order() {
        let b = BBox::from_corners(5.0, 10.0, 1.0, 2.0);
        assert_eq!(b.x0(), 1.0);
        assert_eq!(b.y0(), 2.0);
    }

    #[test]
    fn iou_matches_integer_impl() {
        let a = BBox::from_corners(0.0, 0.0, 4.0, 4.0);
        let b = BBox::from_corners(2.0, 0.0, 6.0, 4.0);
        let ra = Rect::new(0, 0, 4, 4);
        let rb = Rect::new(2, 0, 6, 4);
        assert!((a.iou(&b) - ra.iou(&rb) as f32).abs() < 1e-6);
    }

    #[test]
    fn iou_identical_is_one_disjoint_zero() {
        let a = BBox::new(5.0, 5.0, 2.0, 2.0);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
        let b = BBox::new(50.0, 50.0, 2.0, 2.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn core_is_middle_third() {
        let b = BBox::new(10.0, 10.0, 9.0, 9.0);
        let c = b.core();
        assert_eq!(c.w, 3.0);
        assert_eq!(c.cx, 10.0);
    }

    #[test]
    fn centre_iou_differs_from_iou() {
        // clips overlap but cores don't
        let a = BBox::new(0.0, 0.0, 12.0, 12.0);
        let b = BBox::new(7.0, 0.0, 12.0, 12.0);
        assert!(a.iou(&b) > 0.0);
        assert_eq!(a.centre_iou(&b), 0.0);
    }

    #[test]
    fn rect_conversion_roundtrip() {
        let spec = RasterSpec::new(Rect::new(0, 0, 1280, 1280), 128, 128);
        let r = Rect::new(100, 200, 420, 520);
        let b = BBox::from_rect(&r, &spec);
        assert_eq!(b.to_rect(&spec), r);
    }

    #[test]
    fn clamped_stays_in_bounds() {
        let b = BBox::new(0.0, 0.0, 10.0, 10.0);
        let c = b.clamped(128.0, 128.0);
        assert!(c.x0() >= 0.0 && c.y0() >= 0.0);
        assert_eq!(c.x1(), 5.0);
    }

    #[test]
    fn contains_point() {
        let b = BBox::new(5.0, 5.0, 4.0, 4.0);
        assert!(b.contains(5.0, 5.0));
        assert!(b.contains(3.0, 3.0));
        assert!(!b.contains(7.5, 5.0));
    }
}
