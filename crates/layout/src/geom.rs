//! Integer-nanometre rectilinear geometry.

use std::fmt;

/// A point in layout space, in nanometres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate in nm.
    pub x: i64,
    /// Vertical coordinate in nm.
    pub y: i64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned rectangle in nanometres: `[x0, x1) × [y0, y1)`.
///
/// Construction normalises corner order, so `x0 <= x1` and `y0 <= y1`
/// always hold. Degenerate (zero-area) rectangles are permitted; they
/// intersect nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i64,
    /// Bottom edge (inclusive).
    pub y0: i64,
    /// Right edge (exclusive).
    pub x1: i64,
    /// Top edge (exclusive).
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle from two corners (any order).
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Creates a rectangle from centre point and full width/height.
    pub fn centered(cx: i64, cy: i64, w: i64, h: i64) -> Self {
        Rect::new(cx - w / 2, cy - h / 2, cx - w / 2 + w, cy - h / 2 + h)
    }

    /// Width in nm.
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height in nm.
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// Returns `true` if the rectangle has zero area.
    pub fn is_degenerate(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Centre point (rounded down).
    pub fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }

    /// Returns `true` if `p` lies inside (half-open semantics).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// Returns `true` if `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0 && other.x1 <= self.x1 && other.y0 >= self.y0 && other.y1 <= self.y1
    }

    /// Returns `true` if the two rectangles overlap with positive area.
    ///
    /// Degenerate rectangles intersect nothing.
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_degenerate()
            && !other.is_degenerate()
            && self.x0 < other.x1
            && other.x0 < self.x1
            && self.y0 < other.y1
            && other.y0 < self.y1
    }

    /// The overlapping region, if it has positive area.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if self.intersects(other) {
            Some(Rect {
                x0: self.x0.max(other.x0),
                y0: self.y0.max(other.y0),
                x1: self.x1.min(other.x1),
                y1: self.y1.min(other.y1),
            })
        } else {
            None
        }
    }

    /// Intersection-over-Union — Eq. (2) of the paper.
    ///
    /// The union is computed exactly (`|A| + |B| − |A∩B|`), not via the
    /// bounding box. Returns 0.0 when either rectangle is degenerate.
    pub fn iou(&self, other: &Rect) -> f64 {
        if self.is_degenerate() || other.is_degenerate() {
            return 0.0;
        }
        let inter = self.intersection(other).map(|r| r.area()).unwrap_or(0);
        let union = self.area() + other.area() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// The rectangle translated by `(dx, dy)`.
    pub fn translated(&self, dx: i64, dy: i64) -> Rect {
        Rect {
            x0: self.x0 + dx,
            y0: self.y0 + dy,
            x1: self.x1 + dx,
            y1: self.y1 + dy,
        }
    }

    /// The rectangle grown by `margin` on every side (shrunk if negative).
    pub fn inflated(&self, margin: i64) -> Rect {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// The middle-third core region of a clip (§2 of the paper: a hotspot
    /// is correctly detected if it lies in the core of a clip marked as
    /// hotspot).
    pub fn core(&self) -> Rect {
        let w3 = self.width() / 3;
        let h3 = self.height() / 3;
        Rect {
            x0: self.x0 + w3,
            y0: self.y0 + h3,
            x1: self.x1 - w3,
            y1: self.y1 - h3,
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}; {}, {}]", self.x0, self.y0, self.x1, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_corners() {
        let r = Rect::new(10, 20, 0, 5);
        assert_eq!(r, Rect::new(0, 5, 10, 20));
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 15);
    }

    #[test]
    fn centered_has_requested_size() {
        let r = Rect::centered(100, 100, 30, 50);
        assert_eq!(r.width(), 30);
        assert_eq!(r.height(), 50);
        assert_eq!(r.center(), Point::new(100, 100));
    }

    #[test]
    fn contains_uses_half_open_semantics() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(9, 9)));
        assert!(!r.contains(Point::new(10, 10)));
        assert!(!r.contains(Point::new(-1, 5)));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        let c = Rect::new(10, 0, 20, 10); // shares only an edge
        assert_eq!(a.intersection(&c), None);
        assert!(!a.intersects(&c));
        let d = Rect::new(2, 2, 4, 4); // fully inside
        assert_eq!(a.intersection(&d), Some(d));
        assert!(a.contains_rect(&d));
    }

    #[test]
    fn iou_identical_is_one() {
        let a = Rect::new(0, 0, 8, 8);
        assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(100, 100, 104, 104);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        // two 4×4 squares overlapping in a 2×4 strip: 8 / (16+16-8) = 1/3
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(2, 0, 6, 4);
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn iou_symmetric() {
        let a = Rect::new(0, 0, 7, 3);
        let b = Rect::new(2, 1, 9, 8);
        assert_eq!(a.iou(&b), b.iou(&a));
    }

    #[test]
    fn degenerate_rect_behaviour() {
        let d = Rect::new(5, 5, 5, 9);
        assert!(d.is_degenerate());
        assert_eq!(d.area(), 0);
        assert_eq!(d.iou(&Rect::new(0, 0, 10, 10)), 0.0);
        assert!(!d.intersects(&Rect::new(0, 0, 10, 10)));
    }

    #[test]
    fn core_is_middle_third() {
        let clip = Rect::new(0, 0, 9, 9);
        assert_eq!(clip.core(), Rect::new(3, 3, 6, 6));
        let clip = Rect::new(30, 60, 120, 150);
        let core = clip.core();
        assert_eq!(core.width(), 30);
        assert_eq!(core.height(), 30);
        assert_eq!(core.center(), clip.center());
    }

    #[test]
    fn translate_and_inflate() {
        let r = Rect::new(0, 0, 4, 4);
        assert_eq!(r.translated(10, -2), Rect::new(10, -2, 14, 2));
        assert_eq!(r.inflated(1), Rect::new(-1, -1, 5, 5));
        assert_eq!(r.inflated(-1), Rect::new(1, 1, 3, 3));
    }
}
