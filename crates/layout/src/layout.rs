//! The layered layout database with a uniform-grid spatial index.

use crate::geom::Rect;

/// Identifier of a mask layer (e.g. metal-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub u16);

/// The metal layer used throughout the RHSD benchmarks.
pub const METAL1: LayerId = LayerId(1);

/// An in-memory layout: rectangles per layer, spatially indexed for fast
/// window queries (the access pattern of rasterisation and clip scanning).
///
/// # Examples
///
/// ```
/// use rhsd_layout::{Layout, Rect, METAL1};
///
/// let mut layout = Layout::new(Rect::new(0, 0, 1000, 1000));
/// layout.add(METAL1, Rect::new(100, 100, 400, 132));
/// let hits = layout.query(METAL1, &Rect::new(0, 0, 500, 500));
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Layout {
    extent: Rect,
    layers: Vec<(LayerId, LayerData)>,
    grid_cell: i64,
}

#[derive(Debug, Clone)]
struct LayerData {
    shapes: Vec<Rect>,
    /// bins[by * nx + bx] → indices into `shapes`
    bins: Vec<Vec<u32>>,
    nx: usize,
    ny: usize,
}

impl Layout {
    /// Default spatial-index cell size in nm.
    pub const DEFAULT_GRID_CELL: i64 = 512;

    /// Creates an empty layout covering `extent`.
    pub fn new(extent: Rect) -> Self {
        Layout::with_grid_cell(extent, Self::DEFAULT_GRID_CELL)
    }

    /// Creates an empty layout with a custom spatial-index cell size.
    ///
    /// # Panics
    ///
    /// Panics if `grid_cell <= 0` or `extent` is degenerate.
    pub fn with_grid_cell(extent: Rect, grid_cell: i64) -> Self {
        assert!(grid_cell > 0, "grid cell must be positive");
        assert!(!extent.is_degenerate(), "layout extent must have area");
        Layout {
            extent,
            layers: Vec::new(),
            grid_cell,
        }
    }

    /// The layout's bounding extent.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// Layers present, in insertion order.
    pub fn layer_ids(&self) -> Vec<LayerId> {
        self.layers.iter().map(|(id, _)| *id).collect()
    }

    /// Total number of shapes on one layer (0 if absent).
    pub fn shape_count(&self, layer: LayerId) -> usize {
        self.layer(layer).map_or(0, |d| d.shapes.len())
    }

    fn layer(&self, id: LayerId) -> Option<&LayerData> {
        self.layers.iter().find(|(l, _)| *l == id).map(|(_, d)| d)
    }

    fn layer_mut(&mut self, id: LayerId) -> &mut LayerData {
        if let Some(pos) = self.layers.iter().position(|(l, _)| *l == id) {
            return &mut self.layers[pos].1;
        }
        let nx = (self.extent.width() as usize)
            .div_ceil(self.grid_cell as usize)
            .max(1);
        let ny = (self.extent.height() as usize)
            .div_ceil(self.grid_cell as usize)
            .max(1);
        let end = self.layers.len();
        self.layers.push((
            id,
            LayerData {
                shapes: Vec::new(),
                bins: vec![Vec::new(); nx * ny],
                nx,
                ny,
            },
        ));
        &mut self.layers[end].1
    }

    fn bin_range(&self, data: &LayerData, rect: &Rect) -> (usize, usize, usize, usize) {
        let cell = self.grid_cell;
        let ox = self.extent.x0;
        let oy = self.extent.y0;
        let bx0 = (((rect.x0 - ox).max(0)) / cell) as usize;
        let by0 = (((rect.y0 - oy).max(0)) / cell) as usize;
        let bx1 = ((((rect.x1 - ox - 1).max(0)) / cell) as usize).min(data.nx - 1);
        let by1 = ((((rect.y1 - oy - 1).max(0)) / cell) as usize).min(data.ny - 1);
        (bx0.min(data.nx - 1), by0.min(data.ny - 1), bx1, by1)
    }

    /// Adds a rectangle to a layer.
    ///
    /// Shapes may extend beyond the extent; only the in-extent part is
    /// indexed (and therefore query-able).
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is degenerate.
    pub fn add(&mut self, layer: LayerId, rect: Rect) {
        assert!(!rect.is_degenerate(), "cannot add degenerate rect {rect}");
        let cell = self.grid_cell;
        let ox = self.extent.x0;
        let oy = self.extent.y0;
        let data = self.layer_mut(layer);
        let idx = data.shapes.len() as u32;
        data.shapes.push(rect);
        let bx0 = (((rect.x0 - ox).max(0)) / cell) as usize;
        let by0 = (((rect.y0 - oy).max(0)) / cell) as usize;
        let bx1 = ((((rect.x1 - ox - 1).max(0)) / cell) as usize).min(data.nx - 1);
        let by1 = ((((rect.y1 - oy - 1).max(0)) / cell) as usize).min(data.ny - 1);
        let (bx0, by0) = (bx0.min(data.nx - 1), by0.min(data.ny - 1));
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                data.bins[by * data.nx + bx].push(idx);
            }
        }
    }

    /// Returns the shapes on `layer` intersecting `window` (positive-area
    /// overlap), deduplicated, in insertion order.
    pub fn query(&self, layer: LayerId, window: &Rect) -> Vec<Rect> {
        let Some(data) = self.layer(layer) else {
            return Vec::new();
        };
        if window.is_degenerate() {
            return Vec::new();
        }
        let (bx0, by0, bx1, by1) = self.bin_range(data, window);
        let mut seen = vec![false; data.shapes.len()];
        let mut out = Vec::new();
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                for &idx in &data.bins[by * data.nx + bx] {
                    let i = idx as usize;
                    if !seen[i] && data.shapes[i].intersects(window) {
                        seen[i] = true;
                        out.push(i);
                    }
                }
            }
        }
        out.sort_unstable();
        out.into_iter().map(|i| data.shapes[i]).collect()
    }

    /// Iterates over all shapes on a layer.
    pub fn shapes(&self, layer: LayerId) -> &[Rect] {
        self.layer(layer).map_or(&[], |d| &d.shapes)
    }

    /// Total shape area on a layer in nm² (overlaps double-counted).
    pub fn total_area(&self, layer: LayerId) -> i64 {
        self.shapes(layer).iter().map(|r| r.area()).sum()
    }

    /// Density of a window: shape area ÷ window area (overlaps clipped to
    /// the window, double-counted where shapes overlap each other).
    pub fn density(&self, layer: LayerId, window: &Rect) -> f64 {
        if window.is_degenerate() {
            return 0.0;
        }
        let covered: i64 = self
            .query(layer, window)
            .iter()
            .filter_map(|r| r.intersection(window))
            .map(|r| r.area())
            .sum();
        covered as f64 / window.area() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_basic() {
        let mut l = Layout::new(Rect::new(0, 0, 2000, 2000));
        l.add(METAL1, Rect::new(0, 0, 100, 100));
        l.add(METAL1, Rect::new(1500, 1500, 1600, 1600));
        assert_eq!(l.shape_count(METAL1), 2);
        assert_eq!(l.query(METAL1, &Rect::new(0, 0, 200, 200)).len(), 1);
        assert_eq!(l.query(METAL1, &Rect::new(0, 0, 2000, 2000)).len(), 2);
        assert!(l.query(METAL1, &Rect::new(200, 200, 1400, 1400)).is_empty());
    }

    #[test]
    fn query_missing_layer_is_empty() {
        let l = Layout::new(Rect::new(0, 0, 100, 100));
        assert!(l.query(LayerId(99), &Rect::new(0, 0, 100, 100)).is_empty());
        assert_eq!(l.shape_count(LayerId(99)), 0);
    }

    #[test]
    fn query_deduplicates_shapes_spanning_bins() {
        // A shape spanning many grid cells must be returned once.
        let mut l = Layout::with_grid_cell(Rect::new(0, 0, 1000, 1000), 100);
        l.add(METAL1, Rect::new(0, 450, 1000, 482)); // long horizontal wire
        let hits = l.query(METAL1, &Rect::new(0, 0, 1000, 1000));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn edge_touching_shapes_not_reported() {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        l.add(METAL1, Rect::new(0, 0, 100, 100));
        // window sharing only an edge
        assert!(l.query(METAL1, &Rect::new(100, 0, 200, 100)).is_empty());
    }

    #[test]
    fn query_window_partially_outside_extent() {
        let mut l = Layout::new(Rect::new(0, 0, 500, 500));
        l.add(METAL1, Rect::new(450, 450, 500, 500));
        let hits = l.query(METAL1, &Rect::new(400, 400, 900, 900));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn density_of_half_filled_window() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        l.add(METAL1, Rect::new(0, 0, 50, 100));
        assert!((l.density(METAL1, &Rect::new(0, 0, 100, 100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_clips_to_window() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100));
        l.add(METAL1, Rect::new(0, 0, 100, 100));
        // window half inside the shape
        assert!((l.density(METAL1, &Rect::new(50, 0, 150, 100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn layer_ids_in_insertion_order() {
        let mut l = Layout::new(Rect::new(0, 0, 10, 10));
        l.add(LayerId(5), Rect::new(0, 0, 1, 1));
        l.add(LayerId(2), Rect::new(0, 0, 1, 1));
        assert_eq!(l.layer_ids(), vec![LayerId(5), LayerId(2)]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn add_rejects_degenerate() {
        let mut l = Layout::new(Rect::new(0, 0, 10, 10));
        l.add(METAL1, Rect::new(5, 5, 5, 8));
    }
}
