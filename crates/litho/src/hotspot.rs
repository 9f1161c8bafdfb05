//! Hotspot extraction: process-window printing failures of a layout.
//!
//! This module is the ground-truth oracle replacing the industrial 7 nm
//! EUV lithography simulation of the ICCAD-2016 benchmarks. A location is
//! a **hotspot** when, at any corner of the process window, the printed
//! pattern's connectivity differs from the design's:
//!
//! - **Bridge**: printed metal connects two design-disjoint nets (extra
//!   printing in a tight gap).
//! - **Pinch**: a design net prints broken or vanishes (necking).

use rhsd_layout::{rasterize, LayerId, Layout, Point, RasterSpec, Rect};
use rhsd_tensor::Tensor;

use crate::aerial::aerial_image;
use crate::kernel::GaussianKernel;
use crate::resist::{binarize, connected_components, print_resist};
use crate::window::{ProcessCorner, ProcessWindow};

/// The failure mode of a defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// Two design-disjoint nets print connected.
    Bridge,
    /// A design net prints broken or not at all.
    Pinch,
}

impl std::fmt::Display for DefectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DefectKind::Bridge => f.write_str("bridge"),
            DefectKind::Pinch => f.write_str("pinch"),
        }
    }
}

/// A lithography defect in layout coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Defect {
    /// Failure mode.
    pub kind: DefectKind,
    /// Defect centre in nm.
    pub location: Point,
    /// Name of the process corner that exposed it.
    pub corner: String,
}

/// A defect in pixel coordinates of one simulated tile.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DefectPx {
    kind: DefectKind,
    x: f64,
    y: f64,
}

/// Simulates printing of a design raster at one process corner.
///
/// `nm_per_px` converts the corner's physical blur into pixels.
pub fn simulate_print(design_raster: &Tensor, corner: &ProcessCorner, nm_per_px: f64) -> Tensor {
    let _sp = rhsd_obs::span("litho");
    let kernel = GaussianKernel::new(corner.sigma_nm / nm_per_px);
    let aerial = aerial_image(design_raster, &kernel);
    print_resist(&aerial, corner.threshold)
}

/// Minimum pixel count for a design component to be defect-checked
/// (suppresses raster noise).
const MIN_COMPONENT_PX: usize = 4;

/// Maximum bbox gap (pixels) between print fragments for a pinch defect to
/// be localised between them.
const MAX_BREAK_GAP_PX: f64 = 24.0;

/// Finds printing defects by comparing the binarised design with a printed
/// image (both `[1, H, W]`).
///
/// # Panics
///
/// Panics if shapes differ or are not single-channel rank 3.
fn find_defects_px(design_bin: &Tensor, printed: &Tensor) -> Vec<DefectPx> {
    assert_eq!(
        design_bin.shape(),
        printed.shape(),
        "design/print shape mismatch"
    );
    let (h, w) = (design_bin.dim(1), design_bin.dim(2));
    let dv = design_bin.as_slice();
    let pv = printed.as_slice();
    let (dlabels, dn) = connected_components(design_bin);
    let (plabels, pn) = connected_components(printed);

    let mut defects = Vec::new();

    // --- Bridges: clusters of extra printed pixels touching ≥2 design comps.
    let extra = Tensor::from_fn([1, h, w], |c| {
        let off = c[1] * w + c[2];
        if pv[off] >= 0.5 && dv[off] < 0.5 {
            1.0
        } else {
            0.0
        }
    });
    let (elabels, en) = connected_components(&extra);
    if en > 0 {
        // per extra-cluster: touched design comps + centroid
        let mut touched: Vec<Vec<u32>> = vec![Vec::new(); en as usize + 1];
        let mut cx = vec![0.0f64; en as usize + 1];
        let mut cy = vec![0.0f64; en as usize + 1];
        let mut cnt = vec![0usize; en as usize + 1];
        for y in 0..h {
            for x in 0..w {
                let off = y * w + x;
                let e = elabels[off];
                if e == 0 {
                    continue;
                }
                cx[e as usize] += x as f64;
                cy[e as usize] += y as f64;
                cnt[e as usize] += 1;
                let mut note = |o: usize| {
                    let dl = dlabels[o];
                    if dl != 0 && !touched[e as usize].contains(&dl) {
                        touched[e as usize].push(dl);
                    }
                };
                if x > 0 {
                    note(off - 1);
                }
                if x + 1 < w {
                    note(off + 1);
                }
                if y > 0 {
                    note(off - w);
                }
                if y + 1 < h {
                    note(off + w);
                }
            }
        }
        for e in 1..=en as usize {
            if touched[e].len() >= 2 && cnt[e] > 0 {
                defects.push(DefectPx {
                    kind: DefectKind::Bridge,
                    x: cx[e] / cnt[e] as f64,
                    y: cy[e] / cnt[e] as f64,
                });
            }
        }
    }

    // --- Pinches: design comps that print in ≥2 fragments or not at all.
    // design comp -> set of print comps overlapping it, with fragment bboxes
    let dn = dn as usize;
    let mut comp_size = vec![0usize; dn + 1];
    let mut comp_bbox = vec![(usize::MAX, usize::MAX, 0usize, 0usize); dn + 1];
    // fragment bboxes keyed by (design comp, print comp)
    use std::collections::BTreeMap;
    let mut fragments: BTreeMap<(u32, u32), (usize, usize, usize, usize)> = BTreeMap::new();
    let _ = pn;
    for y in 0..h {
        for x in 0..w {
            let off = y * w + x;
            let dl = dlabels[off];
            if dl == 0 {
                continue;
            }
            let d = dl as usize;
            comp_size[d] += 1;
            let bb = &mut comp_bbox[d];
            bb.0 = bb.0.min(x);
            bb.1 = bb.1.min(y);
            bb.2 = bb.2.max(x);
            bb.3 = bb.3.max(y);
            let pl = plabels[off];
            if pl != 0 {
                let fb = fragments
                    .entry((dl, pl))
                    .or_insert((usize::MAX, usize::MAX, 0, 0));
                fb.0 = fb.0.min(x);
                fb.1 = fb.1.min(y);
                fb.2 = fb.2.max(x);
                fb.3 = fb.3.max(y);
            }
        }
    }
    for d in 1..=dn {
        if comp_size[d] < MIN_COMPONENT_PX {
            continue;
        }
        let frags: Vec<&(usize, usize, usize, usize)> = fragments
            .iter()
            .filter(|((dl, _), _)| *dl == d as u32)
            .map(|(_, bb)| bb)
            .collect();
        if frags.is_empty() {
            // vanished entirely
            let bb = comp_bbox[d];
            defects.push(DefectPx {
                kind: DefectKind::Pinch,
                x: (bb.0 + bb.2) as f64 / 2.0,
                y: (bb.1 + bb.3) as f64 / 2.0,
            });
            continue;
        }
        if frags.len() >= 2 {
            // broken: localise between nearest fragment bboxes
            let mut frags = frags;
            frags.sort_by_key(|bb| (bb.0, bb.1));
            for pair in frags.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                // gap between bboxes (0 if overlapping)
                let gx = gap_1d(a.0, a.2, b.0, b.2);
                let gy = gap_1d(a.1, a.3, b.1, b.3);
                let gap = (gx * gx + gy * gy).sqrt();
                if gap <= MAX_BREAK_GAP_PX {
                    let mx = mid_1d(a.0, a.2, b.0, b.2);
                    let my = mid_1d(a.1, a.3, b.1, b.3);
                    defects.push(DefectPx {
                        kind: DefectKind::Pinch,
                        x: mx,
                        y: my,
                    });
                }
            }
        }
    }

    defects
}

/// Gap between two 1-D intervals `[a0, a1]`, `[b0, b1]` (0 if overlapping).
fn gap_1d(a0: usize, a1: usize, b0: usize, b1: usize) -> f64 {
    if b0 > a1 {
        (b0 - a1) as f64
    } else if a0 > b1 {
        (a0 - b1) as f64
    } else {
        0.0
    }
}

/// Midpoint of the gap (or overlap) between two 1-D intervals.
fn mid_1d(a0: usize, a1: usize, b0: usize, b1: usize) -> f64 {
    if b0 > a1 {
        (a1 + b0) as f64 / 2.0
    } else if a0 > b1 {
        (b1 + a0) as f64 / 2.0
    } else {
        // overlapping: centre of the overlap
        (a0.max(b0) + a1.min(b1)) as f64 / 2.0
    }
}

/// Labels one layout window with defects across a process window.
///
/// The window is simulated with `pad_sigma · max σ` of surrounding context
/// so blur at the borders is physical, and only defects inside `window`
/// are reported. `nm_per_px` sets raster resolution (10 nm/px matches the
/// paper's 256-pixel / 2.56 µm clips).
pub fn label_region(
    layout: &Layout,
    layer: LayerId,
    window: &Rect,
    pw: &ProcessWindow,
    nm_per_px: f64,
) -> Vec<Defect> {
    let pad_nm = (4.0 * pw.max_sigma_nm() / nm_per_px).ceil() * nm_per_px;
    let padded = window.inflated(pad_nm as i64);
    let wpx = (padded.width() as f64 / nm_per_px).round() as usize;
    let hpx = (padded.height() as f64 / nm_per_px).round() as usize;
    let spec = RasterSpec::new(padded, wpx, hpx);
    let raster = rasterize(layout, layer, &spec);
    let design_bin = binarize(&raster);

    // The aerial image depends only on the blur sigma, not on the resist
    // threshold, so corners sharing a sigma (the default window's over-
    // and under-exposure corners both use the defocus blur) convolve the
    // raster once and differ only in the cheap thresholding step. Reuse
    // returns the identical tensor, so the labels are bit-identical to
    // simulating every corner from scratch.
    let mut aerials: Vec<(u64, Tensor)> = Vec::new();
    let mut defects: Vec<Defect> = Vec::new();
    for corner in pw.all_corners() {
        let printed = {
            let _sp = rhsd_obs::span("litho");
            let sigma_bits = corner.sigma_nm.to_bits();
            let idx = match aerials.iter().position(|(s, _)| *s == sigma_bits) {
                Some(i) => {
                    rhsd_obs::counter("cache.aerial_dedup.hits", 1);
                    rhsd_obs::counter(
                        "cache.aerial_dedup.bytes",
                        aerials[i].1.as_slice().len() as u64 * 4,
                    );
                    i
                }
                None => {
                    rhsd_obs::counter("cache.aerial_dedup.misses", 1);
                    let kernel = GaussianKernel::new(corner.sigma_nm / nm_per_px);
                    aerials.push((sigma_bits, aerial_image(&raster, &kernel)));
                    aerials.len() - 1
                }
            };
            print_resist(&aerials[idx].1, corner.threshold)
        };
        for d in find_defects_px(&design_bin, &printed) {
            let x_nm = padded.x0 + (d.x * nm_per_px).round() as i64;
            let y_nm = padded.y0 + (d.y * nm_per_px).round() as i64;
            let p = Point::new(x_nm, y_nm);
            if window.contains(p) {
                defects.push(Defect {
                    kind: d.kind,
                    location: p,
                    corner: corner.name.clone(),
                });
            }
        }
    }
    dedupe_defects(defects, (3.0 * nm_per_px) as i64)
}

/// Labels an entire layout by tiling [`label_region`] and deduplicating.
///
/// `tile_nm` is the tile side length; tiles are simulated with physical
/// context padding so results are tiling-invariant.
pub fn label_layout(
    layout: &Layout,
    layer: LayerId,
    pw: &ProcessWindow,
    tile_nm: i64,
    nm_per_px: f64,
) -> Vec<Defect> {
    assert!(tile_nm > 0, "tile size must be positive");
    let extent = layout.extent();
    let mut defects = Vec::new();
    let mut y = extent.y0;
    while y < extent.y1 {
        let mut x = extent.x0;
        while x < extent.x1 {
            let tile = Rect::new(
                x,
                y,
                (x + tile_nm).min(extent.x1),
                (y + tile_nm).min(extent.y1),
            );
            if !tile.is_degenerate() {
                defects.extend(label_region(layout, layer, &tile, pw, nm_per_px));
            }
            x += tile_nm;
        }
        y += tile_nm;
    }
    dedupe_defects(defects, (5.0 * nm_per_px) as i64)
}

/// Merges defects of the same kind closer than `radius_nm` (keeps the
/// first of each cluster).
fn dedupe_defects(defects: Vec<Defect>, radius_nm: i64) -> Vec<Defect> {
    let mut kept: Vec<Defect> = Vec::new();
    for d in defects {
        let dup = kept.iter().any(|k| {
            k.kind == d.kind
                && (k.location.x - d.location.x).abs() <= radius_nm
                && (k.location.y - d.location.y).abs() <= radius_nm
        });
        if !dup {
            kept.push(d);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_layout::METAL1;

    const NM_PER_PX: f64 = 10.0;

    fn layout_with(shapes: &[Rect]) -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 2560, 2560));
        for &s in shapes {
            l.add(METAL1, s);
        }
        l
    }

    #[test]
    fn clean_wide_wire_has_no_defects() {
        // 40nm wire, isolated: must print at every corner
        let l = layout_with(&[Rect::new(400, 1200, 2200, 1240)]);
        let defects = label_region(
            &l,
            METAL1,
            &Rect::new(0, 0, 2560, 2560),
            &ProcessWindow::euv_default(),
            NM_PER_PX,
        );
        assert!(defects.is_empty(), "unexpected defects: {defects:?}");
    }

    #[test]
    fn safe_gap_does_not_bridge() {
        // two wires with a 100nm tip-to-tip gap
        let l = layout_with(&[
            Rect::new(200, 1200, 1200, 1240),
            Rect::new(1300, 1200, 2300, 1240),
        ]);
        let defects = label_region(
            &l,
            METAL1,
            &Rect::new(0, 0, 2560, 2560),
            &ProcessWindow::euv_default(),
            NM_PER_PX,
        );
        assert!(defects.is_empty(), "unexpected defects: {defects:?}");
    }

    #[test]
    fn tight_gap_bridges() {
        // 20nm tip-to-tip gap: bridges under over-exposure
        let l = layout_with(&[
            Rect::new(200, 1200, 1200, 1240),
            Rect::new(1220, 1200, 2300, 1240),
        ]);
        let defects = label_region(
            &l,
            METAL1,
            &Rect::new(0, 0, 2560, 2560),
            &ProcessWindow::euv_default(),
            NM_PER_PX,
        );
        assert!(
            defects.iter().any(|d| d.kind == DefectKind::Bridge),
            "expected a bridge: {defects:?}"
        );
        // located near the gap centre (1210, 1220)
        let b = defects
            .iter()
            .find(|d| d.kind == DefectKind::Bridge)
            .unwrap();
        assert!((b.location.x - 1210).abs() < 60, "x {b:?}");
        assert!((b.location.y - 1220).abs() < 60, "y {b:?}");
    }

    #[test]
    fn narrow_neck_pinches() {
        // 40nm wire with an 16nm-wide neck section
        let l = layout_with(&[
            Rect::new(200, 1200, 1000, 1240),
            Rect::new(1000, 1212, 1100, 1228),
            Rect::new(1100, 1200, 2300, 1240),
        ]);
        let defects = label_region(
            &l,
            METAL1,
            &Rect::new(0, 0, 2560, 2560),
            &ProcessWindow::euv_default(),
            NM_PER_PX,
        );
        assert!(
            defects.iter().any(|d| d.kind == DefectKind::Pinch),
            "expected a pinch: {defects:?}"
        );
        let p = defects
            .iter()
            .find(|d| d.kind == DefectKind::Pinch)
            .unwrap();
        assert!((p.location.x - 1050).abs() < 80, "x {p:?}");
    }

    #[test]
    fn tiny_isolated_dot_vanishes() {
        // a 20×20nm isolated dot cannot print → pinch (vanish)
        let l = layout_with(&[Rect::new(1270, 1270, 1290, 1290)]);
        let defects = label_region(
            &l,
            METAL1,
            &Rect::new(0, 0, 2560, 2560),
            &ProcessWindow::euv_default(),
            NM_PER_PX,
        );
        assert!(
            defects.iter().any(|d| d.kind == DefectKind::Pinch),
            "expected vanish-pinch: {defects:?}"
        );
    }

    #[test]
    fn labelling_is_tiling_invariant() {
        // A defect near a tile border must be found regardless of tiling.
        let l = layout_with(&[
            Rect::new(200, 1200, 1260, 1240),
            Rect::new(1280, 1200, 2300, 1240),
        ]);
        let pw = ProcessWindow::euv_default();
        let whole = label_layout(&l, METAL1, &pw, 2560, NM_PER_PX);
        let tiled = label_layout(&l, METAL1, &pw, 640, NM_PER_PX);
        assert_eq!(
            whole
                .iter()
                .filter(|d| d.kind == DefectKind::Bridge)
                .count(),
            tiled
                .iter()
                .filter(|d| d.kind == DefectKind::Bridge)
                .count(),
            "whole {whole:?} vs tiled {tiled:?}"
        );
    }

    #[test]
    fn dedupe_merges_nearby_same_kind() {
        let d = |x, kind| Defect {
            kind,
            location: Point::new(x, 0),
            corner: "nominal".to_owned(),
        };
        let merged = dedupe_defects(
            vec![
                d(0, DefectKind::Bridge),
                d(10, DefectKind::Bridge),
                d(10, DefectKind::Pinch),
                d(500, DefectKind::Bridge),
            ],
            50,
        );
        assert_eq!(merged.len(), 3);
    }
}
