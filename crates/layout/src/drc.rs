//! Minimal design-rule checking: width and spacing screens.
//!
//! The synthetic benchmarks deliberately contain geometry near or below
//! safe dimensions; this module provides the classic first-order DRC
//! screens (minimum feature width, minimum shape-to-shape spacing) so
//! layouts can be linted independently of the lithography oracle.
//!
//! Scope note: checks operate on the stored rectangles. Width is checked
//! per rectangle (a wire drawn as several abutting rectangles is checked
//! piece-wise); spacing is checked between *non-touching* shape pairs —
//! abutting rectangles of the same polygon are not violations.

use crate::geom::Rect;
use crate::layout::{LayerId, Layout};

/// A design-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A rectangle narrower than the minimum width.
    Width {
        /// The offending shape.
        shape: Rect,
        /// Its smaller dimension in nm.
        actual: i64,
        /// The rule limit in nm.
        min: i64,
    },
    /// Two shapes closer than the minimum spacing (and not touching).
    Spacing {
        /// First shape.
        a: Rect,
        /// Second shape.
        b: Rect,
        /// Their edge-to-edge distance in nm (Chebyshev for diagonal).
        actual: i64,
        /// The rule limit in nm.
        min: i64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Width { shape, actual, min } => {
                write!(f, "width {actual} < {min} at {shape}")
            }
            Violation::Spacing { a, b, actual, min } => {
                write!(f, "spacing {actual} < {min} between {a} and {b}")
            }
        }
    }
}

/// Edge-to-edge distance between two non-overlapping rectangles, in nm.
///
/// Returns 0 if they touch or overlap.
pub fn spacing(a: &Rect, b: &Rect) -> i64 {
    let dx = (b.x0 - a.x1).max(a.x0 - b.x1).max(0);
    let dy = (b.y0 - a.y1).max(a.y0 - b.y1).max(0);
    // Rectilinear process rules measure the larger axis gap when shapes
    // are diagonal to each other (the Euclidean corner-to-corner distance
    // is bounded below by this).
    dx.max(dy)
}

/// Checks one layer for width violations.
pub fn check_width(layout: &Layout, layer: LayerId, min_width: i64) -> Vec<Violation> {
    layout
        .shapes(layer)
        .iter()
        .filter_map(|s| {
            let actual = s.width().min(s.height());
            (actual < min_width).then_some(Violation::Width {
                shape: *s,
                actual,
                min: min_width,
            })
        })
        .collect()
}

/// Checks one layer for spacing violations using the spatial index.
///
/// Pairs that touch or overlap (distance 0) are treated as connected
/// geometry, not violations. Each violating pair is reported once.
pub fn check_spacing(layout: &Layout, layer: LayerId, min_space: i64) -> Vec<Violation> {
    let shapes = layout.shapes(layer);
    let mut out = Vec::new();
    for (i, a) in shapes.iter().enumerate() {
        // search the neighbourhood within the rule distance
        let window = a.inflated(min_space);
        for b in layout.query(layer, &window) {
            // dedupe: only report pairs where b comes after a in storage
            let Some(j) = shapes.iter().position(|s| *s == b) else {
                continue;
            };
            if j <= i {
                continue;
            }
            let d = spacing(a, &b);
            if d > 0 && d < min_space {
                out.push(Violation::Spacing {
                    a: *a,
                    b,
                    actual: d,
                    min: min_space,
                });
            }
        }
    }
    out
}

/// Runs both screens with the given limits.
pub fn check(layout: &Layout, layer: LayerId, min_width: i64, min_space: i64) -> Vec<Violation> {
    let mut v = check_width(layout, layer, min_width);
    v.extend(check_spacing(layout, layer, min_space));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::METAL1;

    fn layout_with(shapes: &[Rect]) -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 10_000, 10_000));
        for &s in shapes {
            l.add(METAL1, s);
        }
        l
    }

    #[test]
    fn spacing_metric_cases() {
        let a = Rect::new(0, 0, 100, 40);
        assert_eq!(spacing(&a, &Rect::new(150, 0, 250, 40)), 50); // side
        assert_eq!(spacing(&a, &Rect::new(0, 100, 100, 140)), 60); // above
        assert_eq!(spacing(&a, &Rect::new(130, 90, 200, 140)), 50); // diagonal: max(30, 50)
        assert_eq!(spacing(&a, &Rect::new(100, 0, 200, 40)), 0); // abutting
        assert_eq!(spacing(&a, &Rect::new(50, 20, 80, 30)), 0); // overlapping
    }

    #[test]
    fn width_screen_flags_narrow_shapes() {
        let l = layout_with(&[
            Rect::new(0, 0, 1000, 40),    // fine
            Rect::new(0, 100, 1000, 120), // 20nm: violation at min 40
        ]);
        let v = check_width(&l, METAL1, 40);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::Width { actual, min, .. } => {
                assert_eq!(*actual, 20);
                assert_eq!(*min, 40);
            }
            other => panic!("expected width violation, got {other:?}"),
        }
    }

    #[test]
    fn spacing_screen_flags_close_pairs_once() {
        let l = layout_with(&[
            Rect::new(0, 0, 1000, 40),
            Rect::new(1020, 0, 2000, 40), // 20nm gap: violation at min 100
            Rect::new(5000, 0, 6000, 40), // far away: clean
        ]);
        let v = check_spacing(&l, METAL1, 100);
        assert_eq!(v.len(), 1, "{v:?}");
        match &v[0] {
            Violation::Spacing { actual, .. } => assert_eq!(*actual, 20),
            other => panic!("expected spacing violation, got {other:?}"),
        }
    }

    #[test]
    fn touching_shapes_are_not_spacing_violations() {
        let l = layout_with(&[
            Rect::new(0, 0, 100, 40),
            Rect::new(100, 0, 200, 40), // abuts: same net geometry
        ]);
        assert!(check_spacing(&l, METAL1, 100).is_empty());
    }

    #[test]
    fn combined_check_and_display() {
        let l = layout_with(&[Rect::new(0, 0, 1000, 16), Rect::new(0, 40, 1000, 80)]);
        let v = check(&l, METAL1, 40, 100);
        assert_eq!(v.len(), 2); // one width (16), one spacing (24)
        for violation in &v {
            let s = violation.to_string();
            assert!(s.contains('<'), "{s}");
        }
    }

    #[test]
    fn stressed_benchmark_has_violations_clean_case_fewer() {
        use crate::synth::{CaseId, CaseSpec};
        let rules = crate::synth::DesignRules::euv_metal();
        let (stressed, _) = CaseSpec::demo(CaseId::Case3).build();
        let v_stressed = check(&stressed, METAL1, rules.wire_width, rules.safe_gap / 2).len();
        let (clean, _) = CaseSpec::demo(CaseId::Case1).build();
        let v_clean = check(&clean, METAL1, rules.wire_width, rules.safe_gap / 2).len();
        assert!(
            v_stressed > v_clean,
            "stressed case must violate more: {v_stressed} vs {v_clean}"
        );
    }
}
