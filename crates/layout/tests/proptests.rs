//! Property-based tests for geometry, the spatial index and rasterisation.

use std::time::Duration;

use proptest::prelude::*;
use rhsd_layout::io::{read_rlf, RlfError};
use rhsd_layout::{rasterize, Layout, Point, RasterSpec, Rect, METAL1};

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (0i64..900, 0i64..900, 10i64..100, 10i64..100)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rect_iou_bounds_and_symmetry(a in rect_strategy(), b in rect_strategy()) {
        let ab = a.iou(&b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert_eq!(ab, b.iou(&a));
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_is_contained_in_both(a in rect_strategy(), b in rect_strategy()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(i.area() > 0);
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn core_is_centred_and_smaller(a in rect_strategy()) {
        let c = a.core();
        prop_assert!(a.contains_rect(&c));
        prop_assert_eq!(c.center(), a.center());
        prop_assert!(c.area() <= a.area());
    }

    #[test]
    fn translation_preserves_area_and_iou(
        a in rect_strategy(),
        b in rect_strategy(),
        dx in -500i64..500,
        dy in -500i64..500,
    ) {
        prop_assert_eq!(a.translated(dx, dy).area(), a.area());
        let before = a.iou(&b);
        let after = a.translated(dx, dy).iou(&b.translated(dx, dy));
        prop_assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn spatial_index_matches_linear_scan(
        shapes in proptest::collection::vec(rect_strategy(), 0..30),
        window in rect_strategy(),
    ) {
        let mut layout = Layout::with_grid_cell(Rect::new(0, 0, 1024, 1024), 64);
        for s in &shapes {
            layout.add(METAL1, *s);
        }
        let mut indexed = layout.query(METAL1, &window);
        let mut linear: Vec<Rect> = shapes.iter().filter(|s| s.intersects(&window)).copied().collect();
        let key = |r: &Rect| (r.x0, r.y0, r.x1, r.y1);
        indexed.sort_by_key(key);
        linear.sort_by_key(key);
        prop_assert_eq!(indexed, linear);
    }

    #[test]
    fn raster_mean_equals_density(shapes in proptest::collection::vec(rect_strategy(), 0..10)) {
        let extent = Rect::new(0, 0, 1000, 1000);
        let mut layout = Layout::new(extent);
        // use non-overlapping shapes only (overlaps saturate the raster)
        let mut placed: Vec<Rect> = Vec::new();
        for s in shapes {
            if placed.iter().all(|p| !p.intersects(&s)) {
                layout.add(METAL1, s);
                placed.push(s);
            }
        }
        let spec = RasterSpec::new(extent, 100, 100);
        let img = rasterize(&layout, METAL1, &spec);
        let density = layout.density(METAL1, &extent);
        prop_assert!((img.mean() as f64 - density).abs() < 1e-3,
            "raster {} vs density {}", img.mean(), density);
    }

    #[test]
    fn contains_point_matches_intersection_probe(a in rect_strategy(), x in 0i64..1000, y in 0i64..1000) {
        let p = Point::new(x, y);
        let probe = Rect::new(x, y, x + 1, y + 1);
        prop_assert_eq!(a.contains(p), a.intersects(&probe));
    }
}

/// Numbers a hostile RLF document might hold: zero, signs, the `i64`
/// extremes and their neighbours, values around the reader's
/// coordinate bound, and ordinary layout coordinates.
const NUMBERS: [i64; 14] = [
    0,
    1,
    -1,
    512,
    -4096,
    20_480,
    i64::MAX,
    i64::MIN,
    i64::MAX - 1,
    i64::MIN + 1,
    1 << 30,
    (1 << 30) + 1,
    -(1 << 30) - 1,
    1 << 40,
];

/// Tokens of a random RLF line: the record tags, comment and junk
/// tokens, then the numbers above (a token index past the tags picks a
/// number).
const TAGS: [&str; 11] = [
    "RLF", "EXTENT", "LAYER", "RECT", "POLY", "#", "1", "x", "1.5", "--3", "RLF 1",
];

fn token(i: usize, raw: i64) -> String {
    match i {
        i if i < TAGS.len() => TAGS[i].to_owned(),
        i if i < TAGS.len() + NUMBERS.len() => NUMBERS[i - TAGS.len()].to_string(),
        _ => raw.to_string(),
    }
}

/// Parses `text` and checks the outcome is a `Layout` or a typed
/// error, reached within a second.
#[expect(
    clippy::disallowed_types,
    reason = "the parser's time bound is wall-clock"
)]
fn parses_or_fails_typed(text: &str) -> Result<(), String> {
    let start = std::time::Instant::now();
    let outcome = read_rlf(text.as_bytes());
    prop_assert!(
        start.elapsed() < Duration::from_secs(1),
        "read_rlf took {:?} on {text:?}",
        start.elapsed()
    );
    if let Err(e) = outcome {
        // Every error renders; I/O errors cannot come from a byte slice.
        prop_assert!(!e.to_string().is_empty());
        prop_assert!(!matches!(e, RlfError::Io(_)), "{e}");
    }
    Ok(())
}

/// A valid document: an extent, two layers, rectangles and an L-shaped
/// polygon.
const VALID: &str = "RLF 1
EXTENT 0 0 4096 4096
LAYER 1
RECT 10 10 200 60
RECT 300 300 900 420
LAYER 2
POLY 0 0 400 0 400 100 100 100 100 400 0 400
RECT 1000 1000 1200 1400
";

/// One mutation of [`VALID`]: `kind` picks what changes, `at` which
/// line or number, `n` how long a generated polygon is.
fn mutate(kind: usize, at: usize, n: usize, raw: i64) -> String {
    let mut lines: Vec<String> = VALID.lines().map(str::to_owned).collect();
    let line = 1 + at % (lines.len() - 1);
    let mut words: Vec<String> = lines[line].split_whitespace().map(str::to_owned).collect();
    let w = 1 + at % words.len().saturating_sub(1).max(1);
    match kind % 8 {
        // A number replaced by an extreme or an arbitrary value.
        0 if w < words.len() => words[w] = NUMBERS[at % NUMBERS.len()].to_string(),
        1 if w < words.len() => words[w] = raw.to_string(),
        // A coordinate negated, or a record's corners reversed.
        2 if w < words.len() => words[w] = format!("-{}", words[w]),
        3 => {
            let tag = words.remove(0);
            words.reverse();
            words.insert(0, tag);
        }
        // A long staircase polygon, or one with an odd coordinate count.
        4 => {
            let mut poly = vec!["POLY".to_owned()];
            for k in 0..n {
                let (x, y) = (k as i64 * 8, k as i64 * 8);
                poly.extend([x, y, x + 8, y].iter().map(|v| v.to_string()));
            }
            poly.extend(["0", &(n as i64 * 8).to_string()].map(str::to_owned));
            lines.push(poly.join(" "));
        }
        5 => words.push(raw.to_string()),
        // The EXTENT or a LAYER record dropped.
        6 => {
            lines.retain(|l| !l.starts_with("EXTENT"));
        }
        _ => {
            if let Some(i) = lines.iter().position(|l| l.starts_with("LAYER")) {
                lines.remove(i);
            }
        }
    }
    if line < lines.len() && (kind % 8) < 6 && kind % 8 != 4 {
        lines[line] = words.join(" ");
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary lines, built from record tags, junk tokens, extreme
    /// numbers and random ones, parse to a layout or a typed error.
    #[test]
    fn read_rlf_survives_arbitrary_lines(
        lines in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..TAGS.len() + NUMBERS.len() + 4, i64::MIN..=i64::MAX),
                0..7,
            ),
            0..12,
        ),
        header in 0usize..3,
    ) {
        let mut text = ["RLF 1\n", "", "RLF 7\n"][header].to_owned();
        for line in &lines {
            let words: Vec<String> = line.iter().map(|&(i, raw)| token(i, raw)).collect();
            text.push_str(&words.join(" "));
            text.push('\n');
        }
        parses_or_fails_typed(&text)?;
    }

    /// Mutated valid documents: `i64` extremes, negated and reversed
    /// coordinates, long and odd `POLY` records, and a missing `EXTENT`
    /// or `LAYER`, parse to a layout or a typed error.
    #[test]
    fn read_rlf_survives_mutated_documents(
        kinds in proptest::collection::vec((0usize..8, 0usize..64, i64::MIN..=i64::MAX), 1..4),
        n in 2usize..600,
    ) {
        prop_assert!(read_rlf(VALID.as_bytes()).is_ok());
        for &(kind, at, raw) in &kinds {
            parses_or_fails_typed(&mutate(kind, at, n, raw))?;
        }
    }
}
