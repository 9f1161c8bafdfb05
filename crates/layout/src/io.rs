//! Plain-text layout interchange: a minimal GDS-like format ("RLF",
//! rhsd layout format) so benchmarks can be exported, inspected and
//! re-imported without a binary GDSII dependency.
//!
//! Format (one record per line, `#` comments):
//!
//! ```text
//! RLF 1
//! EXTENT x0 y0 x1 y1
//! LAYER <id>
//! RECT x0 y0 x1 y1
//! POLY x0 y0 x1 y1 …        # even count of coordinates, rectilinear ring
//! ```
//!
//! The reader takes untrusted input: every malformed document is a typed
//! [`RlfError`], never a panic. Coordinates are bounded by
//! [`MAX_COORD`], so every width, height and area of a document's
//! shapes fits an `i64`, and the spatial index a document asks for —
//! its `EXTENT`'s cells on every layer that holds a shape — by
//! [`MAX_INDEX_CELLS`], so a hostile document cannot make the reader
//! allocate without bound; a `POLY` lists at most
//! [`MAX_POLY_VERTICES`], so its decomposition ends in bounded time.

use std::io::{BufRead, BufReader, Read, Write};

use crate::geom::{Point, Rect};
use crate::layout::{LayerId, Layout};
use crate::polygon::RectilinearPolygon;

/// The largest coordinate magnitude an RLF document may use, in nm
/// (2³⁰ nm, about a metre): differences of two coordinates stay below
/// 2³¹ and products of two differences below 2⁶².
pub const MAX_COORD: i64 = 1 << 30;

/// The most spatial-index cells an RLF document may ask for, summed
/// over the layers that hold shapes: about 24 MiB of index. The largest
/// synthetic case (30.72 µm square) needs 3600 cells a layer.
pub const MAX_INDEX_CELLS: i64 = 1 << 20;

/// The most vertices a `POLY` record may list: its decomposition takes
/// time quadratic in them.
pub const MAX_POLY_VERTICES: usize = 4096;

/// Errors produced while reading an RLF document.
#[derive(Debug)]
pub enum RlfError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Missing or malformed `RLF <version>` header.
    BadHeader,
    /// Unsupported format version.
    UnsupportedVersion(u32),
    /// A record line could not be parsed.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// A geometry record appeared before any `LAYER` record.
    NoCurrentLayer {
        /// 1-based line number.
        line: usize,
    },
    /// The document lacks an `EXTENT` record.
    MissingExtent,
}

impl std::fmt::Display for RlfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlfError::Io(e) => write!(f, "i/o error: {e}"),
            RlfError::BadHeader => write!(f, "missing or malformed RLF header"),
            RlfError::UnsupportedVersion(v) => write!(f, "unsupported RLF version {v}"),
            RlfError::BadRecord { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            RlfError::NoCurrentLayer { line } => {
                write!(f, "line {line}: geometry before any LAYER record")
            }
            RlfError::MissingExtent => write!(f, "document lacks an EXTENT record"),
        }
    }
}

impl std::error::Error for RlfError {}

impl From<std::io::Error> for RlfError {
    fn from(e: std::io::Error) -> Self {
        RlfError::Io(e)
    }
}

/// Writes a layout as an RLF document.
///
/// # Errors
///
/// Returns I/O failures.
pub fn write_rlf(layout: &Layout, mut w: impl Write) -> Result<(), RlfError> {
    writeln!(w, "RLF 1")?;
    let e = layout.extent();
    writeln!(w, "EXTENT {} {} {} {}", e.x0, e.y0, e.x1, e.y1)?;
    for layer in layout.layer_ids() {
        writeln!(w, "LAYER {}", layer.0)?;
        for r in layout.shapes(layer) {
            writeln!(w, "RECT {} {} {} {}", r.x0, r.y0, r.x1, r.y1)?;
        }
    }
    Ok(())
}

/// Reads an RLF document into a layout.
///
/// `POLY` records are decomposed into rectangles on load.
///
/// # Errors
///
/// Returns parse or I/O failures with line numbers.
pub fn read_rlf(r: impl Read) -> Result<Layout, RlfError> {
    let reader = BufReader::new(r);
    let mut lines = Vec::new();
    for l in reader.lines() {
        lines.push(l?);
    }
    let mut iter = lines.iter().enumerate();

    // header
    let header = loop {
        match iter.next() {
            Some((_, l)) if relevant(l) => break l.trim(),
            Some(_) => continue,
            None => return Err(RlfError::BadHeader),
        }
    };
    let version: u32 = header
        .strip_prefix("RLF ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or(RlfError::BadHeader)?;
    if version != 1 {
        return Err(RlfError::UnsupportedVersion(version));
    }

    let mut layout: Option<Layout> = None;
    let mut current_layer: Option<LayerId> = None;
    // The index cells of the extent, and the layers indexed so far.
    let (mut cells, mut indexed) = (0i64, Vec::new());
    for (idx, raw) in iter {
        let line_no = idx + 1;
        if !relevant(raw) {
            continue;
        }
        let line = raw.trim();
        let mut parts = line.split_whitespace();
        let Some(tag) = parts.next() else {
            continue; // unreachable: `relevant` filtered blank lines
        };
        let nums: Result<Vec<i64>, _> = parts.map(|t| t.parse::<i64>()).collect();
        let nums = nums.map_err(|e| RlfError::BadRecord {
            line: line_no,
            reason: format!("bad number: {e}"),
        })?;
        if tag != "LAYER" && nums.iter().any(|v| !(-MAX_COORD..=MAX_COORD).contains(v)) {
            return Err(bad(line_no, "coordinate beyond ±2^30 nm"));
        }
        match tag {
            "EXTENT" => {
                if nums.len() != 4 {
                    return Err(bad(line_no, "EXTENT needs 4 coordinates"));
                }
                let extent = Rect::new(nums[0], nums[1], nums[2], nums[3]);
                if extent.is_degenerate() {
                    return Err(bad(line_no, "EXTENT must have area"));
                }
                let cell = Layout::DEFAULT_GRID_CELL;
                let side = |len: i64| (len + cell - 1) / cell;
                cells = side(extent.width()) * side(extent.height());
                if cells > MAX_INDEX_CELLS {
                    return Err(bad(line_no, "EXTENT spans too many index cells"));
                }
                indexed.clear();
                layout = Some(Layout::new(extent));
            }
            "LAYER" => {
                if nums.len() != 1 || nums[0] < 0 || nums[0] > u16::MAX as i64 {
                    return Err(bad(line_no, "LAYER needs one id in 0..=65535"));
                }
                current_layer = Some(LayerId(nums[0] as u16));
            }
            "RECT" => {
                if nums.len() != 4 {
                    return Err(bad(line_no, "RECT needs 4 coordinates"));
                }
                let l = layout.as_mut().ok_or(RlfError::MissingExtent)?;
                let layer = current_layer.ok_or(RlfError::NoCurrentLayer { line: line_no })?;
                index_layer(&mut indexed, layer, cells, line_no)?;
                let rect = Rect::new(nums[0], nums[1], nums[2], nums[3]);
                if rect.is_degenerate() {
                    return Err(bad(line_no, "degenerate RECT"));
                }
                l.add(layer, rect);
            }
            "POLY" => {
                if nums.len() < 8 || nums.len() % 2 != 0 {
                    return Err(bad(line_no, "POLY needs an even count ≥ 8 of coordinates"));
                }
                if nums.len() > 2 * MAX_POLY_VERTICES {
                    return Err(bad(line_no, "POLY has too many vertices"));
                }
                let l = layout.as_mut().ok_or(RlfError::MissingExtent)?;
                let layer = current_layer.ok_or(RlfError::NoCurrentLayer { line: line_no })?;
                index_layer(&mut indexed, layer, cells, line_no)?;
                let pts: Vec<Point> = nums.chunks(2).map(|c| Point::new(c[0], c[1])).collect();
                let poly = RectilinearPolygon::new(pts)
                    .map_err(|e| bad(line_no, &format!("invalid polygon: {e}")))?;
                for r in poly.to_rects() {
                    l.add(layer, r);
                }
            }
            other => return Err(bad(line_no, &format!("unknown record '{other}'"))),
        }
    }
    layout.ok_or(RlfError::MissingExtent)
}

/// Records that `layer` holds a shape, and so gets the extent's `cells`
/// index cells, unless the document's index would pass
/// [`MAX_INDEX_CELLS`].
fn index_layer(
    indexed: &mut Vec<LayerId>,
    layer: LayerId,
    cells: i64,
    line: usize,
) -> Result<(), RlfError> {
    if indexed.contains(&layer) {
        return Ok(());
    }
    if (indexed.len() as i64 + 1) * cells > MAX_INDEX_CELLS {
        return Err(bad(line, "layers span too many index cells"));
    }
    indexed.push(layer);
    Ok(())
}

fn relevant(line: &str) -> bool {
    let t = line.trim();
    !t.is_empty() && !t.starts_with('#')
}

fn bad(line: usize, reason: &str) -> RlfError {
    RlfError::BadRecord {
        line,
        reason: reason.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::METAL1;

    fn sample_layout() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        l.add(METAL1, Rect::new(10, 20, 110, 60));
        l.add(METAL1, Rect::new(200, 200, 400, 240));
        l.add(LayerId(2), Rect::new(0, 0, 50, 50));
        l
    }

    #[test]
    fn roundtrip_preserves_geometry() {
        let layout = sample_layout();
        let mut buf = Vec::new();
        write_rlf(&layout, &mut buf).unwrap();
        let back = read_rlf(buf.as_slice()).unwrap();
        assert_eq!(back.extent(), layout.extent());
        for layer in layout.layer_ids() {
            assert_eq!(back.shapes(layer), layout.shapes(layer));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let doc =
            "\n# a comment\nRLF 1\n\nEXTENT 0 0 100 100\n# layer next\nLAYER 1\nRECT 0 0 10 10\n";
        let l = read_rlf(doc.as_bytes()).unwrap();
        assert_eq!(l.shape_count(METAL1), 1);
    }

    #[test]
    fn poly_records_are_decomposed() {
        let doc = "RLF 1\nEXTENT 0 0 100 100\nLAYER 1\nPOLY 0 0 50 0 50 10 10 10 10 30 0 30\n";
        let l = read_rlf(doc.as_bytes()).unwrap();
        assert_eq!(l.shape_count(METAL1), 2, "L-shape decomposes to 2 rects");
        assert_eq!(l.total_area(METAL1), 50 * 10 + 10 * 20);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "RLF 1\nEXTENT 0 0 100 100\nLAYER 1\nRECT 0 0 ten 10\n";
        match read_rlf(doc.as_bytes()) {
            Err(RlfError::BadRecord { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected BadRecord, got {other:?}"),
        }
    }

    #[test]
    fn geometry_before_layer_rejected() {
        let doc = "RLF 1\nEXTENT 0 0 10 10\nRECT 0 0 5 5\n";
        assert!(matches!(
            read_rlf(doc.as_bytes()),
            Err(RlfError::NoCurrentLayer { line: 3 })
        ));
    }

    #[test]
    fn version_and_header_checks() {
        assert!(matches!(
            read_rlf("RLF 9\nEXTENT 0 0 1 1\n".as_bytes()),
            Err(RlfError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            read_rlf("GDS2\n".as_bytes()),
            Err(RlfError::BadHeader)
        ));
        assert!(matches!(
            read_rlf("RLF 1\nLAYER 1\nRECT 0 0 1 1\n".as_bytes()),
            Err(RlfError::MissingExtent)
        ));
    }

    #[test]
    fn zero_area_extent_rejected_at_parse() {
        for doc in ["RLF 1\nEXTENT 0 0 0 100\n", "RLF 1\nEXTENT 0 5 100 5\n"] {
            assert!(
                matches!(
                    read_rlf(doc.as_bytes()),
                    Err(RlfError::BadRecord { line: 2, .. })
                ),
                "{doc:?}"
            );
        }
    }

    #[test]
    fn degenerate_rect_rejected_at_parse() {
        let doc = "RLF 1\nEXTENT 0 0 10 10\nLAYER 1\nRECT 3 3 3 8\n";
        assert!(matches!(
            read_rlf(doc.as_bytes()),
            Err(RlfError::BadRecord { line: 4, .. })
        ));
    }
}
