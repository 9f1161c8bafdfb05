//! Critical-dimension (CD) metrology on printed images.
//!
//! Measures printed feature widths through cutlines — the standard way a
//! litho engineer quantifies process-window behaviour (Bossung analysis).
//! The hotspot oracle answers "does it fail"; this module answers "by how
//! much the printed CD moves across the window".

use rhsd_tensor::Tensor;

use crate::hotspot::simulate_print;
use crate::window::{ProcessCorner, ProcessWindow};

/// Direction of a cutline through the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Horizontal cutline (measures a vertical feature's width in x).
    Horizontal {
        /// Row index of the cutline.
        y: usize,
    },
    /// Vertical cutline (measures a horizontal feature's width in y).
    Vertical {
        /// Column index of the cutline.
        x: usize,
    },
}

/// Measures the printed CD (in pixels) of the feature crossing `(probe)`
/// along the cutline of a `[1, H, W]` binary image.
///
/// Returns `None` if the probe position is not printed (feature vanished).
///
/// # Panics
///
/// Panics if the image is not `[1, H, W]` or the probe is out of bounds.
pub fn measure_cd(printed: &Tensor, cut: Cut, probe: usize) -> Option<usize> {
    assert_eq!(
        printed.rank(),
        3,
        "expects [1,H,W], got {}",
        printed.shape()
    );
    let (h, w) = (printed.dim(1), printed.dim(2));
    let lit = |y: usize, x: usize| printed.get(&[0, y, x]) >= 0.5;
    match cut {
        Cut::Horizontal { y } => {
            assert!(y < h && probe < w, "probe out of bounds");
            if !lit(y, probe) {
                return None;
            }
            let mut lo = probe;
            while lo > 0 && lit(y, lo - 1) {
                lo -= 1;
            }
            let mut hi = probe;
            while hi + 1 < w && lit(y, hi + 1) {
                hi += 1;
            }
            Some(hi - lo + 1)
        }
        Cut::Vertical { x } => {
            assert!(x < w && probe < h, "probe out of bounds");
            if !lit(probe, x) {
                return None;
            }
            let mut lo = probe;
            while lo > 0 && lit(lo - 1, x) {
                lo -= 1;
            }
            let mut hi = probe;
            while hi + 1 < h && lit(hi + 1, x) {
                hi += 1;
            }
            Some(hi - lo + 1)
        }
    }
}

/// One row of a Bossung-style process-window table.
#[derive(Debug, Clone, PartialEq)]
pub struct CdMeasurement {
    /// Corner name.
    pub corner: String,
    /// Resist threshold of the corner.
    pub threshold: f32,
    /// Blur sigma of the corner in nm.
    pub sigma_nm: f64,
    /// Printed CD in nm (`None` = feature did not print).
    pub cd_nm: Option<f64>,
}

/// Measures a feature's printed CD at every corner of a process window.
///
/// `design_raster` is the (possibly anti-aliased) design image; `cut` and
/// `probe` select the feature; `nm_per_px` scales the result.
pub fn process_window_cd(
    design_raster: &Tensor,
    cut: Cut,
    probe: usize,
    pw: &ProcessWindow,
    nm_per_px: f64,
) -> Vec<CdMeasurement> {
    pw.all_corners()
        .iter()
        .map(|corner: &ProcessCorner| {
            let printed = simulate_print(design_raster, corner, nm_per_px);
            CdMeasurement {
                corner: corner.name.clone(),
                threshold: corner.threshold,
                sigma_nm: corner.sigma_nm,
                cd_nm: measure_cd(&printed, cut, probe).map(|px| px as f64 * nm_per_px),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A horizontal wire of the given width (px) in a 64×64 raster.
    fn wire_raster(width_px: usize) -> Tensor {
        let y0 = 32 - width_px / 2;
        Tensor::from_fn([1, 64, 64], |c| {
            if c[1] >= y0 && c[1] < y0 + width_px {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn measures_exact_binary_width() {
        let img = wire_raster(6);
        assert_eq!(measure_cd(&img, Cut::Vertical { x: 32 }, 32), Some(6));
    }

    #[test]
    fn unprinted_probe_returns_none() {
        let img = wire_raster(4);
        assert_eq!(measure_cd(&img, Cut::Vertical { x: 32 }, 5), None);
    }

    #[test]
    fn horizontal_cut_measures_vertical_feature() {
        // vertical wire: 8 px wide in x
        let img = Tensor::from_fn(
            [1, 32, 32],
            |c| {
                if c[2] >= 12 && c[2] < 20 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        assert_eq!(measure_cd(&img, Cut::Horizontal { y: 16 }, 15), Some(8));
    }

    #[test]
    fn cd_shrinks_with_underexposure() {
        // 40nm wire at 10nm/px: CD through the window must be monotone in
        // threshold (higher threshold → narrower print)
        let design = wire_raster(4);
        let pw = ProcessWindow::euv_default();
        let rows = process_window_cd(&design, Cut::Vertical { x: 32 }, 32, &pw, 10.0);
        assert_eq!(rows.len(), 3);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.corner == name)
                .and_then(|r| r.cd_nm)
                .expect("feature prints")
        };
        let over = get("overexpose+defocus");
        let nominal = get("nominal");
        let under = get("underexpose+defocus");
        assert!(over >= nominal, "overexposure widens: {over} vs {nominal}");
        assert!(
            nominal >= under,
            "underexposure narrows: {nominal} vs {under}"
        );
        // nominal CD close to the drawn 40nm
        assert!((nominal - 40.0).abs() <= 20.0, "nominal CD {nominal}");
    }

    #[test]
    fn sub_resolution_feature_vanishes_at_some_corner() {
        let design = wire_raster(1); // 10nm wire: hopeless
        let pw = ProcessWindow::euv_default();
        let rows = process_window_cd(&design, Cut::Vertical { x: 32 }, 32, &pw, 10.0);
        assert!(
            rows.iter().any(|r| r.cd_nm.is_none()),
            "a 10nm wire should fail to print somewhere: {rows:?}"
        );
    }
}
