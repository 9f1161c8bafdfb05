//! Process-window corners: the dose/defocus variations under which a
//! pattern must print.

/// One lithographic process corner: an effective resist threshold (dose)
/// and an optical blur (defocus) in nanometres.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessCorner {
    /// Corner name for reports.
    pub name: String,
    /// Resist threshold (lower = over-exposure, prints more metal).
    pub threshold: f32,
    /// Gaussian blur sigma in nanometres.
    pub sigma_nm: f64,
}

/// A process window: the set of corners a pattern is verified against.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessWindow {
    /// The nominal printing condition.
    pub nominal: ProcessCorner,
    /// Off-nominal corners.
    pub corners: Vec<ProcessCorner>,
}

impl ProcessWindow {
    /// The default 7 nm-class EUV window used to label the benchmarks:
    /// nominal (σ=15 nm, th=0.50) plus over-exposure/defocus
    /// (th=0.42, σ=19.5 nm) and under-exposure/defocus (th=0.58,
    /// σ=19.5 nm) corners.
    ///
    /// Calibrated against the synthetic design rules so that nominal
    /// 40 nm wires and 100 nm gaps are robust at every corner, while
    /// sub-30 nm gaps may bridge and sub-22 nm necks may pinch.
    pub fn euv_default() -> Self {
        ProcessWindow {
            nominal: ProcessCorner {
                name: "nominal".to_owned(),
                threshold: 0.50,
                sigma_nm: 15.0,
            },
            corners: vec![
                ProcessCorner {
                    name: "overexpose+defocus".to_owned(),
                    threshold: 0.42,
                    sigma_nm: 19.5,
                },
                ProcessCorner {
                    name: "underexpose+defocus".to_owned(),
                    threshold: 0.58,
                    sigma_nm: 19.5,
                },
            ],
        }
    }

    /// All corners including nominal, nominal first.
    pub fn all_corners(&self) -> Vec<ProcessCorner> {
        let mut v = vec![self.nominal.clone()];
        v.extend(self.corners.iter().cloned());
        v
    }

    /// The largest blur sigma across corners, in nm — callers use this to
    /// size the context padding of simulation tiles.
    pub fn max_sigma_nm(&self) -> f64 {
        rhsd_tensor::ops::reduce::max_f64(0.0, self.all_corners().iter().map(|c| c.sigma_nm))
    }
}

impl Default for ProcessWindow {
    fn default() -> Self {
        ProcessWindow::euv_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_has_three_corners() {
        let w = ProcessWindow::euv_default();
        assert_eq!(w.all_corners().len(), 3);
        assert_eq!(w.all_corners()[0].name, "nominal");
    }

    #[test]
    fn corner_thresholds_bracket_nominal() {
        let w = ProcessWindow::euv_default();
        let lo = w.corners.iter().map(|c| c.threshold).fold(1.0f32, f32::min);
        let hi = w.corners.iter().map(|c| c.threshold).fold(0.0f32, f32::max);
        assert!(lo < w.nominal.threshold && w.nominal.threshold < hi);
    }

    #[test]
    fn max_sigma_is_defocus() {
        let w = ProcessWindow::euv_default();
        assert_eq!(w.max_sigma_nm(), 19.5);
    }
}
