//! # rhsd-litho
//!
//! Simulated lithography oracle for the RHSD stack — the stand-in for the
//! industrial 7 nm EUV lithography simulation that labelled the original
//! ICCAD-2016 benchmarks.
//!
//! Pipeline: a layout raster is convolved with a Gaussian optical kernel
//! ([`aerial`]), developed with a constant-threshold resist model
//! ([`resist`]), and verified at every corner of a dose/defocus
//! [`window::ProcessWindow`]. Locations whose printed connectivity differs
//! from the design (bridges, pinches) are reported as hotspots
//! ([`hotspot`]).
//!
//! # Examples
//!
//! ```
//! use rhsd_layout::{Layout, Rect, METAL1};
//! use rhsd_litho::{label_region, ProcessWindow};
//!
//! let mut layout = Layout::new(Rect::new(0, 0, 2560, 2560));
//! // two wire tips separated by a lithography-unfriendly 20 nm gap
//! layout.add(METAL1, Rect::new(200, 1200, 1200, 1240));
//! layout.add(METAL1, Rect::new(1220, 1200, 2300, 1240));
//! let defects = label_region(
//!     &layout, METAL1, &Rect::new(0, 0, 2560, 2560),
//!     &ProcessWindow::euv_default(), 10.0,
//! );
//! assert!(!defects.is_empty());
//! ```

pub mod aerial;
pub mod hotspot;
pub mod kernel;
pub mod resist;
pub mod window;

pub use hotspot::{label_layout, label_region, simulate_print, Defect, DefectKind};
pub use kernel::GaussianKernel;
pub use window::{ProcessCorner, ProcessWindow};
