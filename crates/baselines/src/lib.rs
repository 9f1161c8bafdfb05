//! # rhsd-baselines
//!
//! The comparison detectors of Table 1 of *"Faster Region-based Hotspot
//! Detection"*:
//!
//! - [`tcad18`]: the clip-based DCT + CNN detector with biased learning
//!   (TCAD'18), driven by the conventional sliding-window scan of Fig. 1.
//! - [`generic`]: Faster R-CNN-style and SSD-style configuration ports —
//!   generic object-detection design choices on the shared substrate,
//!   without the paper's hotspot-specific components.
//! - [`dct`]: the block-DCT feature tensors the TCAD'18 front end uses.
//! - [`eval`]: the shared layout-space Def. 1/2 scoring harness.

pub mod dct;
pub mod eval;
pub mod generic;
pub mod tcad18;

pub use eval::{average_row, evaluate_layout, CaseResult, LayoutClip};
pub use generic::{faster_rcnn_config, ssd_config};
pub use tcad18::{Tcad18Config, Tcad18Detector};
