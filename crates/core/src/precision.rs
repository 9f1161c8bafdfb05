//! The numeric path of a trained detector's scan: one exact f32 path,
//! bit-identical at any thread count and on any ISA.

/// The scan's numeric path; f32 is the only one. The type and the
/// `precision` parameter of `rhsd_serve::offline_scan` exist only
/// because the repository benchmark passes `Precision::F32`; a later
/// benchmark change can drop both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full f32 — the bit-identical reference path.
    F32,
}
