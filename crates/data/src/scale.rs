//! Benchmark scale implied by a model's input geometry.
//!
//! A saved model records the region side it scans (`region_px`); every
//! front end that loads one — the `rhsd` CLI and `rhsd-serve` — maps that
//! side to its region geometry and benchmark builder through [`Scale`].

use rhsd_layout::synth::CaseId;

use crate::{Benchmark, RegionConfig};

/// The two benchmark scales a model can be trained at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// [`RegionConfig::demo`] regions over [`Benchmark::demo`] cases.
    Demo,
    /// [`RegionConfig::paper`] regions over [`Benchmark::full`] cases.
    Paper,
}

/// A model's region side matches neither benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownScale {
    /// The model's region side in pixels.
    pub region_px: usize,
}

impl std::fmt::Display for UnknownScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model scans {}-px regions, which is neither demo ({}) nor paper ({}) geometry",
            self.region_px,
            RegionConfig::demo().region_px,
            RegionConfig::paper().region_px
        )
    }
}

impl std::error::Error for UnknownScale {}

impl Scale {
    /// The scale whose regions are `region_px` pixels on a side.
    ///
    /// # Errors
    ///
    /// [`UnknownScale`] when `region_px` is neither scale's side (model
    /// files are untrusted input).
    pub fn for_region_px(region_px: usize) -> Result<Scale, UnknownScale> {
        if region_px == RegionConfig::demo().region_px {
            Ok(Scale::Demo)
        } else if region_px == RegionConfig::paper().region_px {
            Ok(Scale::Paper)
        } else {
            Err(UnknownScale { region_px })
        }
    }

    /// The region geometry at this scale.
    pub fn region_config(self) -> RegionConfig {
        match self {
            Scale::Demo => RegionConfig::demo(),
            Scale::Paper => RegionConfig::paper(),
        }
    }

    /// The benchmark builder at this scale.
    pub fn benchmark(self) -> fn(CaseId) -> Benchmark {
        match self {
            Scale::Demo => Benchmark::demo,
            Scale::Paper => Benchmark::full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scale_round_trips_through_its_region_side() {
        for scale in [Scale::Demo, Scale::Paper] {
            let px = scale.region_config().region_px;
            assert_eq!(Scale::for_region_px(px), Ok(scale));
        }
    }
}
