//! # rhsd-data
//!
//! Benchmark and dataset layer of the RHSD stack: builds litho-labelled
//! synthetic analogues of the ICCAD-2016 cases, splits them into train and
//! test halves (the paper's protocol), and packages them as region samples
//! for the region-based detector or small clips for conventional
//! clip-based baselines.
//!
//! # Examples
//!
//! ```no_run
//! use rhsd_data::{Benchmark, RegionConfig, train_regions};
//! use rhsd_layout::synth::CaseId;
//!
//! let bench = Benchmark::demo(CaseId::Case2);
//! let regions = train_regions(&bench, &RegionConfig::demo());
//! println!("{} training regions", regions.len());
//! ```

pub mod augment;
mod bbox;
mod benchmark;
pub mod clips;
mod region;
mod scale;

pub use bbox::BBox;
pub use benchmark::{Benchmark, NM_PER_PX};
pub use region::{
    extract_region, sample_regions, test_regions, tile_origins, tile_regions, train_regions,
    RegionConfig, RegionSample,
};
pub use scale::{Scale, UnknownScale};
