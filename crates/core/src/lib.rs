//! # rhsd-core
//!
//! The primary contribution of *"Faster Region-based Hotspot Detection"*
//! (DAC 2019): an end-to-end neural framework that detects **multiple**
//! lithography hotspots in a large layout region in a single feed-forward
//! pass, instead of scanning overlapping small clips.
//!
//! The pipeline (Fig. 2 of the paper):
//!
//! 1. **Feature extraction** ([`extractor`]) — encoder–decoder front end +
//!    inception stack (Fig. 3).
//! 2. **Clip proposal network** ([`cpn`]) — per-anchor classification and
//!    regression heads (Fig. 4) with clip pruning ([`pruning`], §3.2.1) and
//!    hotspot non-maximum suppression ([`hnms`], Algorithm 1).
//! 3. **Refinement** ([`refine`]) — RoI pooling + a second classification
//!    and regression stage (§3.3) that cuts false alarms.
//!
//! Training uses the multi-task C&R loss of Eq. (4) ([`loss`], [`train`]);
//! deployment scans whole layouts via [`detector`]; quality is measured
//! with the paper's Def. 1/2 metrics ([`metrics`]).
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use rhsd_core::{RhsdConfig, RhsdNetwork};
//! use rhsd_tensor::Tensor;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let cfg = RhsdConfig::tiny();
//! let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
//! let region = Tensor::zeros([1, cfg.region_px, cfg.region_px]);
//! let detections = net.detect(&region); // untrained: arbitrary output
//! assert!(detections.iter().all(|d| d.score <= 1.0));
//! ```

pub mod anchor;
pub mod boxcode;
pub mod config;
pub mod cpn;
pub mod detector;
pub mod extractor;
pub mod hnms;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod precision;
pub mod pruning;
pub mod refine;
pub mod roc;
pub mod sentinel;
pub mod train;

pub use config::RhsdConfig;
pub use detector::{merge_scan, RegionDetector, ScanResult};
pub use extractor::FeatureExtractor;
pub use hnms::{conventional_nms, hotspot_nms, Scored};
pub use metrics::{evaluate_region, Evaluation};
pub use model::{Detection, RhsdNetwork, TrainStats};
pub use precision::Precision;
pub use sentinel::{Sentinel, SentinelPolicy, TrainAbort, TripReason};
pub use train::{train, train_checked, EpochStats, LayerEpochStats, TrainConfig, TrainReport};
