//! # rhsd — Faster Region-based Hotspot Detection
//!
//! A full-system Rust reproduction of *"Faster Region-based Hotspot
//! Detection"* (Chen, Zhong, Yang, Geng, Zeng, Yu — DAC 2019): an
//! end-to-end neural framework that finds **multiple** lithography
//! hotspots in a large layout region with a single feed-forward pass,
//! plus every substrate the paper depends on, implemented from scratch:
//!
//! | Crate | Role |
//! |---|---|
//! | [`tensor`] (`rhsd-tensor`) | dense `f32` tensor math: conv/deconv/pool/RoI-pool with analytic gradients |
//! | [`nn`] (`rhsd-nn`) | CNN layer framework, inception modules, losses, SGD |
//! | [`layout`] (`rhsd-layout`) | geometry, layout database, rasterisation, synthetic EUV benchmarks |
//! | [`litho`] (`rhsd-litho`) | Gaussian aerial-image + threshold-resist process-window oracle |
//! | [`data`] (`rhsd-data`) | litho-labelled benchmark cases, region/clip datasets |
//! | [`core`] (`rhsd-core`) | **the paper's contribution**: extractor, clip proposal network, h-NMS, refinement, C&R loss |
//! | [`baselines`] (`rhsd-baselines`) | TCAD'18 clip-based detector, Faster R-CNN / SSD configuration ports |
//! | [`serve`] (`rhsd-serve`) | long-lived scan server over a saved model (length-prefixed JSON on TCP) |
//!
//! # Quickstart
//!
//! ```no_run
//! use rand::SeedableRng;
//! use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
//! use rhsd::data::{train_regions, Benchmark, RegionConfig};
//! use rhsd::layout::synth::CaseId;
//!
//! // 1. build a litho-labelled benchmark (synthetic ICCAD-2016 analogue)
//! let bench = Benchmark::demo(CaseId::Case2);
//! // 2. train the region-based detector on the training half
//! let regions = train_regions(&bench, &RegionConfig::demo());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut net = RhsdNetwork::new(RhsdConfig::demo(), &mut rng);
//! rhsd::core::train(&mut net, &regions, &TrainConfig::demo());
//! // 3. scan the unseen test half
//! let detector = RegionDetector::new(net, RegionConfig::demo());
//! let result = detector.scan_test_half(&bench);
//! println!("{}", result.evaluation);
//! ```

pub use rhsd_baselines as baselines;
pub use rhsd_core as core;
pub use rhsd_data as data;
pub use rhsd_layout as layout;
pub use rhsd_litho as litho;
pub use rhsd_nn as nn;
pub use rhsd_obs as obs;
pub use rhsd_par as par;
pub use rhsd_serve as serve;
pub use rhsd_tensor as tensor;
