//! The TCAD'18-style clip-based detector [Yang et al., "Layout hotspot
//! detection with feature tensor generation and deep biased learning"] —
//! the strongest prior-art comparison in Table 1.
//!
//! Pipeline (the conventional flow of Fig. 1): the layout is scanned with
//! overlapping fixed-size clips; each clip's DCT feature tensor is
//! classified hotspot / non-hotspot by a small CNN. *Biased learning* is
//! realised as an extra positive-class loss weight during a second
//! training phase, shifting the decision boundary towards recall (the
//! original soft-boundary formulation has the same effect; documented in
//! DESIGN.md).

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_core::Evaluation;
use rhsd_data::clips::{build_clip_set, rasterize_window, scan_windows};
use rhsd_data::Benchmark;
use rhsd_layout::Rect;
use rhsd_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use rhsd_nn::optim::{Sgd, StepDecay};
use rhsd_nn::{Grads, Layer, Tape};
use rhsd_tensor::ops::conv::ConvSpec;
use rhsd_tensor::ops::softmax::{cross_entropy_rows, softmax_rows};
use rhsd_tensor::Tensor;

use crate::dct::feature_tensor;
use crate::eval::{evaluate_layout, LayoutClip};

/// Hyper-parameters of the clip-based detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Tcad18Config {
    /// Clip window side in ground-truth pixels (window = `clip_px` ×
    /// 10 nm).
    pub clip_px: usize,
    /// Raster oversampling: the clip is rasterised at
    /// `clip_px · oversample` pixels, mirroring the fine-resolution DCT
    /// front end of the original TCAD'18 pipeline.
    pub oversample: usize,
    /// DCT block side.
    pub dct_block: usize,
    /// Retained zig-zag coefficients per block.
    pub dct_coeffs: usize,
    /// Channel widths of the two convolution stages.
    pub conv_channels: [usize; 2],
    /// Fully-connected width.
    pub fc_width: usize,
    /// Base training epochs.
    pub epochs: usize,
    /// Additional biased-learning epochs.
    pub biased_epochs: usize,
    /// Positive-class loss weight during the biased phase.
    pub bias_weight: f32,
    /// Learning rate.
    pub lr: f32,
    /// Classification threshold at scan time.
    pub threshold: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Tcad18Config {
    /// Demo-scale defaults matched to the 32-px ground-truth clips.
    pub fn demo() -> Self {
        Tcad18Config {
            clip_px: 32,
            oversample: 2,
            dct_block: 8,
            dct_coeffs: 8,
            conv_channels: [12, 20],
            fc_width: 32,
            epochs: 14,
            biased_epochs: 4,
            bias_weight: 2.5,
            // 0.01 with momentum 0.9 collapses the CNN to a bias-only
            // prior predictor on benchmark clips (dead-ReLU regime);
            // 0.001 separates the classes cleanly.
            lr: 0.001,
            threshold: 0.5,
            seed: 1618,
        }
    }

    /// Raster side of one clip in pixels.
    pub fn raster_px(&self) -> usize {
        self.clip_px * self.oversample
    }

    fn feature_grid(&self) -> usize {
        self.raster_px() / self.dct_block
    }
}

/// The clip-based hotspot classifier with its sliding-window scan driver.
pub struct Tcad18Detector {
    config: Tcad18Config,
    net: Sequential,
}

impl Tcad18Detector {
    /// Builds an untrained detector.
    ///
    /// # Panics
    ///
    /// Panics if `clip_px` is not a multiple of `dct_block` or the DCT
    /// grid is too small for two pooling stages.
    pub fn new(config: Tcad18Config, rng: &mut impl Rng) -> Self {
        assert!(config.oversample > 0, "oversample must be positive");
        assert_eq!(
            config.raster_px() % config.dct_block,
            0,
            "clip raster must be a multiple of dct_block"
        );
        let g = config.feature_grid();
        assert!(g >= 4, "DCT grid {g} too small for the CNN");
        let [c1, c2] = config.conv_channels;
        let g_after = g / 4; // two 2× poolings
        let net = Sequential::new()
            .push(Conv2d::new(config.dct_coeffs, c1, ConvSpec::same(3), rng))
            .push(Relu::new())
            .push(MaxPool2d)
            .push(Conv2d::new(c1, c2, ConvSpec::same(3), rng))
            .push(Relu::new())
            .push(MaxPool2d)
            .push(Flatten::new())
            .push(Linear::new(c2 * g_after * g_after, config.fc_width, rng))
            .push(Relu::new())
            .push(Linear::new(config.fc_width, 2, rng));
        Tcad18Detector { config, net }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &Tcad18Config {
        &self.config
    }

    fn features(&self, image: &Tensor) -> Tensor {
        feature_tensor(image, self.config.dct_block, self.config.dct_coeffs)
    }

    /// Hotspot probability of one clip raster.
    pub fn classify(&self, image: &Tensor) -> f32 {
        let logits = self
            .net
            .forward(self.features(image), &mut Tape::inference());
        let rows = logits.with_shape([1, 2]);
        softmax_rows(&rows).get(&[0, 0])
    }

    /// Trains on labelled clip rasters (base phase + biased phase);
    /// returns the mean loss per epoch.
    ///
    /// Each raster must be `[1, raster_px, raster_px]`.
    pub fn train(&mut self, clips: &[(Tensor, bool)]) -> Vec<f32> {
        let _sp = rhsd_obs::span("tcad18-train");
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut opt = Sgd::new(StepDecay::constant(self.config.lr), 0.9);
        let mut grads = Grads::zeros_like(self.net.params());
        let mut losses = Vec::new();
        let total = self.config.epochs + self.config.biased_epochs;
        let mut order: Vec<usize> = (0..clips.len()).collect();
        // The DCT features are a pure function of the raster, so each
        // clip's are computed once rather than once per epoch.
        let features: Vec<Tensor> = clips
            .iter()
            .map(|(image, _)| self.features(image))
            .collect();
        for epoch in 0..total {
            if clips.is_empty() {
                break;
            }
            let biased = epoch >= self.config.epochs;
            order.shuffle(&mut rng);
            let mut sum = 0.0f32;
            for &ci in &order {
                let is_hotspot = clips[ci].1;
                let target = if is_hotspot { 0usize } else { 1usize };
                let weight = if biased && is_hotspot {
                    self.config.bias_weight
                } else {
                    1.0
                };
                let mut tape = Tape::recording();
                let logits = self.net.forward(features[ci].clone(), &mut tape);
                let rows = logits.with_shape([1, 2]);
                let (loss, grad) = cross_entropy_rows(&rows, &[target], &[weight]);
                sum += loss;
                // `Sgd::step` leaves `grads` zeroed for the next clip.
                self.net
                    .backward_params(&mut tape, grad.with_shape([2]), &mut grads);
                opt.step(&mut self.net.params_mut(), &mut grads);
            }
            losses.push(sum / clips.len() as f32);
        }
        losses
    }

    /// Convenience: builds the training clip set from a benchmark half
    /// (re-rasterised at the detector's oversampled resolution) and trains.
    pub fn train_on_benchmark(&mut self, bench: &Benchmark, extent: &Rect, neg_per_pos: usize) {
        let clips = build_clip_set(
            bench,
            extent,
            self.config.clip_px,
            3,
            neg_per_pos,
            self.config.seed,
        );
        let px = self.config.raster_px();
        let samples: Vec<(Tensor, bool)> = clips
            .iter()
            .map(|c| (rasterize_window(bench, &c.window, px), c.is_hotspot))
            .collect();
        self.train(&samples);
    }

    /// Scans an extent with the conventional overlapping-clip flow (Fig. 1),
    /// classifying every window. Returns the marked clips and metrics.
    ///
    /// Each window is rasterised and classified inside one `rhsd-par`
    /// task on the shared, read-only classifier; scores come back in
    /// window order, so marks are identical at any thread count.
    pub fn scan(&self, bench: &Benchmark, extent: &Rect) -> (Vec<LayoutClip>, Evaluation) {
        let _sp = rhsd_obs::span("tcad18-scan");
        let windows = scan_windows(extent, self.config.clip_px);
        let px = self.config.raster_px();
        let scores = rhsd_par::map(windows.len(), 4, |i| {
            let image = rasterize_window(bench, &windows[i], px);
            let clip_timer = rhsd_obs::Stopwatch::start();
            let score = self.classify(&image);
            rhsd_obs::record("tcad18.clip", clip_timer.secs());
            score
        });
        let marked: Vec<LayoutClip> = windows
            .iter()
            .zip(scores)
            .filter(|&(_, score)| score >= self.config.threshold)
            .map(|(w, score)| LayoutClip { clip: *w, score })
            .collect();
        let eval = evaluate_layout(&marked, &bench.hotspots_in(extent));
        (marked, eval)
    }

    /// Number of clip inferences a scan of `extent` requires — the
    /// runtime driver the paper's Table 1 speedup comes from.
    pub fn scan_cost(&self, extent: &Rect) -> usize {
        scan_windows(extent, self.config.clip_px).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_layout::synth::CaseId;

    fn synthetic_clips(n_pos: usize, n_neg: usize) -> Vec<(Tensor, bool)> {
        // positives: dense centre blob; negatives: sparse stripes
        let px = Tcad18Config::demo().raster_px();
        let mut out = Vec::new();
        for i in 0..n_pos.max(n_neg) {
            if i < n_pos {
                let image = Tensor::from_fn([1, px, px], |c| {
                    let dx = c[2] as f32 - px as f32 / 2.0;
                    let dy = c[1] as f32 - px as f32 / 2.0;
                    if dx * dx + dy * dy < 160.0 + 4.0 * i as f32 {
                        1.0
                    } else {
                        0.0
                    }
                });
                out.push((image, true));
            }
            if i < n_neg {
                let image =
                    Tensor::from_fn([1, px, px], |c| if (c[2] + i) % 16 < 6 { 1.0 } else { 0.0 });
                out.push((image, false));
            }
        }
        out
    }

    #[test]
    fn learns_to_separate_synthetic_clips() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut det = Tcad18Detector::new(Tcad18Config::demo(), &mut rng);
        let clips = synthetic_clips(6, 6);
        let losses = det.train(&clips);
        assert!(
            losses.last().unwrap() < &(0.5 * losses.first().unwrap()),
            "losses {losses:?}"
        );
        // classification splits the classes
        let pos_score = det.classify(&clips[0].0);
        let neg_score = det.classify(&clips[1].0);
        assert!(
            pos_score > neg_score,
            "pos {pos_score} should beat neg {neg_score}"
        );
    }

    #[test]
    fn biased_phase_raises_positive_scores() {
        let clips = synthetic_clips(4, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut base_cfg = Tcad18Config::demo();
        base_cfg.biased_epochs = 0;
        base_cfg.epochs = 4;
        let mut plain = Tcad18Detector::new(base_cfg.clone(), &mut rng);
        plain.train(&clips);

        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut biased_cfg = base_cfg;
        biased_cfg.biased_epochs = 4;
        biased_cfg.bias_weight = 4.0;
        let mut biased = Tcad18Detector::new(biased_cfg, &mut rng);
        biased.train(&clips);

        let mean = |d: &Tcad18Detector| -> f32 {
            clips
                .iter()
                .filter(|(_, hot)| *hot)
                .map(|(img, _)| d.classify(img))
                .sum::<f32>()
                / 4.0
        };
        assert!(
            mean(&biased) >= mean(&plain) - 1e-3,
            "biased learning should not lower hotspot scores"
        );
    }

    #[test]
    fn scan_cost_grows_with_extent() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let det = Tcad18Detector::new(Tcad18Config::demo(), &mut rng);
        let small = det.scan_cost(&Rect::new(0, 0, 1920, 1920));
        let large = det.scan_cost(&Rect::new(0, 0, 3840, 3840));
        assert!(large > 3 * small);
    }

    #[test]
    fn scan_end_to_end_on_demo_case() {
        let bench = Benchmark::demo(CaseId::Case2);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut cfg = Tcad18Config::demo();
        cfg.epochs = 1;
        cfg.biased_epochs = 0;
        let mut det = Tcad18Detector::new(cfg, &mut rng);
        det.train_on_benchmark(&bench, &bench.train_extent.clone(), 1);
        // scan a small sub-extent to keep the test fast
        let sub = Rect::new(
            bench.test_extent.x0,
            bench.test_extent.y0,
            bench.test_extent.x0 + 1920,
            bench.test_extent.y0 + 1920,
        );
        let (marked, eval) = det.scan(&bench, &sub);
        assert_eq!(eval.ground_truth, bench.hotspots_in(&sub).len());
        for m in &marked {
            assert!(m.score >= 0.5);
        }
    }
}
