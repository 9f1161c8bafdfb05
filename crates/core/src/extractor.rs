//! The feature extractor of Figure 3: encoder–decoder front end, a
//! compressing stem (three convolutions + two max-pools, ÷4), and the
//! inception stack `A A B A A A` (÷2), followed by a final pooling (÷2)
//! to reach the clip-proposal grid — total stride 16.

use rand::Rng;
use rhsd_nn::encdec::EncoderDecoder;
use rhsd_nn::inception::{InceptionA, InceptionB};
use rhsd_nn::layers::{Conv2d, LeakyRelu, MaxPool2d};
use rhsd_nn::{backward_all, backward_params_all, forward_all, forward_from, Layer, Tape};
use rhsd_tensor::ops::conv::ConvSpec;
use rhsd_tensor::Tensor;

use crate::config::RhsdConfig;

/// The R-HSD backbone network.
pub struct FeatureExtractor {
    layers: Vec<Box<dyn Layer>>,
    /// Number of leading layers forming the *stem* (encoder–decoder and
    /// the compressing convolutions through the second max-pool). The
    /// stem depends only on the input raster and the weights, so a
    /// process that keeps one network can store a raster's stem
    /// activations and replay them into the inception stack (the
    /// `rhsd-serve` scan cache does).
    stem_len: usize,
    out_channels: usize,
}

impl FeatureExtractor {
    /// Builds the extractor for a configuration.
    ///
    /// With `config.use_encoder_decoder == false` the encoder–decoder is
    /// omitted (the "w/o. ED" ablation of Fig. 10).
    pub fn new(config: &RhsdConfig, rng: &mut impl Rng) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();

        // Encoder–decoder feature transformation (§3.1.1), 1 → 1 channel.
        // No activation after the decoder: its output is a *signed* learned
        // re-expression of the raster (an activation here can silently kill
        // the whole network if the single-channel output drifts negative).
        if config.use_encoder_decoder {
            layers.push(Box::new(EncoderDecoder::new(1, &config.encdec_hidden, rng)));
        }

        // Stem: three convolutions + two max-pools, compressing ÷4
        // (224→56 in the paper's geometry). Two convolutions run at full
        // resolution before the first pooling so that sub-pool-size dark
        // features (tight gaps, necks — the hotspot signatures) can be
        // encoded as positive activations before max-pooling discards
        // them.
        let [s0, s1, s2] = config.stem_channels;
        layers.push(Box::new(Conv2d::new(1, s0, ConvSpec::same(3), rng)));
        layers.push(Box::new(LeakyRelu::default_slope()));
        layers.push(Box::new(Conv2d::new(s0, s1, ConvSpec::same(3), rng)));
        layers.push(Box::new(LeakyRelu::default_slope()));
        layers.push(Box::new(MaxPool2d));
        layers.push(Box::new(Conv2d::new(s1, s2, ConvSpec::same(3), rng)));
        layers.push(Box::new(LeakyRelu::default_slope()));
        layers.push(Box::new(MaxPool2d));
        let stem_len = layers.len();

        // Inception stack A A B A A A (Fig. 3).
        let wa = config.inception_width_a;
        let wb = config.inception_width_b;
        let a1 = InceptionA::new(s2, wa, rng);
        let c = a1.c_out();
        layers.push(Box::new(a1));
        let a2 = InceptionA::new(c, wa, rng);
        let c = a2.c_out();
        layers.push(Box::new(a2));
        let b = InceptionB::new(c, wb, rng);
        let c = b.c_out();
        layers.push(Box::new(b));
        let a3 = InceptionA::new(c, wa, rng);
        let c = a3.c_out();
        layers.push(Box::new(a3));
        let a4 = InceptionA::new(c, wa, rng);
        let c = a4.c_out();
        layers.push(Box::new(a4));
        let a5 = InceptionA::new(c, wa, rng);
        let c = a5.c_out();
        layers.push(Box::new(a5));

        // Final pooling to the 1/16-stride proposal grid (14×14 for the
        // paper's 224-px post-stem geometry, Fig. 4).
        layers.push(Box::new(MaxPool2d));

        FeatureExtractor {
            layers,
            stem_len,
            out_channels: c,
        }
    }

    /// Channel count of the produced feature map.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Runs only the stem (encoder–decoder + compressing convolutions)
    /// for inference, recording nothing.
    /// `forward_rest(&forward_stem(x))` is the exact layer sequence of
    /// `forward(x)` — splitting at a layer boundary changes nothing about
    /// the arithmetic, so the composition is bit-identical.
    ///
    /// Shapes: `input` is `[1, region_px, region_px]`; returns the stem
    /// activation map `[c, region_px / 4, region_px / 4]`.
    pub fn forward_stem(&self, input: &Tensor) -> Tensor {
        let stem = &self.layers[..self.stem_len];
        forward_all(stem, input.clone(), &mut Tape::inference())
    }

    /// Runs the inception stack and final pooling on a stem activation
    /// map for inference (the counterpart of
    /// [`FeatureExtractor::forward_stem`]). Its layers keep their
    /// indices in the whole extractor, so the span keys of a split pass
    /// are those of [`Layer::forward`].
    ///
    /// Shapes: `stem_out` is the `[c, h, w]` map `forward_stem` returns;
    /// the result matches [`FeatureExtractor::forward`].
    pub fn forward_rest(&self, stem_out: &Tensor) -> Tensor {
        forward_from(
            &self.layers[self.stem_len..],
            self.stem_len,
            stem_out.clone(),
            &mut Tape::inference(),
        )
    }
}

impl Layer for FeatureExtractor {
    fn name(&self) -> &'static str {
        "FeatureExtractor"
    }

    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        forward_all(&self.layers, input, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        backward_all(&self.layers, tape, grad_out, grads)
    }

    fn backward_params(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) {
        backward_params_all(&self.layers, tape, grad_out, grads);
    }

    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn param_names(&self) -> Vec<String> {
        // Positional `{Name}#{i}` tags, the span keys `forward_all`
        // opens, name each layer's parameter group in the training
        // ledger's per-layer rows.
        self.layers
            .iter()
            .enumerate()
            .flat_map(|(i, l)| {
                let name = l.name();
                (0..l.params().len()).map(move |_| format!("{name}#{i}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_nn::Grads;

    #[test]
    fn output_has_stride_16() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let fx = FeatureExtractor::new(&cfg, &mut rng);
        let y = fx.forward(
            Tensor::zeros([1, cfg.region_px, cfg.region_px]),
            &mut Tape::inference(),
        );
        assert_eq!(
            y.dims(),
            &[fx.out_channels(), cfg.feature_px(), cfg.feature_px()]
        );
    }

    #[test]
    fn ablated_extractor_has_fewer_params() {
        let mut cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let full = FeatureExtractor::new(&cfg, &mut rng);
        cfg.use_encoder_decoder = false;
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let ablated = FeatureExtractor::new(&cfg, &mut rng);
        assert!(full.param_count() > ablated.param_count());
        // shapes identical either way
        let y = ablated.forward(
            Tensor::zeros([1, cfg.region_px, cfg.region_px]),
            &mut Tape::inference(),
        );
        assert_eq!(y.dim(1), cfg.feature_px());
    }

    #[test]
    fn backward_produces_input_gradient() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let fx = FeatureExtractor::new(&cfg, &mut rng);
        let x = Tensor::rand_uniform([1, cfg.region_px, cfg.region_px], 0.0, 1.0, &mut rng);
        let mut tape = Tape::recording();
        let y = fx.forward(x.clone(), &mut tape);
        let mut grads = Grads::zeros_like(fx.params());
        let gx = fx.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        assert_eq!(gx.dims(), x.dims());
        assert!(tape.is_empty(), "backward consumes the whole tape");
        let gn: f32 = grads.iter().map(|g| g.sq_norm()).sum();
        assert!(gn > 0.0);
    }

    #[test]
    fn stem_split_composes_to_full_forward_bitwise() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let fx = FeatureExtractor::new(&cfg, &mut rng);
        let x = Tensor::rand_uniform([1, cfg.region_px, cfg.region_px], 0.0, 1.0, &mut rng);
        let full = fx.forward(x.clone(), &mut Tape::recording());
        let stem = fx.forward_stem(&x);
        let split = fx.forward_rest(&stem);
        assert_eq!(full.dims(), split.dims());
        let fb: Vec<u32> = full.as_slice().iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u32> = split.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(fb, sb, "stem/rest split must be bit-identical");
    }

    #[test]
    fn paper_scale_channel_arithmetic() {
        // The paper config's inception-B output is 576 channels (Fig. 4).
        let cfg = RhsdConfig::paper();
        assert_eq!(3 * cfg.inception_width_b, 576);
        // but the extractor ends with inception-A modules:
        // out = 4 × width_a
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let mut cfg2 = RhsdConfig::tiny();
        cfg2.inception_width_a = 3;
        let fx = FeatureExtractor::new(&cfg2, &mut rng);
        assert_eq!(fx.out_channels(), 12);
    }
}
