//! The joint encoder–decoder front end of §3.1.1.
//!
//! Three convolution layers lift the raster into a higher-dimensional
//! latent space; three transposed-convolution layers with symmetrical
//! kernel settings map it back to the original channel count. All layers
//! use 3×3 kernels at stride 1 so the spatial extent is preserved; the
//! structure acts as a learned, self-adaptive feature transformation of
//! the input layout (the paper's replacement for manual DCT features).

use rand::Rng;
use rhsd_tensor::ops::conv::ConvSpec;
use rhsd_tensor::Tensor;

use crate::layer::{Layer, Tape};
use crate::layers::{Conv2d, Deconv2d, LeakyRelu, Sequential};

/// Encoder–decoder feature transformer.
pub struct EncoderDecoder {
    chain: Sequential,
    c_in: usize,
}

impl EncoderDecoder {
    /// Builds an encoder–decoder with latent channel widths `hidden`
    /// (encoder ascends through them, decoder descends symmetrically).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty.
    pub fn new(c_in: usize, hidden: &[usize], rng: &mut impl Rng) -> Self {
        assert!(
            !hidden.is_empty(),
            "encoder needs at least one hidden width"
        );
        let spec = ConvSpec::same(3);
        let mut chain = Sequential::new();
        // Encoder: c_in -> h1 -> h2 -> ... -> hk
        let mut prev = c_in;
        for &h in hidden {
            chain.push_boxed(Box::new(Conv2d::new(prev, h, spec, rng)));
            chain.push_boxed(Box::new(LeakyRelu::default_slope()));
            prev = h;
        }
        // Decoder: hk -> ... -> h1 -> c_in, symmetric kernel settings
        for &h in hidden[..hidden.len() - 1].iter().rev() {
            chain.push_boxed(Box::new(Deconv2d::new(prev, h, spec, rng)));
            chain.push_boxed(Box::new(LeakyRelu::default_slope()));
            prev = h;
        }
        chain.push_boxed(Box::new(Deconv2d::new(prev, c_in, spec, rng)));
        EncoderDecoder { chain, c_in }
    }

    /// Input (and output) channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }
}

impl Layer for EncoderDecoder {
    fn name(&self) -> &'static str {
        "EncoderDecoder"
    }

    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        self.chain.forward(input, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        self.chain.backward(tape, grad_out, grads)
    }

    fn backward_params(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) {
        self.chain.backward_params(tape, grad_out, grads);
    }

    fn params(&self) -> Vec<&Tensor> {
        self.chain.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.chain.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn output_matches_input_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let ed = EncoderDecoder::new(1, &[4, 8, 16], &mut rng);
        let y = ed.forward(Tensor::zeros([1, 12, 12]), &mut Tape::inference());
        assert_eq!(y.dims(), &[1, 12, 12]);
    }

    #[test]
    fn single_hidden_layer_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let ed = EncoderDecoder::new(2, &[3], &mut rng);
        let y = ed.forward(Tensor::zeros([2, 6, 6]), &mut Tape::inference());
        assert_eq!(y.dims(), &[2, 6, 6]);
    }

    #[test]
    fn gradient_flows_to_all_layers() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let ed = EncoderDecoder::new(1, &[2, 3], &mut rng);
        let x = Tensor::rand_normal([1, 6, 6], 0.0, 1.0, &mut rng);
        let mut tape = Tape::recording();
        let y = ed.forward(x.clone(), &mut tape);
        let mut grads = Grads::zeros_like(ed.params());
        let gx = ed.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        assert_eq!(gx.dims(), x.dims());
        for (i, g) in grads.iter().enumerate() {
            // bias of last layer may be tiny but weights should get signal
            if g.rank() == 4 {
                assert!(g.sq_norm() > 0.0, "param {i} got no gradient");
            }
        }
    }

    #[test]
    fn can_learn_identity_on_toy_data() {
        // Train the encoder-decoder to reproduce its input — the
        // autoencoding behaviour the paper's feature extractor relies on.
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let mut ed = EncoderDecoder::new(1, &[2], &mut rng);
        let x = Tensor::rand_uniform([1, 5, 5], 0.0, 1.0, &mut rng);
        let mut grads = Grads::zeros_like(ed.params());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..80 {
            let mut tape = Tape::recording();
            let y = ed.forward(x.clone(), &mut tape);
            let diff = rhsd_tensor::ops::elementwise::sub(&y, &x);
            let loss = diff.sq_norm();
            grads.zero();
            ed.backward(&mut tape, diff.map(|d| 2.0 * d), &mut grads);
            for (p, g) in ed.params_mut().into_iter().zip(grads.iter()) {
                rhsd_tensor::ops::elementwise::axpy(p, -0.02, g);
            }
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < 0.5 * first.unwrap(),
            "loss should at least halve: {first:?} → {last}"
        );
    }
}
