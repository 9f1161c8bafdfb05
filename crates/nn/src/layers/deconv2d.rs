//! Learnable transposed-convolution (deconvolution) layer — the decoder
//! building block of the paper's encoder–decoder extractor (§3.1.1).

use rand::Rng;
use rhsd_tensor::ops::conv::ConvSpec;
use rhsd_tensor::ops::deconv::{conv_transpose2d, conv_transpose2d_backward};
use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::Tensor;

use crate::init::he_normal;
use crate::layer::{Layer, Tape};

/// A transposed-convolution layer `[C_in,H,W] → [C_out,(H−1)s−2p+K,…]`.
#[derive(Debug, Clone)]
pub struct Deconv2d {
    weight: Tensor,
    bias: Tensor,
    spec: ConvSpec,
}

impl Deconv2d {
    /// Creates a He-initialised deconvolution layer.
    pub fn new(c_in: usize, c_out: usize, spec: ConvSpec, rng: &mut impl Rng) -> Self {
        let fan_in = c_in * spec.kernel * spec.kernel;
        Deconv2d {
            weight: he_normal([c_in, c_out, spec.kernel, spec.kernel], fan_in, rng),
            bias: Tensor::zeros([c_out]),
            spec,
        }
    }

    /// The layer's convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }
}

impl Layer for Deconv2d {
    fn name(&self) -> &'static str {
        "Deconv2d"
    }

    /// Keeps the input itself on a recording tape.
    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        rhsd_tensor::invariants::check_layer_input(
            "Deconv2d",
            format_args!("[C_in={}, H, W]", self.weight.dim(0)),
            input.rank() == 3 && input.dim(0) == self.weight.dim(0),
            input.shape(),
        );
        let out = conv_transpose2d(&input, &self.weight, Some(&self.bias), self.spec);
        tape.save(|| input);
        out
    }

    /// Adds the weight gradients, then writes the input gradient into
    /// the buffer of the input it popped.
    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        let input: Tensor = tape.pop("Deconv2d");
        let (dx, dw, db) = conv_transpose2d_backward(input, &self.weight, &grad_out, self.spec);
        axpy(&mut grads[0], 1.0, &dw);
        axpy(&mut grads[1], 1.0, &db);
        dx
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stride1_same_preserves_spatial_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let layer = Deconv2d::new(4, 2, ConvSpec::same(3), &mut rng);
        let y = layer.forward(Tensor::zeros([4, 14, 14]), &mut Tape::inference());
        assert_eq!(y.dims(), &[2, 14, 14]);
    }

    #[test]
    fn stride2_doubles_spatial_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let layer = Deconv2d::new(1, 1, ConvSpec::new(2, 2, 0), &mut rng);
        let y = layer.forward(Tensor::zeros([1, 7, 7]), &mut Tape::inference());
        assert_eq!(y.dims(), &[1, 14, 14]);
    }

    #[test]
    /// A recorded forward keeps the very buffer it was handed, and the
    /// backward returns the input gradient in that buffer.
    fn backward_returns_input_shaped_grad() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let layer = Deconv2d::new(2, 3, ConvSpec::same(3), &mut rng);
        let x = Tensor::rand_normal([2, 6, 6], 0.0, 1.0, &mut rng);
        let mut tape = Tape::recording();
        let at = x.as_slice().as_ptr();
        let y = layer.forward(x, &mut tape);
        let kept: Tensor = tape.pop("test");
        assert_eq!(kept.as_slice().as_ptr(), at, "the tape copied the input");
        tape.save(|| kept);
        let mut grads = Grads::zeros_like(layer.params());
        let gx = layer.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        assert_eq!(gx.dims(), &[2, 6, 6]);
        assert_eq!(gx.as_slice().as_ptr(), at, "a fresh input gradient");
    }
}
