//! Learnable 2-D convolution layer.

use rand::Rng;
use rhsd_tensor::ops::conv::{conv2d, conv2d_backward_batch, conv2d_weight_grads, ConvSpec};
use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::Tensor;

use crate::init::{conv_fans, he_normal};
use crate::layer::{Layer, Tape};

/// A convolution layer `[C_in,H,W] → [C_out,H',W']` with bias, or lane
/// by lane over a batch `[C_in,H,W,N] → [C_out,H',W',N]`.
///
/// This is the encoder-side building block of the paper's feature
/// extractor (§3.1.1) and of every inception branch.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    spec: ConvSpec,
}

impl Conv2d {
    /// Creates a He-initialised convolution layer.
    pub fn new(c_in: usize, c_out: usize, spec: ConvSpec, rng: &mut impl Rng) -> Self {
        let (fan_in, _) = conv_fans(c_out, c_in, spec.kernel);
        Conv2d {
            weight: he_normal([c_out, c_in, spec.kernel, spec.kernel], fan_in, rng),
            bias: Tensor::zeros([c_out]),
            spec,
        }
    }

    /// The layer's convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.weight.dim(1)
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.weight.dim(0)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    /// Keeps the input itself on a recording tape.
    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        let rank = input.rank();
        rhsd_tensor::invariants::check_layer_input(
            "Conv2d",
            format_args!("[C_in={}, H, W] or [C_in={0}, H, W, N]", self.c_in()),
            (rank == 3 || rank == 4) && input.dim(0) == self.c_in(),
            input.shape(),
        );
        let out = conv2d(&input, &self.weight, Some(&self.bias), self.spec);
        tape.save(|| input);
        out
    }

    /// Adds the weight gradients, then writes the input gradient into
    /// the buffer of the input it popped.
    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        let input: Tensor = tape.pop("Conv2d");
        let (dx, per_map) = conv2d_backward_batch(input, &self.weight, &grad_out, self.spec);
        add_map_grads(grads, per_map);
        dx
    }

    fn backward_params(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) {
        let input: Tensor = tape.pop("Conv2d");
        let per_map = conv2d_weight_grads(&input, &self.weight, &grad_out, self.spec);
        add_map_grads(grads, per_map);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Adds each map's `(d_weight, d_bias)` into the weight and bias slots,
/// in batch order.
fn add_map_grads(grads: &mut [Tensor], per_map: Vec<(Tensor, Tensor)>) {
    for (dw, db) in per_map {
        axpy(&mut grads[0], 1.0, &dw);
        axpy(&mut grads[1], 1.0, &db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let layer = Conv2d::new(2, 4, ConvSpec::same(3), &mut rng);
        let y = layer.forward(Tensor::zeros([2, 8, 8]), &mut Tape::inference());
        assert_eq!(y.dims(), &[4, 8, 8]);
        assert_eq!(layer.c_in(), 2);
        assert_eq!(layer.c_out(), 4);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let layer = Conv2d::new(1, 2, ConvSpec::same(3), &mut rng);
        let x = Tensor::rand_normal([1, 5, 5], 0.0, 1.0, &mut rng);
        let mut tape = Tape::recording();
        let y = layer.forward(x.clone(), &mut tape);
        let mut grads = Grads::zeros_like(layer.params());
        let gx = layer.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        assert_eq!(gx.dims(), x.dims());
        let gnorm: f32 = grads.iter().map(|g| g.sq_norm()).sum();
        assert!(gnorm > 0.0);
    }

    #[test]
    fn layer_gradcheck_against_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let layer = Conv2d::new(1, 1, ConvSpec::new(3, 2, 1), &mut rng);
        let x = Tensor::rand_normal([1, 5, 5], 0.0, 1.0, &mut rng);
        let mut tape = Tape::recording();
        let y = layer.forward(x.clone(), &mut tape);
        let mut grads = Grads::zeros_like(layer.params());
        layer.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        let analytic = grads[0].clone();

        let eps = 1e-2;
        let sum = |l: &Conv2d| l.forward(x.clone(), &mut Tape::inference()).sum();
        for probe in 0..4 {
            let mut lp = layer.clone();
            lp.params_mut()[0].as_mut_slice()[probe] += eps;
            let mut lm = layer.clone();
            lm.params_mut()[0].as_mut_slice()[probe] -= eps;
            let numeric = (sum(&lp) - sum(&lm)) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[probe]).abs() < 1e-2,
                "w[{probe}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let layer = Conv2d::new(1, 1, ConvSpec::same(1), &mut rng);
        let mut grads = Grads::zeros_like(layer.params());
        layer.backward(&mut Tape::recording(), Tensor::zeros([1, 1, 1]), &mut grads);
    }

    /// A recorded forward keeps the very buffer it was handed, and the
    /// backward returns the input gradient in that buffer — for one map
    /// and for a lane-layout batch.
    #[test]
    fn tape_keeps_the_input_buffer_and_backward_reuses_it() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let layer = Conv2d::new(2, 3, ConvSpec::new(3, 2, 1), &mut rng);
        for dims in [vec![2, 6, 6], vec![2, 6, 6, 4]] {
            let x = Tensor::rand_normal(&dims[..], 0.0, 1.0, &mut rng);
            let at = x.as_slice().as_ptr();
            let mut tape = Tape::recording();
            let y = layer.forward(x, &mut tape);
            let kept: Tensor = tape.pop("test");
            assert_eq!(
                kept.as_slice().as_ptr(),
                at,
                "{dims:?}: tape copied the input"
            );
            tape.save(|| kept);
            let mut grads = Grads::zeros_like(layer.params());
            let gx = layer.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
            assert_eq!(gx.dims(), &dims[..]);
            assert_eq!(gx.as_slice().as_ptr(), at, "{dims:?}: fresh input gradient");
        }
    }
}
