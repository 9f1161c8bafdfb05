//! Learnable 2-D convolution layer.

use rand::Rng;
use rhsd_tensor::ops::conv::{conv2d, conv2d_backward, ConvSpec};
use rhsd_tensor::Tensor;

use crate::init::{conv_fans, he_normal};
use crate::layer::{take_cache, Layer};
use crate::param::Param;

/// A convolution layer `[C_in,H,W] → [C_out,H',W']` with bias.
///
/// This is the encoder-side building block of the paper's feature
/// extractor (§3.1.1) and of every inception branch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: ConvSpec,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a He-initialised convolution layer.
    pub fn new(c_in: usize, c_out: usize, spec: ConvSpec, rng: &mut impl Rng) -> Self {
        let (fan_in, _) = conv_fans(c_out, c_in, spec.kernel);
        Conv2d {
            weight: Param::new(he_normal(
                [c_out, c_in, spec.kernel, spec.kernel],
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros([c_out])),
            spec,
            cached_input: None,
        }
    }

    /// The layer's convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.weight.value.dim(0)
    }
}

impl Layer for Conv2d {
    fn clone_boxed(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        rhsd_tensor::invariants::check_layer_input(
            "Conv2d",
            &format!("[C_in={}, H, W]", self.c_in()),
            input.rank() == 3 && input.dim(0) == self.c_in(),
            input.shape(),
        );
        self.cached_input = Some(input.clone());
        conv2d(input, &self.weight.value, Some(&self.bias.value), self.spec)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = take_cache(&mut self.cached_input, "Conv2d");
        let (dx, dw, db) = conv2d_backward(&input, &self.weight.value, grad_out, self.spec);
        self.weight.accumulate(&dw);
        self.bias.accumulate(&db);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut layer = Conv2d::new(2, 4, ConvSpec::same(3), &mut rng);
        let y = layer.forward(&Tensor::zeros([2, 8, 8]));
        assert_eq!(y.dims(), &[4, 8, 8]);
        assert_eq!(layer.c_in(), 2);
        assert_eq!(layer.c_out(), 4);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut layer = Conv2d::new(1, 2, ConvSpec::same(3), &mut rng);
        let x = Tensor::rand_normal([1, 5, 5], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        let gx = layer.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        let gnorm: f32 = layer.params_mut().iter().map(|p| p.grad.sq_norm()).sum();
        assert!(gnorm > 0.0);
    }

    #[test]
    fn layer_gradcheck_against_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = Conv2d::new(1, 1, ConvSpec::new(3, 2, 1), &mut rng);
        let x = Tensor::rand_normal([1, 5, 5], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        layer.backward(&Tensor::ones(y.dims()));
        let analytic = layer.params_mut()[0].grad.clone();

        let eps = 1e-2;
        for probe in 0..4 {
            let mut lp = layer.clone();
            lp.params_mut()[0].value.as_mut_slice()[probe] += eps;
            let mut lm = layer.clone();
            lm.params_mut()[0].value.as_mut_slice()[probe] -= eps;
            let numeric = (lp.forward(&x).sum() - lm.forward(&x).sum()) / (2.0 * eps);
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
        let mut layer = Conv2d::new(1, 1, ConvSpec::same(1), &mut rng);
        layer.backward(&Tensor::zeros([1, 1, 1]));
    }
}
