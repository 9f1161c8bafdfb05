//! Parameter-free activation layers: the TCAD'18 baseline's ReLU, and
//! the leaky ReLU of every R-HSD stage. Both run in the buffer they are
//! handed, forward and backward, and a training pass keeps one bit per
//! input: whether it was positive.

use rhsd_tensor::ops::kernels;
use rhsd_tensor::Tensor;

use crate::layer::{Layer, Tape};

/// Rectified linear unit layer.
#[derive(Debug, Clone, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "Relu"
    }

    /// In place: `x` where `x > 0`, else `0 · x`, a zero (`-0.0` for a
    /// negative `x`, where `x.max(0.0)` gave `+0.0`).
    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        pack(input, 0.0, tape)
    }

    /// In place: `g` where the input was positive, else `0 · g`.
    fn backward(&self, tape: &mut Tape, grad_out: Tensor, _grads: &mut [Tensor]) -> Tensor {
        unpack(tape, "Relu", grad_out, 0.0)
    }
}

/// Leaky ReLU: `x` for `x > 0`, `alpha·x` otherwise. The small
/// negative-slope gradient keeps units from dying irrecoverably, which
/// matters for small CPU-scale networks trained with plain SGD.
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    alpha: f32,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative slope.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not finite or `alpha >= 1.0`.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha.is_finite() && alpha < 1.0, "invalid slope {alpha}");
        LeakyRelu { alpha }
    }

    /// The conventional default slope of 0.01.
    pub fn default_slope() -> Self {
        LeakyRelu::new(0.01)
    }

    /// The negative slope.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl Layer for LeakyRelu {
    fn name(&self) -> &'static str {
        "LeakyRelu"
    }

    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        pack(input, self.alpha, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, _grads: &mut [Tensor]) -> Tensor {
        unpack(tape, "LeakyRelu", grad_out, self.alpha)
    }
}

/// The `x > 0` bit of every scalar of a tensor, in storage order, as
/// [`kernels::leaky_relu_pack`] packs it.
struct PositiveMask {
    bits: Vec<u64>,
    len: usize,
}

/// The forward of a (leaky) ReLU of slope `alpha`, in `x`'s buffer. The
/// backward reads only which inputs were positive: one bit each, a 32nd
/// of the input, is what a training pass keeps.
fn pack(mut x: Tensor, alpha: f32, tape: &mut Tape) -> Tensor {
    let len = x.len();
    let mut bits = vec![0u64; len.div_ceil(64)];
    kernels::leaky_relu_pack(x.as_mut_slice(), alpha, &mut bits);
    tape.save(|| PositiveMask { bits, len });
    x
}

/// The backward of [`pack`], in `g`'s buffer, through the mask `layer`'s
/// forward saved.
fn unpack(tape: &mut Tape, layer: &str, mut g: Tensor, alpha: f32) -> Tensor {
    let mask: PositiveMask = tape.pop(layer);
    assert_eq!(mask.len, g.len(), "{layer} gradient shape");
    kernels::leaky_relu_unpack(g.as_mut_slice(), alpha, &mask.bits);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clips_negatives() {
        let y = Relu::new().forward(
            Tensor::from_vec([3], vec![-1., 0., 2.]).unwrap(),
            &mut Tape::inference(),
        );
        assert_eq!(y.as_slice(), &[0., 0., 2.]);
    }

    #[test]
    fn backward_masks_gradient() {
        let l = Relu::new();
        let mut tape = Tape::recording();
        l.forward(
            Tensor::from_vec([5], vec![-1., -0., 0., 0.5, 2.]).unwrap(),
            &mut tape,
        );
        let g = l.backward(
            &mut tape,
            Tensor::from_vec([5], vec![1., 1., 1., 1., 1.]).unwrap(),
            &mut [],
        );
        // The gradient at exactly zero, of either sign, is 0.
        assert_eq!(g.as_slice(), &[0., 0., 0., 1., 1.]);
    }

    #[test]
    fn has_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
    }

    #[test]
    fn forward_scales_negatives() {
        let l = LeakyRelu::new(0.1);
        let y = l.forward(
            Tensor::from_vec([3], vec![-2.0, 0.0, 3.0]).unwrap(),
            &mut Tape::inference(),
        );
        assert_eq!(y.as_slice(), &[-0.2, 0.0, 3.0]);
    }

    #[test]
    fn backward_keeps_negative_slope_gradient() {
        let l = LeakyRelu::new(0.1);
        let mut tape = Tape::recording();
        l.forward(Tensor::from_vec([2], vec![-1.0, 1.0]).unwrap(), &mut tape);
        let g = l.backward(
            &mut tape,
            Tensor::from_vec([2], vec![5.0, 5.0]).unwrap(),
            &mut [],
        );
        assert_eq!(g.as_slice(), &[0.5, 5.0]);
    }

    #[test]
    fn backward_masks_every_lane_of_a_long_map() {
        // 150 scalars span three mask words; zero and NaN take the slope.
        let l = LeakyRelu::new(0.25);
        let x = Tensor::from_fn([150], |c| match c[0] % 5 {
            0 => 0.0,
            1 => f32::NAN,
            2 => -1.0,
            _ => 1.0,
        });
        let mut tape = Tape::recording();
        l.forward(x.clone(), &mut tape);
        let g = l.backward(&mut tape, Tensor::ones([150]), &mut []);
        let want = x.map(|v| if v > 0.0 { 1.0 } else { 0.25 });
        assert_eq!(g, want);
    }

    #[test]
    fn zero_slope_equals_relu() {
        let leaky = LeakyRelu::new(0.0);
        let relu = Relu::new();
        let x = Tensor::from_vec([4], vec![-3.0, -0.1, 0.2, 7.0]).unwrap();
        assert_eq!(
            leaky.forward(x.clone(), &mut Tape::inference()),
            relu.forward(x, &mut Tape::inference())
        );
    }

    /// Both activations work in the buffer they are handed: forward on
    /// an inference or a recording tape, and backward.
    #[test]
    fn activations_return_the_buffer_they_were_handed() {
        let layers: [&dyn Layer; 2] = [&Relu::new(), &LeakyRelu::default_slope()];
        for layer in layers {
            let x = Tensor::from_fn([3, 5, 7], |c| c[2] as f32 - 3.0);
            let at = x.as_slice().as_ptr();
            let y = layer.forward(x, &mut Tape::inference());
            assert_eq!(y.as_slice().as_ptr(), at, "{} inference", layer.name());
            let mut tape = Tape::recording();
            let y = layer.forward(y, &mut tape);
            assert_eq!(y.as_slice().as_ptr(), at, "{} forward", layer.name());
            let g = Tensor::ones([3, 5, 7]);
            let at = g.as_slice().as_ptr();
            let g = layer.backward(&mut tape, g, &mut []);
            assert_eq!(g.as_slice().as_ptr(), at, "{} backward", layer.name());
            assert!(tape.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "invalid slope")]
    fn rejects_bad_alpha() {
        LeakyRelu::new(1.5);
    }
}
