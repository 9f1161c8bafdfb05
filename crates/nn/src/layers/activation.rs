//! Parameter-free activation layers.

use rhsd_tensor::ops::elementwise::{relu, relu_backward};
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

    fn forward(&self, input: &Tensor, tape: &mut Tape) -> Tensor {
        tape.save(|| input.clone());
        relu(input)
    }

    fn backward(&self, tape: &mut Tape, grad_out: &Tensor, _grads: &mut [Tensor]) -> Tensor {
        let input: Tensor = tape.pop("Relu");
        relu_backward(&input, grad_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clips_negatives() {
        let y = Relu::new().forward(
            &Tensor::from_vec([3], vec![-1., 0., 2.]).unwrap(),
            &mut Tape::inference(),
        );
        assert_eq!(y.as_slice(), &[0., 0., 2.]);
    }

    #[test]
    fn backward_masks_gradient() {
        let l = Relu::new();
        let mut tape = Tape::recording();
        l.forward(
            &Tensor::from_vec([3], vec![-1., 0.5, 2.]).unwrap(),
            &mut tape,
        );
        let g = l.backward(
            &mut tape,
            &Tensor::from_vec([3], vec![1., 1., 1.]).unwrap(),
            &mut [],
        );
        assert_eq!(g.as_slice(), &[0., 1., 1.]);
    }

    #[test]
    fn has_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
    }
}
