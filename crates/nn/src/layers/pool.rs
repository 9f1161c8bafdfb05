//! Max-pooling layer.

use rhsd_tensor::ops::pool::{max_pool2d, max_pool2d_backward, max_pool2d_values};
use rhsd_tensor::Tensor;

use crate::layer::{Layer, Tape};

/// A 2-D max-pooling layer with 2×2 windows at stride 2, over
/// `[C, H, W]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxPool2d;

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        rhsd_tensor::invariants::check_layer_input(
            "MaxPool2d",
            format_args!("[C, H, W]"),
            input.rank() == 3,
            input.shape(),
        );
        if !tape.is_recording() {
            // No backward will route through the winners.
            return max_pool2d_values(&input);
        }
        let out = max_pool2d(&input);
        let argmax = out.argmax;
        tape.save(|| (input.dims().to_vec(), argmax));
        out.output
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, _grads: &mut [Tensor]) -> Tensor {
        let (dims, argmax): (Vec<usize>, Vec<u8>) = tape.pop("MaxPool2d");
        max_pool2d_backward(&dims, &argmax, &grad_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_spatial_size() {
        let l = MaxPool2d;
        let y = l.forward(Tensor::zeros([3, 8, 8]), &mut Tape::inference());
        assert_eq!(y.dims(), &[3, 4, 4]);
    }

    #[test]
    fn backward_shape_matches_input() {
        let l = MaxPool2d;
        let x = Tensor::from_fn([1, 4, 4], |c| (c[1] + c[2]) as f32);
        let mut tape = Tape::recording();
        let y = l.forward(x.clone(), &mut tape);
        let g = l.backward(&mut tape, Tensor::ones(y.dims()), &mut []);
        assert_eq!(g.dims(), x.dims());
        assert_eq!(g.sum(), 4.0); // one winner per window
    }
}
