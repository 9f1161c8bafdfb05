//! Inception modules A and B from Figure 3 of the paper.
//!
//! The design rules of §3.1.2: widen each stage with multiple kernel sizes
//! and concatenate along channels (feature fusion); prune output depth with
//! 1×1 convolutions; down-sample spatially only in module B (stride 2).
//!
//! - **Module A** (stride 1, four branches): `1×1`, `1×1→3×3`,
//!   `1×1→3×3→3×3` and `1×1`, concatenated — multi-scale features with no
//!   down-sampling.
//! - **Module B** (stride 2, three branches): `1×1→3×3(s2)`,
//!   `1×1→3×3→3×3(s2)` and `3×3(s2)`, concatenated — halves the feature
//!   map while fusing kernels.

use rand::Rng;
use rhsd_tensor::ops::conv::ConvSpec;
use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::ops::reduce::{concat_channels, split_channels};
use rhsd_tensor::Tensor;

use crate::layer::{Layer, Tape};
use crate::layers::{Conv2d, LeakyRelu, Sequential};

/// Shared machinery: parallel branches concatenated along channels.
struct BranchConcat {
    branches: Vec<Sequential>,
    branch_channels: Vec<usize>,
}

impl BranchConcat {
    /// Runs every branch on the input, in order: each but the last on
    /// a copy, the last on the input itself.
    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        // A branchless module is an identity map.
        let Some((last, rest)) = self.branches.split_last() else {
            return input;
        };
        let mut outs: Vec<Tensor> = rest
            .iter()
            .map(|b| b.forward(input.clone(), tape))
            .collect();
        outs.push(last.forward(input, tape));
        let refs: Vec<&Tensor> = outs.iter().collect();
        concat_channels(&refs)
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        // A branchless module is an identity map; its gradient passes through.
        if self.branches.is_empty() {
            return grad_out;
        }
        let parts = split_channels(&grad_out, &self.branch_channels);
        drop(grad_out);
        // The tape is a stack, so the branches pop in reverse; their
        // input gradients are still summed left to right, into the
        // first's buffer.
        let mut branch_grads = Vec::with_capacity(self.branches.len());
        let mut rest = grads;
        for (branch, part) in self.branches.iter().zip(parts).rev() {
            let split = rest.len() - branch.params().len();
            let (head, own) = std::mem::take(&mut rest).split_at_mut(split);
            branch_grads.push(branch.backward(tape, part, own));
            rest = head;
        }
        let mut in_order = branch_grads.into_iter().rev();
        let mut sum = in_order.next().unwrap_or_default();
        for g in in_order {
            axpy(&mut sum, 1.0, &g);
        }
        sum
    }

    fn params(&self) -> Vec<&Tensor> {
        self.branches.iter().flat_map(|b| b.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }
}

fn conv_relu(c_in: usize, c_out: usize, spec: ConvSpec, rng: &mut impl Rng) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(c_in, c_out, spec, rng))
        .push(LeakyRelu::default_slope())
}

/// Inception module A: stride 1, four branches, output `4·width` channels.
pub struct InceptionA {
    inner: BranchConcat,
    width: usize,
}

impl InceptionA {
    /// Creates a module with `width` channels per branch.
    pub fn new(c_in: usize, width: usize, rng: &mut impl Rng) -> Self {
        let one = ConvSpec::same(1);
        let three = ConvSpec::same(3);
        let b1 = conv_relu(c_in, width, one, rng);
        let mut b2 = conv_relu(c_in, width, one, rng);
        b2.push_boxed(Box::new(Conv2d::new(width, width, three, rng)));
        b2.push_boxed(Box::new(LeakyRelu::default_slope()));
        let mut b3 = conv_relu(c_in, width, one, rng);
        b3.push_boxed(Box::new(Conv2d::new(width, width, three, rng)));
        b3.push_boxed(Box::new(LeakyRelu::default_slope()));
        b3.push_boxed(Box::new(Conv2d::new(width, width, three, rng)));
        b3.push_boxed(Box::new(LeakyRelu::default_slope()));
        let b4 = conv_relu(c_in, width, one, rng);
        InceptionA {
            inner: BranchConcat {
                branches: vec![b1, b2, b3, b4],
                branch_channels: vec![width; 4],
            },
            width,
        }
    }

    /// Output channel count (`4·width`).
    pub fn c_out(&self) -> usize {
        4 * self.width
    }
}

impl Layer for InceptionA {
    fn name(&self) -> &'static str {
        "InceptionA"
    }

    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        self.inner.forward(input, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        self.inner.backward(tape, grad_out, grads)
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.params_mut()
    }
}

/// Inception module B: stride 2, three branches, output `3·width` channels,
/// spatial size halved.
pub struct InceptionB {
    inner: BranchConcat,
    width: usize,
}

impl InceptionB {
    /// Creates a module with `width` channels per branch.
    pub fn new(c_in: usize, width: usize, rng: &mut impl Rng) -> Self {
        let one = ConvSpec::same(1);
        let three = ConvSpec::same(3);
        let three_s2 = ConvSpec::new(3, 2, 1);
        let mut b1 = conv_relu(c_in, width, one, rng);
        b1.push_boxed(Box::new(Conv2d::new(width, width, three_s2, rng)));
        b1.push_boxed(Box::new(LeakyRelu::default_slope()));
        let mut b2 = conv_relu(c_in, width, one, rng);
        b2.push_boxed(Box::new(Conv2d::new(width, width, three, rng)));
        b2.push_boxed(Box::new(LeakyRelu::default_slope()));
        b2.push_boxed(Box::new(Conv2d::new(width, width, three_s2, rng)));
        b2.push_boxed(Box::new(LeakyRelu::default_slope()));
        let b3 = conv_relu(c_in, width, three_s2, rng);
        InceptionB {
            inner: BranchConcat {
                branches: vec![b1, b2, b3],
                branch_channels: vec![width; 3],
            },
            width,
        }
    }

    /// Output channel count (`3·width`).
    pub fn c_out(&self) -> usize {
        3 * self.width
    }
}

impl Layer for InceptionB {
    fn name(&self) -> &'static str {
        "InceptionB"
    }

    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        self.inner.forward(input, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        self.inner.backward(tape, grad_out, grads)
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One recorded forward and backward of `layer` under an all-ones
    /// output gradient; returns the input gradient and the grads.
    fn ones_backward(layer: &dyn Layer, x: &Tensor) -> (Tensor, Grads) {
        let mut tape = Tape::recording();
        let y = layer.forward(x.clone(), &mut tape);
        let mut grads = Grads::zeros_like(layer.params());
        let gx = layer.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        assert!(tape.is_empty());
        (gx, grads)
    }

    #[test]
    fn module_a_preserves_spatial_and_widens_channels() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let a = InceptionA::new(6, 4, &mut rng);
        let y = a.forward(Tensor::zeros([6, 10, 10]), &mut Tape::inference());
        assert_eq!(y.dims(), &[16, 10, 10]);
        assert_eq!(a.c_out(), 16);
    }

    #[test]
    fn module_b_halves_spatial() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let b = InceptionB::new(8, 4, &mut rng);
        let y = b.forward(Tensor::zeros([8, 14, 14]), &mut Tape::inference());
        assert_eq!(y.dims(), &[12, 7, 7]);
        assert_eq!(b.c_out(), 12);
    }

    #[test]
    fn backward_shapes_and_nonzero_grads() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let a = InceptionA::new(3, 2, &mut rng);
        let x = Tensor::rand_normal([3, 6, 6], 0.0, 1.0, &mut rng);
        let (gx, grads) = ones_backward(&a, &x);
        assert_eq!(gx.dims(), x.dims());
        let total: f32 = grads.iter().map(|g| g.sq_norm()).sum();
        assert!(total > 0.0, "all-branch gradients should flow");
    }

    #[test]
    fn module_b_backward_matches_input_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let b = InceptionB::new(4, 2, &mut rng);
        let x = Tensor::rand_normal([4, 8, 8], 0.0, 1.0, &mut rng);
        let y = b.forward(x.clone(), &mut Tape::inference());
        assert_eq!(y.dims(), &[6, 4, 4]);
        let (gx, _) = ones_backward(&b, &x);
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn input_gradient_sums_over_branches() {
        // With all-positive input, every ReLU passes gradient, so the input
        // grad must differ from any single branch's contribution.
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let a = InceptionA::new(2, 1, &mut rng);
        let x = Tensor::full([2, 4, 4], 1.0);
        let (gx, _) = ones_backward(&a, &x);
        assert!(gx.sq_norm() > 0.0);
    }
}
