//! Fully-connected layer and flattening adapter.

use rand::Rng;
use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::ops::matmul::{matvec, matvec_t};
use rhsd_tensor::Tensor;

use crate::init::xavier_uniform;
use crate::layer::{Layer, Tape};

/// A fully-connected layer `[n_in] → [n_out]` (used by the refinement
/// stage's 2nd classification-and-regression heads, §3.4).
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor, // [n_out, n_in]
    bias: Tensor,   // [n_out]
}

impl Linear {
    /// Creates a Xavier-initialised fully-connected layer.
    pub fn new(n_in: usize, n_out: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: xavier_uniform([n_out, n_in], n_in, n_out, rng),
            bias: Tensor::zeros([n_out]),
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.weight.dim(1)
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.weight.dim(0)
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "Linear"
    }

    fn forward(&self, input: &Tensor, tape: &mut Tape) -> Tensor {
        rhsd_tensor::invariants::check_layer_input(
            "Linear",
            &format!("[n_in={}]", self.n_in()),
            input.rank() == 1 && input.dim(0) == self.n_in(),
            input.shape(),
        );
        assert_eq!(
            input.rank(),
            1,
            "Linear expects a rank-1 input, got {}",
            input.shape()
        );
        tape.save(|| input.clone());
        let mut y = matvec(&self.weight, input);
        axpy(&mut y, 1.0, &self.bias);
        y
    }

    fn backward(&self, tape: &mut Tape, grad_out: &Tensor, grads: &mut [Tensor]) -> Tensor {
        let input: Tensor = tape.pop("Linear");
        // dW = g ⊗ x, parallel over output rows (disjoint; pure
        // products, so bit-identical at any thread count).
        let (n_out, n_in) = (self.n_out(), self.n_in());
        let mut dw = vec![0.0f32; n_out * n_in];
        let gv = grad_out.as_slice();
        let xv = input.as_slice();
        if n_in > 0 {
            let rows_per_task = rhsd_par::chunk_units(n_out, n_in);
            rhsd_par::for_each_mut(&mut dw, rows_per_task * n_in, |ci, rows| {
                let i0 = ci * rows_per_task;
                for (di, row) in rows.chunks_mut(n_in).enumerate() {
                    let g = gv[i0 + di];
                    for (o, &x) in row.iter_mut().zip(xv.iter()) {
                        *o = g * x;
                    }
                }
            });
        }
        axpy(&mut grads[0], 1.0, &Tensor::from_parts([n_out, n_in], dw));
        axpy(&mut grads[1], 1.0, grad_out);
        // Wᵀ·g without materialising the transpose: the fused kernel
        // streams W's rows in place (bit-identical to the old path).
        matvec_t(&self.weight, grad_out)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Flattens `[C, H, W]` feature maps to rank-1 vectors (and restores the
/// shape on the way back).
#[derive(Debug, Clone, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flattening adapter.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn forward(&self, input: &Tensor, tape: &mut Tape) -> Tensor {
        tape.save(|| input.dims().to_vec());
        let n = input.len();
        input.clone().with_shape([n])
    }

    fn backward(&self, tape: &mut Tape, grad_out: &Tensor, _grads: &mut [Tensor]) -> Tensor {
        let dims: Vec<usize> = tape.pop("Flatten");
        grad_out.clone().with_shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut l = Linear::new(2, 2, &mut rng);
        *l.params_mut()[0] = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]).unwrap();
        *l.params_mut()[1] = Tensor::from_vec([2], vec![0.5, -0.5]).unwrap();
        let y = l.forward(
            &Tensor::from_vec([2], vec![1., 1.]).unwrap(),
            &mut Tape::inference(),
        );
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let l = Linear::new(3, 2, &mut rng);
        let x = Tensor::rand_normal([3], 0.0, 1.0, &mut rng);
        let mut tape = Tape::recording();
        let y = l.forward(&x, &mut tape);
        let mut grads = Grads::zeros_like(l.params());
        let gx = l.backward(&mut tape, &Tensor::ones(y.dims()), &mut grads);
        let sum = |x: &Tensor| l.forward(x, &mut Tape::inference()).sum();

        let eps = 1e-2;
        // input gradient
        for probe in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let numeric = (sum(&xp) - sum(&xm)) / (2.0 * eps);
            assert!((numeric - gx.as_slice()[probe]).abs() < 1e-2);
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let f = Flatten::new();
        let x = Tensor::from_fn([2, 3, 4], |c| c[2] as f32);
        let mut tape = Tape::recording();
        let y = f.forward(&x, &mut tape);
        assert_eq!(y.dims(), &[24]);
        let g = f.backward(&mut tape, &y, &mut []);
        assert_eq!(g, x);
    }

    // with `debug_invariants` the shape contract fires first, without it
    // the rank assert does — both name the offending shape
    #[test]
    #[should_panic(expected = "got [1, 2, 2]")]
    fn linear_rejects_rank3_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        Linear::new(4, 2, &mut rng).forward(&Tensor::zeros([1, 2, 2]), &mut Tape::inference());
    }
}
