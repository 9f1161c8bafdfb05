//! Fully-connected layer and flattening adapter.

use rand::Rng;
use rhsd_tensor::ops::matvec::{matvec, matvec_t};
use rhsd_tensor::Tensor;

use crate::init::xavier_uniform;
use crate::layer::{Layer, Tape};

/// A fully-connected layer `[n_in] → [n_out]`, or vector by vector
/// over a batch in the lane layout `[n_in, N] → [n_out, N]` (used by
/// the refinement stage's 2nd classification-and-regression heads,
/// §3.4).
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

    /// Keeps the input itself on a recording tape.
    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        let rank = input.rank();
        rhsd_tensor::invariants::check_layer_input(
            "Linear",
            format_args!("[n_in={}] or [n_in={0}, N]", self.n_in()),
            (rank == 1 || rank == 2) && input.dim(0) == self.n_in(),
            input.shape(),
        );
        let mut y = matvec(&self.weight, &input);
        let n = y.len() / self.n_out().max(1);
        for (row, &b) in y
            .as_mut_slice()
            .chunks_exact_mut(n.max(1))
            .zip(self.bias.as_slice())
        {
            for o in row {
                *o += b;
            }
        }
        tape.save(|| input);
        y
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        let input: Tensor = tape.pop("Linear");
        let n = input.len() / self.n_in().max(1);
        // Each vector adds its dW = g ⊗ x (pure products) and db = g,
        // in batch order.
        let lane = |t: &Tensor, r: usize| -> Vec<f32> {
            t.as_slice().iter().skip(r).step_by(n).copied().collect()
        };
        for r in 0..n {
            let (gv, xv) = (lane(&grad_out, r), lane(&input, r));
            let dw = grads[0].as_mut_slice().chunks_exact_mut(xv.len().max(1));
            for (row, &g) in dw.zip(&gv) {
                for (d, &x) in row.iter_mut().zip(&xv) {
                    *d += g * x;
                }
            }
            for (d, &g) in grads[1].as_mut_slice().iter_mut().zip(&gv) {
                *d += g;
            }
        }
        // Wᵀ·g for every vector at once, without materialising the
        // transpose.
        matvec_t(&self.weight, &grad_out)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Flattens `[C, H, W]` feature maps to rank-1 vectors, or a batch in
/// the lane layout `[C, H, W, N]` to `[C·H·W, N]`, one vector per lane
/// (and restores the shape on the way back).
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

    /// Reshapes the input's buffer; nothing is copied.
    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        tape.save(|| input.dims().to_vec());
        if input.rank() == 4 {
            let n = input.dim(3);
            let chw = input.dims()[..3].iter().product::<usize>();
            input.with_shape([chw, n])
        } else {
            let n = input.len();
            input.with_shape([n])
        }
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, _grads: &mut [Tensor]) -> Tensor {
        let dims: Vec<usize> = tape.pop("Flatten");
        grad_out.with_shape(dims)
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
            Tensor::from_vec([2], vec![1., 1.]).unwrap(),
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
        let y = l.forward(x.clone(), &mut tape);
        let mut grads = Grads::zeros_like(l.params());
        let gx = l.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        let sum = |x: Tensor| l.forward(x, &mut Tape::inference()).sum();

        let eps = 1e-2;
        // input gradient
        for probe in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let numeric = (sum(xp) - sum(xm)) / (2.0 * eps);
            assert!((numeric - gx.as_slice()[probe]).abs() < 1e-2);
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let f = Flatten::new();
        let x = Tensor::from_fn([2, 3, 4], |c| c[2] as f32);
        let mut tape = Tape::recording();
        let at = x.as_slice().as_ptr();
        let y = f.forward(x.clone(), &mut tape);
        assert_eq!(y.dims(), &[24]);
        let g = f.backward(&mut tape, y, &mut []);
        assert_eq!(g, x);
        // Neither pass copies.
        let y = f.forward(x, &mut tape);
        assert_eq!(y.as_slice().as_ptr(), at);
        let g = f.backward(&mut tape, y, &mut []);
        assert_eq!(g.as_slice().as_ptr(), at);
    }

    // with `debug_invariants` the shape contract fires first, without it
    // `matvec`'s rank assert does — both name the offending shape
    #[test]
    #[should_panic(expected = "got [1, 2, 2]")]
    fn linear_rejects_rank3_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        Linear::new(4, 2, &mut rng).forward(Tensor::zeros([1, 2, 2]), &mut Tape::inference());
    }

    /// A recorded forward keeps the very buffer it was handed, for one
    /// vector and for a lane-layout batch.
    #[test]
    fn tape_keeps_the_input_buffer() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let l = Linear::new(6, 3, &mut rng);
        for dims in [vec![6], vec![6, 5]] {
            let x = Tensor::rand_normal(&dims[..], 0.0, 1.0, &mut rng);
            let at = x.as_slice().as_ptr();
            let mut tape = Tape::recording();
            l.forward(x, &mut tape);
            let kept: Tensor = tape.pop("test");
            assert_eq!(
                kept.as_slice().as_ptr(),
                at,
                "{dims:?}: tape copied the input"
            );
        }
    }
}
