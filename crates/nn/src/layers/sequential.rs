//! Ordered composition of layers.

use rhsd_tensor::Tensor;

use crate::layer::{backward_all, backward_params_all, forward_all, Layer, Tape};

/// A chain of layers applied in order.
///
/// # Examples
///
/// ```
/// use rhsd_nn::layers::{Conv2d, MaxPool2d, Relu, Sequential};
/// use rhsd_tensor::ops::conv::ConvSpec;
/// use rhsd_tensor::Tensor;
/// use rhsd_nn::{Layer, Tape};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let stem = Sequential::new()
///     .push(Conv2d::new(1, 8, ConvSpec::same(3), &mut rng))
///     .push(Relu::new())
///     .push(MaxPool2d);
/// let y = stem.forward(Tensor::zeros([1, 16, 16]), &mut Tape::inference());
/// assert_eq!(y.dims(), &[8, 8, 8]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
        forward_all(&self.layers, input, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
        backward_all(&self.layers, tape, grad_out, grads)
    }

    fn backward_params(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) {
        backward_params_all(&self.layers, tape, grad_out, grads);
    }

    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn param_names(&self) -> Vec<String> {
        self.layers
            .iter()
            .enumerate()
            .flat_map(|(i, l)| l.param_names().into_iter().map(move |n| format!("{n}#{i}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Relu};
    use crate::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_tensor::ops::conv::ConvSpec;

    #[test]
    fn empty_sequential_passes_input_through() {
        let s = Sequential::new();
        assert!(s.is_empty());
        let x = Tensor::from_vec([2], vec![3., 4.]).unwrap();
        let mut tape = Tape::recording();
        assert_eq!(s.forward(x.clone(), &mut tape), x);
        assert_eq!(s.backward(&mut tape, x.clone(), &mut []), x);
    }

    #[test]
    fn chains_layers_and_collects_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let s = Sequential::new()
            .push(Conv2d::new(1, 2, ConvSpec::same(3), &mut rng))
            .push(Relu::new())
            .push(Conv2d::new(2, 1, ConvSpec::same(3), &mut rng));
        assert_eq!(s.len(), 3);
        assert_eq!(s.params().len(), 4); // 2 weights + 2 biases
        let x = Tensor::rand_normal([1, 6, 6], 0.0, 1.0, &mut rng);
        let mut tape = Tape::recording();
        let y = s.forward(x.clone(), &mut tape);
        assert_eq!(y.dims(), &[1, 6, 6]);
        let mut grads = Grads::zeros_like(s.params());
        let gx = s.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
        assert_eq!(gx.dims(), x.dims());
        assert!(
            grads.iter().all(|g| g.sq_norm() > 0.0),
            "every slot got signal"
        );
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        // Sanity: one conv layer can learn to scale its input.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut s = Sequential::new().push(Conv2d::new(1, 1, ConvSpec::same(1), &mut rng));
        let x = Tensor::rand_normal([1, 4, 4], 0.0, 1.0, &mut rng);
        let target = x.map(|v| 3.0 * v);
        let mut grads = Grads::zeros_like(s.params());
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let mut tape = Tape::recording();
            let y = s.forward(x.clone(), &mut tape);
            let diff = rhsd_tensor::ops::elementwise::sub(&y, &target);
            let loss = diff.sq_norm();
            grads.zero();
            s.backward(&mut tape, diff.map(|d| 2.0 * d), &mut grads);
            for (p, g) in s.params_mut().into_iter().zip(grads.iter()) {
                rhsd_tensor::ops::elementwise::axpy(p, -0.01, g);
            }
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < 0.01 * first_loss.unwrap());
    }
}
