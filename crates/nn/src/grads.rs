//! Gradient accumulators, kept apart from the weights they belong to.

use std::ops::{Deref, DerefMut};

use rhsd_tensor::Tensor;

/// One gradient accumulator per trainable parameter, mirroring a
/// parameter list slot for slot (`grads[i]` has the shape of
/// `params[i]`).
///
/// Gradients accumulate across backward passes (mini-batching runs
/// several samples and steps once); [`Grads::zero`] resets them. A
/// layer's backward receives its own slots as a `&mut [Tensor]`, which a
/// `&mut Grads` coerces to.
#[derive(Debug, Clone, PartialEq)]
pub struct Grads(Vec<Tensor>);

impl Grads {
    /// Zeroed accumulators shaped like `params`.
    ///
    /// Shapes: slot `i` takes the shape of the `i`-th tensor of `params`.
    pub fn zeros_like<'a>(params: impl IntoIterator<Item = &'a Tensor>) -> Self {
        Grads(
            params
                .into_iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect(),
        )
    }

    /// Clears every accumulator.
    pub fn zero(&mut self) {
        for g in &mut self.0 {
            g.map_inplace(|_| 0.0);
        }
    }
}

impl Deref for Grads {
    type Target = [Tensor];

    fn deref(&self) -> &[Tensor] {
        &self.0
    }
}

impl DerefMut for Grads {
    fn deref_mut(&mut self) -> &mut [Tensor] {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_like_mirrors_shapes_and_zero_clears() {
        let (w, b) = (Tensor::ones([2, 3]), Tensor::ones([2]));
        let mut g = Grads::zeros_like([&w, &b]);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].dims(), &[2, 3]);
        assert_eq!(g[1].as_slice(), &[0.0, 0.0]);
        g[1].as_mut_slice()[0] = 4.0;
        g.zero();
        assert_eq!(g[1].as_slice(), &[0.0, 0.0]);
    }
}
