//! The [`Layer`] trait — the composition unit of the CNN framework.

use rhsd_tensor::Tensor;

use crate::param::Param;

/// A differentiable network module operating on one sample at a time.
///
/// Layers are *stateful*: [`Layer::forward`] caches whatever its backward
/// pass needs (inputs, argmax indices, …), and [`Layer::backward`] consumes
/// that cache, accumulates parameter gradients, and returns the gradient
/// with respect to the layer input. Mini-batches are realised by invoking
/// forward/backward per sample and stepping the optimiser once — gradients
/// accumulate in the [`Param`]s.
///
/// # Panics
///
/// Implementations panic when `backward` is called without a preceding
/// `forward` (a programming error), and on shape mismatches.
///
/// Layers are `Send + Sync` (they are plain parameter + cache data) so
/// the parallel region scan can hand each `rhsd-par` worker its own
/// deep copy of a network via [`Layer::clone_boxed`].
pub trait Layer: Send + Sync {
    /// Short layer name used in invariant-violation and contract messages.
    fn name(&self) -> &'static str {
        "Layer"
    }

    /// Runs the layer on `input`, caching state for the backward pass.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` back through the most recent [`Layer::forward`],
    /// accumulating parameter gradients and returning the input gradient.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to every trainable parameter, in a stable order.
    ///
    /// The default is an empty list (parameter-free layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Display names for [`Layer::params_mut`], index-aligned with it.
    ///
    /// Training-dynamics telemetry joins these with per-slot optimiser
    /// statistics. Composite layers override this to qualify children
    /// positionally (e.g. `Conv2d#1`), matching the activation keys
    /// emitted by [`forward_all`]; the default repeats [`Layer::name`]
    /// once per parameter, which groups a composite's parameters under
    /// its own name.
    fn param_names(&mut self) -> Vec<String> {
        let n = self.params_mut().len();
        vec![self.name().to_owned(); n]
    }

    /// Clears all accumulated gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// A deep copy of this layer as a boxed trait object — how the
    /// parallel region scan gives every worker its own network.
    ///
    /// The default is `None`, for internal adapter layers that borrow
    /// external state and therefore cannot be duplicated; every real
    /// network layer overrides this with `Some(Box::new(self.clone()))`.
    fn clone_boxed(&self) -> Option<Box<dyn Layer>> {
        None
    }
}

/// Clones a boxed layer via [`Layer::clone_boxed`].
///
/// # Panics
///
/// Panics if the layer does not support cloning. Only non-network
/// adapter layers (e.g. the persistence visitor) lack support, and they
/// are never part of a cloned network — a programming error, not a
/// recoverable condition.
pub fn clone_layer(layer: &dyn Layer) -> Box<dyn Layer> {
    match layer.clone_boxed() {
        Some(l) => l,
        // lint:allow(L1) — audited contract-violation panic, mirrors take_cache
        None => panic!("{}: clone_boxed not supported", layer.name()),
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        clone_layer(&**self)
    }
}

/// Takes a layer's cached forward state for its backward pass.
///
/// Every stateful layer funnels its backward-before-forward contract
/// through this single audited site, keeping the message format uniform.
///
/// # Panics
///
/// Panics when `cache` is `None`, i.e. `backward` ran without a
/// preceding `forward` — a programming error, not a recoverable
/// condition.
pub fn take_cache<T>(cache: &mut Option<T>, layer: &str) -> T {
    match cache.take() {
        Some(v) => v,
        // lint:allow(L1) — the one audited contract-violation panic site
        None => panic!("{layer}::backward called before forward"),
    }
}

/// Runs `forward` through a slice of boxed layers in order.
///
/// With the `debug_invariants` feature, every intermediate activation is
/// checked for NaN/Inf, attributed to the producing layer.
///
/// When the thread's [`crate::dynamics`] collector is armed and this is
/// the outermost chain, each layer's output activation summary is
/// recorded (read-only — outputs are bit-identical either way).
///
/// Shapes: `input` is whatever the first layer accepts (each layer
/// documents its own contract); the result is the last layer's output.
pub fn forward_all(layers: &mut [Box<dyn Layer>], input: &Tensor) -> Tensor {
    let record = crate::dynamics::enter_chain();
    let mut x = input.clone();
    for (i, layer) in layers.iter_mut().enumerate() {
        x = layer.forward(&x);
        rhsd_tensor::invariants::check_finite(layer.name(), &x);
        if record {
            crate::dynamics::record_activation(layer.name(), i, &x);
        }
    }
    crate::dynamics::exit_chain();
    x
}

/// Runs `backward` through a slice of boxed layers in reverse order.
///
/// With the `debug_invariants` feature, every intermediate gradient is
/// checked for NaN/Inf, attributed to the producing layer.
///
/// When the thread's [`crate::dynamics`] collector is armed and this is
/// the outermost chain, the L2 norm of the gradient flowing out of each
/// layer is recorded (read-only — gradients are bit-identical either way).
///
/// Shapes: `grad_out` matches the last layer's output; the result
/// matches the first layer's input.
pub fn backward_all(layers: &mut [Box<dyn Layer>], grad_out: &Tensor) -> Tensor {
    let record = crate::dynamics::enter_chain();
    let mut g = grad_out.clone();
    for (i, layer) in layers.iter_mut().enumerate().rev() {
        g = layer.backward(&g);
        rhsd_tensor::invariants::check_finite(layer.name(), &g);
        if record {
            crate::dynamics::record_flow_grad(layer.name(), i, &g);
        }
    }
    crate::dynamics::exit_chain();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layer multiplying by a learnable scalar — minimal trait exercise.
    struct Gain {
        k: Param,
        cached: Option<Tensor>,
    }

    impl Gain {
        fn new(k: f32) -> Self {
            Gain {
                k: Param::new(Tensor::from_vec([1], vec![k]).unwrap()),
                cached: None,
            }
        }
    }

    impl Layer for Gain {
        fn forward(&mut self, input: &Tensor) -> Tensor {
            self.cached = Some(input.clone());
            input.map(|x| x * self.k.value.as_slice()[0])
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            let input = self.cached.take().expect("backward before forward");
            let dk: f32 = input
                .as_slice()
                .iter()
                .zip(grad_out.as_slice())
                .map(|(&x, &g)| x * g)
                .sum();
            self.k.accumulate(&Tensor::from_vec([1], vec![dk]).unwrap());
            grad_out.map(|g| g * self.k.value.as_slice()[0])
        }

        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.k]
        }
    }

    #[test]
    fn forward_backward_all_chain() {
        let mut layers: Vec<Box<dyn Layer>> =
            vec![Box::new(Gain::new(2.0)), Box::new(Gain::new(3.0))];
        let x = Tensor::from_vec([2], vec![1.0, -1.0]).unwrap();
        let y = forward_all(&mut layers, &x);
        assert_eq!(y.as_slice(), &[6.0, -6.0]);
        let gx = backward_all(&mut layers, &Tensor::ones([2]));
        assert_eq!(gx.as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn param_count_and_zero_grad() {
        let mut g = Gain::new(1.0);
        assert_eq!(g.param_count(), 1);
        let x = Tensor::ones([3]);
        let y = g.forward(&x);
        g.backward(&y);
        assert_ne!(g.params_mut()[0].grad.as_slice()[0], 0.0);
        g.zero_grad();
        assert_eq!(g.params_mut()[0].grad.as_slice()[0], 0.0);
    }
}
