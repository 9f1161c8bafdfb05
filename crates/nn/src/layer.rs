//! The [`Layer`] trait — the composition unit of the CNN framework — and
//! the caller-owned [`Tape`] its training passes record onto.

use std::any::Any;

use rhsd_tensor::Tensor;

/// A differentiable network module. Layers take one sample; the
/// refinement head's layers (convolution, activations, channel concat,
/// flatten and fully-connected) also take a batch in the lane layout,
/// with a trailing `N` axis (`[C, H, W, N]`, `[k, N]`), each sample's
/// outputs bit for bit those of the sample alone.
///
/// Layers are *stateless*: they own only their weights, and every pass
/// takes `&self`, so one set of weights can serve any number of threads
/// at once. What a backward pass needs (inputs, argmax indices, …) goes
/// on a caller-owned [`Tape`]: [`Layer::forward`] records it when the
/// tape is recording, and [`Layer::backward`] pops it again, adds the
/// parameter gradients into the caller's [`crate::Grads`] slots and
/// returns the gradient with respect to the layer input. A batched
/// backward adds each sample's parameter gradients into `Grads` one
/// sample at a time, in batch order — the add order of per-sample
/// passes. A mini-batch of regions can run each region's passes on its
/// own thread, into its own `Grads`, and sum those in region order
/// before one optimiser step; for layers that add into a slot once per
/// region, that is the add order of a region-by-region pass.
///
/// Activations and gradients pass *by value*: a layer owns what it is
/// handed, so it can keep its input on the tape without a copy (a
/// convolution), work in its buffer (an activation), or hand the buffer
/// on with a new shape (a flatten). A backward that popped its input
/// can write the input gradient into that input's buffer. A caller that
/// still needs a value after the call clones it, once, at the call
/// site.
///
/// # Panics
///
/// Implementations panic when `backward` is called without a matching
/// recorded `forward` on the same tape (a programming error), and on
/// shape mismatches.
pub trait Layer: Send + Sync {
    /// Short layer name used in invariant-violation and contract messages.
    fn name(&self) -> &'static str {
        "Layer"
    }

    /// Runs the layer on `input`, recording on `tape` whatever the
    /// backward pass needs (nothing when the tape does not record).
    fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor;

    /// Propagates `grad_out` back through the forward most recently
    /// recorded on `tape`, adding parameter gradients into `grads` (this
    /// layer's slots, in [`Layer::params`] order) and returning the input
    /// gradient.
    fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor;

    /// [`Layer::backward`] for a caller that never reads the input
    /// gradient, as when the input is data (a network's raster): adds
    /// the same parameter gradients into `grads`, bit for bit, and skips
    /// what only the input gradient needs. The default runs `backward`
    /// and drops the input gradient.
    fn backward_params(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) {
        self.backward(tape, grad_out, grads);
    }

    /// Every trainable parameter, in a stable order. The default is an
    /// empty list (parameter-free layers).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable access to [`Layer::params`], in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Display names for [`Layer::params`], index-aligned with it.
    ///
    /// Training groups its per-slot optimiser statistics by these names.
    /// Composite layers override this to qualify children positionally
    /// (e.g. `Conv2d#1`, the span key [`forward_all`] opens for that
    /// layer); the default repeats [`Layer::name`] once per parameter,
    /// which groups a composite's parameters under its own name.
    fn param_names(&self) -> Vec<String> {
        vec![self.name().to_owned(); self.params().len()]
    }

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// The activations a training pass keeps for its backward pass, owned by
/// the caller rather than by the layers.
///
/// A stack: each layer's forward pushes what its backward reads, and
/// backward pops in reverse, so a composite's children pop in reverse
/// forward order. An [`Tape::inference`] tape records nothing, which is
/// what lets an inference forward hold no activations beyond the live
/// ones and lets threads share one set of weights.
pub struct Tape {
    recording: bool,
    saved: Vec<Box<dyn Any + Send>>,
}

impl Tape {
    /// A tape that records every forward for a later backward.
    pub fn recording() -> Self {
        Tape {
            recording: true,
            saved: Vec::new(),
        }
    }

    /// A tape that records nothing: the inference forward.
    pub fn inference() -> Self {
        Tape {
            recording: false,
            saved: Vec::new(),
        }
    }

    /// Returns `true` if forwards record for a backward pass — a layer
    /// may skip work only a backward pass would read (a pooling argmax)
    /// when it does not.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Returns `true` if every saved entry was consumed (always, for an
    /// inference tape).
    pub fn is_empty(&self) -> bool {
        self.saved.is_empty()
    }

    /// Saves what `value` builds, only when the tape records — so an
    /// inference forward never pays for the copy.
    pub fn save<T: Any + Send>(&mut self, value: impl FnOnce() -> T) {
        if self.recording {
            self.saved.push(Box::new(value()));
        }
    }

    /// Takes the entry the matching forward of `layer` saved last.
    ///
    /// Every layer funnels its backward-after-forward contract through
    /// this single audited site, keeping the message format uniform.
    ///
    /// # Panics
    ///
    /// Panics when the tape holds no entry of type `T` on top, i.e.
    /// `backward` ran without a matching recorded `forward` — a
    /// programming error, not a recoverable condition.
    pub fn pop<T: Any>(&mut self, layer: &str) -> T {
        match self.saved.pop().map(|entry| entry.downcast::<T>()) {
            Some(Ok(value)) => *value,
            #[expect(
                clippy::panic,
                reason = "the one audited contract-violation panic site"
            )]
            _ => panic!("{layer}::backward called before forward"),
        }
    }
}

/// Runs `forward` through a slice of boxed layers in order, each
/// layer's output moving into the next.
///
/// With the `debug_invariants` feature, every intermediate activation is
/// checked for NaN/Inf, attributed to the producing layer.
///
/// While observability is on, each layer runs under a span keyed
/// `{name}#{i}` (see [`layer_span`]).
///
/// Shapes: `input` is whatever the first layer accepts (each layer
/// documents its own contract); the result is the last layer's output.
pub fn forward_all(layers: &[Box<dyn Layer>], input: Tensor, tape: &mut Tape) -> Tensor {
    forward_from(layers, 0, input, tape)
}

/// [`forward_all`] over a chain that starts at layer `first` of a
/// longer one: layer `i` of `layers` is numbered `first + i` in its
/// span key, so a pass split at a layer boundary opens the keys of the
/// whole chain's pass.
///
/// Shapes: `input` is whatever `layers[0]` accepts; the result is the
/// last layer's output.
pub fn forward_from(
    layers: &[Box<dyn Layer>],
    first: usize,
    input: Tensor,
    tape: &mut Tape,
) -> Tensor {
    let mut x = input;
    for (i, layer) in (first..).zip(layers) {
        let _sp = layer_span(layer.name(), i);
        x = layer.forward(x, tape);
        rhsd_tensor::invariants::check_finite(layer.name(), &x);
    }
    x
}

/// The span of layer `i` of a chain, keyed `{name}#{i}`, or `None`
/// while observability is off — so an untraced pass formats and
/// allocates nothing.
fn layer_span(name: &str, i: usize) -> Option<rhsd_obs::SpanGuard> {
    rhsd_obs::enabled().then(|| rhsd_obs::span(format!("{name}#{i}")))
}

/// Runs `backward` through a slice of boxed layers in reverse order,
/// each layer's input gradient moving into the layer before it, and
/// handing each layer its own slots of `grads` (the layers' parameter
/// lists concatenated in order).
///
/// With the `debug_invariants` feature, every intermediate gradient is
/// checked for NaN/Inf, attributed to the producing layer.
///
/// While observability is on, each layer runs under its `{name}#{i}`
/// span, as in [`forward_all`].
///
/// Shapes: `grad_out` matches the last layer's output; the result
/// matches the first layer's input; `grads` mirrors the layers'
/// concatenated parameter lists.
pub fn backward_all(
    layers: &[Box<dyn Layer>],
    tape: &mut Tape,
    grad_out: Tensor,
    grads: &mut [Tensor],
) -> Tensor {
    backward_chain(layers, 0, tape, grad_out, grads)
}

/// [`backward_all`] for a caller that never reads the input gradient:
/// the first layer runs [`Layer::backward_params`]. Every parameter
/// gradient is bit for bit the same.
///
/// Shapes: `grad_out` matches the last layer's output; `grads` mirrors
/// the layers' concatenated parameter lists.
pub fn backward_params_all(
    layers: &[Box<dyn Layer>],
    tape: &mut Tape,
    grad_out: Tensor,
    grads: &mut [Tensor],
) {
    let Some((first, rest)) = layers.split_first() else {
        return;
    };
    let (own, rest_grads) = grads.split_at_mut(first.params().len());
    let g = backward_chain(rest, 1, tape, grad_out, rest_grads);
    let _sp = layer_span(first.name(), 0);
    first.backward_params(tape, g, own);
}

/// Runs `backward` through `layers` in reverse, numbered from `first`,
/// `g` the gradient flowing in; returns the input gradient of
/// `layers[0]`.
fn backward_chain(
    layers: &[Box<dyn Layer>],
    first: usize,
    tape: &mut Tape,
    mut g: Tensor,
    grads: &mut [Tensor],
) -> Tensor {
    let mut rest = grads;
    for (i, layer) in layers.iter().enumerate().rev() {
        let i = first + i;
        let _sp = layer_span(layer.name(), i);
        let split = rest.len() - layer.params().len();
        let (head, own) = std::mem::take(&mut rest).split_at_mut(split);
        rest = head;
        g = layer.backward(tape, g, own);
        rhsd_tensor::invariants::check_finite(layer.name(), &g);
    }
    g
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    use super::*;
    use crate::Grads;

    /// A layer multiplying by a learnable scalar — minimal trait exercise.
    struct Gain {
        k: Tensor,
    }

    impl Gain {
        fn new(k: f32) -> Self {
            Gain {
                k: Tensor::from_vec([1], vec![k]).unwrap(),
            }
        }
    }

    impl Layer for Gain {
        fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
            let y = input.map(|x| x * self.k.as_slice()[0]);
            tape.save(|| input);
            y
        }

        fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
            let input: Tensor = tape.pop("Gain");
            let dk: f32 = input
                .as_slice()
                .iter()
                .zip(grad_out.as_slice())
                .map(|(&x, &g)| x * g)
                .sum();
            grads[0].as_mut_slice()[0] += dk;
            grad_out.map(|g| g * self.k.as_slice()[0])
        }

        fn params(&self) -> Vec<&Tensor> {
            vec![&self.k]
        }
    }

    #[test]
    fn forward_backward_all_chain() {
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Gain::new(2.0)), Box::new(Gain::new(3.0))];
        let x = Tensor::from_vec([2], vec![1.0, -1.0]).unwrap();
        let mut tape = Tape::recording();
        let y = forward_all(&layers, x, &mut tape);
        assert_eq!(y.as_slice(), &[6.0, -6.0]);
        assert!(!tape.is_empty(), "a training forward records");
        let mut grads = Grads::zeros_like(layers.iter().flat_map(|l| l.params()));
        let gx = backward_all(&layers, &mut tape, Tensor::ones([2]), &mut grads);
        assert_eq!(gx.as_slice(), &[6.0, 6.0]);
        assert!(tape.is_empty(), "backward consumes what forward saved");
        // d/dk1 = Σ x·(k2·1) = 3·(1 − 1) = 0; d/dk2 = Σ (k1·x)·1 = 0
        assert_eq!(grads[0].as_slice(), &[0.0]);
        assert_eq!(grads[1].as_slice(), &[0.0]);
    }

    #[test]
    fn grads_land_in_each_layers_own_slot() {
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Gain::new(2.0)), Box::new(Gain::new(3.0))];
        let mut tape = Tape::recording();
        forward_all(&layers, Tensor::ones([3]), &mut tape);
        let mut grads = Grads::zeros_like(layers.iter().flat_map(|l| l.params()));
        backward_all(&layers, &mut tape, Tensor::ones([3]), &mut grads);
        assert_eq!(grads[0].as_slice(), &[9.0], "k1: Σ x·k2");
        assert_eq!(grads[1].as_slice(), &[6.0], "k2: Σ k1·x");
    }

    #[test]
    fn inference_tape_records_nothing() {
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Gain::new(2.0)), Box::new(Gain::new(3.0))];
        let mut tape = Tape::inference();
        let y = forward_all(&layers, Tensor::ones([2]), &mut tape);
        assert_eq!(y.as_slice(), &[6.0, 6.0]);
        assert!(tape.is_empty());
    }

    #[test]
    #[should_panic(expected = "Gain::backward called before forward")]
    fn backward_after_inference_forward_panics() {
        let layer = Gain::new(2.0);
        let mut tape = Tape::inference();
        let y = layer.forward(Tensor::ones([2]), &mut tape);
        let mut grads = Grads::zeros_like(layer.params());
        layer.backward(&mut tape, y, &mut grads);
    }

    /// A [`Gain`] that counts which backward ran: `[backward,
    /// backward_params]`.
    struct Probe {
        gain: Gain,
        runs: std::sync::Arc<[AtomicUsize; 2]>,
    }

    impl Layer for Probe {
        fn forward(&self, input: Tensor, tape: &mut Tape) -> Tensor {
            self.gain.forward(input, tape)
        }

        fn backward(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) -> Tensor {
            self.runs[0].fetch_add(1, Relaxed);
            self.gain.backward(tape, grad_out, grads)
        }

        fn backward_params(&self, tape: &mut Tape, grad_out: Tensor, grads: &mut [Tensor]) {
            self.runs[1].fetch_add(1, Relaxed);
            self.gain.backward(tape, grad_out, grads);
        }

        fn params(&self) -> Vec<&Tensor> {
            self.gain.params()
        }
    }

    /// A params-only chain backward adds the same parameter gradients
    /// and runs `backward_params` on the first layer only.
    #[test]
    fn params_only_backward_skips_the_first_input_gradient() {
        let runs: [std::sync::Arc<[AtomicUsize; 2]>; 2] = Default::default();
        let layers: Vec<Box<dyn Layer>> = [2.0, 3.0]
            .into_iter()
            .zip(&runs)
            .map(|(k, r)| {
                Box::new(Probe {
                    gain: Gain::new(k),
                    runs: r.clone(),
                }) as Box<dyn Layer>
            })
            .collect();
        let x = Tensor::from_vec([2], vec![1.0, -2.0]).unwrap();
        let run = |params_only: bool| {
            let mut tape = Tape::recording();
            forward_all(&layers, x.clone(), &mut tape);
            let mut grads = Grads::zeros_like(layers.iter().flat_map(|l| l.params()));
            if params_only {
                backward_params_all(&layers, &mut tape, Tensor::ones([2]), &mut grads);
            } else {
                backward_all(&layers, &mut tape, Tensor::ones([2]), &mut grads);
            }
            assert!(tape.is_empty());
            grads
        };
        let counts = || {
            runs.each_ref()
                .map(|r| [r[0].load(Relaxed), r[1].load(Relaxed)])
        };
        let full = run(false);
        assert_eq!(counts(), [[1, 0], [1, 0]]);
        let params = run(true);
        assert_eq!(counts(), [[1, 1], [2, 0]], "only the first layer skips");
        for (a, b) in full.iter().zip(params.iter()) {
            assert_eq!(a.as_slice(), b.as_slice(), "parameter gradients moved");
        }
    }

    #[test]
    fn param_count_sums_scalars() {
        assert_eq!(Gain::new(1.0).param_count(), 1);
    }
}
