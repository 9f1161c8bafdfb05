//! Property-based tests for the NN framework: gradient correctness on
//! randomly-sized layers and optimiser invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_nn::layers::{Conv2d, Linear, MaxPool2d, Relu, Sequential};
use rhsd_nn::loss::{smooth_l1_grad_scalar, smooth_l1_scalar};
use rhsd_nn::optim::{Sgd, StepDecay};
use rhsd_nn::{Grads, Layer, Tape};
use rhsd_tensor::ops::conv::ConvSpec;
use rhsd_tensor::Tensor;

/// One recorded forward and an all-ones backward; returns the input
/// gradient.
fn ones_input_grad(layer: &dyn Layer, x: &Tensor) -> Tensor {
    let mut tape = Tape::recording();
    let y = layer.forward(x.clone(), &mut tape);
    let mut grads = Grads::zeros_like(layer.params());
    layer.backward(&mut tape, Tensor::ones(y.dims()), &mut grads)
}

/// Sum of an inference forward's outputs.
fn out_sum(layer: &dyn Layer, x: &Tensor) -> f32 {
    layer.forward(x.clone(), &mut Tape::inference()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conv_layer_input_gradcheck(seed in 0u64..500, c_in in 1usize..3, c_out in 1usize..3) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let layer = Conv2d::new(c_in, c_out, ConvSpec::same(3), &mut rng);
        let x = Tensor::rand_normal([c_in, 5, 5], 0.0, 1.0, &mut rng);
        let gx = ones_input_grad(&layer, &x);
        let eps = 1e-2;
        for probe in [0usize, x.len() / 2, x.len() - 1] {
            let mut p = x.clone();
            p.as_mut_slice()[probe] += eps;
            let mut m = x.clone();
            m.as_mut_slice()[probe] -= eps;
            let numeric = (out_sum(&layer, &p) - out_sum(&layer, &m)) / (2.0 * eps);
            prop_assert!((numeric - gx.as_slice()[probe]).abs() < 3e-2,
                "probe {probe}: {numeric} vs {}", gx.as_slice()[probe]);
        }
    }

    #[test]
    fn sequential_chain_gradcheck(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Sequential::new()
            .push(Conv2d::new(1, 2, ConvSpec::same(3), &mut rng))
            .push(Relu::new())
            .push(MaxPool2d)
            .push(Conv2d::new(2, 1, ConvSpec::same(1), &mut rng));
        let x = Tensor::rand_normal([1, 6, 6], 0.0, 1.0, &mut rng);
        let gx = ones_input_grad(&net, &x);
        let eps = 1e-2;
        for probe in [0usize, 17, 35] {
            let mut p = x.clone();
            p.as_mut_slice()[probe] += eps;
            let mut m = x.clone();
            m.as_mut_slice()[probe] -= eps;
            let numeric = (out_sum(&net, &p) - out_sum(&net, &m)) / (2.0 * eps);
            // max-pool kinks make FD noisy near ties; loose tolerance
            prop_assert!((numeric - gx.as_slice()[probe]).abs() < 0.1,
                "probe {probe}: {numeric} vs {}", gx.as_slice()[probe]);
        }
    }

    #[test]
    fn linear_layer_is_affine(seed in 0u64..500, k in -3.0f32..3.0) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let l = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_normal([4], 0.0, 1.0, &mut rng);
        let y1 = l.forward(x.clone(), &mut Tape::inference());
        let y0 = l.forward(Tensor::zeros([4]), &mut Tape::inference());
        let yk = l.forward(x.map(|v| k * v), &mut Tape::inference());
        // affine: f(kx) - f(0) == k (f(x) - f(0))
        for i in 0..3 {
            let lhs = yk.as_slice()[i] - y0.as_slice()[i];
            let rhs = k * (y1.as_slice()[i] - y0.as_slice()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()));
        }
    }

    #[test]
    fn smooth_l1_properties(d in -50.0f32..50.0) {
        let v = smooth_l1_scalar(d);
        prop_assert!(v >= 0.0);
        prop_assert!((smooth_l1_scalar(-d) - v).abs() < 1e-6, "even function");
        prop_assert!(smooth_l1_grad_scalar(d).abs() <= 1.0, "bounded gradient");
        // convexity probe: midpoint value below average of endpoints
        let e = d + 1.0;
        let mid = smooth_l1_scalar((d + e) / 2.0);
        let avg = (smooth_l1_scalar(d) + smooth_l1_scalar(e)) / 2.0;
        prop_assert!(mid <= avg + 1e-5);
    }

    #[test]
    fn sgd_zero_gradient_is_fixed_point_without_momentum(w0 in -5.0f32..5.0) {
        let mut w = Tensor::from_vec([1], vec![w0]).unwrap();
        let mut grads = [Tensor::zeros([1])];
        let mut opt = Sgd::new(StepDecay::constant(0.1), 0.0);
        for _ in 0..5 {
            // grad stays zero
            opt.step(&mut [&mut w], &mut grads);
        }
        prop_assert_eq!(w.as_slice()[0], w0);
    }

    #[test]
    fn lr_schedule_is_monotonically_nonincreasing(
        initial in 0.001f32..0.1,
        every in 1usize..1000,
    ) {
        let s = StepDecay { initial, factor: 0.1, every };
        let mut prev = f32::INFINITY;
        for step in (0..5000).step_by(97) {
            let lr = s.lr_at(step);
            prop_assert!(lr <= prev + 1e-12);
            // lr may underflow to exactly 0 after extreme decay
            prop_assert!(lr >= 0.0);
            prev = lr;
        }
    }
}

/// With `debug_invariants` enabled, a NaN smuggled into a layer's weights
/// must trip the non-finite detector on the very next forward pass.
#[cfg(feature = "debug_invariants")]
#[test]
fn nan_weight_trips_invariant_checker() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut layer = Conv2d::new(1, 2, ConvSpec::same(3), &mut rng);
    layer.params_mut()[0].as_mut_slice()[0] = f32::NAN;
    let x = Tensor::ones([1, 6, 6]);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        layer.forward(x.clone(), &mut Tape::inference())
    }));
    let err = result.expect_err("NaN weight must be detected");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("non-finite"),
        "unexpected panic message: {msg}"
    );
}

/// The invariant layer must stay silent across clean training epochs —
/// finite data through forward/backward/step never trips a check.
#[test]
fn clean_epochs_do_not_trip_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 2, ConvSpec::same(3), &mut rng))
        .push(Relu::new())
        .push(MaxPool2d)
        .push(rhsd_nn::layers::Flatten::new())
        .push(Linear::new(2 * 3 * 3, 2, &mut rng));
    let mut opt = Sgd::new(StepDecay::constant(0.01), 0.9);
    let mut grads = Grads::zeros_like(net.params());
    let x = Tensor::rand_normal([1, 6, 6], 0.0, 1.0, &mut rng);
    for _ in 0..3 {
        let mut tape = Tape::recording();
        let y = net.forward(x.clone(), &mut tape);
        let grad = y.map(|v| v - 0.5);
        net.backward(&mut tape, grad.clone(), &mut grads);
        opt.step(&mut net.params_mut(), &mut grads);
    }
}

/// A mis-shaped layer input must produce a shape-contract error naming the
/// layer and both the expected and actual shapes.
#[cfg(feature = "debug_invariants")]
#[test]
fn mis_shaped_input_names_layer_and_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let layer = Linear::new(8, 2, &mut rng);
    let bad = Tensor::ones([5]); // layer expects [8]
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        layer.forward(bad.clone(), &mut Tape::inference())
    }));
    let err = result.expect_err("shape mismatch must be detected");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("Linear"), "layer name missing: {msg}");
    assert!(msg.contains("n_in=8"), "expected shape missing: {msg}");
    assert!(msg.contains('5'), "actual shape missing: {msg}");
}
