//! Transposed (de-)convolution — the decoder-side operation of §3.1.1.
//!
//! A transposed convolution maps each input feature point to multiple
//! outputs; it is the exact adjoint of [`conv2d`](crate::ops::conv::conv2d)
//! with the same [`ConvSpec`]. Weights follow the `[C_in, C_out, K, K]`
//! convention so that a deconv layer can mirror a conv layer symmetrically.
//!
//! Both passes read their maps in place (`ops::direct`). The forward
//! pass folds `Wᵀ · x` straight into the output map, rounding exactly as
//! `col2im(Wᵀ · x)` does. The input gradient is a forward convolution of
//! the gradient map. The weight gradient runs on the GEMM tile with the
//! gradient map's taps as rows, read in place, and the input's channels
//! as lanes (`conv::weight_product`).

use crate::ops::conv::{channel_sums, check_bias, check_weight, map_of, weight_product, ConvSpec};
use crate::ops::direct::{self, Map};
use crate::Tensor;

/// Forward transposed convolution:
/// `[C_in,H,W] → [C_out, (H−1)·s − 2p + K, (W−1)·s − 2p + K]`.
///
/// # Panics
///
/// Panics on rank, kernel or channel mismatches.
pub fn conv_transpose2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
) -> Tensor {
    let x = map_of("conv_transpose2d", input, false);
    let c_out = check_weight("conv_transpose2d", x.c, weight, spec, 0);
    let bias = check_bias(bias, c_out);
    let (h, w) = (x.h, x.w);
    let (oh, ow) = (spec.transpose_out_size(h), spec.transpose_out_size(w));

    // out = col2im(Wᵀ · x), folded in place: `[C_in, C_out, K, K]` is
    // the fold's `[source, output]` weight layout as it stands.
    let mut out = vec![0.0f32; c_out * oh * ow];
    direct::fold_into(&mut out, (c_out, oh, ow), x, weight.as_slice(), spec, bias);
    let out = Tensor::from_parts([c_out, oh, ow], out);
    crate::invariants::check_finite("conv_transpose2d", &out);
    out
}

/// Gradients of [`conv_transpose2d`]: returns `(d_input, d_weight,
/// d_bias)`.
///
/// The input is consumed: the weight gradient reads it first, then the
/// input gradient overwrites its buffer.
///
/// # Panics
///
/// Panics on the forward pass's rank, kernel or channel mismatches, and
/// if `grad_out` disagrees with the forward geometry.
pub fn conv_transpose2d_backward(
    mut input: Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Tensor, Tensor) {
    let x = map_of("conv_transpose2d_backward", &input, false);
    let c_out = check_weight("conv_transpose2d_backward", x.c, weight, spec, 0);
    let (c_in, h, w) = (x.c, x.h, x.w);
    let k = spec.kernel;
    let (oh, ow) = (spec.transpose_out_size(h), spec.transpose_out_size(w));
    assert_eq!(
        grad_out.dims(),
        &[c_out, oh, ow],
        "grad_out shape {} inconsistent with deconv geometry",
        grad_out.shape()
    );

    let gv = grad_out.as_slice();
    let d_bias = Tensor::from_parts([c_out], channel_sums(gv, c_out, oh * ow));

    // d_weight = x · im2col(grad)ᵀ, already [C_in, C_out, K, K]; the
    // taps are read from the gradient map.
    let mut dw = vec![0.0f32; c_in * c_out * k * k];
    weight_product(&mut dw, gv, (c_out, oh, ow), spec, x.v, c_in, None);
    let d_weight = Tensor::from_parts([c_in, c_out, k, k], dw);

    // Deconv forward is col2im ∘ (Wᵀ ·); its adjoint is (W ·) ∘ im2col,
    // a forward convolution of the gradient map whose weight
    // `[C_in, C_out, K, K]` is a conv weight as it stands. It overwrites
    // every element of the input's buffer.
    let grad = Map {
        v: gv,
        n: 1,
        c: c_out,
        h: oh,
        w: ow,
    };
    direct::conv_into(
        input.as_mut_slice(),
        grad,
        weight.as_slice(),
        c_in,
        spec,
        None,
    );

    crate::invariants::check_finite("conv_transpose2d_backward", &input);
    (input, d_weight, d_bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::conv2d;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stride2_upsamples() {
        let x = Tensor::ones([1, 2, 2]);
        let w = Tensor::ones([1, 1, 2, 2]);
        let y = conv_transpose2d(&x, &w, None, ConvSpec::new(2, 2, 0));
        assert_eq!(y.dims(), &[1, 4, 4]);
        // non-overlapping 2×2 blocks of ones
        assert_eq!(y.as_slice(), &[1.0; 16]);
    }

    #[test]
    fn single_pixel_stamps_kernel() {
        let x = Tensor::from_vec([1, 1, 1], vec![2.0]).unwrap();
        let w = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = conv_transpose2d(&x, &w, None, ConvSpec::new(3, 1, 0));
        assert_eq!(y.dims(), &[1, 3, 3]);
        let expect: Vec<f32> = (1..=9).map(|v| 2.0 * v as f32).collect();
        assert_eq!(y.as_slice(), expect.as_slice());
    }

    #[test]
    fn deconv_is_adjoint_of_conv() {
        // <conv(x; W), y> == <x, deconv(y; W~)> where W~ swaps in/out axes.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let spec = ConvSpec::new(3, 2, 1);
        let x = Tensor::rand_normal([2, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([3, 2, 3, 3], 0.0, 1.0, &mut rng); // conv convention
        let y_shape = [3, spec.out_size(5), spec.out_size(5)];
        let y = Tensor::rand_normal(y_shape, 0.0, 1.0, &mut rng);

        // re-pack w from [C_out,C_in,K,K] to [C_out(C_in of deconv), C_out', K, K]
        // For the adjoint identity, deconv weight is the same array viewed as
        // [C_in=3 (deconv in = conv out), C_out=2, K, K].
        let w_deconv = Tensor::from_fn([3, 2, 3, 3], |c| w.get(&[c[0], c[1], c[2], c[3]]));

        let lhs: f32 = conv2d(&x, &w, None, spec)
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let dec = conv_transpose2d(&y, &w_deconv, None, spec);
        assert_eq!(dec.dims(), x.dims());
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(dec.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn deconv_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let spec = ConvSpec::new(3, 2, 1);
        let x = Tensor::rand_normal([2, 3, 3], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([2, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal([3], 0.0, 0.5, &mut rng);
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv_transpose2d(x, w, Some(b), spec).sum();
        let oh = spec.transpose_out_size(3);
        let g_out = Tensor::ones([3, oh, oh]);
        let (dx, dw, db) = conv_transpose2d_backward(x.clone(), &w, &g_out, spec);

        let eps = 1e-2;
        for (tensor, grad, name) in [(&x, &dx, "x"), (&w, &dw, "w"), (&b, &db, "b")] {
            for probe in 0..tensor.len().min(10) {
                let mut plus = tensor.clone();
                plus.as_mut_slice()[probe] += eps;
                let mut minus = tensor.clone();
                minus.as_mut_slice()[probe] -= eps;
                let (fp, fm) = match name {
                    "x" => (loss(&plus, &w, &b), loss(&minus, &w, &b)),
                    "w" => (loss(&x, &plus, &b), loss(&x, &minus, &b)),
                    _ => (loss(&x, &w, &plus), loss(&x, &w, &minus)),
                };
                let numeric = (fp - fm) / (2.0 * eps);
                let analytic = grad.as_slice()[probe];
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{name}[{probe}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv_transpose2d_backward channel mismatch")]
    fn deconv_backward_rejects_weight_channel_mismatch() {
        // The weight's C_in (3) disagrees with the input's 2 channels.
        conv_transpose2d_backward(
            Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([3, 1, 3, 3]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(3),
        );
    }

    #[test]
    #[should_panic(expected = "conv_transpose2d_backward kernel must be square")]
    fn deconv_backward_rejects_non_square_kernel() {
        conv_transpose2d_backward(
            Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([2, 1, 3, 1]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(3),
        );
    }

    #[test]
    #[should_panic(expected = "conv_transpose2d_backward input must be [C,H,W]")]
    fn deconv_backward_rejects_input_rank() {
        conv_transpose2d_backward(
            Tensor::zeros([16]),
            &Tensor::zeros([2, 1, 3, 3]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(3),
        );
    }

    #[test]
    fn encoder_decoder_size_symmetry() {
        // decoder with the same spec restores the encoder's input size —
        // the symmetry the paper's §3.1.1 relies on.
        // stride-1 "same" deconv preserves size for any n
        for n in [8usize, 16, 28, 56] {
            let spec = ConvSpec::same(3);
            assert_eq!(spec.out_size(n), n);
            assert_eq!(spec.transpose_out_size(n), n);
        }
        // kernel-2/stride-2 pairs invert exactly for even n
        for n in [8usize, 16, 28, 56] {
            let spec = ConvSpec::new(2, 2, 0);
            assert_eq!(spec.transpose_out_size(spec.out_size(n)), n);
        }
        // kernel-3/stride-2/pad-1 pairs invert exactly for odd n
        for n in [7usize, 15, 29, 57] {
            let spec = ConvSpec::new(3, 2, 1);
            assert_eq!(spec.transpose_out_size(spec.out_size(n)), n);
        }
    }
}
