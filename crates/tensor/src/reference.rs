//! Plain serial oracles for the lowering tests.
//!
//! The engine runs no code from this module: its convolutions read
//! their maps in place (`ops::direct`) and its only matrix products are
//! `ops::matvec`'s. These loops are the obvious definitions the tests
//! compare those kernels against, bit for bit: the column matrix
//! ([`im2col`]) and its fold ([`col2im`]), a dense i-k-j [`matmul`]
//! and a [`transpose`].

use crate::ops::conv::ConvSpec;
use crate::Tensor;

/// Unfolds `[C, H, W]` into a `[C·K·K, H_out·W_out]` column matrix.
///
/// Column `(oy·W_out + ox)` holds the receptive field of output pixel
/// `(oy, ox)`; out-of-bounds taps read as zero (zero padding).
///
/// # Panics
///
/// Panics if `input` is not rank 3.
pub fn im2col(input: &Tensor, spec: ConvSpec) -> Tensor {
    assert_eq!(
        input.rank(),
        3,
        "im2col expects [C,H,W], got {}",
        input.shape()
    );
    let (c, h, w) = (input.dim(0), input.dim(1), input.dim(2));
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    let iv = input.as_slice();
    let mut out = Vec::with_capacity(c * k * k * oh * ow);
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                        out.push(if inside {
                            iv[(ci * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        });
                    }
                }
            }
        }
    }
    Tensor::from_parts([c * k * k, oh * ow], out)
}

/// Adjoint of [`im2col`]: folds a `[C·K·K, H_out·W_out]` column matrix back
/// into a `[C, H, W]` map, *summing* overlapping contributions in
/// ascending tap order per output pixel.
///
/// # Panics
///
/// Panics if `cols` does not have the shape implied by `(c, h, w)` and `spec`.
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: ConvSpec) -> Tensor {
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    assert_eq!(
        cols.dims(),
        &[c * k * k, oh * ow],
        "col2im input shape {} inconsistent with geometry",
        cols.shape()
    );
    let cv = cols.as_slice();
    let mut out = vec![0.0f32; c * h * w];
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let base = ((ci * k + ky) * k + kx) * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky).wrapping_sub(spec.padding);
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx).wrapping_sub(spec.padding);
                        if iy < h && ix < w {
                            out[(ci * h + iy) * w + ix] += cv[base + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_parts([c, h, w], out)
}

/// `[m, k] × [k, n] → [m, n]`: every output element is one chain over
/// ascending `p` from `+0.0`, one mul and one add per step.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(
        a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
        "matmul shapes {} × {}",
        a.shape(),
        b.shape()
    );
    let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                out[i * n + j] += av[i * k + p] * bv[p * n + j];
            }
        }
    }
    Tensor::from_parts([m, n], out)
}

/// Transposes a rank-2 tensor.
///
/// # Panics
///
/// Panics if the input is not rank 2.
pub fn transpose(a: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "transpose expects rank 2, got {}", a.shape());
    let (m, n) = (a.dim(0), a.dim(1));
    Tensor::from_fn([n, m], |c| a.as_slice()[c[1] * n + c[0]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn im2col_identity_kernel() {
        // K=1, s=1, p=0: columns are just the flattened input.
        let x = Tensor::from_fn([2, 2, 2], |c| (c[0] * 4 + c[1] * 2 + c[2]) as f32);
        let cols = im2col(&x, ConvSpec::new(1, 1, 0));
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let x = Tensor::ones([1, 2, 2]);
        let cols = im2col(&x, ConvSpec::new(3, 1, 1));
        // centre tap of corner output (0,0) is x[0,0]=1; top-left tap is padding=0
        assert_eq!(cols.dims(), &[9, 4]);
        assert_eq!(cols.get(&[0, 0]), 0.0); // ky=0,kx=0 at output (0,0) → (-1,-1)
        assert_eq!(cols.get(&[4, 0]), 1.0); // centre tap
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = ConvSpec::new(3, 2, 1);
        let x = Tensor::rand_normal([2, 5, 5], 0.0, 1.0, &mut rng);
        let cols_shape = [2 * 9, spec.out_size(5) * spec.out_size(5)];
        let y = Tensor::rand_normal(cols_shape, 0.0, 1.0, &mut rng);
        let lhs: f32 = im2col(&x, spec)
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(col2im(&y, 2, 5, 5, spec).as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn matmul_and_transpose_known_values() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        assert_eq!(matmul(&a, &b).as_slice(), &[58., 64., 139., 154.]);
        assert_eq!(transpose(&a).as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(transpose(&a).dims(), &[3, 2]);
    }
}
