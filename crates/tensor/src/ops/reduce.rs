//! Channel concatenation and the pinned-order scalar reductions.

use crate::Tensor;

/// Concatenates `[C_i, H, W]` feature maps (or `[C_i, H, W, N]`
/// batches in the lane layout) along the channel axis — the
/// feature-fusion step of the inception modules (Fig. 3). Channels
/// lead, so the parts are laid end to end.
///
/// # Panics
///
/// Panics if `parts` is empty, any part is not rank 3 or 4, or the
/// parts disagree on rank, spatial size or batch.
pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
    assert!(
        !parts.is_empty(),
        "concat_channels needs at least one input"
    );
    let rank = parts[0].rank();
    assert!(
        rank == 3 || rank == 4,
        "concat_channels expects [C,H,W] or [C,H,W,N], got {}",
        parts[0].shape()
    );
    // Everything but the channel axis must agree.
    let mut dims = parts[0].dims().to_vec();
    for p in parts {
        assert_eq!(
            p.dims()[1..],
            dims[1..],
            "spatial mismatch: {} vs {}",
            p.shape(),
            parts[0].shape()
        );
    }
    dims[0] = parts.iter().map(|p| p.dim(0)).sum();
    let data = parts.iter().flat_map(|p| p.as_slice()).copied().collect();
    Tensor::from_parts(dims, data)
}

// --- Pinned-order scalar reductions -------------------------------------
//
// Float addition and max/min are not associative, so the *order* of a
// reduction is part of the result. Lint rule L8 bans ad-hoc
// `.sum::<f32>()` / float `fold`s outside this module; call sites use
// these helpers instead, which fix the order to a plain left-to-right
// sequential fold regardless of how the caller's iterator was produced.

/// Left-to-right sequential sum of `f32` values.
pub fn sum_f32<I: IntoIterator<Item = f32>>(xs: I) -> f32 {
    xs.into_iter().fold(0.0f32, |acc, x| acc + x)
}

/// Left-to-right sequential sum of `f64` values.
pub fn sum_f64<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    xs.into_iter().fold(0.0f64, |acc, x| acc + x)
}

/// Left-to-right maximum of `f32` values, starting from `-inf`.
///
/// Uses `f32::max`, which ignores NaN inputs unless every input is NaN.
pub fn max_f32<I: IntoIterator<Item = f32>>(xs: I) -> f32 {
    xs.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// Left-to-right minimum of `f32` values, starting from `+inf`.
pub fn min_f32<I: IntoIterator<Item = f32>>(xs: I) -> f32 {
    xs.into_iter().fold(f32::INFINITY, f32::min)
}

/// Left-to-right maximum of `f64` values, starting from the given seed.
///
/// The seed is explicit because several call sites fold from `0.0`
/// (max over non-negative quantities) rather than `-inf`.
pub fn max_f64<I: IntoIterator<Item = f64>>(seed: f64, xs: I) -> f64 {
    xs.into_iter().fold(seed, f64::max)
}

/// Splits a gradient of a [`concat_channels`] output back into per-part
/// gradients with the given channel counts.
///
/// # Panics
///
/// Panics if `grad` is not rank 3 or 4, or the channel counts do not sum
/// to its channel count.
pub fn split_channels(grad: &Tensor, channels: &[usize]) -> Vec<Tensor> {
    let rank = grad.rank();
    assert!(
        rank == 3 || rank == 4,
        "split_channels expects [C,H,W] or [C,H,W,N], got {}",
        grad.shape()
    );
    let c = grad.dim(0);
    let total: usize = channels.iter().sum();
    assert_eq!(total, c, "channel counts sum to {total}, tensor has {c}");
    let plane: usize = grad.dims()[1..].iter().product();
    let mut rest = grad.as_slice();
    channels
        .iter()
        .map(|&ci| {
            let (part, tail) = rest.split_at(ci * plane);
            rest = tail;
            let mut dims = grad.dims().to_vec();
            dims[0] = ci;
            Tensor::from_parts(dims, part.to_vec())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_then_split_roundtrip() {
        let a = Tensor::from_fn([2, 2, 2], |c| c[0] as f32);
        let b = Tensor::from_fn([3, 2, 2], |c| 10.0 + c[0] as f32);
        let cat = concat_channels(&[&a, &b]);
        assert_eq!(cat.dims(), &[5, 2, 2]);
        let parts = split_channels(&cat, &[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn batched_concat_and_split_keep_every_lane() {
        let a = Tensor::from_fn([2, 2, 2, 3], |c| (c[3] * 100 + c[0] * 10 + c[2]) as f32);
        let b = Tensor::from_fn([1, 2, 2, 3], |c| -((c[3] * 100 + c[1]) as f32));
        let cat = concat_channels(&[&a, &b]);
        assert_eq!(cat.dims(), &[3, 2, 2, 3]);
        let lane = |t: &Tensor, i: usize| -> Vec<f32> {
            t.as_slice().iter().skip(i).step_by(3).copied().collect()
        };
        for i in 0..3 {
            let single = concat_channels(&[
                &Tensor::from_vec([2, 2, 2], lane(&a, i)).unwrap(),
                &Tensor::from_vec([1, 2, 2], lane(&b, i)).unwrap(),
            ]);
            assert_eq!(lane(&cat, i), single.as_slice());
        }
        let parts = split_channels(&cat, &[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_preserves_total_sum() {
        let a = Tensor::full([1, 2, 2], 2.0);
        let b = Tensor::full([2, 2, 2], -1.0);
        let cat = concat_channels(&[&a, &b]);
        assert!((cat.sum() - (a.sum() + b.sum())).abs() < 1e-6);
    }

    #[test]
    fn scalar_reductions_match_sequential_folds() {
        let xs = [0.1f32, 0.7, -2.0, 3.5];
        assert_eq!(sum_f32(xs), xs.iter().copied().fold(0.0, |a, x| a + x));
        assert_eq!(max_f32(xs), 3.5);
        assert_eq!(min_f32(xs), -2.0);
        let ys = [0.25f64, 1e-9, 4.0];
        assert_eq!(sum_f64(ys), 0.25 + 1e-9 + 4.0);
        assert_eq!(max_f64(0.0, ys), 4.0);
        // Empty inputs hit the seeds.
        assert_eq!(sum_f32(std::iter::empty()), 0.0);
        assert_eq!(max_f32(std::iter::empty()), f32::NEG_INFINITY);
        assert_eq!(min_f32(std::iter::empty()), f32::INFINITY);
        assert_eq!(max_f64(0.0, std::iter::empty()), 0.0);
    }

    #[test]
    fn max_ignores_nan_like_f32_max() {
        assert_eq!(max_f32([f32::NAN, 1.0, f32::NAN]), 1.0);
    }

    #[test]
    #[should_panic(expected = "spatial mismatch")]
    fn concat_rejects_mismatched_spatial() {
        concat_channels(&[&Tensor::zeros([1, 2, 2]), &Tensor::zeros([1, 3, 3])]);
    }

    #[test]
    #[should_panic(expected = "channel counts")]
    fn split_rejects_bad_counts() {
        split_channels(&Tensor::zeros([4, 2, 2]), &[1, 2]);
    }
}
