//! Property-based tests for the tensor substrate.

#![expect(clippy::expect_used, reason = "test helpers fail loudly")]

use proptest::prelude::*;
use rhsd_tensor::ops::conv::{conv2d, ConvSpec};
use rhsd_tensor::ops::pool::{max_pool2d, roi_pool, FeatureRoi};
use rhsd_tensor::ops::reduce::{concat_channels, split_channels};
use rhsd_tensor::ops::softmax::softmax_rows;
use rhsd_tensor::reference::{col2im, im2col};
use rhsd_tensor::Tensor;

fn tensor_strategy(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-10.0f32..10.0, len)
        .prop_map(move |v| Tensor::from_vec(shape.clone(), v).expect("vec length matches shape"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conv_is_linear_in_input(
        x in tensor_strategy(vec![1, 6, 6]),
        y in tensor_strategy(vec![1, 6, 6]),
        w in tensor_strategy(vec![2, 1, 3, 3]),
    ) {
        let spec = ConvSpec::same(3);
        let add = |a: &Tensor, b: &Tensor| a.zip_with(b, |p, q| p + q);
        let joint = conv2d(&add(&x, &y), &w, None, spec);
        let split = add(&conv2d(&x, &w, None, spec), &conv2d(&y, &w, None, spec));
        prop_assert!(joint.approx_eq(&split, 1e-2));
    }

    #[test]
    fn im2col_col2im_adjoint(
        x in tensor_strategy(vec![2, 5, 5]),
        y in tensor_strategy(vec![18, 9]),
    ) {
        let spec = ConvSpec::new(3, 2, 1);
        let lhs: f32 = im2col(&x, spec).as_slice().iter()
            .zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter()
            .zip(col2im(&y, 2, 5, 5, spec).as_slice()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn max_pool_upper_bounds_mean(x in tensor_strategy(vec![1, 8, 8])) {
        let p = max_pool2d(&x);
        prop_assert!(p.output.max() <= x.max() + 1e-6);
        prop_assert!(p.output.mean() >= x.mean() - 1e-6);
    }

    #[test]
    fn roi_pool_output_values_come_from_roi(x in tensor_strategy(vec![1, 8, 8])) {
        let roi = FeatureRoi::new(2, 1, 7, 6);
        let p = roi_pool(&x, &[roi], 3, 3);
        for v in p.output.as_slice() {
            let mut found = false;
            for yy in roi.y0..roi.y1 {
                for xx in roi.x0..roi.x1 {
                    if (x.get(&[0, yy, xx]) - v).abs() < 1e-7 {
                        found = true;
                    }
                }
            }
            prop_assert!(found, "pooled value {v} not present in RoI");
        }
    }

    #[test]
    fn softmax_rows_are_distributions(x in tensor_strategy(vec![4, 5])) {
        let p = softmax_rows(&x);
        prop_assert!(p.min() >= 0.0);
        for i in 0..4 {
            let s: f32 = p.as_slice()[i * 5..(i + 1) * 5].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn concat_split_roundtrip(
        a in tensor_strategy(vec![2, 3, 3]),
        b in tensor_strategy(vec![4, 3, 3]),
    ) {
        let cat = concat_channels(&[&a, &b]);
        let parts = split_channels(&cat, &[2, 4]);
        prop_assert_eq!(&parts[0], &a);
        prop_assert_eq!(&parts[1], &b);
    }

    #[test]
    fn reshape_preserves_sum(x in tensor_strategy(vec![2, 6])) {
        let r = x.clone().reshape(vec![3, 4]).unwrap();
        prop_assert!((r.sum() - x.sum()).abs() < 1e-4);
    }
}
