//! Property-based tests for the DCT front end and the evaluation harness.

#![expect(clippy::expect_used, reason = "test helpers fail loudly")]

use proptest::prelude::*;
use rhsd_baselines::dct::{dct2, feature_tensor, idct2, zigzag_order};
use rhsd_baselines::{evaluate_layout, LayoutClip};
use rhsd_layout::{Point, Rect};
use rhsd_tensor::Tensor;

fn block_strategy(n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.0f32..1.0, n * n)
        .prop_map(move |v| Tensor::from_vec([n, n], v).expect("vec length matches [n, n]"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dct_roundtrip(b in block_strategy(8)) {
        let back = idct2(&dct2(&b));
        prop_assert!(back.approx_eq(&b, 1e-3));
    }

    #[test]
    fn dct_is_linear(a in block_strategy(4), b in block_strategy(4), k in -3.0f32..3.0) {
        // DCT(a + k·b) == DCT(a) + k·DCT(b)
        let lhs = dct2(&a.zip_with(&b, |x, y| x + k * y));
        let rhs = dct2(&a).zip_with(&dct2(&b), |x, y| x + k * y);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn dct_preserves_energy(b in block_strategy(6)) {
        let c = dct2(&b);
        prop_assert!((c.sq_norm() - b.sq_norm()).abs() < 1e-2 * (1.0 + b.sq_norm()));
    }

    #[test]
    fn zigzag_is_a_bijection(n in 1usize..12) {
        let order = zigzag_order(n);
        prop_assert_eq!(order.len(), n * n);
        let unique: std::collections::BTreeSet<_> = order.iter().collect();
        prop_assert_eq!(unique.len(), n * n);
        prop_assert!(order.iter().all(|&(u, v)| u < n && v < n));
    }

    #[test]
    fn feature_tensor_dc_plane_scales_with_brightness(level in 0.1f32..1.0) {
        let img = Tensor::full([1, 16, 16], level);
        let f = feature_tensor(&img, 4, 3);
        // DC coefficient of a constant block is level·block (orthonormal DCT)
        let expected = level * 4.0;
        for by in 0..4 {
            for bx in 0..4 {
                prop_assert!((f.get(&[0, by, bx]) - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn evaluation_accuracy_bounded(
        n_dets in 0usize..10,
        n_hits in 0usize..5,
    ) {
        let dets: Vec<LayoutClip> = (0..n_dets)
            .map(|i| LayoutClip {
                clip: Rect::centered(1000 * i as i64, 0, 300, 300),
                score: 0.9,
            })
            .collect();
        let hotspots: Vec<Point> = (0..n_hits).map(|i| Point::new(1000 * i as i64, 0)).collect();
        let e = evaluate_layout(&dets, &hotspots);
        prop_assert_eq!(e.ground_truth, n_hits);
        prop_assert_eq!(e.true_positives, n_dets.min(n_hits));
        prop_assert_eq!(e.false_alarms, n_dets.saturating_sub(n_hits));
    }
}
