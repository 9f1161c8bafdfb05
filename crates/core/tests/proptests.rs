//! Property-based tests for the core detection algorithms.

use proptest::prelude::*;
use rhsd_core::anchor::{generate_anchors, inside_region};
use rhsd_core::boxcode::{decode, encode};
use rhsd_core::pruning::{assign_anchors, sample_minibatch, ClipLabel};
use rhsd_core::{conventional_nms, evaluate_region, hotspot_nms, Detection, RhsdConfig, Scored};
use rhsd_data::BBox;

fn bbox_strategy() -> impl Strategy<Value = BBox> {
    (8.0f32..120.0, 8.0f32..120.0, 4.0f32..48.0, 4.0f32..48.0)
        .prop_map(|(cx, cy, w, h)| BBox::new(cx, cy, w, h))
}

fn scored_strategy() -> impl Strategy<Value = Scored> {
    (bbox_strategy(), 0.0f32..1.0).prop_map(|(bbox, score)| Scored { bbox, score })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn boxcode_roundtrip(b in bbox_strategy(), a in bbox_strategy()) {
        let code = encode(&b, &a);
        // only roundtrip when within the decode clamp range
        prop_assume!(code[2].abs() < 4.0 && code[3].abs() < 4.0);
        let back = decode(&code, &a);
        prop_assert!((back.cx - b.cx).abs() < 1e-2);
        prop_assert!((back.cy - b.cy).abs() < 1e-2);
        prop_assert!((back.w - b.w).abs() < 1e-2 * b.w.max(1.0));
        prop_assert!((back.h - b.h).abs() < 1e-2 * b.h.max(1.0));
    }

    #[test]
    fn iou_is_bounded_and_symmetric(a in bbox_strategy(), b in bbox_strategy()) {
        let ab = a.iou(&b);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&ab));
        prop_assert!((ab - b.iou(&a)).abs() < 1e-6);
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn centre_iou_never_exceeds_one(a in bbox_strategy(), b in bbox_strategy()) {
        let c = a.centre_iou(&b);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&c));
    }

    #[test]
    fn hnms_output_is_subset_and_respects_threshold(
        cands in proptest::collection::vec(scored_strategy(), 0..40),
        threshold in 0.1f32..0.9,
    ) {
        let kept = hotspot_nms(&cands, threshold, usize::MAX);
        prop_assert!(kept.len() <= cands.len());
        for k in &kept {
            prop_assert!(cands.iter().any(|c| c.bbox == k.bbox && c.score == k.score));
        }
        for i in 0..kept.len() {
            for j in i + 1..kept.len() {
                prop_assert!(kept[i].bbox.centre_iou(&kept[j].bbox) <= threshold + 1e-6);
            }
        }
        // descending score order
        prop_assert!(kept.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn conventional_nms_keeps_global_maximum(
        cands in proptest::collection::vec(scored_strategy(), 1..40),
        threshold in 0.1f32..0.9,
    ) {
        let kept = conventional_nms(&cands, threshold, usize::MAX);
        let best = cands
            .iter()
            .map(|c| c.score)
            .fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(!kept.is_empty());
        prop_assert!((kept[0].score - best).abs() < 1e-6);
    }

    #[test]
    fn capped_nms_is_a_prefix_of_the_uncapped_output(
        cands in proptest::collection::vec(scored_strategy(), 0..40),
        threshold in 0.1f32..0.9,
    ) {
        let all_h = hotspot_nms(&cands, threshold, usize::MAX);
        let all_c = conventional_nms(&cands, threshold, usize::MAX);
        for limit in 0..=cands.len() + 1 {
            let h = hotspot_nms(&cands, threshold, limit);
            prop_assert_eq!(&h[..], &all_h[..limit.min(all_h.len())]);
            let c = conventional_nms(&cands, threshold, limit);
            prop_assert_eq!(&c[..], &all_c[..limit.min(all_c.len())]);
        }
    }

    #[test]
    fn assignment_is_exhaustive_and_consistent(
        gts in proptest::collection::vec(bbox_strategy(), 0..4),
    ) {
        let cfg = RhsdConfig::demo();
        let anchors = generate_anchors(&cfg);
        let a = assign_anchors(&anchors, &gts, &cfg);
        prop_assert_eq!(a.labels.len(), anchors.len());
        // out-of-bounds anchors are always ignored
        for (anchor, label) in anchors.iter().zip(a.labels.iter()) {
            if !inside_region(anchor, cfg.region_px) {
                prop_assert_eq!(*label, ClipLabel::Ignore);
            }
        }
        // every positive refers to a valid gt index
        for l in &a.labels {
            if let ClipLabel::Positive(g) = l {
                prop_assert!(*g < gts.len());
            }
        }
        // Rule-2 coverage: every gt gets a positive anchor — except when
        // two gts overlap so much that they share an argmax anchor (one
        // label per anchor; standard assignment semantics).
        let disjoint = gts
            .iter()
            .enumerate()
            .all(|(i, a)| gts.iter().skip(i + 1).all(|b| a.iou(b) < 0.05));
        if disjoint {
            let covered: std::collections::BTreeSet<usize> = a
                .labels
                .iter()
                .filter_map(|l| match l {
                    ClipLabel::Positive(g) => Some(*g),
                    _ => None,
                })
                .collect();
            for (gi, _) in gts.iter().enumerate() {
                prop_assert!(covered.contains(&gi), "gt {gi} uncovered");
            }
        }
    }

    #[test]
    fn minibatch_weights_are_balanced(
        gts in proptest::collection::vec(bbox_strategy(), 0..4),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let cfg = RhsdConfig::demo();
        let anchors = generate_anchors(&cfg);
        let a = assign_anchors(&anchors, &gts, &cfg);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let w = sample_minibatch(&a, &cfg, &mut rng);
        prop_assert_eq!(w.len(), anchors.len());
        let pos_w: f32 = w.iter().zip(a.labels.iter())
            .filter(|(_, l)| matches!(l, ClipLabel::Positive(_)))
            .map(|(&x, _)| x).sum();
        let neg_w: f32 = w.iter().zip(a.labels.iter())
            .filter(|(_, l)| matches!(l, ClipLabel::Negative))
            .map(|(&x, _)| x).sum();
        // when positives exist, total class weights are equal
        if pos_w > 0.0 && neg_w > 0.0 {
            prop_assert!((pos_w - neg_w).abs() < 1e-3 * neg_w.max(1.0) + 1e-3,
                "pos {pos_w} vs neg {neg_w}");
        }
        // ignores never sampled
        for (x, l) in w.iter().zip(a.labels.iter()) {
            if *l == ClipLabel::Ignore {
                prop_assert_eq!(*x, 0.0);
            }
        }
    }

    #[test]
    fn evaluation_counts_are_conserved(
        dets in proptest::collection::vec(
            (bbox_strategy(), 0.0f32..1.0).prop_map(|(bbox, score)| Detection { bbox, score }),
            0..20,
        ),
        gts in proptest::collection::vec((8.0f32..120.0, 8.0f32..120.0), 0..8),
    ) {
        let e = evaluate_region(&dets, &gts);
        prop_assert_eq!(e.ground_truth, gts.len());
        prop_assert!(e.true_positives <= gts.len());
        prop_assert_eq!(e.true_positives + e.false_alarms, dets.len());
        prop_assert!((0.0..=1.0).contains(&e.accuracy()));
    }
}
