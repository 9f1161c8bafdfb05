//! Clip pruning and training-target assignment — §3.2.1 of the paper.
//!
//! The pruning rules:
//! 1. a clip with IoU > 0.7 against a ground-truth clip is a positive sample;
//! 2. the clip with the highest IoU for each ground truth is a positive sample;
//! 3. a clip with IoU < 0.3 against every ground truth is a negative sample;
//! 4. the rest do not contribute to training.

use rand::seq::SliceRandom;
use rand::Rng;
use rhsd_data::BBox;

use crate::anchor::inside_region;
use crate::boxcode::encode;
use crate::config::RhsdConfig;

/// Training label of one clip after pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipLabel {
    /// Hotspot sample, matched to the ground-truth clip at this index.
    Positive(usize),
    /// Non-hotspot sample.
    Negative,
    /// Pruned: contributes nothing to training.
    Ignore,
}

/// The per-anchor assignment for one region.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Label of each anchor.
    pub labels: Vec<ClipLabel>,
    /// Regression target (Eq. 3 code) for each anchor; meaningful only for
    /// positives.
    pub reg_targets: Vec<[f32; 4]>,
}

impl Assignment {
    /// Number of positive anchors.
    pub fn positives(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| matches!(l, ClipLabel::Positive(_)))
            .count()
    }

    /// Number of negative anchors.
    pub fn negatives(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| matches!(l, ClipLabel::Negative))
            .count()
    }
}

/// Applies the pruning rules to assign a label to every anchor.
///
/// Anchors crossing the region boundary are ignored (never trained), the
/// standard region-proposal practice. When `gt_clips` is empty every
/// in-bounds anchor is negative.
pub fn assign_anchors(anchors: &[BBox], gt_clips: &[BBox], config: &RhsdConfig) -> Assignment {
    let n = anchors.len();
    let mut labels = vec![ClipLabel::Ignore; n];
    let mut reg_targets = vec![[0.0f32; 4]; n];

    // Max IoU per anchor and the argmax gt.
    let mut best_gt = vec![usize::MAX; n];
    let mut best_iou = vec![0.0f32; n];
    for (ai, anchor) in anchors.iter().enumerate() {
        if !inside_region(anchor, config.region_px) {
            continue;
        }
        for (gi, gt) in gt_clips.iter().enumerate() {
            let iou = anchor.iou(gt);
            if iou > best_iou[ai] {
                best_iou[ai] = iou;
                best_gt[ai] = gi;
            }
        }
        // Rules 1 and 3.
        if !gt_clips.is_empty() && best_iou[ai] > config.iou_pos {
            labels[ai] = ClipLabel::Positive(best_gt[ai]);
        } else if best_iou[ai] < config.iou_neg {
            labels[ai] = ClipLabel::Negative;
        }
    }

    // Rule 2: per-GT argmax anchor forced positive (guarantees every
    // ground truth has at least one training sample).
    for (gi, gt) in gt_clips.iter().enumerate() {
        let mut arg = usize::MAX;
        let mut best = -1.0f32;
        for (ai, anchor) in anchors.iter().enumerate() {
            if !inside_region(anchor, config.region_px) {
                continue;
            }
            let iou = anchor.iou(gt);
            if iou > best {
                best = iou;
                arg = ai;
            }
        }
        if arg != usize::MAX && best > 0.0 {
            labels[arg] = ClipLabel::Positive(gi);
            best_gt[arg] = gi;
        }
    }

    // Regression targets for positives.
    for ai in 0..n {
        if let ClipLabel::Positive(gi) = labels[ai] {
            reg_targets[ai] = encode(&gt_clips[gi], &anchors[ai]);
        }
    }

    Assignment {
        labels,
        reg_targets,
    }
}

/// Samples a balanced training minibatch from an assignment: up to
/// `config.anchor_batch` anchors, at most half positive, the rest
/// negative. Returns per-anchor weights (0.0 = unused).
///
/// Hotspot anchors are far rarer than non-hotspot ones (often only the
/// rule-2 argmax anchor per ground truth), so sampled positives are
/// up-weighted until the total positive weight matches the total negative
/// weight — the class-balancing counterpart of the paper's data-unbalance
/// handling, without which the classifier's optimum is "never hotspot".
pub fn sample_minibatch(
    assignment: &Assignment,
    config: &RhsdConfig,
    rng: &mut impl Rng,
) -> Vec<f32> {
    let n = assignment.labels.len();
    let mut pos: Vec<usize> = Vec::new();
    let mut neg: Vec<usize> = Vec::new();
    for (i, l) in assignment.labels.iter().enumerate() {
        match l {
            ClipLabel::Positive(_) => pos.push(i),
            ClipLabel::Negative => neg.push(i),
            ClipLabel::Ignore => {}
        }
    }
    pos.shuffle(rng);
    neg.shuffle(rng);
    let n_pos = pos.len().min(config.anchor_batch / 2);
    let n_neg = neg.len().min(config.anchor_batch - n_pos);
    let mut weights = vec![0.0f32; n];
    let pos_weight = if n_pos > 0 {
        n_neg as f32 / n_pos as f32
    } else {
        0.0
    };
    for &i in pos.iter().take(n_pos) {
        weights[i] = pos_weight.max(1.0);
    }
    for &i in neg.iter().take(n_neg) {
        weights[i] = 1.0;
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::generate_anchors;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (RhsdConfig, Vec<BBox>) {
        let cfg = RhsdConfig::demo();
        let anchors = generate_anchors(&cfg);
        (cfg, anchors)
    }

    #[test]
    fn no_gt_means_all_in_bounds_anchors_negative() {
        let (cfg, anchors) = setup();
        let a = assign_anchors(&anchors, &[], &cfg);
        assert_eq!(a.positives(), 0);
        assert!(a.negatives() > 0);
        for (anchor, label) in anchors.iter().zip(a.labels.iter()) {
            if inside_region(anchor, cfg.region_px) {
                assert_eq!(*label, ClipLabel::Negative);
            } else {
                assert_eq!(*label, ClipLabel::Ignore);
            }
        }
    }

    #[test]
    fn gt_on_anchor_produces_positive() {
        let (cfg, anchors) = setup();
        // gt exactly equal to an in-bounds square anchor
        let gt = anchors
            .iter()
            .find(|a| {
                inside_region(a, cfg.region_px)
                    && (a.w - cfg.clip_px as f32).abs() < 1e-3
                    && a.w == a.h
            })
            .copied()
            .unwrap();
        let a = assign_anchors(&anchors, &[gt], &cfg);
        assert!(a.positives() >= 1);
        // the exactly-matching anchor has zero regression target
        let exact = a
            .labels
            .iter()
            .zip(anchors.iter())
            .position(|(l, an)| matches!(l, ClipLabel::Positive(_)) && an.iou(&gt) > 0.999)
            .expect("exact anchor labelled positive");
        assert_eq!(a.reg_targets[exact], [0.0; 4]);
    }

    #[test]
    fn argmax_rule_guarantees_positive_per_gt() {
        let (cfg, anchors) = setup();
        // awkward gt between anchor centres and off-scale: no anchor exceeds 0.7
        let gt = BBox::new(53.0, 41.0, 20.0, 26.0);
        let a = assign_anchors(&anchors, &[gt], &cfg);
        assert!(
            a.positives() >= 1,
            "rule 2 must force at least one positive"
        );
    }

    #[test]
    fn medium_iou_anchors_are_ignored() {
        let (cfg, anchors) = setup();
        let gt = BBox::new(64.0, 64.0, 32.0, 32.0);
        let a = assign_anchors(&anchors, &[gt], &cfg);
        let ignored_medium = anchors
            .iter()
            .zip(a.labels.iter())
            .filter(|(an, l)| {
                let iou = an.iou(&gt);
                inside_region(an, cfg.region_px)
                    && iou >= cfg.iou_neg
                    && iou <= cfg.iou_pos
                    && **l == ClipLabel::Ignore
            })
            .count();
        assert!(
            ignored_medium > 0,
            "medium-overlap clips must not contribute (rule 4)"
        );
    }

    #[test]
    fn boundary_anchors_never_train() {
        let (cfg, anchors) = setup();
        let gt = BBox::new(8.0, 8.0, 32.0, 32.0); // near the corner
        let a = assign_anchors(&anchors, &[gt], &cfg);
        for (anchor, label) in anchors.iter().zip(a.labels.iter()) {
            if !inside_region(anchor, cfg.region_px) {
                assert_eq!(*label, ClipLabel::Ignore);
            }
        }
    }

    #[test]
    fn minibatch_is_balanced_and_bounded() {
        let (cfg, anchors) = setup();
        let gts = vec![
            BBox::new(40.0, 40.0, 32.0, 32.0),
            BBox::new(88.0, 88.0, 32.0, 32.0),
        ];
        let a = assign_anchors(&anchors, &gts, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = sample_minibatch(&a, &cfg, &mut rng);
        let sampled: usize = w.iter().filter(|&&x| x > 0.0).count();
        assert!(sampled <= cfg.anchor_batch);
        let sampled_pos = w
            .iter()
            .zip(a.labels.iter())
            .filter(|(&x, l)| x > 0.0 && matches!(l, ClipLabel::Positive(_)))
            .count();
        assert!(sampled_pos <= cfg.anchor_batch / 2);
        // ignored anchors never sampled
        for (x, l) in w.iter().zip(a.labels.iter()) {
            if *l == ClipLabel::Ignore {
                assert_eq!(*x, 0.0);
            }
        }
    }

    #[test]
    fn multiple_gts_get_distinct_matches() {
        let (cfg, anchors) = setup();
        let gts = vec![
            BBox::new(40.0, 40.0, 32.0, 32.0),
            BBox::new(90.0, 90.0, 32.0, 32.0),
        ];
        let a = assign_anchors(&anchors, &gts, &cfg);
        let matched: std::collections::BTreeSet<usize> = a
            .labels
            .iter()
            .filter_map(|l| match l {
                ClipLabel::Positive(g) => Some(*g),
                _ => None,
            })
            .collect();
        assert_eq!(matched.len(), 2, "each gt matched by some anchor");
    }
}
