//! Hotspot non-maximum suppression — Algorithm 1 of the paper.
//!
//! Conventional NMS scores overlap of whole clips; two clips covering
//! *different* hotspot cores can still overlap heavily and the lower-scored
//! one is wrongly dropped. h-NMS instead compares `Centre_IoU` — the IoU of
//! the clips' core regions — exploiting the structural relation between
//! cores and clips (Fig. 5).

use rhsd_data::BBox;

/// A scored detection candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The clip.
    pub bbox: BBox,
    /// Classification (hotspot) score in `[0, 1]`.
    pub score: f32,
}

/// Hotspot non-maximum suppression (Algorithm 1): clips are sorted by
/// descending score; a clip is removed when its **core-region IoU** with a
/// higher-scored survivor exceeds `threshold` (paper: 0.7).
///
/// Stops once `limit` clips are kept (`usize::MAX` keeps every
/// survivor): the result is always the first `limit` clips of the
/// uncapped one, because a clip's fate depends only on the survivors
/// scored above it.
pub fn hotspot_nms(candidates: &[Scored], threshold: f32, limit: usize) -> Vec<Scored> {
    nms_by(candidates, threshold, limit, |a, b| a.centre_iou(b))
}

/// Conventional NMS over whole-clip IoU, for baselines and ablation;
/// `limit` as in [`hotspot_nms`].
pub fn conventional_nms(candidates: &[Scored], threshold: f32, limit: usize) -> Vec<Scored> {
    nms_by(candidates, threshold, limit, |a, b| a.iou(b))
}

/// Greedy NMS under `overlap`, stopping at `limit` survivors. Counts
/// the candidates (`hnms.candidates`) and those examined before the
/// budget filled (`hnms.examined`); the difference is what the cap
/// saved.
fn nms_by(
    candidates: &[Scored],
    threshold: f32,
    limit: usize,
    overlap: impl Fn(&BBox, &BBox) -> f32,
) -> Vec<Scored> {
    // line 1: sorted_ws ← sorted clip set (descending score)
    let mut sorted: Vec<Scored> = candidates.to_vec();
    sorted.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut kept: Vec<Scored> = Vec::new();
    let mut examined = 0usize;
    for c in sorted {
        if kept.len() >= limit {
            break;
        }
        examined += 1;
        if kept.iter().all(|k| overlap(&k.bbox, &c.bbox) <= threshold) {
            kept.push(c);
        }
    }
    rhsd_obs::counter("hnms.candidates", candidates.len() as u64);
    rhsd_obs::counter("hnms.examined", examined as u64);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(cx: f32, cy: f32, side: f32, score: f32) -> Scored {
        Scored {
            bbox: BBox::new(cx, cy, side, side),
            score,
        }
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(hotspot_nms(&[], 0.7, usize::MAX).is_empty());
        assert!(conventional_nms(&[], 0.7, usize::MAX).is_empty());
    }

    #[test]
    fn single_candidate_survives() {
        let c = [s(10.0, 10.0, 8.0, 0.9)];
        assert_eq!(hotspot_nms(&c, 0.7, usize::MAX).len(), 1);
    }

    #[test]
    fn identical_clips_keep_highest_score() {
        let c = [s(10.0, 10.0, 8.0, 0.5), s(10.0, 10.0, 8.0, 0.9)];
        let kept = hotspot_nms(&c, 0.7, usize::MAX);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn distant_clips_all_survive() {
        let c = [
            s(10.0, 10.0, 8.0, 0.9),
            s(100.0, 100.0, 8.0, 0.8),
            s(200.0, 10.0, 8.0, 0.5),
        ];
        assert_eq!(hotspot_nms(&c, 0.7, usize::MAX).len(), 3);
    }

    #[test]
    fn output_is_sorted_by_score() {
        let c = [
            s(200.0, 10.0, 8.0, 0.5),
            s(10.0, 10.0, 8.0, 0.9),
            s(100.0, 100.0, 8.0, 0.8),
        ];
        let kept = hotspot_nms(&c, 0.7, usize::MAX);
        assert!(kept.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn figure5_case_hnms_keeps_distinct_core_clip() {
        // Three clips as in Fig. 5: scores 0.9, 0.8, 0.5. The 0.5 clip
        // overlaps the others heavily as a *clip* but its core is disjoint.
        // Conventional NMS drops it; h-NMS keeps it.
        let a = s(30.0, 30.0, 30.0, 0.9);
        let b = s(34.0, 30.0, 30.0, 0.8); // nearly same core as a
        let c = s(44.0, 30.0, 30.0, 0.5); // clip overlaps a/b, core disjoint
                                          // sanity on overlap structure
        assert!(a.bbox.iou(&c.bbox) > 0.3, "clips must overlap");
        assert_eq!(a.bbox.centre_iou(&c.bbox), 0.0, "cores must be disjoint");

        let conv = conventional_nms(&[a, b, c], 0.3, usize::MAX);
        assert_eq!(conv.len(), 1, "conventional NMS drops the 0.5 clip");
        let h = hotspot_nms(&[a, b, c], 0.3, usize::MAX);
        assert_eq!(h.len(), 2, "h-NMS keeps the distinct-core clip");
        assert!(h.iter().any(|k| k.score == 0.5));
    }

    #[test]
    fn hnms_never_keeps_fewer_than_conventional() {
        // centre_iou <= iou is not generally true, but for equal-size
        // clips the core overlap shrinks; verify on a random-ish cloud.
        let cloud: Vec<Scored> = (0..30)
            .map(|i| {
                let x = (i * 7 % 50) as f32;
                let y = (i * 13 % 50) as f32;
                s(x, y, 12.0, 1.0 - i as f32 * 0.01)
            })
            .collect();
        let h = hotspot_nms(&cloud, 0.5, usize::MAX).len();
        let c = conventional_nms(&cloud, 0.5, usize::MAX).len();
        assert!(h >= c, "h-NMS {h} vs conventional {c}");
    }

    #[test]
    fn kept_pairs_respect_threshold() {
        let cloud: Vec<Scored> = (0..40)
            .map(|i| {
                s(
                    (i % 8) as f32 * 4.0,
                    (i / 8) as f32 * 4.0,
                    10.0,
                    0.99 - i as f32 * 0.01,
                )
            })
            .collect();
        let kept = hotspot_nms(&cloud, 0.4, usize::MAX);
        for i in 0..kept.len() {
            for j in i + 1..kept.len() {
                assert!(
                    kept[i].bbox.centre_iou(&kept[j].bbox) <= 0.4,
                    "kept pair violates threshold"
                );
            }
        }
    }

    #[test]
    fn limit_keeps_the_leading_survivors() {
        let cloud: Vec<Scored> = (0..40)
            .map(|i| {
                s(
                    (i % 8) as f32 * 4.0,
                    (i / 8) as f32 * 4.0,
                    10.0,
                    0.99 - i as f32 * 0.01,
                )
            })
            .collect();
        let all = hotspot_nms(&cloud, 0.4, usize::MAX);
        assert!(all.len() > 3);
        assert_eq!(hotspot_nms(&cloud, 0.4, 3), all[..3]);
        assert!(hotspot_nms(&cloud, 0.4, 0).is_empty());
        assert_eq!(hotspot_nms(&cloud, 0.4, all.len() + 5), all);
    }

    #[test]
    fn nan_scores_do_not_panic() {
        let c = [s(0.0, 0.0, 4.0, f32::NAN), s(10.0, 0.0, 4.0, 0.5)];
        let kept = hotspot_nms(&c, 0.7, usize::MAX);
        assert!(!kept.is_empty());
    }
}
