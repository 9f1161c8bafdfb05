//! Evaluation metrics — Definitions 1 and 2 of the paper.
//!
//! **Accuracy** (Def. 1): the ratio of correctly detected hotspots to
//! ground-truth hotspots, where a hotspot is correctly detected if it lies
//! in the **core region** (middle third) of a clip marked as hotspot.
//! **False alarm** (Def. 2): the number of detected clips that are not
//! correct detections.

use rhsd_data::BBox;

use crate::model::Detection;

/// Match outcome of one region (or an aggregate of many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evaluation {
    /// Ground-truth hotspots seen.
    pub ground_truth: usize,
    /// Hotspots correctly detected (Def. 1 numerator).
    pub true_positives: usize,
    /// Detections whose core contains no (unmatched) hotspot (Def. 2).
    pub false_alarms: usize,
}

impl Evaluation {
    /// Detection accuracy (Def. 1); 1.0 when there are no ground truths.
    pub fn accuracy(&self) -> f64 {
        if self.ground_truth == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.ground_truth as f64
        }
    }

    /// Merges another evaluation into this one (region → case aggregation).
    pub fn merge(&mut self, other: &Evaluation) {
        self.ground_truth += other.ground_truth;
        self.true_positives += other.true_positives;
        self.false_alarms += other.false_alarms;
    }
}

impl std::fmt::Display for Evaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accuracy {:.2}% ({}/{}), false alarms {}",
            100.0 * self.accuracy(),
            self.true_positives,
            self.ground_truth,
            self.false_alarms
        )
    }
}

/// Scores one region's detections against its ground-truth hotspot
/// centres (pixel coordinates), by [`match_greedy`].
pub fn evaluate_region(detections: &[Detection], gt_centers: &[(f32, f32)]) -> Evaluation {
    match_greedy(
        detections,
        gt_centers,
        |d| d.score,
        |d| {
            let core: BBox = d.bbox.core();
            move |&(x, y): &(f32, f32)| core.contains(x, y)
        },
    )
}

/// The Def. 1/Def. 2 matcher behind every detector's scores, in any
/// coordinate space.
///
/// Detections are processed in descending `score` order (stable, by
/// `total_cmp`); each hotspot is matched at most once. A detection
/// whose core contains an unmatched hotspot — `core(d)(h)` is the test
/// for hotspot `h` — takes the first such hotspot and is a true
/// positive; every other detection is a false alarm.
pub fn match_greedy<D, H, C: Fn(&H) -> bool>(
    detections: &[D],
    hotspots: &[H],
    score: impl Fn(&D) -> f32,
    core: impl Fn(&D) -> C,
) -> Evaluation {
    let mut order: Vec<usize> = (0..detections.len()).collect();
    order.sort_by(|&a, &b| score(&detections[b]).total_cmp(&score(&detections[a])));
    let mut matched = vec![false; hotspots.len()];
    let mut tp = 0usize;
    let mut fa = 0usize;
    for &di in &order {
        let contains = core(&detections[di]);
        let hit = hotspots
            .iter()
            .enumerate()
            .find(|(hi, h)| !matched[*hi] && contains(h));
        match hit {
            Some((hi, _)) => {
                matched[hi] = true;
                tp += 1;
            }
            None => fa += 1,
        }
    }
    Evaluation {
        ground_truth: hotspots.len(),
        true_positives: tp,
        false_alarms: fa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(cx: f32, cy: f32, side: f32, score: f32) -> Detection {
        Detection {
            bbox: BBox::new(cx, cy, side, side),
            score,
        }
    }

    #[test]
    fn perfect_detection() {
        let dets = [det(50.0, 50.0, 30.0, 0.9)];
        let e = evaluate_region(&dets, &[(50.0, 50.0)]);
        assert_eq!(e.true_positives, 1);
        assert_eq!(e.false_alarms, 0);
        assert_eq!(e.accuracy(), 1.0);
    }

    #[test]
    fn hotspot_outside_core_is_not_detected() {
        // hotspot inside the clip but outside the middle-third core
        let dets = [det(50.0, 50.0, 30.0, 0.9)];
        let e = evaluate_region(&dets, &[(62.0, 50.0)]);
        assert_eq!(e.true_positives, 0);
        assert_eq!(e.false_alarms, 1);
        assert_eq!(e.accuracy(), 0.0);
    }

    #[test]
    fn each_gt_matched_once() {
        // two detections over the same hotspot: one TP, one FA
        let dets = [det(50.0, 50.0, 30.0, 0.9), det(51.0, 50.0, 30.0, 0.8)];
        let e = evaluate_region(&dets, &[(50.0, 50.0)]);
        assert_eq!(e.true_positives, 1);
        assert_eq!(e.false_alarms, 1);
    }

    #[test]
    fn highest_score_matches_first() {
        // lower-scored detection also covers the hotspot, but the higher
        // one gets the match
        let dets = [det(80.0, 80.0, 30.0, 0.3), det(50.0, 50.0, 30.0, 0.9)];
        let e = evaluate_region(&dets, &[(50.0, 50.0), (80.0, 80.0)]);
        assert_eq!(e.true_positives, 2);
        assert_eq!(e.false_alarms, 0);
    }

    #[test]
    fn missed_hotspots_lower_accuracy() {
        let dets = [det(50.0, 50.0, 30.0, 0.9)];
        let e = evaluate_region(&dets, &[(50.0, 50.0), (200.0, 200.0)]);
        assert_eq!(e.true_positives, 1);
        assert_eq!(e.ground_truth, 2);
        assert!((e.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_gt_no_dets_is_perfect() {
        let e = evaluate_region(&[], &[]);
        assert_eq!(e.accuracy(), 1.0);
        assert_eq!(e.false_alarms, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Evaluation {
            ground_truth: 2,
            true_positives: 1,
            false_alarms: 3,
        };
        a.merge(&Evaluation {
            ground_truth: 3,
            true_positives: 3,
            false_alarms: 1,
        });
        assert_eq!(a.ground_truth, 5);
        assert_eq!(a.true_positives, 4);
        assert_eq!(a.false_alarms, 4);
        assert!((a.accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn display_is_readable() {
        let e = Evaluation {
            ground_truth: 4,
            true_positives: 3,
            false_alarms: 2,
        };
        let s = e.to_string();
        assert!(s.contains("75.00%"));
        assert!(s.contains("false alarms 2"));
    }
}
