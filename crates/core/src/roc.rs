//! Operating-curve analysis: accuracy / false-alarm trade-off across
//! score thresholds.
//!
//! The paper evaluates at a single operating point; follow-up work
//! (LithoROC, ASPDAC'19 — cited as [18]) argues for explicit ROC
//! optimisation. This module provides the threshold sweep needed for such
//! analysis: re-scoring a detector's raw detections at every candidate
//! threshold without re-running the network.

use crate::metrics::{evaluate_region, Evaluation};
use crate::model::Detection;

/// One operating point of a detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Score threshold producing this point.
    pub threshold: f32,
    /// Detection accuracy (Def. 1) at this threshold.
    pub accuracy: f64,
    /// Total false alarms (Def. 2) at this threshold.
    pub false_alarms: usize,
}

/// One region's raw (unthresholded) detections paired with its
/// ground-truth hotspot centres.
pub type RegionDetections = (Vec<Detection>, Vec<(f32, f32)>);

/// Sweeps score thresholds over per-region raw detections.
///
/// `regions` pairs each region's detections (scored, *unthresholded*)
/// with its ground-truth hotspot centres. Returns one operating point per
/// threshold, in the given order.
pub fn sweep_thresholds(regions: &[RegionDetections], thresholds: &[f32]) -> Vec<OperatingPoint> {
    thresholds
        .iter()
        .map(|&t| {
            let mut total = Evaluation::default();
            for (dets, gts) in regions {
                let kept: Vec<Detection> = dets.iter().filter(|d| d.score >= t).copied().collect();
                total.merge(&evaluate_region(&kept, gts));
            }
            OperatingPoint {
                threshold: t,
                accuracy: total.accuracy(),
                false_alarms: total.false_alarms,
            }
        })
        .collect()
}

/// The default threshold grid (0.05 … 0.95).
pub fn default_thresholds() -> Vec<f32> {
    (1..20).map(|i| i as f32 * 0.05).collect()
}

/// Picks the sweep point with the highest accuracy, breaking ties by
/// fewer false alarms. Returns `None` for an empty sweep.
pub fn best_operating_point(points: &[OperatingPoint]) -> Option<OperatingPoint> {
    points.iter().copied().max_by(|a, b| {
        a.accuracy
            .total_cmp(&b.accuracy)
            .then(b.false_alarms.cmp(&a.false_alarms))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_data::BBox;

    fn det(cx: f32, score: f32) -> Detection {
        Detection {
            bbox: BBox::new(cx, 50.0, 30.0, 30.0),
            score,
        }
    }

    #[test]
    fn lower_threshold_never_reduces_accuracy() {
        let regions = vec![(
            vec![det(50.0, 0.9), det(150.0, 0.4), det(250.0, 0.2)],
            vec![(50.0, 50.0), (150.0, 50.0)],
        )];
        let pts = sweep_thresholds(&regions, &[0.1, 0.5, 0.95]);
        assert!(pts[0].accuracy >= pts[1].accuracy);
        assert!(pts[1].accuracy >= pts[2].accuracy);
        // and false alarms shrink with threshold
        assert!(pts[0].false_alarms >= pts[1].false_alarms);
        assert!(pts[1].false_alarms >= pts[2].false_alarms);
    }

    #[test]
    fn sweep_matches_manual_evaluation() {
        let regions = vec![(vec![det(50.0, 0.9), det(250.0, 0.6)], vec![(50.0, 50.0)])];
        let pts = sweep_thresholds(&regions, &[0.5, 0.7]);
        // at 0.5: TP + 1 FA; at 0.7: TP only
        assert_eq!(pts[0].accuracy, 1.0);
        assert_eq!(pts[0].false_alarms, 1);
        assert_eq!(pts[1].accuracy, 1.0);
        assert_eq!(pts[1].false_alarms, 0);
    }

    #[test]
    fn best_point_prefers_accuracy_then_fewer_fas() {
        let pts = vec![
            OperatingPoint {
                threshold: 0.3,
                accuracy: 0.9,
                false_alarms: 10,
            },
            OperatingPoint {
                threshold: 0.5,
                accuracy: 0.9,
                false_alarms: 4,
            },
            OperatingPoint {
                threshold: 0.8,
                accuracy: 0.7,
                false_alarms: 0,
            },
        ];
        let best = best_operating_point(&pts).unwrap();
        assert_eq!(best.threshold, 0.5);
        assert!(best_operating_point(&[]).is_none());
    }

    #[test]
    fn default_grid_is_increasing_in_unit_interval() {
        let g = default_thresholds();
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(g[0] > 0.0 && *g.last().unwrap() < 1.0);
    }
}
