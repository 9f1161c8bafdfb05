//! Shared evaluation harness: every detector (region-based or clip-based)
//! reduces to a set of scored clips in layout coordinates, scored with the
//! paper's Def. 1/2 metrics.

use rhsd_core::metrics::match_greedy;
use rhsd_core::Evaluation;
use rhsd_layout::{Point, Rect};
use rhsd_tensor::ops::reduce;

/// A scored hotspot clip in layout coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutClip {
    /// Clip extent in nm.
    pub clip: Rect,
    /// Hotspot confidence.
    pub score: f32,
}

/// Scores layout-space detections against ground-truth hotspot locations
/// (nm), by the same Def. 1/Def. 2 matcher as [`rhsd_core::evaluate_region`]:
/// [`rhsd_core::metrics::match_greedy`] over each clip's **core**.
pub fn evaluate_layout(detections: &[LayoutClip], hotspots: &[Point]) -> Evaluation {
    match_greedy(
        detections,
        hotspots,
        |d| d.score,
        |d| {
            let core = d.clip.core();
            move |h: &Point| core.contains(*h)
        },
    )
}

/// One row of a Table-1-style report.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case name ("Case2", …).
    pub case: String,
    /// Detection accuracy in percent.
    pub accuracy_pct: f64,
    /// False alarm count.
    pub false_alarms: usize,
    /// Wall-clock detection time in seconds.
    pub seconds: f64,
}

impl CaseResult {
    /// Builds a row from an evaluation and a timing.
    pub fn new(case: impl Into<String>, eval: &Evaluation, seconds: f64) -> Self {
        CaseResult {
            case: case.into(),
            accuracy_pct: 100.0 * eval.accuracy(),
            false_alarms: eval.false_alarms,
            seconds,
        }
    }

    /// Mirrors this row into the run ledger as an `eval` event, tagged
    /// with the detector that produced it (a no-op unless a global
    /// ledger is open) — baseline and region-detector rows land in the
    /// same stream.
    pub fn emit_ledger(&self, detector: &str) {
        rhsd_obs::ledger::emit(&rhsd_obs::ledger::Event::Eval {
            detector: detector.to_owned(),
            case: self.case.clone(),
            accuracy_pct: self.accuracy_pct,
            false_alarms: self.false_alarms as u64,
            seconds: self.seconds,
        });
    }
}

/// Averages a slice of case results into an "Average" row.
pub fn average_row(rows: &[CaseResult]) -> CaseResult {
    let n = rows.len().max(1) as f64;
    CaseResult {
        case: "Average".to_owned(),
        accuracy_pct: reduce::sum_f64(rows.iter().map(|r| r.accuracy_pct)) / n,
        false_alarms: (rows.iter().map(|r| r.false_alarms).sum::<usize>() as f64 / n).round()
            as usize,
        seconds: reduce::sum_f64(rows.iter().map(|r| r.seconds)) / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clip(cx: i64, cy: i64, side: i64, score: f32) -> LayoutClip {
        LayoutClip {
            clip: Rect::centered(cx, cy, side, side),
            score,
        }
    }

    #[test]
    fn core_containment_drives_matching() {
        let dets = [clip(100, 100, 300, 0.9)];
        // hotspot at the core centre → TP
        let e = evaluate_layout(&dets, &[Point::new(100, 100)]);
        assert_eq!((e.true_positives, e.false_alarms), (1, 0));
        // hotspot inside the clip but outside the core → FA + miss
        let e = evaluate_layout(&dets, &[Point::new(230, 100)]);
        assert_eq!((e.true_positives, e.false_alarms), (0, 1));
        assert_eq!(e.accuracy(), 0.0);
    }

    #[test]
    fn duplicate_detections_count_as_false_alarms() {
        let dets = [clip(100, 100, 300, 0.9), clip(105, 100, 300, 0.8)];
        let e = evaluate_layout(&dets, &[Point::new(100, 100)]);
        assert_eq!((e.true_positives, e.false_alarms), (1, 1));
    }

    #[test]
    fn average_row_averages() {
        let rows = vec![
            CaseResult {
                case: "Case2".into(),
                accuracy_pct: 90.0,
                false_alarms: 10,
                seconds: 1.0,
            },
            CaseResult {
                case: "Case3".into(),
                accuracy_pct: 70.0,
                false_alarms: 30,
                seconds: 3.0,
            },
        ];
        let avg = average_row(&rows);
        assert_eq!(avg.accuracy_pct, 80.0);
        assert_eq!(avg.false_alarms, 20);
        assert_eq!(avg.seconds, 2.0);
    }
}
