//! Random metal-layer pattern synthesis.
//!
//! Generates rectilinear wiring in the style of a routed EUV metal layer:
//! horizontal wire segments on a regular track grid with tip-to-tip gaps,
//! vertical jog connectors, and occasional deliberately *stressed*
//! geometry (tight gaps, narrow necks) whose printability under process
//! variation is decided later by the lithography oracle.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::geom::Rect;
use crate::layout::{Layout, METAL1};
use crate::synth::rules::DesignRules;

/// Statistical profile of a generated pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternProfile {
    /// Probability that a track position starts a wire segment (controls
    /// overall metal density).
    pub fill: f64,
    /// Probability that a tip-to-tip gap is drawn from the *tight* range.
    pub stress_rate: f64,
    /// Probability that a wire segment carries a narrow neck.
    pub neck_rate: f64,
    /// Probability of a vertical jog between adjacent occupied tracks.
    pub jog_rate: f64,
}

impl PatternProfile {
    /// A moderate-density, moderately-stressed profile.
    pub fn moderate() -> Self {
        PatternProfile {
            fill: 0.75,
            stress_rate: 0.08,
            neck_rate: 0.05,
            jog_rate: 0.15,
        }
    }
}

/// Summary of the stress sites a generator injected (for diagnostics; the
/// authoritative hotspot labels come from lithography simulation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StressReport {
    /// Centres of tight tip-to-tip gaps.
    pub tight_gaps: Vec<Rect>,
    /// Extents of narrow necks.
    pub necks: Vec<Rect>,
}

/// Generates a synthetic metal-1 layout over `extent`.
///
/// Deterministic for a given `(seed, extent, rules, profile)`.
///
/// # Panics
///
/// Panics if `rules` are invalid (see [`DesignRules::is_valid`]).
pub fn generate(
    extent: Rect,
    rules: &DesignRules,
    profile: &PatternProfile,
    seed: u64,
) -> (Layout, StressReport) {
    assert!(rules.is_valid(), "invalid design rules: {rules:?}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut layout = Layout::new(extent);
    let mut report = StressReport::default();

    let w = rules.wire_width;
    let n_tracks = (extent.height() / rules.pitch) as usize;
    // Remember segment x-ranges per track for jog placement.
    let mut track_segments: Vec<Vec<(i64, i64)>> = vec![Vec::new(); n_tracks];

    for (t, segments) in track_segments.iter_mut().enumerate() {
        let y = extent.y0 + rules.pitch * t as i64 + (rules.pitch - w) / 2;
        let mut x = extent.x0 + rng.gen_range(0..rules.pitch);
        while x < extent.x1 - rules.min_segment {
            if rng.gen_bool(profile.fill) {
                let len = rng.gen_range(rules.min_segment..=rules.max_segment);
                let x_end = (x + len).min(extent.x1);
                if x_end - x >= rules.min_segment {
                    draw_segment(
                        &mut layout,
                        &mut report,
                        &mut rng,
                        rules,
                        profile,
                        x,
                        x_end,
                        y,
                        w,
                    );
                    segments.push((x, x_end));
                }
                // tip-to-tip gap to the next segment
                let gap = if rng.gen_bool(profile.stress_rate) {
                    let g = rng.gen_range(rules.tight_gap.0..=rules.tight_gap.1);
                    report
                        .tight_gaps
                        .push(Rect::new(x_end, y, x_end + g, y + w));
                    g
                } else {
                    rng.gen_range(rules.safe_gap..rules.safe_gap * 3)
                };
                x = x_end + gap;
            } else {
                x += rng.gen_range(rules.min_segment..=rules.max_segment);
            }
        }
    }

    // Vertical jogs between vertically adjacent segments.
    for t in 0..n_tracks.saturating_sub(1) {
        let y_lo = extent.y0 + rules.pitch * t as i64 + (rules.pitch - w) / 2;
        let y_hi = y_lo + rules.pitch;
        for &(x0, x1) in &track_segments[t] {
            if !rng.gen_bool(profile.jog_rate) {
                continue;
            }
            // connect only where the upper track also has metal
            let candidates: Vec<(i64, i64)> = track_segments[t + 1]
                .iter()
                .filter_map(|&(u0, u1)| {
                    let lo = x0.max(u0);
                    let hi = x1.min(u1);
                    if hi - lo >= w {
                        Some((lo, hi))
                    } else {
                        None
                    }
                })
                .collect();
            if let Some(&(lo, hi)) = candidates.first() {
                let jx = rng.gen_range(lo..=hi - w);
                layout.add(METAL1, Rect::new(jx, y_lo, jx + w, y_hi + w));
            }
        }
    }

    (layout, report)
}

/// Draws one horizontal wire segment, optionally with a narrow neck.
#[allow(clippy::too_many_arguments)]
fn draw_segment(
    layout: &mut Layout,
    report: &mut StressReport,
    rng: &mut impl Rng,
    rules: &DesignRules,
    profile: &PatternProfile,
    x0: i64,
    x1: i64,
    y: i64,
    w: i64,
) {
    let neck_possible = x1 - x0 >= 3 * rules.min_segment / 2;
    if neck_possible && rng.gen_bool(profile.neck_rate) {
        // split the wire into full – neck – full sections
        let neck_len = rng.gen_range(30..=80).min((x1 - x0) / 4).max(10);
        let neck_w = rng.gen_range(rules.narrow_width.0..=rules.narrow_width.1);
        let nx0 = rng.gen_range(x0 + w..x1 - w - neck_len);
        let nx1 = nx0 + neck_len;
        let ny = y + (w - neck_w) / 2;
        layout.add(METAL1, Rect::new(x0, y, nx0, y + w));
        layout.add(METAL1, Rect::new(nx0, ny, nx1, ny + neck_w));
        layout.add(METAL1, Rect::new(nx1, y, x1, y + w));
        report.necks.push(Rect::new(nx0, ny, nx1, ny + neck_w));
    } else {
        layout.add(METAL1, Rect::new(x0, y, x1, y + w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_setup() -> (Rect, DesignRules, PatternProfile) {
        (
            Rect::new(0, 0, 5120, 5120),
            DesignRules::euv_metal(),
            PatternProfile::moderate(),
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let (extent, rules, profile) = default_setup();
        let (a, ra) = generate(extent, &rules, &profile, 42);
        let (b, rb) = generate(extent, &rules, &profile, 42);
        assert_eq!(a.shapes(METAL1), b.shapes(METAL1));
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_differ() {
        let (extent, rules, profile) = default_setup();
        let (a, _) = generate(extent, &rules, &profile, 1);
        let (b, _) = generate(extent, &rules, &profile, 2);
        assert_ne!(a.shapes(METAL1), b.shapes(METAL1));
    }

    #[test]
    fn produces_reasonable_density() {
        let (extent, rules, profile) = default_setup();
        let (l, _) = generate(extent, &rules, &profile, 3);
        let d = l.density(METAL1, &extent);
        assert!(d > 0.05 && d < 0.6, "density {d} out of plausible range");
    }

    #[test]
    fn all_shapes_within_reasonable_bounds() {
        let (extent, rules, profile) = default_setup();
        let (l, _) = generate(extent, &rules, &profile, 4);
        let loose = extent.inflated(rules.pitch * 2);
        for s in l.shapes(METAL1) {
            assert!(loose.contains_rect(s), "shape {s} escapes extent");
        }
    }

    #[test]
    fn stress_sites_reported_when_stressed() {
        let (extent, rules, mut profile) = default_setup();
        profile.stress_rate = 0.5;
        profile.neck_rate = 0.3;
        let (_, report) = generate(extent, &rules, &profile, 5);
        assert!(!report.tight_gaps.is_empty(), "expected tight gaps");
        assert!(!report.necks.is_empty(), "expected necks");
    }

    #[test]
    fn zero_stress_profile_reports_nothing() {
        let (extent, rules, mut profile) = default_setup();
        profile.stress_rate = 0.0;
        profile.neck_rate = 0.0;
        let (_, report) = generate(extent, &rules, &profile, 6);
        assert!(report.tight_gaps.is_empty());
        assert!(report.necks.is_empty());
    }

    #[test]
    fn tight_gaps_are_actually_tight() {
        let (extent, rules, mut profile) = default_setup();
        profile.stress_rate = 0.4;
        let (_, report) = generate(extent, &rules, &profile, 7);
        for g in &report.tight_gaps {
            assert!(g.width() >= rules.tight_gap.0 && g.width() <= rules.tight_gap.1);
        }
    }

    #[test]
    fn wire_segments_respect_min_width() {
        let (extent, rules, profile) = default_setup();
        let (l, report) = generate(extent, &rules, &profile, 8);
        for s in l.shapes(METAL1) {
            let min_dim = s.width().min(s.height());
            let is_neck = report.necks.iter().any(|n| n == s);
            if !is_neck {
                assert!(
                    min_dim >= rules.narrow_width.0,
                    "non-neck shape {s} narrower than any rule"
                );
            }
        }
    }
}
