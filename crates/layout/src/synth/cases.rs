//! Benchmark case descriptors mirroring the ICCAD-2016 contest designs.
//!
//! The contest provides four EUV metal-layer designs; the paper's
//! evaluation uses designs 2–4 (design 1 has no lithography defects).
//! Each [`CaseSpec`] here reproduces that structure synthetically: a
//! deterministic layout with a case-specific density/stress profile.

use crate::geom::Rect;
use crate::layout::Layout;
use crate::synth::generator::{generate, PatternProfile, StressReport};
use crate::synth::rules::DesignRules;

/// Identifier of a benchmark case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaseId {
    /// Analogue of ICCAD-2016 Case 1 — clean design, no hotspots (excluded
    /// from the paper's evaluation, kept here for completeness).
    Case1,
    /// Analogue of Case 2 — small, sparsely stressed design.
    Case2,
    /// Analogue of Case 3 — large, heavily stressed design.
    Case3,
    /// Analogue of Case 4 — large design with clustered stress.
    Case4,
}

impl CaseId {
    /// The three cases evaluated in the paper (Table 1).
    pub const EVALUATED: [CaseId; 3] = [CaseId::Case2, CaseId::Case3, CaseId::Case4];

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            CaseId::Case1 => "Case1",
            CaseId::Case2 => "Case2",
            CaseId::Case3 => "Case3",
            CaseId::Case4 => "Case4",
        }
    }
}

impl std::fmt::Display for CaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full specification of one synthetic benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Which case this models.
    pub id: CaseId,
    /// Layout extent in nm.
    pub extent: Rect,
    /// Design rules.
    pub rules: DesignRules,
    /// Pattern statistics.
    pub profile: PatternProfile,
    /// Generation seed (fixed per case for reproducibility).
    pub seed: u64,
}

impl CaseSpec {
    /// Returns the spec of a case at full benchmark scale.
    pub fn full(id: CaseId) -> Self {
        let rules = DesignRules::euv_metal();
        match id {
            CaseId::Case1 => CaseSpec {
                id,
                extent: Rect::new(0, 0, 20_480, 20_480),
                rules,
                profile: PatternProfile {
                    fill: 0.6,
                    stress_rate: 0.0,
                    neck_rate: 0.0,
                    jog_rate: 0.1,
                },
                seed: 1601,
            },
            CaseId::Case2 => CaseSpec {
                id,
                extent: Rect::new(0, 0, 20_480, 20_480),
                rules,
                profile: PatternProfile {
                    fill: 0.65,
                    stress_rate: 0.05,
                    neck_rate: 0.03,
                    jog_rate: 0.12,
                },
                seed: 1602,
            },
            CaseId::Case3 => CaseSpec {
                id,
                extent: Rect::new(0, 0, 30_720, 30_720),
                rules,
                profile: PatternProfile {
                    fill: 0.8,
                    stress_rate: 0.12,
                    neck_rate: 0.08,
                    jog_rate: 0.2,
                },
                seed: 1603,
            },
            CaseId::Case4 => CaseSpec {
                id,
                extent: Rect::new(0, 0, 30_720, 30_720),
                rules,
                profile: PatternProfile {
                    fill: 0.72,
                    stress_rate: 0.09,
                    neck_rate: 0.1,
                    jog_rate: 0.15,
                },
                seed: 1604,
            },
        }
    }

    /// A reduced-extent version of the case for demo/CI-scale runs,
    /// preserving the statistical profile.
    pub fn demo(id: CaseId) -> Self {
        let mut spec = CaseSpec::full(id);
        spec.extent = Rect::new(0, 0, 7_680, 7_680);
        spec
    }

    /// Generates the case layout (deterministic).
    pub fn build(&self) -> (Layout, StressReport) {
        generate(self.extent, &self.rules, &self.profile, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::METAL1;

    #[test]
    fn evaluated_cases_match_paper() {
        assert_eq!(CaseId::EVALUATED.len(), 3);
        assert!(!CaseId::EVALUATED.contains(&CaseId::Case1));
    }

    #[test]
    fn case1_has_no_stress_sites() {
        let (_, report) = CaseSpec::demo(CaseId::Case1).build();
        assert!(report.tight_gaps.is_empty());
        assert!(report.necks.is_empty());
    }

    #[test]
    fn evaluated_cases_have_stress_sites() {
        for id in CaseId::EVALUATED {
            let (_, report) = CaseSpec::demo(id).build();
            assert!(
                !report.tight_gaps.is_empty() || !report.necks.is_empty(),
                "{id} should contain stressed geometry"
            );
        }
    }

    #[test]
    fn cases_are_distinct() {
        let (a, _) = CaseSpec::demo(CaseId::Case2).build();
        let (b, _) = CaseSpec::demo(CaseId::Case3).build();
        assert_ne!(a.shapes(METAL1), b.shapes(METAL1));
    }

    #[test]
    fn full_scale_is_larger_than_demo() {
        let full = CaseSpec::full(CaseId::Case3);
        let demo = CaseSpec::demo(CaseId::Case3);
        assert!(full.extent.area() > demo.extent.area());
        assert_eq!(full.profile, demo.profile);
    }

    #[test]
    fn builds_are_reproducible() {
        let s = CaseSpec::demo(CaseId::Case4);
        let (a, _) = s.build();
        let (b, _) = s.build();
        assert_eq!(a.shapes(METAL1), b.shapes(METAL1));
    }

    #[test]
    fn display_names() {
        assert_eq!(CaseId::Case2.to_string(), "Case2");
    }
}
