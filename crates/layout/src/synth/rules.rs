//! Design rules for the synthetic EUV metal-layer generator.

/// Geometric design rules, in nanometres.
///
/// The defaults model the shrunk EUV metal layer of the ICCAD-2016
/// benchmarks at a 10 nm/pixel raster: 40 nm wires on a 120 nm pitch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignRules {
    /// Routing track pitch.
    pub pitch: i64,
    /// Nominal wire width.
    pub wire_width: i64,
    /// Comfortable (lithography-safe) tip-to-tip gap.
    pub safe_gap: i64,
    /// Stressed tip-to-tip gap range `(lo, hi)` — gaps drawn from this
    /// range are prone to bridging under process variation.
    pub tight_gap: (i64, i64),
    /// Stressed wire width range `(lo, hi)` — necks this narrow are prone
    /// to pinching.
    pub narrow_width: (i64, i64),
    /// Minimum wire segment length.
    pub min_segment: i64,
    /// Maximum wire segment length.
    pub max_segment: i64,
}

impl DesignRules {
    /// The default 7 nm-class EUV metal rules used by the benchmarks.
    pub fn euv_metal() -> Self {
        DesignRules {
            pitch: 120,
            wire_width: 40,
            safe_gap: 100,
            tight_gap: (16, 30),
            narrow_width: (14, 22),
            min_segment: 200,
            max_segment: 900,
        }
    }

    /// Validates internal consistency.
    ///
    /// Returns `false` if any rule is non-positive or ranges are inverted
    /// or unsafe (tight gap not actually tighter than the safe gap).
    pub fn is_valid(&self) -> bool {
        self.pitch > 0
            && self.wire_width > 0
            && self.wire_width < self.pitch
            && self.safe_gap > 0
            && self.tight_gap.0 > 0
            && self.tight_gap.0 <= self.tight_gap.1
            && self.tight_gap.1 < self.safe_gap
            && self.narrow_width.0 > 0
            && self.narrow_width.0 <= self.narrow_width.1
            && self.narrow_width.1 < self.wire_width
            && self.min_segment > 0
            && self.min_segment <= self.max_segment
    }
}

impl Default for DesignRules {
    fn default() -> Self {
        DesignRules::euv_metal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_are_valid() {
        assert!(DesignRules::euv_metal().is_valid());
        assert!(DesignRules::default().is_valid());
    }

    #[test]
    fn invalid_rules_detected() {
        let mut r = DesignRules::euv_metal();
        r.tight_gap = (200, 300); // not tighter than safe gap
        assert!(!r.is_valid());

        let mut r = DesignRules::euv_metal();
        r.wire_width = r.pitch; // no space between tracks
        assert!(!r.is_valid());

        let mut r = DesignRules::euv_metal();
        r.min_segment = r.max_segment + 1;
        assert!(!r.is_valid());
    }
}
