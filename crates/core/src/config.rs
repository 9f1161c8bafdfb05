//! Configuration of the R-HSD network and training procedure.

/// Full configuration of the region-based hotspot detector.
///
/// [`RhsdConfig::paper`] reproduces the parameter settings of §4 of the
/// paper (input 256×256, aspect ratios `[0.5, 1, 2]`, scales
/// `[0.25, 0.5, 1, 2]`, β=0.2, α_loc=2.0). [`RhsdConfig::demo`] shrinks
/// spatial sizes and channel widths so the full train/eval pipeline runs
/// on a single CPU core in minutes; every structural element (encoder–
/// decoder, inception stack, two-stage C&R, h-NMS) is preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct RhsdConfig {
    /// Region raster side in pixels (must be divisible by `stride`).
    pub region_px: usize,
    /// Base clip (anchor) side in pixels; ground-truth clips use this size.
    pub clip_px: usize,
    /// Total feature-map stride of the extractor (fixed by architecture: 16).
    pub stride: usize,
    /// Anchor aspect ratios (w/h).
    pub aspect_ratios: Vec<f32>,
    /// Anchor scales (relative to `clip_px`).
    pub scales: Vec<f32>,

    /// Encoder–decoder latent widths (encoder ascends through these).
    pub encdec_hidden: Vec<usize>,
    /// Stem convolution channel progression (three convs).
    pub stem_channels: [usize; 3],
    /// Per-branch width of inception-A modules (module output = 4×).
    pub inception_width_a: usize,
    /// Per-branch width of the inception-B module (module output = 3×).
    pub inception_width_b: usize,
    /// Trunk width of the clip proposal network's 3×3 convolution.
    pub cpn_mid_channels: usize,
    /// Per-branch width of the refinement inception modules.
    pub refine_width: usize,
    /// Width of the refinement fully-connected layer.
    pub fc_width: usize,
    /// RoI pooling output side (paper: 7).
    pub roi_size: usize,

    /// Clip-pruning positive IoU threshold (paper: 0.7).
    pub iou_pos: f32,
    /// Clip-pruning negative IoU threshold (paper: 0.3).
    pub iou_neg: f32,
    /// Anchors sampled per region for CPN loss.
    pub anchor_batch: usize,
    /// Proposals refined per region during training.
    pub roi_batch: usize,
    /// h-NMS centre-IoU threshold (paper: 0.7).
    pub hnms_threshold: f32,
    /// Proposals kept after first-stage NMS at inference.
    pub pre_nms_top_n: usize,
    /// Final detection score threshold.
    pub score_threshold: f32,

    /// Localisation loss balance α_loc (paper: 2.0).
    pub alpha_loc: f32,
    /// L2 regularisation strength β (paper: 0.2; applied per step scaled).
    pub beta: f32,

    /// Ablation: include the encoder–decoder front end ("w/o. ED" when false).
    pub use_encoder_decoder: bool,
    /// Ablation: apply L2 regularisation ("w/o. L2" when false).
    pub use_l2: bool,
    /// Ablation: run the refinement stage ("w/o. Refine" when false).
    pub use_refinement: bool,
    /// Use hotspot NMS (core-aware); conventional NMS when false.
    pub use_hnms: bool,
}

impl RhsdConfig {
    /// The paper's configuration (GPU scale).
    pub fn paper() -> Self {
        RhsdConfig {
            region_px: 256,
            clip_px: 48,
            stride: 16,
            aspect_ratios: vec![0.5, 1.0, 2.0],
            scales: vec![0.25, 0.5, 1.0, 2.0],
            encdec_hidden: vec![16, 32, 64],
            stem_channels: [32, 64, 96],
            inception_width_a: 48,  // A out = 192
            inception_width_b: 192, // B out = 576 (Fig. 4 input width)
            cpn_mid_channels: 512,
            refine_width: 64,
            fc_width: 256,
            roi_size: 7,
            iou_pos: 0.7,
            iou_neg: 0.3,
            anchor_batch: 128,
            roi_batch: 32,
            hnms_threshold: 0.7,
            pre_nms_top_n: 100,
            score_threshold: 0.5,
            alpha_loc: 2.0,
            beta: 0.2,
            use_encoder_decoder: true,
            use_l2: true,
            use_refinement: true,
            use_hnms: true,
        }
    }

    /// CPU-scale configuration preserving the architecture.
    pub fn demo() -> Self {
        RhsdConfig {
            region_px: 128,
            clip_px: 32,
            stride: 16,
            aspect_ratios: vec![0.5, 1.0, 2.0],
            scales: vec![0.25, 0.5, 1.0, 2.0],
            encdec_hidden: vec![4, 8],
            stem_channels: [8, 12, 16],
            inception_width_a: 5, // A out = 20
            inception_width_b: 8, // B out = 24
            cpn_mid_channels: 32,
            refine_width: 5,
            fc_width: 48,
            roi_size: 7,
            iou_pos: 0.7,
            iou_neg: 0.3,
            anchor_batch: 64,
            roi_batch: 12,
            hnms_threshold: 0.7,
            pre_nms_top_n: 40,
            score_threshold: 0.5,
            alpha_loc: 2.0,
            // The paper's β=0.2 assumes the TF loss normalisation and lr
            // 0.002; at demo step counts an equivalent *effective* weight
            // decay per step requires a smaller β (β·lr ≈ 2e-5 per step).
            beta: 0.001,
            use_encoder_decoder: true,
            use_l2: true,
            use_refinement: true,
            use_hnms: true,
        }
    }

    /// A minimal configuration for unit tests (tiny channels, 64-px regions).
    pub fn tiny() -> Self {
        let mut cfg = RhsdConfig::demo();
        cfg.region_px = 64;
        cfg.clip_px = 24;
        cfg.encdec_hidden = vec![2];
        cfg.stem_channels = [3, 4, 6];
        cfg.inception_width_a = 2;
        cfg.inception_width_b = 3;
        cfg.cpn_mid_channels = 8;
        cfg.refine_width = 2;
        cfg.fc_width = 12;
        cfg.anchor_batch = 32;
        cfg.roi_batch = 4;
        cfg
    }

    /// Number of anchors per feature-map position (`scales × aspects`;
    /// paper: 12).
    pub fn anchors_per_position(&self) -> usize {
        self.aspect_ratios.len() * self.scales.len()
    }

    /// Feature-map side length for this region size.
    pub fn feature_px(&self) -> usize {
        self.region_px / self.stride
    }

    /// Total anchor count for one region.
    pub fn total_anchors(&self) -> usize {
        self.feature_px() * self.feature_px() * self.anchors_per_position()
    }

    /// Validates internal consistency.
    pub fn is_valid(&self) -> bool {
        self.region_px.is_multiple_of(self.stride)
            && self.stride == 16
            && !self.aspect_ratios.is_empty()
            && !self.scales.is_empty()
            && self.iou_neg < self.iou_pos
            && self.roi_size > 0
            && !self.encdec_hidden.is_empty()
    }
}

impl Default for RhsdConfig {
    fn default() -> Self {
        RhsdConfig::demo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_paper_constants() {
        let c = RhsdConfig::paper();
        assert_eq!(c.region_px, 256);
        assert_eq!(c.aspect_ratios, vec![0.5, 1.0, 2.0]);
        assert_eq!(c.scales, vec![0.25, 0.5, 1.0, 2.0]);
        assert_eq!(c.anchors_per_position(), 12);
        assert_eq!(c.alpha_loc, 2.0);
        assert_eq!(c.beta, 0.2);
        assert_eq!(c.hnms_threshold, 0.7);
        assert_eq!(c.iou_pos, 0.7);
        assert_eq!(c.iou_neg, 0.3);
        assert_eq!(c.roi_size, 7);
        assert_eq!(c.inception_width_b * 3, 576, "Fig. 4 feature width");
        assert_eq!(c.cpn_mid_channels, 512);
        assert!(c.is_valid());
    }

    #[test]
    fn demo_and_tiny_are_valid() {
        assert!(RhsdConfig::demo().is_valid());
        assert!(RhsdConfig::tiny().is_valid());
    }

    #[test]
    fn anchor_counts() {
        let c = RhsdConfig::demo();
        assert_eq!(c.feature_px(), 8);
        assert_eq!(c.total_anchors(), 8 * 8 * 12);
    }

    #[test]
    fn invalid_configs_detected() {
        let mut c = RhsdConfig::demo();
        c.region_px = 100; // not divisible by 16
        assert!(!c.is_valid());
        let mut c = RhsdConfig::demo();
        c.iou_neg = 0.9;
        assert!(!c.is_valid());
    }
}
