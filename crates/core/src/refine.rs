//! The refinement stage — §3.3 and Fig. 6 of the paper.
//!
//! Surviving proposals are RoI-pooled (7×7) from the backbone feature map,
//! passed through inception modules and a fully-connected layer, and
//! re-classified / re-regressed (the 2nd C&R). This second stage is what
//! drives down false alarms (Fig. 8 / Fig. 10).

use rand::Rng;
use rhsd_data::BBox;
use rhsd_nn::inception::{InceptionA, InceptionB};
use rhsd_nn::layers::{Flatten, LeakyRelu, Linear};
use rhsd_nn::{Layer, Tape};
use rhsd_tensor::ops::elementwise::add;
use rhsd_tensor::ops::pool::{roi_pool, roi_pool_backward, FeatureRoi};
use rhsd_tensor::Tensor;

use crate::config::RhsdConfig;

/// Second-stage outputs for one proposal.
#[derive(Debug, Clone)]
pub struct RefineOutput {
    /// `[2]` classification logits (hotspot, non-hotspot).
    pub cls_logits: Tensor,
    /// `[4]` regression code refining the proposal (Eq. 3, relative to the
    /// proposal box).
    pub reg_code: Tensor,
}

/// Converts a proposal box (image pixels) to feature-map RoI coordinates.
pub fn roi_from_bbox(bbox: &BBox, stride: usize, feature_px: usize) -> FeatureRoi {
    let s = stride as f32;
    let x0 = ((bbox.x0() / s).floor().max(0.0) as usize).min(feature_px - 1);
    let y0 = ((bbox.y0() / s).floor().max(0.0) as usize).min(feature_px - 1);
    let x1 = ((bbox.x1() / s).ceil().max(0.0) as usize).clamp(x0 + 1, feature_px);
    let y1 = ((bbox.y1() / s).ceil().max(0.0) as usize).clamp(y0 + 1, feature_px);
    FeatureRoi::new(x0, y0, x1, y1)
}

/// The refinement head: RoI pooling → inception B, A → FC → 2nd C&R.
pub struct RefinementHead {
    incep_b: InceptionB,
    incep_a: InceptionA,
    flatten: Flatten,
    fc: Linear,
    relu: LeakyRelu,
    cls: Linear,
    reg: Linear,
    roi_size: usize,
}

impl RefinementHead {
    /// Builds the head for a backbone emitting `in_channels` channels.
    pub fn new(config: &RhsdConfig, in_channels: usize, rng: &mut impl Rng) -> Self {
        let w = config.refine_width;
        let incep_b = InceptionB::new(in_channels, w, rng);
        let incep_a = InceptionA::new(incep_b.c_out(), w, rng);
        // inception B halves the RoI grid: 7 → 4
        let grid = config.roi_size.div_ceil(2);
        let flat = incep_a.c_out() * grid * grid;
        RefinementHead {
            incep_b,
            incep_a,
            flatten: Flatten::new(),
            fc: Linear::new(flat, config.fc_width, rng),
            relu: LeakyRelu::default_slope(),
            cls: Linear::new(config.fc_width, 2, rng),
            reg: Linear::new(config.fc_width, 4, rng),
            roi_size: config.roi_size,
        }
    }

    /// The parameterised sub-layers in [`RefinementHead::params`] order,
    /// with their telemetry names.
    fn parts(&self) -> [(&'static str, &dyn Layer); 5] {
        [
            ("InceptionB", &self.incep_b),
            ("InceptionA", &self.incep_a),
            ("fc", &self.fc),
            ("cls_head", &self.cls),
            ("reg_head", &self.reg),
        ]
    }

    /// Refines one proposal: pools `roi` from `features` and runs the 2nd
    /// classification and regression, recording on `tape` what
    /// [`RefinementHead::backward`] needs.
    ///
    /// Shapes: `features` is the backbone map `[C, f, f]`; outputs are
    /// `[2]` logits and a `[4]` regression code.
    pub fn forward(&self, features: &Tensor, roi: FeatureRoi, tape: &mut Tape) -> RefineOutput {
        let pooled = roi_pool(features, roi, self.roi_size, self.roi_size);
        let argmax = pooled.argmax;
        tape.save(|| (features.dims().to_vec(), argmax));
        let x = self.incep_b.forward(&pooled.output, tape);
        let x = self.incep_a.forward(&x, tape);
        let x = self.flatten.forward(&x, tape);
        let h = self.fc.forward(&x, tape);
        let h = self.relu.forward(&h, tape);
        RefineOutput {
            cls_logits: self.cls.forward(&h, tape),
            reg_code: self.reg.forward(&h, tape),
        }
    }

    /// Back-propagates one proposal's gradients through the forward last
    /// recorded on `tape`, adds the parameter gradients into `grads` (in
    /// [`RefinementHead::params`] order) and returns the gradient with
    /// respect to the backbone feature map (zeros outside the RoI).
    ///
    /// Shapes: `cls_grad` is `[2]`, `reg_grad` is `[4]`; the returned
    /// gradient matches the forward feature map `[C, f, f]`.
    ///
    /// # Panics
    ///
    /// Panics if called without a recorded [`RefinementHead::forward`].
    pub fn backward(
        &self,
        tape: &mut Tape,
        cls_grad: &Tensor,
        reg_grad: &Tensor,
        grads: &mut [Tensor],
    ) -> Tensor {
        // Slots in params order; the three linear layers hold two each.
        let (g_b, rest) = grads.split_at_mut(self.incep_b.params().len());
        let (g_a, rest) = rest.split_at_mut(self.incep_a.params().len());
        let (g_fc, rest) = rest.split_at_mut(2);
        let (g_cls, g_reg) = rest.split_at_mut(2);
        // Pops run in reverse forward order: reg, cls, relu, fc, …
        let g_reg_in = self.reg.backward(tape, reg_grad, g_reg);
        let gh = add(&self.cls.backward(tape, cls_grad, g_cls), &g_reg_in);
        let gh = self.relu.backward(tape, &gh, &mut []);
        let gx = self.fc.backward(tape, &gh, g_fc);
        let gx = self.flatten.backward(tape, &gx, &mut []);
        let gx = self.incep_a.backward(tape, &gx, g_a);
        let g_pooled = self.incep_b.backward(tape, &gx, g_b);
        let (feat_dims, argmax): (Vec<usize>, Vec<usize>) = tape.pop("RefinementHead");
        roi_pool_backward(&feat_dims, &argmax, &g_pooled)
    }

    /// Every trainable parameter: inception B, inception A, the FC layer,
    /// the classification head, the regression head.
    pub fn params(&self) -> Vec<&Tensor> {
        self.parts()
            .into_iter()
            .flat_map(|(_, l)| l.params())
            .collect()
    }

    /// Mutable access to [`RefinementHead::params`], same order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.incep_b.params_mut();
        p.extend(self.incep_a.params_mut());
        p.extend(self.fc.params_mut());
        p.extend(self.cls.params_mut());
        p.extend(self.reg.params_mut());
        p
    }

    /// Display names for [`RefinementHead::params`], index-aligned.
    pub fn param_names(&self) -> Vec<String> {
        self.parts()
            .into_iter()
            .flat_map(|(name, l)| vec![name.to_owned(); l.params().len()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_nn::Grads;

    fn setup() -> (RhsdConfig, RefinementHead, Tensor) {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let head = RefinementHead::new(&cfg, 6, &mut rng);
        let f = cfg.feature_px();
        let feats = Tensor::rand_normal([6, f, f], 0.0, 1.0, &mut rng);
        (cfg, head, feats)
    }

    #[test]
    fn forward_output_shapes() {
        let (_, head, feats) = setup();
        let out = head.forward(&feats, FeatureRoi::new(0, 0, 3, 3), &mut Tape::inference());
        assert_eq!(out.cls_logits.dims(), &[2]);
        assert_eq!(out.reg_code.dims(), &[4]);
    }

    #[test]
    fn different_rois_give_different_outputs() {
        let (cfg, head, feats) = setup();
        let f = cfg.feature_px();
        let a = head.forward(&feats, FeatureRoi::new(0, 0, 2, 2), &mut Tape::inference());
        let b = head.forward(
            &feats,
            FeatureRoi::new(f - 2, f - 2, f, f),
            &mut Tape::inference(),
        );
        assert!(
            !a.cls_logits.approx_eq(&b.cls_logits, 1e-6),
            "distinct RoIs must not produce identical logits"
        );
    }

    #[test]
    fn backward_gradient_confined_to_roi() {
        let (_, head, feats) = setup();
        let roi = FeatureRoi::new(1, 1, 3, 3);
        let mut tape = Tape::recording();
        let _ = head.forward(&feats, roi, &mut tape);
        let mut grads = Grads::zeros_like(head.params());
        let g = head.backward(
            &mut tape,
            &Tensor::ones([2]),
            &Tensor::ones([4]),
            &mut grads,
        );
        assert_eq!(g.dims(), feats.dims());
        assert!(tape.is_empty(), "backward consumes the whole tape");
        assert!(
            grads.iter().all(|g| g.sq_norm() > 0.0),
            "every slot got signal"
        );
        // gradient zero outside the RoI columns/rows
        for c in 0..feats.dim(0) {
            for y in 0..feats.dim(1) {
                for x in 0..feats.dim(2) {
                    let inside = (1..3).contains(&x) && (1..3).contains(&y);
                    if !inside {
                        assert_eq!(
                            g.get(&[c, y, x]),
                            0.0,
                            "gradient leaked outside RoI at ({c},{y},{x})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn roi_from_bbox_conversion() {
        // stride-16 mapping with clamping
        let b = BBox::from_corners(10.0, 20.0, 70.0, 60.0);
        let roi = roi_from_bbox(&b, 16, 8);
        assert_eq!(roi, FeatureRoi::new(0, 1, 5, 4));
        // out-of-bounds box clamps into the grid
        let b = BBox::from_corners(-50.0, -50.0, 500.0, 500.0);
        let roi = roi_from_bbox(&b, 16, 8);
        assert_eq!(roi, FeatureRoi::new(0, 0, 8, 8));
    }

    #[test]
    fn params_cover_all_submodules() {
        let (_, mut head, _) = setup();
        // inception B (3 branches: 2+3+1 convs → 12 params) + inception A
        // (4 branches: 1+2+3+1 convs → 14) + fc + cls + reg (2 each)
        assert_eq!(head.params().len(), 12 + 14 + 6);
        assert_eq!(head.params_mut().len(), 12 + 14 + 6);
        assert_eq!(head.param_names().len(), 12 + 14 + 6);
    }
}
