//! The refinement stage — §3.3 and Fig. 6 of the paper.
//!
//! Surviving proposals are RoI-pooled (7×7) from the backbone feature map,
//! passed through inception modules and a fully-connected layer, and
//! re-classified / re-regressed (the 2nd C&R). This second stage is what
//! drives down false alarms (Fig. 8 / Fig. 10).
//!
//! A region's RoIs run as one batch in the lane layout `[C, 7, 7, n]`:
//! every pixel holds one value per RoI, so each output row of each
//! convolution is one contiguous run of `7·n` (or `4·n`) values, and
//! the FC reads its `[k, n]` input in place. Every layer takes the
//! batch at once, and each RoI's logits and codes are bit for bit
//! those of the RoI alone. The backward pass adds each RoI's parameter
//! and feature-map gradients one RoI at a time, in RoI order — the add
//! order of separate per-RoI passes.

use rand::Rng;
use rhsd_data::BBox;
use rhsd_nn::inception::{InceptionA, InceptionB};
use rhsd_nn::layers::{Flatten, LeakyRelu, Linear};
use rhsd_nn::{Layer, Tape};
use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::ops::pool::{roi_pool, roi_pool_backward, roi_pool_values, FeatureRoi};
use rhsd_tensor::Tensor;

use crate::config::RhsdConfig;

/// Second-stage outputs for a batch of proposals, one row each.
#[derive(Debug, Clone)]
pub struct RefineOutput {
    /// `[n, 2]` classification logits (hotspot, non-hotspot).
    pub cls_logits: Tensor,
    /// `[n, 4]` regression codes refining the proposals (Eq. 3, relative
    /// to each proposal box).
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
    /// with their parameter-group names.
    fn parts(&self) -> [(&'static str, &dyn Layer); 5] {
        [
            ("InceptionB", &self.incep_b),
            ("InceptionA", &self.incep_a),
            ("fc", &self.fc),
            ("cls_head", &self.cls),
            ("reg_head", &self.reg),
        ]
    }

    /// Refines a batch of proposals: pools each of `rois` from
    /// `features` and runs the 2nd classification and regression on all
    /// of them at once, recording on `tape` what
    /// [`RefinementHead::backward`] needs.
    ///
    /// Shapes: `features` is the backbone map `[C, f, f]`; outputs are
    /// `[n, 2]` logits and `[n, 4]` regression codes for `n` RoIs.
    pub fn forward(&self, features: &Tensor, rois: &[FeatureRoi], tape: &mut Tape) -> RefineOutput {
        let size = self.roi_size;
        let sp = rhsd_obs::span("roi-pool");
        let pooled = if tape.is_recording() {
            let pooled = roi_pool(features, rois, size, size);
            let argmax = pooled.argmax;
            tape.save(|| (features.dims().to_vec(), argmax));
            pooled.output
        } else {
            // No backward will route through the winners.
            roi_pool_values(features, rois, size, size)
        };
        drop(sp);
        let x = {
            let _sp = rhsd_obs::span("inception-b");
            self.incep_b.forward(pooled, tape)
        };
        let x = {
            let _sp = rhsd_obs::span("inception-a");
            self.incep_a.forward(x, tape)
        };
        let _sp = rhsd_obs::span("fc");
        let x = self.flatten.forward(x, tape);
        let h = self.fc.forward(x, tape);
        let h = self.relu.forward(h, tape);
        RefineOutput {
            cls_logits: transposed(&self.cls.forward(h.clone(), tape)),
            reg_code: transposed(&self.reg.forward(h, tape)),
        }
    }

    /// Back-propagates the batch's gradients through the forward last
    /// recorded on `tape`, adds the parameter gradients into `grads` (in
    /// [`RefinementHead::params`] order) and adds `feat_scale` times each
    /// RoI's backbone-map gradient (zero outside the RoI) into
    /// `feat_grad`. Every slot takes its RoIs' contributions one RoI at a
    /// time, in RoI order.
    ///
    /// Shapes: `cls_grad` is `[n, 2]`, `reg_grad` is `[n, 4]`;
    /// `feat_grad` matches the forward feature map `[C, f, f]`.
    ///
    /// # Panics
    ///
    /// Panics if called without a recorded [`RefinementHead::forward`].
    pub fn backward(
        &self,
        tape: &mut Tape,
        cls_grad: Tensor,
        reg_grad: Tensor,
        grads: &mut [Tensor],
        feat_grad: &mut Tensor,
        feat_scale: f32,
    ) {
        // Slots in params order; the three linear layers hold two each.
        let (g_b, rest) = grads.split_at_mut(self.incep_b.params().len());
        let (g_a, rest) = rest.split_at_mut(self.incep_a.params().len());
        let (g_fc, rest) = rest.split_at_mut(2);
        let (g_cls, g_reg) = rest.split_at_mut(2);
        // Pops run in reverse forward order: reg, cls, relu, fc, …, under
        // the forward pass's span names.
        let gx = {
            let _sp = rhsd_obs::span("fc");
            let g_reg_in = self.reg.backward(tape, transposed(&reg_grad), g_reg);
            let mut gh = self.cls.backward(tape, transposed(&cls_grad), g_cls);
            axpy(&mut gh, 1.0, &g_reg_in);
            let gh = self.relu.backward(tape, gh, &mut []);
            let gx = self.fc.backward(tape, gh, g_fc);
            self.flatten.backward(tape, gx, &mut [])
        };
        let gx = {
            let _sp = rhsd_obs::span("inception-a");
            self.incep_a.backward(tape, gx, g_a)
        };
        let g_pooled = {
            let _sp = rhsd_obs::span("inception-b");
            self.incep_b.backward(tape, gx, g_b)
        };
        let _sp = rhsd_obs::span("roi-pool");
        let (feat_dims, argmax): (Vec<usize>, Vec<u32>) = tape.pop("RefinementHead");
        let n = g_pooled.dim(3);
        for r in 0..n {
            let g = roi_pool_backward(&feat_dims, &argmax, g_pooled.as_slice(), (r, n));
            axpy(feat_grad, feat_scale, &g);
        }
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

/// The transpose of a `[k, n]` matrix: the head's `[k, n]` lane-layout
/// outputs as the `[n, k]` rows its callers read, and their gradients
/// back.
fn transposed(t: &Tensor) -> Tensor {
    let (k, n) = (t.dim(0), t.dim(1));
    let v = t.as_slice();
    Tensor::from_parts([n, k], (0..n * k).map(|i| v[i % k * n + i / k]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Row `i` of a `[n, k]` tensor as a one-row `[1, k]` batch.
    fn one_row(t: &Tensor, i: usize) -> Tensor {
        let k = t.dim(1);
        Tensor::from_vec([1, k], t.as_slice()[i * k..][..k].to_vec()).unwrap()
    }

    /// The demo head (7×7 RoIs, a 320→48 FC) on a random `[20, 8, 8]`
    /// map, and 40 RoIs: the whole map, 1×1 RoIs, RoIs clamped at the
    /// border or lying wholly outside it, and random windows.
    fn demo_setup() -> (RefinementHead, Tensor, Vec<FeatureRoi>) {
        let cfg = RhsdConfig::demo();
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let head = RefinementHead::new(&cfg, 20, &mut rng);
        let f = cfg.feature_px();
        let feats = Tensor::rand_normal([20, f, f], 0.0, 1.0, &mut rng);
        let mut rois = vec![
            FeatureRoi::new(0, 0, f, f),
            FeatureRoi::new(0, 0, 1, 1),
            FeatureRoi::new(f - 1, f - 1, f, f),
            FeatureRoi::new(3, 5, 4, 6),
            FeatureRoi::new(f - 2, 1, f + 6, 3),
            FeatureRoi::new(f + 3, f + 3, f + 9, f + 9),
            FeatureRoi::new(2, f - 1, 5, 4 * f),
        ];
        while rois.len() < 40 {
            let (x0, y0) = (rng.gen_range(0..f), rng.gen_range(0..f));
            let (w, h) = (rng.gen_range(1..=f), rng.gen_range(1..=f));
            rois.push(FeatureRoi::new(x0, y0, x0 + w, y0 + h));
        }
        (head, feats, rois)
    }

    #[test]
    fn forward_output_shapes() {
        let (_, head, feats) = setup();
        let rois = [FeatureRoi::new(0, 0, 3, 3), FeatureRoi::new(1, 2, 4, 4)];
        let out = head.forward(&feats, &rois, &mut Tape::inference());
        assert_eq!(out.cls_logits.dims(), &[2, 2]);
        assert_eq!(out.reg_code.dims(), &[2, 4]);
    }

    #[test]
    fn batched_forward_equals_one_roi_batches_bit_for_bit() {
        let (head, feats, rois) = demo_setup();
        for n in [0, 1, 40] {
            let out = head.forward(&feats, &rois[..n], &mut Tape::inference());
            assert_eq!(out.cls_logits.dims(), &[n, 2]);
            assert_eq!(out.reg_code.dims(), &[n, 4]);
            for i in 0..n {
                let one = head.forward(&feats, &rois[i..=i], &mut Tape::inference());
                let what = format!("RoI {i} of {n} ({:?})", rois[i]);
                assert_eq!(
                    bits(&one_row(&out.cls_logits, i)),
                    bits(&one.cls_logits),
                    "{what}"
                );
                assert_eq!(
                    bits(&one_row(&out.reg_code, i)),
                    bits(&one.reg_code),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn batched_backward_equals_the_per_roi_fold_bit_for_bit() {
        let (head, feats, rois) = demo_setup();
        let rois = &rois[..12];
        let n = rois.len();
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        let gc = Tensor::rand_normal([n, 2], 0.0, 1.0, &mut rng);
        let gr = Tensor::rand_normal([n, 4], 0.0, 1.0, &mut rng);
        // Accumulators already holding a step's worth of gradient, so
        // the add order shows in the bits.
        let mut grads = Grads::zeros_like(head.params());
        for g in grads.iter_mut() {
            *g = Tensor::rand_normal(g.dims(), 0.0, 1.0, &mut rng);
        }
        let feat_grad = Tensor::rand_normal(feats.dims(), 0.0, 1.0, &mut rng);
        let scale = 1.0 / 3.0;

        let (mut batch_grads, mut batch_feat) = (grads.clone(), feat_grad.clone());
        let mut tape = Tape::recording();
        head.forward(&feats, rois, &mut tape);
        head.backward(
            &mut tape,
            gc.clone(),
            gr.clone(),
            &mut batch_grads,
            &mut batch_feat,
            scale,
        );
        assert!(tape.is_empty(), "backward consumes the whole tape");

        let (mut fold_grads, mut fold_feat) = (grads, feat_grad);
        for i in 0..n {
            let mut tape = Tape::recording();
            head.forward(&feats, &rois[i..=i], &mut tape);
            let (gc, gr) = (one_row(&gc, i), one_row(&gr, i));
            head.backward(&mut tape, gc, gr, &mut fold_grads, &mut fold_feat, scale);
        }
        assert_eq!(bits(&batch_feat), bits(&fold_feat), "feature gradient");
        for (slot, (b, f)) in batch_grads.iter().zip(fold_grads.iter()).enumerate() {
            assert_eq!(bits(b), bits(f), "grads slot {slot}");
        }
    }

    #[test]
    fn different_rois_give_different_outputs() {
        let (cfg, head, feats) = setup();
        let f = cfg.feature_px();
        let rois = [
            FeatureRoi::new(0, 0, 2, 2),
            FeatureRoi::new(f - 2, f - 2, f, f),
        ];
        let out = head.forward(&feats, &rois, &mut Tape::inference());
        assert!(
            !one_row(&out.cls_logits, 0).approx_eq(&one_row(&out.cls_logits, 1), 1e-6),
            "distinct RoIs must not produce identical logits"
        );
    }

    #[test]
    fn backward_gradient_confined_to_roi() {
        let (_, head, feats) = setup();
        let roi = FeatureRoi::new(1, 1, 3, 3);
        let mut tape = Tape::recording();
        let _ = head.forward(&feats, &[roi], &mut tape);
        let mut grads = Grads::zeros_like(head.params());
        let mut g = Tensor::zeros(feats.dims());
        head.backward(
            &mut tape,
            Tensor::ones([1, 2]),
            Tensor::ones([1, 4]),
            &mut grads,
            &mut g,
            1.0,
        );
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
