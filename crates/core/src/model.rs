//! The end-to-end R-HSD network (Fig. 2): feature extraction → clip
//! proposal network → h-NMS → refinement, trainable end-to-end with the
//! multi-task C&R loss.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rhsd_data::{BBox, RegionSample};
use rhsd_nn::{Grads, Layer, Tape};
use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::ops::pool::FeatureRoi;
use rhsd_tensor::ops::softmax::softmax_rows;
use rhsd_tensor::Tensor;

use crate::anchor::{generate_anchors, inside_region};
use crate::boxcode::{decode, encode};
use crate::config::RhsdConfig;
use crate::cpn::{ClipProposalNetwork, CpnOutput};
use crate::extractor::FeatureExtractor;
use crate::hnms::{conventional_nms, hotspot_nms, Scored};
use crate::loss::{cpn_loss, refine_loss, CrLoss, CLASS_HOTSPOT, CLASS_NON_HOTSPOT};
use crate::pruning::{assign_anchors, sample_minibatch};
use crate::refine::{roi_from_bbox, RefinementHead};

/// First-stage keep cut: anchors scoring below this are dropped before
/// proposal NMS (a speed cut only — the refinement stage applies the
/// real score threshold).
const STAGE1_KEEP_CUT: f32 = 0.05;

/// A final detection: a clip marked as hotspot with its confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The detected clip, in region pixel coordinates.
    pub bbox: BBox,
    /// Hotspot confidence in `[0, 1]`.
    pub score: f32,
}

/// Scalar diagnostics of one training step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainStats {
    /// First-stage (CPN) loss components.
    pub cpn: CrLoss,
    /// Second-stage (refinement) loss components, averaged over RoIs.
    pub refine: CrLoss,
    /// Number of RoIs refined this step.
    pub rois: usize,
    /// RoIs whose refinement argmax predicted each class, indexed by
    /// `CLASS_HOTSPOT` / `CLASS_NON_HOTSPOT`. A healthy discriminator
    /// splits its training RoIs between the classes; a bias-only
    /// collapse predicts a single class for every RoI.
    pub pred_counts: [usize; 2],
    /// Sum over RoIs of the refinement softmax entropy (nats) — the
    /// output-logit uncertainty signal.
    pub pred_entropy_sum: f32,
}

impl TrainStats {
    /// Total scalar loss.
    pub fn total(&self) -> f32 {
        self.cpn.total() + self.refine.total()
    }
}

/// The region-based hotspot detection network.
///
/// The layers are read-only at inference: every inference entry point
/// takes `&self`, so one network serves any number of threads at once.
/// Training accumulates into the network's own [`Grads`], which mirror
/// [`RhsdNetwork::params`] slot for slot.
///
/// `Clone` copies the weights and gradients.
pub struct RhsdNetwork {
    config: RhsdConfig,
    extractor: FeatureExtractor,
    cpn: ClipProposalNetwork,
    refinement: Option<RefinementHead>,
    anchors: Vec<BBox>,
    /// Gradient accumulators of a training step, in `params` order.
    grads: Grads,
    /// One scratch set of extractor gradients per region of the largest
    /// batch so far: [`RhsdNetwork::train_batch`] runs each region's
    /// extractor backward into its own, then sums them into `grads` in
    /// batch order.
    ext_scratch: Vec<Grads>,
}

/// One region's share of a training batch, carried from the forward
/// phase through the heads to the extractor backward.
struct RegionPass {
    /// The region's activations, held until its extractor backward.
    tape: Tape,
    /// The extractor's feature map.
    feats: Tensor,
    /// The CPN's raw outputs.
    out: CpnOutput,
}

impl RhsdNetwork {
    /// Builds a freshly-initialised network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: RhsdConfig, rng: &mut impl Rng) -> Self {
        assert!(config.is_valid(), "invalid config: {config:?}");
        let extractor = FeatureExtractor::new(&config, rng);
        let cpn = ClipProposalNetwork::new(&config, extractor.out_channels(), rng);
        let refinement = config
            .use_refinement
            .then(|| RefinementHead::new(&config, extractor.out_channels(), rng));
        let anchors = generate_anchors(&config);
        let mut net = RhsdNetwork {
            config,
            extractor,
            cpn,
            refinement,
            anchors,
            grads: Grads::zeros_like([]),
            ext_scratch: Vec::new(),
        };
        net.grads = Grads::zeros_like(net.params());
        net
    }

    /// The network's configuration.
    pub fn config(&self) -> &RhsdConfig {
        &self.config
    }

    /// Adjusts the final detection score threshold (operating point).
    pub fn set_score_threshold(&mut self, threshold: f32) {
        self.config.score_threshold = threshold;
    }

    /// Switches between hotspot NMS and conventional NMS at inference
    /// (an evaluation-time ablation; the trained weights are unaffected).
    pub fn set_use_hnms(&mut self, use_hnms: bool) {
        self.config.use_hnms = use_hnms;
    }

    /// The anchor set (one region's worth).
    pub fn anchors(&self) -> &[BBox] {
        &self.anchors
    }

    /// All trainable parameters: extractor, CPN, then refinement head.
    pub fn params(&self) -> Vec<&Tensor> {
        let mut p = self.extractor.params();
        p.extend(self.cpn.params());
        if let Some(r) = &self.refinement {
            p.extend(r.params());
        }
        p
    }

    /// Mutable access to [`RhsdNetwork::params`], same order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.params_and_grads_mut().0
    }

    /// The gradients accumulated by [`RhsdNetwork::train_step`] since the
    /// last [`RhsdNetwork::zero_grad`], index-aligned with
    /// [`RhsdNetwork::params`].
    pub fn grads(&self) -> &Grads {
        &self.grads
    }

    /// The parameters and their gradients at once — what an optimiser
    /// step needs.
    pub fn params_and_grads_mut(&mut self) -> (Vec<&mut Tensor>, &mut Grads) {
        let mut p = self.extractor.params_mut();
        p.extend(self.cpn.params_mut());
        if let Some(r) = self.refinement.as_mut() {
            p.extend(r.params_mut());
        }
        (p, &mut self.grads)
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        self.grads.zero();
    }

    /// Total trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Display names for [`RhsdNetwork::params`], index-aligned with it,
    /// qualified by component (`backbone/`, `cpn/`, `refine/`). Training
    /// groups the per-slot optimiser statistics by these names.
    pub fn param_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .extractor
            .param_names()
            .into_iter()
            .map(|n| format!("backbone/{n}"))
            .collect();
        names.extend(
            self.cpn
                .param_names()
                .into_iter()
                .map(|n| format!("cpn/{n}")),
        );
        if let Some(r) = &self.refinement {
            names.extend(r.param_names().into_iter().map(|n| format!("refine/{n}")));
        }
        names
    }

    /// One training forward/backward pass on a region sample: the
    /// one-region case of [`RhsdNetwork::train_batch`]. Gradients
    /// accumulate into the network's [`Grads`]; the caller steps the
    /// optimiser.
    pub fn train_step(&mut self, sample: &RegionSample, rng: &mut impl Rng) -> TrainStats {
        self.train_batch(&[sample], rng)[0]
    }

    /// Training forward/backward passes over the regions of one optimiser
    /// batch, returning each region's statistics in batch order.
    /// Gradients accumulate into the network's [`Grads`]; the caller
    /// steps the optimiser.
    ///
    /// The regions run on the `rhsd-par` pool, one region per task, in
    /// four phases, region `i`'s two parallel ones on the same worker
    /// ([`rhsd_par::pinned`]), so the tapes a worker's heap holds between
    /// them do not depend on timing:
    ///
    /// 1. `train-forward` (parallel): extractor and CPN forward, each
    ///    region on its own [`Tape`];
    /// 2. `train-heads` (serial, batch order): the RNG-drawing anchor and
    ///    RoI sampling, the CPN loss and backward, and the refinement
    ///    head forward and backward, adding into the CPN and head slots;
    /// 3. `train-backward` (parallel): each region's extractor backward
    ///    into its own zeroed scratch gradients,
    /// 4. then (serial) each region's scratch is added into the
    ///    extractor slots, in batch order.
    ///
    /// Every extractor layer adds its gradient into its slots exactly
    /// once per region, so step 4's one `+ 1.0·x` per region, onto a
    /// scratch that held `+0 + x = x`, is the same add as the
    /// region-by-region pass: the result is bit-identical at any pool
    /// size, and to calling `train_step` once per region. The RNG is
    /// drawn in the same order.
    pub fn train_batch(&mut self, batch: &[&RegionSample], rng: &mut impl Rng) -> Vec<TrainStats> {
        let mut passes: Vec<RegionPass> = {
            let _sp = rhsd_obs::span("train-forward");
            let (extractor, cpn) = (&self.extractor, &self.cpn);
            rhsd_par::pinned(|| {
                rhsd_par::map(batch.len(), 1, |i| {
                    let mut tape = Tape::recording();
                    let feats = extractor.forward(batch[i].image.clone(), &mut tape);
                    // The CPN's trunk keeps this copy on the tape; the
                    // refinement head reads the map itself.
                    let out = cpn.forward(feats.clone(), &mut tape);
                    RegionPass { tape, feats, out }
                })
            })
        };

        let mut stats = Vec::with_capacity(batch.len());
        let mut feat_grads = Vec::with_capacity(batch.len());
        {
            let _sp = rhsd_obs::span("train-heads");
            rhsd_par::inline(|| {
                for (sample, pass) in batch.iter().zip(&mut passes) {
                    let (feat_grad, s) = self.heads(sample, pass, rng);
                    feat_grads.push(feat_grad);
                    stats.push(s);
                }
            });
        }

        {
            let _sp = rhsd_obs::span("train-backward");
            let n_ext = self.extractor.params().len();
            let extractor = &self.extractor;
            if self.ext_scratch.len() < batch.len() {
                self.ext_scratch
                    .resize_with(batch.len(), || Grads::zeros_like(extractor.params()));
            }
            let mut jobs: Vec<_> = passes
                .iter_mut()
                .zip(feat_grads)
                .zip(&mut self.ext_scratch)
                .collect();
            rhsd_par::pinned(|| {
                rhsd_par::for_each_mut(&mut jobs, 1, |_, job| {
                    for ((pass, feat_grad), scratch) in job.iter_mut() {
                        scratch.zero();
                        // Nothing reads the raster's gradient.
                        let g = std::mem::take(feat_grad);
                        extractor.backward_params(&mut pass.tape, g, scratch);
                        debug_assert!(pass.tape.is_empty(), "every recorded forward was consumed");
                    }
                })
            });
            for scratch in &self.ext_scratch[..batch.len()] {
                for (g, s) in self.grads[..n_ext].iter_mut().zip(scratch.iter()) {
                    axpy(g, 1.0, s);
                }
            }
        }
        stats
    }

    /// Phase 2 of [`RhsdNetwork::train_batch`] for one region: samples
    /// its anchors and RoIs, runs the CPN loss and backward and the
    /// refinement head forward and backward, and returns the gradient
    /// with respect to the region's feature map.
    fn heads(
        &mut self,
        sample: &RegionSample,
        pass: &mut RegionPass,
        rng: &mut impl Rng,
    ) -> (Tensor, TrainStats) {
        let (tape, feats, out) = (&mut pass.tape, &pass.feats, &pass.out);
        let assignment = assign_anchors(&self.anchors, &sample.gt_clips, &self.config);
        let weights = sample_minibatch(&assignment, &self.config, rng);
        let (cpn_cr, cls_grad, reg_grad) = cpn_loss(out, &assignment, &weights, &self.config);
        let rois = if self.refinement.is_some() {
            self.sample_training_rois(sample, out, rng)
        } else {
            Vec::new()
        };
        let n_ext = self.extractor.params().len();
        let (g_cpn, g_ref) = self.grads[n_ext..].split_at_mut(self.cpn.params().len());
        let mut feat_grad = self.cpn.backward(tape, cls_grad, reg_grad, g_cpn);

        // --- Stage 2: refinement on sampled RoIs, as one batch.
        let mut refine_cr = CrLoss::default();
        let mut pred_counts = [0usize; 2];
        let mut pred_entropy_sum = 0.0f32;
        let n_rois = rois.len();
        if let Some(head) = &self.refinement {
            let f = self.config.feature_px();
            let boxes: Vec<FeatureRoi> = rois
                .iter()
                .map(|(roi_box, _, _)| roi_from_bbox(roi_box, self.config.stride, f))
                .collect();
            let out = head.forward(feats, &boxes, tape);
            let (mut cls_grad, mut reg_grad) = (Vec::new(), Vec::new());
            let (pairs, _) = out.cls_logits.as_slice().as_chunks::<2>();
            for (i, (&(_, target_class, reg_target), pair)) in rois.iter().zip(pairs).enumerate() {
                let (logits, code) = (row(&out.cls_logits, i), row(&out.reg_code, i));
                let (argmax, entropy) = logit_pair_stats(pair);
                pred_counts[argmax] += 1;
                pred_entropy_sum += entropy;
                let (cr, gc, gr) =
                    refine_loss(&logits, &code, target_class, reg_target, &self.config);
                refine_cr.cls += cr.cls;
                refine_cr.reg += cr.reg;
                cls_grad.extend_from_slice(gc.as_slice());
                reg_grad.extend_from_slice(gr.as_slice());
            }
            // Eq. (4) sums the C&R terms over clips, so each RoI's
            // gradient contributes at full weight (a mean would shrink
            // the refinement head's learning signal by the batch size).
            head.backward(
                tape,
                Tensor::from_parts([n_rois, 2], cls_grad),
                Tensor::from_parts([n_rois, 4], reg_grad),
                g_ref,
                &mut feat_grad,
                1.0 / n_rois.max(1) as f32,
            );
            if n_rois > 0 {
                // report per-RoI means for readable diagnostics
                refine_cr.cls /= n_rois as f32;
                refine_cr.reg /= n_rois as f32;
            }
        }

        let stats = TrainStats {
            cpn: cpn_cr,
            refine: refine_cr,
            rois: n_rois,
            pred_counts,
            pred_entropy_sum,
        };
        (feat_grad, stats)
    }

    /// Samples refinement training RoIs, balanced to `config.roi_batch`:
    ///
    /// - positives: each ground-truth clip, jittered (guaranteed recall
    ///   supervision even while stage-1 proposals are poor);
    /// - *hard* negatives: the current top-scoring stage-1 proposals with
    ///   low ground-truth overlap — exactly the clips refinement must
    ///   learn to reject at inference (Fig. 8);
    /// - filler negatives: random low-overlap anchors.
    fn sample_training_rois(
        &self,
        sample: &RegionSample,
        out: &CpnOutput,
        rng: &mut impl Rng,
    ) -> Vec<(BBox, usize, Option<[f32; 4]>)> {
        let mut rois = Vec::new();
        let half = (self.config.roi_batch / 2).max(1);

        // Positives: each gt clip, plus jittered copies up to the budget.
        let mut pos = 0usize;
        'outer: loop {
            for gt in &sample.gt_clips {
                if pos >= half {
                    break 'outer;
                }
                let jx: f32 = rng.gen_range(-0.15..0.15) * gt.w;
                let jy: f32 = rng.gen_range(-0.15..0.15) * gt.h;
                let js: f32 = rng.gen_range(0.85..1.2);
                let roi_box = BBox::new(gt.cx + jx, gt.cy + jy, gt.w * js, gt.h * js);
                let code = encode(gt, &roi_box);
                rois.push((roi_box, CLASS_HOTSPOT, Some(code)));
                pos += 1;
            }
            if sample.gt_clips.is_empty() {
                break;
            }
        }

        let needed = self.config.roi_batch - pos.min(self.config.roi_batch);

        // Hard negatives: top-scoring decoded proposals with low overlap.
        let probs = softmax_rows(&out.cls_logits);
        let (rows, _) = probs.as_slice().as_chunks::<2>();
        let mut scored: Vec<(usize, f32)> =
            rows.iter().map(|p| p[CLASS_HOTSPOT]).enumerate().collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let (codes, _) = out.reg_codes.as_slice().as_chunks::<4>();
        let mut neg = 0usize;
        for &(ai, _) in scored.iter().take(needed * 4) {
            if neg >= needed / 2 {
                break;
            }
            let bbox = decode(&codes[ai], &self.anchors[ai]);
            if bbox.area() < 1.0 {
                continue;
            }
            if sample
                .gt_clips
                .iter()
                .all(|g| bbox.iou(g) < self.config.iou_neg)
            {
                rois.push((bbox, CLASS_NON_HOTSPOT, None));
                neg += 1;
            }
        }

        // Filler negatives: in-bounds anchors far from every gt.
        let mut tries = 0;
        while neg < needed && tries < needed * 30 {
            tries += 1;
            let a = &self.anchors[rng.gen_range(0..self.anchors.len())];
            if !inside_region(a, self.config.region_px) {
                continue;
            }
            if sample
                .gt_clips
                .iter()
                .all(|g| a.iou(g) < self.config.iou_neg)
            {
                rois.push((*a, CLASS_NON_HOTSPOT, None));
                neg += 1;
            }
        }
        rois
    }

    /// Raw first-stage proposals for an image: all anchors decoded and
    /// suppressed; the top-scoring survivors are kept (no hard threshold —
    /// the refinement stage applies the final score cut, the standard
    /// region-proposal practice).
    fn propose(&self, feats: &Tensor) -> Vec<Scored> {
        let sp = rhsd_obs::span("cpn");
        let out = self.cpn.forward(feats.clone(), &mut Tape::inference());
        let probs = softmax_rows(&out.cls_logits);
        let mut candidates = Vec::new();
        let (rows, _) = probs.as_slice().as_chunks::<2>();
        let (codes, _) = out.reg_codes.as_slice().as_chunks::<4>();
        for ((anchor, p), code) in self.anchors.iter().zip(rows).zip(codes) {
            let score = p[CLASS_HOTSPOT];
            if score < STAGE1_KEEP_CUT {
                continue; // hopeless candidates: skip for speed only
            }
            // Not clamped: clamping would shift the clip core off the
            // hotspot for detections near the region border. RoI pooling
            // clamps separately when reading features.
            let bbox = decode(code, anchor);
            if bbox.area() < 1.0 {
                continue;
            }
            candidates.push(Scored { bbox, score });
        }
        drop(sp);
        let _sp = rhsd_obs::span("hnms");
        // Suppression stops once the proposal budget is filled.
        let top_n = self.config.pre_nms_top_n;
        if self.config.use_hnms {
            hotspot_nms(&candidates, self.config.hnms_threshold, top_n)
        } else {
            conventional_nms(&candidates, self.config.hnms_threshold, top_n)
        }
    }

    /// First-stage proposals (post h-NMS) for a region raster — exposed
    /// for diagnostics and for single-stage operation.
    ///
    /// Shapes: `image` is `[1, region_px, region_px]`.
    pub fn proposals(&self, image: &Tensor) -> Vec<Scored> {
        self.propose(&self.features(image))
    }

    /// Detects hotspots in a `[1, region_px, region_px]` raster — the
    /// one-step feed-forward region detection of the paper.
    ///
    /// Shapes: `image` is `[1, region_px, region_px]`.
    pub fn detect(&self, image: &Tensor) -> Vec<Detection> {
        self.detect_features(&self.features(image))
    }

    /// The extractor's feature map for one raster, under a `backbone`
    /// span.
    fn features(&self, image: &Tensor) -> Tensor {
        let _sp = rhsd_obs::span("backbone");
        self.extractor
            .forward(image.clone(), &mut Tape::inference())
    }

    /// Everything [`RhsdNetwork::detect`] runs after the extractor:
    /// proposal, refinement and NMS. A caller that replays stored stem
    /// activations through [`FeatureExtractor::forward_rest`] gets
    /// exactly `detect`'s output, because
    /// `forward_rest ∘ forward_stem` is the exact `forward` sequence.
    ///
    /// Shapes: `feats` is the extractor's `[c, f, f]` feature map.
    pub fn detect_features(&self, feats: &Tensor) -> Vec<Detection> {
        let proposals = self.propose(feats);

        let finals: Vec<Scored> = if let Some(head) = &self.refinement {
            let sp = rhsd_obs::span("refine");
            let f = self.config.feature_px();
            let rois: Vec<FeatureRoi> = proposals
                .iter()
                .map(|p| roi_from_bbox(&p.bbox, self.config.stride, f))
                .collect();
            let out = head.forward(feats, &rois, &mut Tape::inference());
            let probs = softmax_rows(&out.cls_logits);
            let mut refined = Vec::new();
            let (rows, _) = probs.as_slice().as_chunks::<2>();
            let (codes, _) = out.reg_code.as_slice().as_chunks::<4>();
            for ((p, prob), code) in proposals.iter().zip(rows).zip(codes) {
                let score = prob[CLASS_HOTSPOT];
                if score < self.config.score_threshold {
                    continue;
                }
                let bbox = decode(code, &p.bbox);
                refined.push(Scored { bbox, score });
            }
            drop(sp);
            let _sp = rhsd_obs::span("hnms");
            if self.config.use_hnms {
                hotspot_nms(&refined, self.config.hnms_threshold, usize::MAX)
            } else {
                conventional_nms(&refined, self.config.hnms_threshold, usize::MAX)
            }
        } else {
            // single-stage (w/o refinement): the stage-1 score is final
            proposals
                .into_iter()
                .filter(|p| p.score >= self.config.score_threshold)
                .collect()
        };

        finals
            .into_iter()
            .map(|s| Detection {
                bbox: s.bbox,
                score: s.score,
            })
            .collect()
    }

    /// The feature extractor (for feature-level benchmarks and
    /// diagnostics).
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Mutable access to the extractor.
    pub fn extractor_mut(&mut self) -> &mut FeatureExtractor {
        &mut self.extractor
    }

    /// The refinement head, when the network has one (for kernel
    /// benchmarks and pinned-numerics tests).
    pub fn refinement(&self) -> Option<&RefinementHead> {
        self.refinement.as_ref()
    }
}

impl Clone for RhsdNetwork {
    /// Rebuilds the architecture from the configuration, then copies the
    /// weights and gradients.
    fn clone(&self) -> Self {
        let mut twin = RhsdNetwork::new(self.config.clone(), &mut ChaCha8Rng::seed_from_u64(0));
        for (dst, src) in twin.params_mut().into_iter().zip(self.params()) {
            dst.clone_from(src);
        }
        twin.grads.clone_from(&self.grads);
        twin
    }
}

/// Row `i` of a `[n, k]` tensor as a `[k]` tensor.
fn row(t: &Tensor, i: usize) -> Tensor {
    let k = t.dim(1);
    Tensor::from_parts([k], t.as_slice()[i * k..][..k].to_vec())
}

/// Argmax index and softmax entropy (nats) of a `[2]` logit pair —
/// numerically stable, pure read of the logits.
///
/// Shapes: `logits` is one row of the refinement head's `[n, 2]`
/// classification output.
fn logit_pair_stats(&[l0, l1]: &[f32; 2]) -> (usize, f32) {
    let m = l0.max(l1);
    let e0 = (l0 - m).exp();
    let e1 = (l1 - m).exp();
    let z = e0 + e1;
    let (p0, p1) = (e0 / z, e1 / z);
    let mut entropy = 0.0f32;
    if p0 > 0.0 {
        entropy -= p0 * p0.ln();
    }
    if p1 > 0.0 {
        entropy -= p1 * p1.ln();
    }
    let argmax = usize::from(l1 > l0);
    (argmax, entropy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_layout::{RasterSpec, Rect};

    fn tiny_sample(cfg: &RhsdConfig, with_hotspot: bool) -> RegionSample {
        let px = cfg.region_px;
        let image = Tensor::from_fn([1, px, px], |c| {
            // vertical stripes pattern
            if (c[2] / 4) % 3 == 0 {
                1.0
            } else {
                0.0
            }
        });
        let window = Rect::new(0, 0, (px * 10) as i64, (px * 10) as i64);
        let spec = RasterSpec::new(window, px, px);
        let (gt_clips, gt_centers) = if with_hotspot {
            let c = px as f32 / 2.0;
            (
                vec![BBox::new(c, c, cfg.clip_px as f32, cfg.clip_px as f32)],
                vec![(c, c)],
            )
        } else {
            (vec![], vec![])
        };
        RegionSample {
            image,
            window,
            spec,
            gt_clips,
            gt_centers,
        }
    }

    #[test]
    fn network_builds_and_counts_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(70);
        let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
        assert!(net.param_count() > 1000);
        assert_eq!(net.anchors().len(), net.config().total_anchors());
    }

    #[test]
    fn train_step_produces_finite_losses_and_grads() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, true);
        net.zero_grad();
        let stats = net.train_step(&sample, &mut rng);
        assert!(stats.total().is_finite(), "{stats:?}");
        assert!(stats.cpn.cls > 0.0);
        assert!(stats.rois > 0, "refinement RoIs sampled");
        let gn: f32 = net.grads().iter().map(|g| g.sq_norm()).sum();
        assert!(gn > 0.0 && gn.is_finite());
    }

    #[test]
    fn train_step_without_hotspots_works() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, false);
        let stats = net.train_step(&sample, &mut rng);
        assert!(stats.total().is_finite());
        assert_eq!(stats.cpn.reg, 0.0, "no positives, no reg loss");
    }

    #[test]
    fn detect_returns_in_bounds_boxes() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, true);
        let dets = net.detect(&sample.image);
        let r = cfg.region_px as f32;
        for d in &dets {
            assert!(d.bbox.x0() >= -1e-3 && d.bbox.x1() <= r + 1e-3);
            assert!(d.score >= 0.0 && d.score <= 1.0);
        }
    }

    #[test]
    fn ablated_network_skips_refinement() {
        let mut cfg = RhsdConfig::tiny();
        cfg.use_refinement = false;
        let mut rng = ChaCha8Rng::seed_from_u64(74);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, true);
        let stats = net.train_step(&sample, &mut rng);
        assert_eq!(stats.rois, 0);
        assert_eq!(stats.refine, CrLoss::default());
        let _ = net.detect(&sample.image);
    }

    #[test]
    fn overfits_single_region() {
        // End-to-end learning sanity: on one fixed region with one hotspot
        // the total loss must drop substantially under plain SGD.
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(75);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, true);
        let mut first = None;
        let mut last = f32::MAX;
        for _ in 0..12 {
            net.zero_grad();
            let stats = net.train_step(&sample, &mut rng);
            let (params, grads) = net.params_and_grads_mut();
            for (p, g) in params.into_iter().zip(grads.iter()) {
                axpy(p, -0.01, g);
            }
            first.get_or_insert(stats.total());
            last = stats.total();
        }
        let first = first.unwrap();
        assert!(
            last < 0.8 * first,
            "loss should drop ≥20%: {first} → {last}"
        );
    }

    #[test]
    fn clone_copies_weights_and_grads_bit_for_bit() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, true);
        net.train_step(&sample, &mut rng);
        let twin = net.clone();
        assert_eq!(twin.params(), net.params());
        assert_eq!(twin.grads(), net.grads());
        assert_eq!(twin.detect(&sample.image), net.detect(&sample.image));
    }

    #[test]
    fn inference_is_shared_and_training_tape_drains() {
        // Inference takes `&self`, so two threads can detect through one
        // network at once and see exactly the serial result.
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, true);
        let serial = net.detect(&sample.image);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| net.detect(&sample.image));
            let b = s.spawn(|| net.detect(&sample.image));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, serial);
        assert_eq!(b, serial);
        // A training step leaves inference unchanged until the weights
        // move: it records on its own tape, not in the layers.
        net.train_step(&sample, &mut rng);
        assert_eq!(net.detect(&sample.image), serial);
    }

    #[test]
    fn logit_pair_stats_argmax_and_entropy() {
        // equal logits: maximal entropy ln 2, argmax ties to class 0
        let (a, e) = logit_pair_stats(&[1.0, 1.0]);
        assert_eq!(a, 0);
        assert!((e - std::f32::consts::LN_2).abs() < 1e-6);
        // one-sided logits: near-zero entropy, argmax follows the winner
        let (a, e) = logit_pair_stats(&[-30.0, 30.0]);
        assert_eq!(a, 1);
        assert!(e < 1e-6, "entropy should vanish: {e}");
        // extreme magnitudes stay finite (stable softmax)
        let (_, e) = logit_pair_stats(&[1e30, -1e30]);
        assert!(e.is_finite());
    }

    #[test]
    fn train_step_records_prediction_stats() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let sample = tiny_sample(&cfg, true);
        let stats = net.train_step(&sample, &mut rng);
        assert_eq!(
            stats.pred_counts[0] + stats.pred_counts[1],
            stats.rois,
            "every RoI contributes one argmax vote"
        );
        // each RoI's two-class entropy lies in [0, ln 2]
        assert!(stats.pred_entropy_sum >= 0.0);
        assert!(stats.pred_entropy_sum <= stats.rois as f32 * (std::f32::consts::LN_2 + 1e-5));
    }

    #[test]
    fn param_names_align_with_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
        let names = net.param_names();
        assert_eq!(names.len(), net.params().len());
        assert_eq!(names.len(), net.grads().len());
        assert!(names.iter().any(|n| n.starts_with("backbone/")));
        assert!(names.iter().any(|n| n.starts_with("cpn/")));
        assert!(names.iter().any(|n| n.starts_with("refine/")));
    }
}
