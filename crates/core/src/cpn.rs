//! The clip proposal network — Fig. 4 of the paper.
//!
//! A 3×3 trunk convolution over the backbone feature map feeds two 1×1
//! sibling heads: a classification branch producing, per anchor, logits
//! for (hotspot, non-hotspot), and a regression branch producing the
//! `[x, y, w, h]` code of Eq. (3). With `K` anchors per position the head
//! depths are `2K` and `4K` (24 and 48 in the paper).

use rand::Rng;
use rhsd_nn::layers::{Conv2d, LeakyRelu};
use rhsd_nn::{Layer, Tape};
use rhsd_tensor::ops::conv::ConvSpec;
use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::Tensor;

use crate::config::RhsdConfig;

/// Raw per-anchor outputs of the proposal network.
#[derive(Debug, Clone)]
pub struct CpnOutput {
    /// `[n_anchors, 2]` classification logits (hotspot, non-hotspot).
    pub cls_logits: Tensor,
    /// `[n_anchors, 4]` regression codes.
    pub reg_codes: Tensor,
}

/// The clip proposal network.
pub struct ClipProposalNetwork {
    trunk: Conv2d,
    trunk_relu: LeakyRelu,
    cls_head: Conv2d,
    reg_head: Conv2d,
    k: usize,
    feature_px: usize,
}

impl ClipProposalNetwork {
    /// Builds the CPN for a backbone emitting `in_channels` channels.
    pub fn new(config: &RhsdConfig, in_channels: usize, rng: &mut impl Rng) -> Self {
        let k = config.anchors_per_position();
        let mid = config.cpn_mid_channels;
        ClipProposalNetwork {
            trunk: Conv2d::new(in_channels, mid, ConvSpec::same(3), rng),
            trunk_relu: LeakyRelu::default_slope(),
            cls_head: Conv2d::new(mid, 2 * k, ConvSpec::same(1), rng),
            reg_head: Conv2d::new(mid, 4 * k, ConvSpec::same(1), rng),
            k,
            feature_px: config.feature_px(),
        }
    }

    /// Anchors per position.
    pub fn anchors_per_position(&self) -> usize {
        self.k
    }

    /// Runs the proposal heads over a `[C, f, f]` feature map, recording
    /// on `tape` what [`ClipProposalNetwork::backward`] needs. The trunk
    /// takes the map itself, so a caller that reads it afterwards passes
    /// a copy.
    ///
    /// Shapes: `features` is `[C, f, f]` with `f` the configured grid;
    /// outputs are `[f·f·k, 2]` logits and `[f·f·k, 4]` codes.
    ///
    /// # Panics
    ///
    /// Panics if the spatial size differs from the configured grid.
    pub fn forward(&self, features: Tensor, tape: &mut Tape) -> CpnOutput {
        let f = self.feature_px;
        assert_eq!(
            (features.dim(1), features.dim(2)),
            (f, f),
            "feature map {} does not match configured grid {f}×{f}",
            features.shape()
        );
        let t = self.trunk.forward(features, tape);
        let t = self.trunk_relu.forward(t, tape);
        let cls_map = self.cls_head.forward(t.clone(), tape);
        let reg_map = self.reg_head.forward(t, tape);
        CpnOutput {
            cls_logits: map_to_rows(&cls_map, 2),
            reg_codes: map_to_rows(&reg_map, 4),
        }
    }

    /// Back-propagates row-space gradients through the forward last
    /// recorded on `tape`, adds the parameter gradients into `grads` (in
    /// [`ClipProposalNetwork::params`] order) and returns the feature-map
    /// gradient.
    ///
    /// Shapes: `cls_grad` is `[f·f·k, 2]`, `reg_grad` is `[f·f·k, 4]`;
    /// the returned gradient matches the forward feature map `[C, f, f]`.
    ///
    /// # Panics
    ///
    /// Panics if called without a recorded
    /// [`ClipProposalNetwork::forward`] or with wrong-shaped gradients.
    pub fn backward(
        &self,
        tape: &mut Tape,
        cls_grad: Tensor,
        reg_grad: Tensor,
        grads: &mut [Tensor],
    ) -> Tensor {
        let f = self.feature_px;
        let n = f * f * self.k;
        assert_eq!(cls_grad.dims(), &[n, 2], "cls grad shape");
        assert_eq!(reg_grad.dims(), &[n, 4], "reg grad shape");
        let cls_map_grad = rows_to_map(&cls_grad, 2 * self.k, f);
        let reg_map_grad = rows_to_map(&reg_grad, 4 * self.k, f);
        // Slots in params order: trunk, cls head, reg head (two each).
        let (g_trunk_slots, rest) = grads.split_at_mut(2);
        let (g_cls_slots, g_reg_slots) = rest.split_at_mut(2);
        // The reg head recorded last, so it pops first.
        let g_reg = self.reg_head.backward(tape, reg_map_grad, g_reg_slots);
        let mut g = self.cls_head.backward(tape, cls_map_grad, g_cls_slots);
        axpy(&mut g, 1.0, &g_reg);
        let g_trunk = self.trunk_relu.backward(tape, g, &mut []);
        self.trunk.backward(tape, g_trunk, g_trunk_slots)
    }

    /// Every trainable parameter: trunk, classification head, regression
    /// head.
    pub fn params(&self) -> Vec<&Tensor> {
        let mut p = self.trunk.params();
        p.extend(self.cls_head.params());
        p.extend(self.reg_head.params());
        p
    }

    /// Mutable access to [`ClipProposalNetwork::params`], same order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.trunk.params_mut();
        p.extend(self.cls_head.params_mut());
        p.extend(self.reg_head.params_mut());
        p
    }

    /// Display names for [`ClipProposalNetwork::params`], index-aligned.
    pub fn param_names(&self) -> Vec<String> {
        ["trunk", "cls_head", "reg_head"]
            .iter()
            .flat_map(|name| [name.to_string(), name.to_string()])
            .collect()
    }
}

/// The anchor rows of a `[w·k, f, f]` head map: row `pos·k + kk`,
/// column `c` is channel `w·kk + c` at position `pos` — the `[f·f, w·k]`
/// transpose of the map viewed as `[w·k, f·f]`, read as `[f·f·k, w]`.
///
/// Shapes: `map` is `[w·k, f, f]`; the result is `[f·f·k, w]`.
fn map_to_rows(map: &Tensor, w: usize) -> Tensor {
    let channels = map.dim(0);
    let rows = transpose(map.as_slice(), channels, map.len() / channels);
    Tensor::from_parts([map.len() / w, w], rows)
}

/// The inverse of [`map_to_rows`]: the `[channels, f, f]` map whose
/// anchor rows are `rows`.
///
/// Shapes: `rows` is `[f·f·k, w]` with `channels = w·k`; the result is
/// `[channels, f, f]`.
fn rows_to_map(rows: &Tensor, channels: usize, f: usize) -> Tensor {
    Tensor::from_parts(
        [channels, f, f],
        transpose(rows.as_slice(), f * f, channels),
    )
}

/// The `[cols, rows]` transpose of a row-major `[rows, cols]` matrix.
fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = Vec::with_capacity(src.len());
    for j in 0..cols {
        out.extend(src[j..].iter().step_by(cols));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_nn::Grads;

    fn setup() -> (RhsdConfig, ClipProposalNetwork, Tensor) {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        let cpn = ClipProposalNetwork::new(&cfg, 6, &mut rng);
        let f = cfg.feature_px();
        let feats = Tensor::rand_normal([6, f, f], 0.0, 1.0, &mut rng);
        (cfg, cpn, feats)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The per-element row read: row `ai`, column `c` is channel
    /// `w·(ai mod k) + c` at position `ai / k`.
    fn oracle_rows(map: &Tensor, k: usize, w: usize) -> Tensor {
        let f = map.dim(1);
        let n = f * f * k;
        let mut out = Tensor::zeros([n, w]);
        for ai in 0..n {
            let (kk, pos) = (ai % k, ai / k);
            for c in 0..w {
                let v = map.get(&[w * kk + c, pos / f, pos % f]);
                out.set(&[ai, c], v);
            }
        }
        out
    }

    /// The per-element map-gradient write: channel `ch` at `(i, j)` is
    /// row `(i·f + j)·k + ch / w`, column `ch mod w`.
    fn oracle_map(rows: &Tensor, k: usize, w: usize, f: usize) -> Tensor {
        let mut out = Tensor::zeros([w * k, f, f]);
        for ch in 0..w * k {
            for i in 0..f {
                for j in 0..f {
                    let ai = (i * f + j) * k + ch / w;
                    out.set(&[ch, i, j], rows.get(&[ai, ch % w]));
                }
            }
        }
        out
    }

    /// Random values with ±0.0 and NaNs of several payloads and signs.
    fn with_specials(dims: &[usize], rng: &mut ChaCha8Rng) -> Tensor {
        let mut t = Tensor::rand_normal(dims, 0.0, 1.0, rng);
        let specials = [0.0, -0.0, f32::NAN, f32::from_bits(0x7fc0_1234), -f32::NAN];
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == 2 {
                *v = specials[(i / 5) % specials.len()];
            }
        }
        t
    }

    #[test]
    fn layout_transposes_equal_the_per_element_formula() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        for (k, f) in [(1, 1), (3, 4), (12, 5), (2, 8)] {
            for w in [2, 4] {
                let map = with_specials(&[w * k, f, f], &mut rng);
                let rows = map_to_rows(&map, w);
                assert_eq!(rows.dims(), &[f * f * k, w]);
                assert_eq!(
                    bits(&rows),
                    bits(&oracle_rows(&map, k, w)),
                    "k {k} f {f} w {w}"
                );
                let grad = with_specials(&[f * f * k, w], &mut rng);
                let back = rows_to_map(&grad, w * k, f);
                assert_eq!(back.dims(), &[w * k, f, f]);
                assert_eq!(
                    bits(&back),
                    bits(&oracle_map(&grad, k, w, f)),
                    "k {k} f {f} w {w}"
                );
            }
        }
    }

    #[test]
    fn forward_rows_equal_the_per_element_read_of_the_head_maps() {
        let (_, cpn, feats) = setup();
        let k = cpn.anchors_per_position();
        let tape = &mut Tape::inference();
        let t = cpn
            .trunk_relu
            .forward(cpn.trunk.forward(feats.clone(), tape), tape);
        let (cls_map, reg_map) = (
            cpn.cls_head.forward(t.clone(), tape),
            cpn.reg_head.forward(t, tape),
        );
        let out = cpn.forward(feats.clone(), tape);
        assert_eq!(bits(&out.cls_logits), bits(&oracle_rows(&cls_map, k, 2)));
        assert_eq!(bits(&out.reg_codes), bits(&oracle_rows(&reg_map, k, 4)));
    }

    #[test]
    fn output_shapes_match_anchor_count() {
        let (cfg, cpn, feats) = setup();
        let out = cpn.forward(feats.clone(), &mut Tape::inference());
        assert_eq!(out.cls_logits.dims(), &[cfg.total_anchors(), 2]);
        assert_eq!(out.reg_codes.dims(), &[cfg.total_anchors(), 4]);
    }

    #[test]
    fn row_layout_is_position_major() {
        // Two forward passes with a spatially-localised feature bump must
        // change only the rows of that feature position.
        let (cfg, cpn, feats) = setup();
        let base = cpn.forward(feats.clone(), &mut Tape::inference());
        let f = cfg.feature_px();
        let mut bumped = feats.clone();
        // bump all channels at position (1, 2)
        for ch in 0..6 {
            let v = bumped.get(&[ch, 1, 2]);
            bumped.set(&[ch, 1, 2], v + 10.0);
        }
        let out = cpn.forward(bumped.clone(), &mut Tape::inference());
        let k = cfg.anchors_per_position();
        // rows of distant position (3, 0) unchanged beyond trunk's 3×3 reach
        let far = (3 * f) * k;
        for kk in 0..k {
            for c in 0..2 {
                assert!(
                    (out.cls_logits.get(&[far + kk, c]) - base.cls_logits.get(&[far + kk, c]))
                        .abs()
                        < 1e-4,
                    "distant row changed"
                );
            }
        }
        // rows of the bumped position changed
        let near = (f + 2) * k;
        let mut moved = false;
        for kk in 0..k {
            for c in 0..2 {
                if (out.cls_logits.get(&[near + kk, c]) - base.cls_logits.get(&[near + kk, c]))
                    .abs()
                    > 1e-3
                {
                    moved = true;
                }
            }
        }
        assert!(moved, "bumped position rows should change");
    }

    #[test]
    fn backward_returns_feature_grad_and_accumulates() {
        let (_, cpn, feats) = setup();
        let mut tape = Tape::recording();
        let out = cpn.forward(feats.clone(), &mut tape);
        let gc = Tensor::ones(out.cls_logits.dims());
        let gr = Tensor::ones(out.reg_codes.dims());
        let mut grads = Grads::zeros_like(cpn.params());
        let gf = cpn.backward(&mut tape, gc, gr, &mut grads);
        assert_eq!(gf.dims(), feats.dims());
        assert!(tape.is_empty());
        assert!(
            grads.iter().all(|g| g.sq_norm() > 0.0),
            "every slot got signal"
        );
        assert_eq!(cpn.param_names().len(), grads.len());
    }

    #[test]
    fn gradcheck_through_row_mapping() {
        // Check d(sum of selected logits)/d(feature) against finite
        // differences — validates the map/row scatter correspondence.
        let (_, cpn, feats) = setup();
        let mut tape = Tape::recording();
        let out = cpn.forward(feats.clone(), &mut tape);
        let mut gc = Tensor::zeros(out.cls_logits.dims());
        // pick a handful of rows
        for ai in [0usize, 5, 17, 40] {
            gc.set(&[ai, 0], 1.0);
            gc.set(&[ai, 1], 1.0);
        }
        let gr = Tensor::zeros(out.reg_codes.dims());
        let mut grads = Grads::zeros_like(cpn.params());
        let gf = cpn.backward(&mut tape, gc, gr, &mut grads);

        let loss = |x: Tensor| {
            let o = cpn.forward(x, &mut Tape::inference());
            let mut s = 0.0;
            for ai in [0usize, 5, 17, 40] {
                s += o.cls_logits.get(&[ai, 0]) + o.cls_logits.get(&[ai, 1]);
            }
            s
        };
        let eps = 1e-2;
        for probe in [0usize, 10, 50] {
            let mut plus = feats.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = feats.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric = (loss(plus) - loss(minus)) / (2.0 * eps);
            let analytic = gf.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "feat[{probe}]: {numeric} vs {analytic}"
            );
        }
    }
}
