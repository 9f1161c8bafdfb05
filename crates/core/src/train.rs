//! The end-to-end training loop.
//!
//! Follows §4 of the paper: SGD with an initial learning rate of 0.002
//! decayed ×0.1 on a step schedule, mini-batches of regions, balanced
//! anchor sampling (§3.2.1) and the Eq. (4) multi-task loss with L2
//! regularisation (β = 0.2) unless ablated.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_data::RegionSample;
use rhsd_nn::loss::{clip_grad_norm, l2_penalty};
use rhsd_nn::optim::{Sgd, StepDecay};

use crate::loss::{CLASS_HOTSPOT, CLASS_NON_HOTSPOT};
use crate::model::RhsdNetwork;
use crate::sentinel::{Sentinel, SentinelPolicy, TrainAbort, TripReason};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training regions.
    pub epochs: usize,
    /// Regions per optimiser step (the paper uses batch 12).
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepDecay,
    /// SGD momentum.
    pub momentum: f32,
    /// Global gradient-norm clip (stabilises early training).
    pub clip_norm: f32,
    /// RNG seed for shuffling/sampling.
    pub seed: u64,
    /// What a divergence-sentinel trip does.
    pub sentinel: SentinelPolicy,
    /// The trained detector's name, which every ledger `epoch` event
    /// carries so a report can tell runs apart; empty: unnamed.
    pub detector: String,
}

impl TrainConfig {
    /// The paper's settings (GPU scale).
    pub fn paper() -> Self {
        TrainConfig {
            epochs: 40,
            batch_size: 12,
            schedule: StepDecay::paper(),
            momentum: 0.9,
            clip_norm: 10.0,
            seed: 2019,
            sentinel: SentinelPolicy::Warn,
            detector: String::new(),
        }
    }

    /// CPU-demo settings: few epochs, small batches, a gentler decay
    /// (the paper's 30 000-step schedule scaled to demo step counts).
    ///
    /// The initial rate is deliberately below the tiny-test value: at
    /// 0.01 with momentum 0.9 the demo-scale network collapses to a
    /// bias-only prior predictor (every ReLU path saturates and the
    /// refinement loss pins at the class-prior entropy), while 0.005
    /// escapes the plateau and learns to discriminate.
    pub fn demo() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 4,
            schedule: StepDecay {
                initial: 0.005,
                factor: 0.3,
                every: 600,
            },
            momentum: 0.9,
            clip_norm: 5.0,
            seed: 2019,
            sentinel: SentinelPolicy::Warn,
            detector: String::new(),
        }
    }

    /// Minimal settings for unit tests.
    pub fn tiny() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 2,
            schedule: StepDecay::constant(0.01),
            momentum: 0.9,
            clip_norm: 5.0,
            seed: 7,
            sentinel: SentinelPolicy::Warn,
            detector: String::new(),
        }
    }
}

/// One optimiser parameter group's dynamics over an epoch: the slots
/// that share a [`RhsdNetwork::param_names`] name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEpochStats {
    /// The group name, component-qualified (`backbone/Conv2d#0`,
    /// `cpn/cls_head`, `refine/fc`, …).
    pub key: String,
    /// RMS (over the epoch's steps) gradient L2 norm, combined over the
    /// group's slots; measured after clipping and L2, as the step reads
    /// it.
    pub grad_norm: f32,
    /// `‖Δw‖ / ‖w‖` weight-update-to-weight ratio (0 for zero weights).
    pub update_ratio: f32,
    /// RMS parameter L2 norm after the updates.
    pub weight_norm: f32,
}

/// One parameter slot's squared L2 norms, summed over an epoch's steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SlotSums {
    /// Gradient the step consumed.
    grad: f64,
    /// Weight delta the step applied (the SGD velocity).
    update: f64,
    /// Weights after the step.
    weight: f64,
}

impl SlotSums {
    fn add(&mut self, grad: f32, update: f32, weight: f32) {
        self.grad += f64::from(grad) * f64::from(grad);
        self.update += f64::from(update) * f64::from(update);
        self.weight += f64::from(weight) * f64::from(weight);
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean total loss over the epoch's samples.
    pub mean_loss: f32,
    /// Mean first-stage classification loss.
    pub mean_cpn_cls: f32,
    /// Mean first-stage localisation loss.
    pub mean_cpn_reg: f32,
    /// Mean refinement classification loss.
    pub mean_refine_cls: f32,
    /// Mean pre-clip global gradient norm over the epoch's optimiser steps.
    pub mean_grad_norm: f32,
    /// Learning rate at the end of the epoch.
    pub lr: f32,
    /// Refinement RoIs whose argmax predicted hotspot, over the epoch.
    pub pred_hotspot: u64,
    /// Refinement RoIs whose argmax predicted non-hotspot.
    pub pred_non_hotspot: u64,
    /// Mean per-RoI prediction (softmax) entropy in nats — ≈`ln 2` is
    /// maximally uncertain, ≈0 is a confident (or collapsed) predictor.
    pub pred_entropy: f32,
    /// Per-parameter-group dynamics, one row per group in parameter
    /// order.
    pub layers: Vec<LayerEpochStats>,
}

impl EpochStats {
    /// Entropy (nats) of the predicted-label histogram. `ln 2` means an
    /// even hotspot/non-hotspot split; 0 means every refinement RoI got
    /// the same argmax — the bias-only-collapse signature (also 0 when
    /// no RoIs were refined; the sentinel guards on the counts).
    pub fn label_entropy(&self) -> f32 {
        let total = self.pred_hotspot + self.pred_non_hotspot;
        if total == 0 {
            return 0.0;
        }
        let mut entropy = 0.0f64;
        for count in [self.pred_hotspot, self.pred_non_hotspot] {
            if count > 0 {
                let p = count as f64 / total as f64;
                entropy -= p * p.ln();
            }
        }
        entropy as f32
    }
}

/// Everything a completed (non-aborted) training run reports: the
/// per-epoch history plus any sentinel trips observed under the `Warn`
/// policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub history: Vec<EpochStats>,
    /// Sentinel trips recorded along the way (empty for a clean run).
    pub trips: Vec<TripReason>,
}

/// Trains a network on region samples; returns per-epoch statistics.
///
/// Deterministic for fixed seeds and inputs. An empty `regions` slice
/// returns immediately with no epochs. Sentinel trips under the `Abort`
/// policy truncate the history at the tripping epoch (use
/// [`train_checked`] to observe the trip itself).
pub fn train(
    network: &mut RhsdNetwork,
    regions: &[RegionSample],
    config: &TrainConfig,
) -> Vec<EpochStats> {
    match train_checked(network, regions, config) {
        Ok(report) => report.history,
        Err(abort) => abort.history,
    }
}

/// Trains a network on region samples, watching the divergence sentinel.
///
/// Deterministic for fixed seeds and inputs.
///
/// # Errors
///
/// Returns [`TrainAbort`] when the sentinel trips under the
/// [`SentinelPolicy::Abort`] policy; the abort carries the history up to
/// and including the tripping epoch. Under `Warn` trips are recorded in
/// the report (and the ledger) and training continues.
pub fn train_checked(
    network: &mut RhsdNetwork,
    regions: &[RegionSample],
    config: &TrainConfig,
) -> Result<TrainReport, TrainAbort> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut opt = Sgd::new(config.schedule, config.momentum);
    let mut sentinel = Sentinel::new(config.sentinel);
    let param_names = network.param_names();
    let mut history = Vec::new();

    let mut order: Vec<usize> = (0..regions.len()).collect();
    for epoch in 0..config.epochs {
        if regions.is_empty() {
            break;
        }
        let sp = rhsd_obs::span("train-epoch");
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f32;
        let mut cls_sum = 0.0f32;
        let mut reg_sum = 0.0f32;
        let mut refine_cls_sum = 0.0f32;
        let mut grad_norm_sum = 0.0f32;
        let mut steps = 0usize;
        let mut seen = 0usize;
        let mut pred_hotspot = 0u64;
        let mut pred_non_hotspot = 0u64;
        let mut pred_entropy_sum = 0.0f32;
        let mut slots = vec![SlotSums::default(); param_names.len()];
        network.zero_grad();
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch: Vec<&RegionSample> = chunk.iter().map(|&ri| &regions[ri]).collect();
            for stats in network.train_batch(&batch, &mut rng) {
                loss_sum += stats.total();
                cls_sum += stats.cpn.cls;
                reg_sum += stats.cpn.reg;
                refine_cls_sum += stats.refine.cls;
                pred_hotspot += stats.pred_counts[CLASS_HOTSPOT] as u64;
                pred_non_hotspot += stats.pred_counts[CLASS_NON_HOTSPOT] as u64;
                pred_entropy_sum += stats.pred_entropy_sum;
            }
            seen += batch.len();
            grad_norm_sum += step(network, &mut opt, config.clip_norm, &mut slots);
            steps += 1;
        }
        let denom = seen.max(1) as f32;
        let pred_total = pred_hotspot + pred_non_hotspot;
        let stats = EpochStats {
            epoch,
            mean_loss: loss_sum / denom,
            mean_cpn_cls: cls_sum / denom,
            mean_cpn_reg: reg_sum / denom,
            mean_refine_cls: refine_cls_sum / denom,
            mean_grad_norm: grad_norm_sum / steps.max(1) as f32,
            lr: opt.lr(),
            pred_hotspot,
            pred_non_hotspot,
            pred_entropy: pred_entropy_sum / pred_total.max(1) as f32,
            layers: aggregate_layers(&slots, steps, &param_names),
        };
        // Flow the epoch diagnostics into the metrics registry. The
        // wall-clock throughput stays out of `EpochStats` so training
        // histories remain bit-for-bit deterministic.
        rhsd_obs::record("train.loss", stats.mean_loss as f64);
        rhsd_obs::record("train.grad_norm", stats.mean_grad_norm as f64);
        rhsd_obs::record("train.lr", stats.lr as f64);
        // An epoch that refined no RoI has no prediction to take an
        // entropy over: its entropies are absent, not the 0 that reads
        // as a collapse.
        let entropies = (pred_total > 0).then(|| {
            (
                f64::from(stats.pred_entropy),
                f64::from(stats.label_entropy()),
            )
        });
        if let Some((pred, label)) = entropies {
            rhsd_obs::record("train.pred_entropy", pred);
            rhsd_obs::record("train.label_entropy", label);
        }
        rhsd_obs::counter("train.samples", seen as u64);
        // Stream the epoch into the run ledger (no-op unless a ledger is
        // open), so every run's training dynamics are captured next to
        // its final numbers.
        rhsd_obs::ledger::emit(&rhsd_obs::ledger::Event::Epoch {
            detector: config.detector.clone(),
            epoch: epoch as u64,
            mean_loss: stats.mean_loss as f64,
            mean_cpn_cls: stats.mean_cpn_cls as f64,
            mean_cpn_reg: stats.mean_cpn_reg as f64,
            mean_refine_cls: stats.mean_refine_cls as f64,
            grad_norm: stats.mean_grad_norm as f64,
            lr: stats.lr as f64,
            samples: seen as u64,
            pred_entropy: entropies.map(|e| e.0),
            label_entropy: entropies.map(|e| e.1),
            layers: stats
                .layers
                .iter()
                .map(|l| rhsd_obs::ledger::LayerDyn {
                    key: l.key.clone(),
                    grad_norm: l.grad_norm as f64,
                    update_ratio: l.update_ratio as f64,
                    weight_norm: l.weight_norm as f64,
                })
                .collect(),
        });
        if rhsd_obs::enabled() {
            let secs = sp.elapsed_secs();
            if secs > 0.0 {
                rhsd_obs::record("train.samples_per_sec", seen as f64 / secs);
            }
        }
        let trip = sentinel.observe(&stats);
        history.push(stats);
        if let Some(reason) = trip {
            rhsd_obs::counter("train.sentinel_trips", 1);
            rhsd_obs::ledger::emit(&rhsd_obs::ledger::Event::Sentinel {
                epoch: epoch as u64,
                reason: reason.tag().to_owned(),
                detail: reason.to_string(),
                action: sentinel.policy().tag().to_owned(),
            });
            if sentinel.policy() == SentinelPolicy::Abort {
                return Err(TrainAbort { reason, history });
            }
        }
    }
    Ok(TrainReport {
        history,
        trips: sentinel.into_trips(),
    })
}

/// Folds an epoch's slot sums into one row per group name, in
/// first-seen order: each slot's mean square over the `steps`, summed
/// over the group's slots, then the square root (an RMS over steps of
/// the group's combined norm).
fn aggregate_layers(slots: &[SlotSums], steps: usize, names: &[String]) -> Vec<LayerEpochStats> {
    if steps == 0 {
        return Vec::new();
    }
    let steps = steps as f64;
    let mut groups: Vec<(&String, SlotSums)> = Vec::new();
    for (name, slot) in names.iter().zip(slots) {
        let i = match groups.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                groups.push((name, SlotSums::default()));
                groups.len() - 1
            }
        };
        let g = &mut groups[i].1;
        g.grad += slot.grad / steps;
        g.update += slot.update / steps;
        g.weight += slot.weight / steps;
    }
    groups
        .into_iter()
        .map(|(key, g)| LayerEpochStats {
            key: key.clone(),
            grad_norm: g.grad.sqrt() as f32,
            update_ratio: if g.weight > 0.0 {
                (g.update / g.weight).sqrt() as f32
            } else {
                0.0
            },
            weight_norm: g.weight.sqrt() as f32,
        })
        .collect()
}

/// One optimiser step; returns the pre-clip global gradient norm and
/// adds each parameter slot's norms into `slots`: the gradient the step
/// consumes, the delta it applies and the weights it leaves.
fn step(network: &mut RhsdNetwork, opt: &mut Sgd, clip: f32, slots: &mut [SlotSums]) -> f32 {
    let _sp = rhsd_obs::span("train-step");
    let (use_l2, beta) = (network.config().use_l2, network.config().beta);
    let (mut params, grads) = network.params_and_grads_mut();
    let grad_norm = clip_grad_norm(grads, clip);
    if use_l2 {
        // Eq. (4): β/2 · ‖T‖² — adds β·W to each gradient (after clipping,
        // so regularisation strength is independent of gradient scale).
        let _ = l2_penalty(&params, grads, beta);
    }
    let slot_grads: Vec<f32> = grads.iter().map(|g| g.sq_norm().sqrt()).collect();
    opt.step(&mut params, grads);
    for (((slot, g), v), w) in slots
        .iter_mut()
        .zip(slot_grads)
        .zip(opt.velocities())
        .zip(&params)
    {
        slot.add(g, v.sq_norm().sqrt(), w.sq_norm().sqrt());
    }
    grad_norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RhsdConfig;
    use rhsd_data::BBox;
    use rhsd_layout::{RasterSpec, Rect};
    use rhsd_tensor::Tensor;

    fn synthetic_samples(cfg: &RhsdConfig, n: usize) -> Vec<RegionSample> {
        let px = cfg.region_px;
        (0..n)
            .map(|i| {
                // hotspot marker: a bright blob at a per-sample location
                let cx = (px / 4 + (i * 13) % (px / 2)) as f32;
                let cy = (px / 4 + (i * 29) % (px / 2)) as f32;
                let image = Tensor::from_fn([1, px, px], |c| {
                    let dx = c[2] as f32 - cx;
                    let dy = c[1] as f32 - cy;
                    if dx * dx + dy * dy < 36.0 {
                        1.0
                    } else if (c[2] / 4) % 3 == 0 {
                        0.6
                    } else {
                        0.0
                    }
                });
                let window = Rect::new(0, 0, (px * 10) as i64, (px * 10) as i64);
                RegionSample {
                    image,
                    window,
                    spec: RasterSpec::new(window, px, px),
                    gt_clips: vec![BBox::new(cx, cy, cfg.clip_px as f32, cfg.clip_px as f32)],
                    gt_centers: vec![(cx, cy)],
                }
            })
            .collect()
    }

    #[test]
    fn training_loss_decreases() {
        let cfg = RhsdConfig::tiny();
        let samples = synthetic_samples(&cfg, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let mut net = RhsdNetwork::new(cfg, &mut rng);
        let mut tc = TrainConfig::tiny();
        tc.epochs = 4;
        let history = train(&mut net, &samples, &tc);
        assert_eq!(history.len(), 4);
        let first = history.first().unwrap().mean_loss;
        let last = history.last().unwrap().mean_loss;
        assert!(last < first, "loss should decrease: {first} → {last}");
    }

    #[test]
    fn empty_region_list_is_graceful() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let mut net = RhsdNetwork::new(cfg, &mut rng);
        let history = train(&mut net, &[], &TrainConfig::tiny());
        assert!(history.is_empty());
    }

    /// Trains a fresh network of `cfg`, initialised from `seed`.
    fn train_fresh(cfg: RhsdConfig, seed: u64, samples: &[RegionSample]) -> RhsdNetwork {
        let mut net = RhsdNetwork::new(cfg, &mut ChaCha8Rng::seed_from_u64(seed));
        let history = train(&mut net, samples, &TrainConfig::tiny());
        assert_eq!(history.len(), TrainConfig::tiny().epochs);
        net
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = RhsdConfig::tiny();
        let samples = synthetic_samples(&cfg, 2);
        let run = || {
            let mut net = RhsdNetwork::new(cfg.clone(), &mut ChaCha8Rng::seed_from_u64(82));
            train(&mut net, &samples, &TrainConfig::tiny())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn l2_ablation_changes_training() {
        let cfg = RhsdConfig::tiny();
        let samples = synthetic_samples(&cfg, 2);
        let net_l2 = train_fresh(cfg.clone(), 83, &samples);
        let mut cfg2 = cfg.clone();
        cfg2.use_l2 = false;
        let net_free = train_fresh(cfg2, 83, &samples);
        // L2-regularised weights should have smaller norm
        let n_l2: f32 = net_l2.params().iter().map(|p| p.sq_norm()).sum();
        let n_free: f32 = net_free.params().iter().map(|p| p.sq_norm()).sum();
        assert!(
            n_l2 < n_free,
            "L2 should shrink weights: {n_l2} vs {n_free}"
        );
    }

    /// Two slots of group `a` and one of `b` over two steps: each slot's
    /// mean square over the steps, summed per group, then the root.
    #[test]
    fn aggregate_layers_combines_a_group_rms_over_steps() {
        let names: Vec<String> = ["a", "b", "a"].map(String::from).into();
        let mut slots = [SlotSums::default(); 3];
        // (grad, update, weight) per slot, step by step.
        for norms in [
            [(3.0, 1.0, 2.0), (1.0, 0.0, 0.0), (0.0, 2.0, 4.0)],
            [(4.0, 1.0, 2.0), (1.0, 0.0, 0.0), (5.0, 2.0, 4.0)],
        ] {
            for (slot, (g, u, w)) in slots.iter_mut().zip(norms) {
                slot.add(g, u, w);
            }
        }
        let rows = aggregate_layers(&slots, 2, &names);
        assert_eq!(rows.len(), 2);
        let (a, b) = (&rows[0], &rows[1]);
        // a: grad (9 + 16)/2 + (0 + 25)/2 = 25; update 1 + 4 = 5;
        // weight 4 + 16 = 20.
        assert_eq!(a.key, "a");
        assert_eq!(a.grad_norm, 5.0);
        assert_eq!(a.update_ratio, (5.0f64 / 20.0).sqrt() as f32);
        assert_eq!(a.weight_norm, 20.0f64.sqrt() as f32);
        // b: zero weights report a zero ratio.
        assert_eq!((b.key.as_str(), b.grad_norm), ("b", 1.0));
        assert_eq!((b.update_ratio, b.weight_norm), (0.0, 0.0));
        assert!(aggregate_layers(&slots, 0, &names).is_empty());
    }

    /// Every epoch reports one row per parameter group, in parameter
    /// order, with the gradients the steps consumed.
    #[test]
    fn epochs_report_every_parameter_group() {
        let cfg = RhsdConfig::tiny();
        let samples = synthetic_samples(&cfg, 2);
        let mut net = RhsdNetwork::new(cfg, &mut ChaCha8Rng::seed_from_u64(84));
        let mut groups = net.param_names();
        groups.dedup();
        let history = train(&mut net, &samples, &TrainConfig::tiny());
        for e in &history {
            let keys: Vec<&String> = e.layers.iter().map(|l| &l.key).collect();
            assert_eq!(keys, groups.iter().collect::<Vec<_>>());
            assert!(e
                .layers
                .iter()
                .all(|l| l.grad_norm > 0.0 && l.weight_norm > 0.0));
        }
    }

    #[test]
    fn paper_train_config_constants() {
        let tc = TrainConfig::paper();
        assert_eq!(tc.batch_size, 12);
        assert_eq!(tc.schedule.initial, 0.002);
        assert_eq!(tc.schedule.every, 30_000);
    }
}
