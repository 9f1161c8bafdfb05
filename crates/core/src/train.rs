//! The end-to-end training loop.
//!
//! Follows §4 of the paper: SGD with an initial learning rate of 0.002
//! decayed ×0.1 on a step schedule, mini-batches of regions, balanced
//! anchor sampling (§3.2.1) and the Eq. (4) multi-task loss with L2
//! regularisation (β = 0.2) unless ablated.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_data::RegionSample;
use rhsd_nn::dynamics::StepDynamics;
use rhsd_nn::loss::{clip_grad_norm, l2_penalty};
use rhsd_nn::optim::{Sgd, StepDecay};

use crate::loss::{CLASS_HOTSPOT, CLASS_NON_HOTSPOT};
use crate::model::RhsdNetwork;
use crate::sentinel::{Sentinel, SentinelConfig, SentinelPolicy, TrainAbort, TripReason};

/// Training-dynamics telemetry controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Collect per-layer dynamics on every Nth optimiser step (`0`
    /// disables collection entirely). The default samples every 4th
    /// step — cheap read-only scans whose cost stays inside the bench
    /// gate's runtime tolerance.
    pub sample_every: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { sample_every: 4 }
    }
}

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
    /// Per-layer training-dynamics telemetry.
    pub telemetry: TelemetryConfig,
    /// Divergence sentinel thresholds and policy.
    pub sentinel: SentinelConfig,
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
            telemetry: TelemetryConfig::default(),
            sentinel: SentinelConfig::default(),
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
            telemetry: TelemetryConfig::default(),
            sentinel: SentinelConfig::default(),
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
            telemetry: TelemetryConfig::default(),
            sentinel: SentinelConfig::default(),
        }
    }
}

/// One layer's (or optimiser parameter group's) dynamics over an epoch,
/// aggregated from the sampled steps.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEpochStats {
    /// Telemetry key: `{scope}/{Name}#{position}` for chain layers,
    /// component-qualified parameter-group names otherwise.
    pub key: String,
    /// Mean absolute activation value (0 for param-only rows).
    pub act_mean_abs: f32,
    /// Fraction of non-positive activations (dead-ReLU side).
    pub dead_frac: f32,
    /// Fraction of saturated activations (`|a|` past the threshold).
    pub saturated_frac: f32,
    /// Mean L2 norm of the gradient flowing out of the layer.
    pub flow_grad_norm: f32,
    /// RMS (over sampled steps) parameter-gradient L2 norm, combined
    /// over the group's slots (0 for parameter-free layers).
    pub grad_norm: f32,
    /// `‖Δw‖ / ‖w‖` weight-update-to-weight ratio (0 when untracked).
    pub update_ratio: f32,
    /// RMS parameter L2 norm after the sampled updates.
    pub weight_norm: f32,
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
    /// Per-layer dynamics from the telemetry-sampled steps (empty when
    /// telemetry is disabled).
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
/// Deterministic for fixed seeds and inputs; the per-layer telemetry is
/// read-only, so histories (and final weights) are bit-identical with
/// telemetry on or off.
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
    let beta = network.config().beta;
    let use_l2 = network.config().use_l2;
    let mut sentinel = Sentinel::new(config.sentinel);
    let sample_every = config.telemetry.sample_every;
    // Component-qualified names aligning 1:1 with `params_mut()` order —
    // computed once; telemetry slots are chunked against this list.
    let param_names = if sample_every > 0 {
        network.param_names()
    } else {
        Vec::new()
    };
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
        let mut epoch_dyn = StepDynamics::default();
        let mut sampled_steps = 0u32;
        network.zero_grad();
        for chunk in order.chunks(config.batch_size.max(1)) {
            let armed = sample_every > 0 && steps.is_multiple_of(sample_every);
            if armed {
                rhsd_nn::dynamics::begin_step();
            }
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
            grad_norm_sum += step(network, &mut opt, use_l2, beta, config.clip_norm);
            steps += 1;
            if armed {
                if let Some(d) = rhsd_nn::dynamics::end_step() {
                    epoch_dyn.absorb(d);
                    sampled_steps += 1;
                }
            }
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
            layers: aggregate_layers(&epoch_dyn, sampled_steps, &param_names),
        };
        // Flow the epoch diagnostics into the metrics registry. The
        // wall-clock throughput stays out of `EpochStats` so training
        // histories remain bit-for-bit deterministic.
        rhsd_obs::record("train.loss", stats.mean_loss as f64);
        rhsd_obs::record("train.grad_norm", stats.mean_grad_norm as f64);
        rhsd_obs::record("train.lr", stats.lr as f64);
        rhsd_obs::record("train.pred_entropy", stats.pred_entropy as f64);
        rhsd_obs::record("train.label_entropy", stats.label_entropy() as f64);
        rhsd_obs::counter("train.samples", seen as u64);
        // Stream the epoch into the run ledger (no-op unless a ledger is
        // open), so every run's training dynamics are captured next to
        // its final numbers.
        rhsd_obs::ledger::emit(&rhsd_obs::ledger::Event::Epoch {
            epoch: epoch as u64,
            mean_loss: stats.mean_loss as f64,
            mean_cpn_cls: stats.mean_cpn_cls as f64,
            mean_cpn_reg: stats.mean_cpn_reg as f64,
            mean_refine_cls: stats.mean_refine_cls as f64,
            grad_norm: stats.mean_grad_norm as f64,
            lr: stats.lr as f64,
            samples: seen as u64,
            pred_entropy: stats.pred_entropy as f64,
            label_entropy: stats.label_entropy() as f64,
            layers: stats
                .layers
                .iter()
                .map(|l| rhsd_obs::ledger::LayerDyn {
                    key: l.key.clone(),
                    act_mean_abs: l.act_mean_abs as f64,
                    dead_frac: l.dead_frac as f64,
                    saturated_frac: l.saturated_frac as f64,
                    flow_grad_norm: l.flow_grad_norm as f64,
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

/// Folds the sampled step dynamics into per-layer epoch rows.
///
/// Activation rows come first in forward order; parameter groups whose
/// key never appeared as a chain activation (e.g. the CPN heads, which
/// run outside `forward_all`) follow as param-only rows. Slot norms for
/// a group are combined as the square root of the summed squares, then
/// RMS-averaged over the sampled steps.
fn aggregate_layers(
    dynamics: &StepDynamics,
    sampled_steps: u32,
    param_names: &[String],
) -> Vec<LayerEpochStats> {
    if sampled_steps == 0 {
        return Vec::new();
    }
    let acts = dynamics.merged_activations();
    let flows = dynamics.merged_flow_grads();
    // Mean-square slot stats chunked per step, combined per group name.
    let mut per_name: Vec<(String, f64, f64, f64)> = Vec::new();
    let n = param_names.len();
    if n > 0 && dynamics.param_updates.len().is_multiple_of(n) && !dynamics.param_updates.is_empty()
    {
        let step_count = (dynamics.param_updates.len() / n) as f64;
        for (i, name) in param_names.iter().enumerate() {
            let mut grad_sq = 0.0f64;
            let mut upd_sq = 0.0f64;
            let mut w_sq = 0.0f64;
            let mut k = i;
            while k < dynamics.param_updates.len() {
                let u = &dynamics.param_updates[k];
                grad_sq += f64::from(u.grad_norm) * f64::from(u.grad_norm);
                upd_sq += f64::from(u.update_norm) * f64::from(u.update_norm);
                w_sq += f64::from(u.weight_norm) * f64::from(u.weight_norm);
                k += n;
            }
            grad_sq /= step_count;
            upd_sq /= step_count;
            w_sq /= step_count;
            match per_name.iter_mut().find(|(nm, ..)| nm == name) {
                Some((_, g, u, w)) => {
                    *g += grad_sq;
                    *u += upd_sq;
                    *w += w_sq;
                }
                None => per_name.push((name.clone(), grad_sq, upd_sq, w_sq)),
            }
        }
    }
    let norms = |key: &str| -> (f32, f32, f32) {
        per_name
            .iter()
            .find(|(nm, ..)| nm == key)
            .map(|(_, g, u, w)| {
                let ratio = if *w > 0.0 { (u / w).sqrt() as f32 } else { 0.0 };
                (g.sqrt() as f32, ratio, w.sqrt() as f32)
            })
            .unwrap_or((0.0, 0.0, 0.0))
    };
    let mut rows = Vec::new();
    for (key, act) in &acts {
        let flow = flows
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v);
        let (grad_norm, update_ratio, weight_norm) = norms(key);
        rows.push(LayerEpochStats {
            key: key.clone(),
            act_mean_abs: act.mean_abs() as f32,
            dead_frac: act.dead_frac() as f32,
            saturated_frac: act.saturated_frac() as f32,
            flow_grad_norm: flow,
            grad_norm,
            update_ratio,
            weight_norm,
        });
    }
    for (name, ..) in &per_name {
        if rows.iter().any(|r: &LayerEpochStats| &r.key == name) {
            continue;
        }
        let (grad_norm, update_ratio, weight_norm) = norms(name);
        rows.push(LayerEpochStats {
            key: name.clone(),
            act_mean_abs: 0.0,
            dead_frac: 0.0,
            saturated_frac: 0.0,
            flow_grad_norm: 0.0,
            grad_norm,
            update_ratio,
            weight_norm,
        });
    }
    rows
}

/// One optimiser step; returns the pre-clip global gradient norm.
fn step(network: &mut RhsdNetwork, opt: &mut Sgd, use_l2: bool, beta: f32, clip: f32) -> f32 {
    let _sp = rhsd_obs::span("train-step");
    let (mut params, grads) = network.params_and_grads_mut();
    let grad_norm = clip_grad_norm(grads, clip);
    if use_l2 {
        // Eq. (4): β/2 · ‖T‖² — adds β·W to each gradient (after clipping,
        // so regularisation strength is independent of gradient scale).
        let _ = l2_penalty(&params, grads, beta);
    }
    opt.step(&mut params, grads);
    grad_norm
}

/// Convenience: trains a fresh network of the given configuration.
pub fn train_new(
    model_config: crate::config::RhsdConfig,
    regions: &[RegionSample],
    train_config: &TrainConfig,
    rng: &mut impl Rng,
) -> (RhsdNetwork, Vec<EpochStats>) {
    let mut net = RhsdNetwork::new(model_config, rng);
    let history = train(&mut net, regions, train_config);
    (net, history)
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

    #[test]
    fn training_is_deterministic() {
        let cfg = RhsdConfig::tiny();
        let samples = synthetic_samples(&cfg, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let (_, h1) = train_new(cfg.clone(), &samples, &TrainConfig::tiny(), &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let (_, h2) = train_new(cfg, &samples, &TrainConfig::tiny(), &mut rng);
        assert_eq!(h1, h2);
    }

    #[test]
    fn l2_ablation_changes_training() {
        let cfg = RhsdConfig::tiny();
        let samples = synthetic_samples(&cfg, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        let (net_l2, _) = train_new(cfg.clone(), &samples, &TrainConfig::tiny(), &mut rng);
        let mut cfg2 = cfg.clone();
        cfg2.use_l2 = false;
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        let (net_free, _) = train_new(cfg2, &samples, &TrainConfig::tiny(), &mut rng);
        // L2-regularised weights should have smaller norm
        let n_l2: f32 = net_l2.params().iter().map(|p| p.sq_norm()).sum();
        let n_free: f32 = net_free.params().iter().map(|p| p.sq_norm()).sum();
        assert!(
            n_l2 < n_free,
            "L2 should shrink weights: {n_l2} vs {n_free}"
        );
    }

    #[test]
    fn paper_train_config_constants() {
        let tc = TrainConfig::paper();
        assert_eq!(tc.batch_size, 12);
        assert_eq!(tc.schedule.initial, 0.002);
        assert_eq!(tc.schedule.every, 30_000);
    }
}
