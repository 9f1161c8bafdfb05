//! Divergence sentinel: typed early-warning checks over per-epoch
//! training statistics.
//!
//! Training failures in this stack have shown up in four shapes, each
//! with its own check:
//!
//! - **non-finite loss** — a NaN/Inf epoch loss (numerical blow-up);
//! - **loss spike** — the epoch loss jumping far above the windowed
//!   median of recent epochs (divergence before it reaches NaN);
//! - **vanishing gradient** — the mean global gradient norm collapsing
//!   to ≈0 (a frozen network);
//! - **bias-only collapse** — the predicted-label histogram entropy
//!   pinned at ≈0 while the refinement classification loss plateaus:
//!   every refinement RoI gets the same argmax and the refine head
//!   stops improving (the total loss keeps falling on the CPN terms,
//!   which is what made this failure invisible). This is the exact signature
//!   of the demo-scale lr = 0.01 collapse that made every quick/full
//!   detector report 0% accuracy (fixed by lowering the rate; the
//!   regression test in `tests/training_dynamics.rs` re-creates it and
//!   pins that this sentinel fires).
//!
//! The sentinel's [`SentinelPolicy`] decides what a trip does: `Warn`
//! records it (ledger event + metrics counter) and training continues;
//! `Abort` stops the run with a typed [`TrainAbort`] carrying the
//! history so far.

use crate::train::EpochStats;

/// What a sentinel trip does to the training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SentinelPolicy {
    /// Record the trip (ledger + metrics) and keep training.
    #[default]
    Warn,
    /// Stop training with a typed [`TrainAbort`].
    Abort,
}

impl SentinelPolicy {
    /// Stable lowercase tag used in ledger events.
    pub fn tag(&self) -> &'static str {
        match self {
            SentinelPolicy::Warn => "warn",
            SentinelPolicy::Abort => "abort",
        }
    }
}

// Divergence-sentinel thresholds, tuned against the demo/quick training
// scale: the healthy lr = 0.005 quick run never trips them, while the
// lr = 0.01 collapse does (both pinned by `tests/training_dynamics.rs`).

/// Loss-spike factor over the windowed median of recent epoch losses.
const SPIKE_FACTOR: f32 = 4.0;
/// Number of recent epoch losses forming the spike window; the spike
/// check only runs once the window is full.
const SPIKE_WINDOW: usize = 5;
/// Mean epoch gradient norm below this is a vanishing gradient.
const MIN_GRAD_NORM: f32 = 1e-6;
/// Bias-collapse: predicted-label histogram entropy (nats) at or below
/// this counts as "all RoIs get one class".
const COLLAPSE_MAX_LABEL_ENTROPY: f32 = 0.1;
/// Bias-collapse: relative epoch-over-epoch change of the *refinement
/// classification* loss at or below this counts as a plateau. The
/// refine component is what pins at the class-prior entropy during a
/// bias-only collapse — the total loss keeps falling on the CPN terms,
/// which is why that collapse was invisible in the aggregate loss
/// curve.
const COLLAPSE_MAX_REFINE_DELTA: f32 = 0.05;
/// Bias-collapse trips after this many *consecutive* collapsed and
/// plateaued epochs.
const COLLAPSE_EPOCHS: usize = 2;

/// Why the sentinel tripped, with the evidence.
#[derive(Debug, Clone, PartialEq)]
pub enum TripReason {
    /// The epoch mean loss was NaN or Inf.
    NonFiniteLoss {
        /// Epoch index of the trip.
        epoch: usize,
        /// The offending loss value.
        loss: f32,
    },
    /// The epoch loss jumped past `SPIKE_FACTOR ×` the windowed median.
    LossSpike {
        /// Epoch index of the trip.
        epoch: usize,
        /// The offending loss value.
        loss: f32,
        /// Windowed median it was compared against.
        median: f32,
    },
    /// The mean gradient norm fell below the floor.
    VanishingGradient {
        /// Epoch index of the trip.
        epoch: usize,
        /// The offending mean gradient norm.
        grad_norm: f32,
    },
    /// Label entropy ≈ 0 while the refinement loss plateaued (bias-only
    /// collapse).
    BiasCollapse {
        /// Epoch index of the trip.
        epoch: usize,
        /// Predicted-label histogram entropy (nats) at the trip.
        label_entropy: f32,
        /// Relative refinement-classification-loss change over the last
        /// epoch.
        refine_delta: f32,
    },
}

impl TripReason {
    /// Stable snake_case tag used in ledger events and run statuses.
    pub fn tag(&self) -> &'static str {
        match self {
            TripReason::NonFiniteLoss { .. } => "non_finite_loss",
            TripReason::LossSpike { .. } => "loss_spike",
            TripReason::VanishingGradient { .. } => "vanishing_gradient",
            TripReason::BiasCollapse { .. } => "bias_collapse",
        }
    }

    /// Epoch the trip happened in.
    pub fn epoch(&self) -> usize {
        match self {
            TripReason::NonFiniteLoss { epoch, .. }
            | TripReason::LossSpike { epoch, .. }
            | TripReason::VanishingGradient { epoch, .. }
            | TripReason::BiasCollapse { epoch, .. } => *epoch,
        }
    }
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripReason::NonFiniteLoss { epoch, loss } => {
                write!(f, "epoch {epoch}: non-finite loss ({loss})")
            }
            TripReason::LossSpike {
                epoch,
                loss,
                median,
            } => write!(
                f,
                "epoch {epoch}: loss spike ({loss:.4} vs windowed median {median:.4})"
            ),
            TripReason::VanishingGradient { epoch, grad_norm } => {
                write!(
                    f,
                    "epoch {epoch}: vanishing gradient norm ({grad_norm:.3e})"
                )
            }
            TripReason::BiasCollapse {
                epoch,
                label_entropy,
                refine_delta,
            } => write!(
                f,
                "epoch {epoch}: bias-only collapse (label entropy {label_entropy:.4} nats, \
                 refine-loss delta {refine_delta:.4})"
            ),
        }
    }
}

/// Typed training abort: the trip that stopped the run plus everything
/// trained before it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainAbort {
    /// The sentinel trip that stopped training.
    pub reason: TripReason,
    /// Per-epoch statistics up to and including the tripping epoch.
    pub history: Vec<EpochStats>,
}

impl std::fmt::Display for TrainAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training aborted by sentinel ({}): {}",
            self.reason.tag(),
            self.reason
        )
    }
}

impl std::error::Error for TrainAbort {}

/// Stateful per-run sentinel; feed it one [`EpochStats`] per epoch.
#[derive(Debug, Clone)]
pub struct Sentinel {
    policy: SentinelPolicy,
    /// Recent finite epoch losses, newest last, capped at `SPIKE_WINDOW`.
    recent_losses: Vec<f32>,
    /// Refinement classification loss of the previous epoch (plateau
    /// detection for the bias-collapse check).
    prev_refine_cls: Option<f32>,
    /// Consecutive collapsed + plateaued epochs.
    collapse_streak: usize,
    trips: Vec<TripReason>,
}

impl Sentinel {
    /// Creates a sentinel whose trips do what `policy` says.
    pub fn new(policy: SentinelPolicy) -> Self {
        Sentinel {
            policy,
            recent_losses: Vec::new(),
            prev_refine_cls: None,
            collapse_streak: 0,
            trips: Vec::new(),
        }
    }

    /// What a trip does.
    pub fn policy(&self) -> SentinelPolicy {
        self.policy
    }

    /// Every trip observed so far (under `Warn` these accumulate).
    pub fn trips(&self) -> &[TripReason] {
        &self.trips
    }

    /// Consumes the sentinel, returning every trip observed.
    pub fn into_trips(self) -> Vec<TripReason> {
        self.trips
    }

    /// Observes one epoch; returns the trip if any check fired. Checks
    /// run in severity order and at most one trips per epoch.
    pub fn observe(&mut self, stats: &EpochStats) -> Option<TripReason> {
        let trip = self.check(stats);
        self.advance(stats);
        if let Some(t) = &trip {
            self.trips.push(t.clone());
        }
        trip
    }

    fn check(&mut self, stats: &EpochStats) -> Option<TripReason> {
        let epoch = stats.epoch;
        let loss = stats.mean_loss;
        if !loss.is_finite() {
            return Some(TripReason::NonFiniteLoss { epoch, loss });
        }
        if self.recent_losses.len() >= SPIKE_WINDOW {
            let median = median(&self.recent_losses);
            if median > 0.0 && loss > SPIKE_FACTOR * median {
                return Some(TripReason::LossSpike {
                    epoch,
                    loss,
                    median,
                });
            }
        }
        if stats.mean_grad_norm < MIN_GRAD_NORM {
            return Some(TripReason::VanishingGradient {
                epoch,
                grad_norm: stats.mean_grad_norm,
            });
        }
        // Bias-only collapse: label entropy pinned at ≈0 while the
        // refinement classification loss plateaus, for `COLLAPSE_EPOCHS`
        // epochs running. Only assessed when RoIs were actually refined
        // (the "w/o. Refine" ablation has no labels to take entropy
        // over) and once a previous epoch exists to measure the plateau
        // against.
        let refined = stats.pred_hotspot + stats.pred_non_hotspot > 0;
        if refined {
            if let Some(prev) = self.prev_refine_cls {
                let refine_delta = if prev > 0.0 {
                    ((stats.mean_refine_cls - prev) / prev).abs()
                } else {
                    0.0
                };
                let collapsed = stats.label_entropy() <= COLLAPSE_MAX_LABEL_ENTROPY
                    && refine_delta <= COLLAPSE_MAX_REFINE_DELTA;
                if collapsed {
                    self.collapse_streak += 1;
                } else {
                    self.collapse_streak = 0;
                }
                if self.collapse_streak >= COLLAPSE_EPOCHS {
                    self.collapse_streak = 0;
                    return Some(TripReason::BiasCollapse {
                        epoch,
                        label_entropy: stats.label_entropy(),
                        refine_delta,
                    });
                }
            }
        } else {
            self.collapse_streak = 0;
        }
        None
    }

    fn advance(&mut self, stats: &EpochStats) {
        if stats.mean_loss.is_finite() {
            self.recent_losses.push(stats.mean_loss);
            if self.recent_losses.len() > SPIKE_WINDOW {
                self.recent_losses.remove(0);
            }
        }
        self.prev_refine_cls = stats
            .mean_refine_cls
            .is_finite()
            .then_some(stats.mean_refine_cls);
    }
}

/// Median of a non-empty slice (copy + sort; windows are tiny).
fn median(xs: &[f32]) -> f32 {
    let mut v = xs.to_vec();
    v.sort_by(f32::total_cmp);
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(epoch: usize, loss: f32, grad: f32, hot: u64, non: u64) -> EpochStats {
        EpochStats {
            epoch,
            mean_loss: loss,
            mean_cpn_cls: loss / 2.0,
            mean_cpn_reg: 0.0,
            mean_refine_cls: loss / 2.0,
            mean_grad_norm: grad,
            lr: 0.005,
            pred_hotspot: hot,
            pred_non_hotspot: non,
            pred_entropy: 0.5,
            layers: Vec::new(),
        }
    }

    #[test]
    fn nan_loss_trips_immediately() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        let trip = s.observe(&stats(0, f32::NAN, 1.0, 5, 5));
        assert!(matches!(
            trip,
            Some(TripReason::NonFiniteLoss { epoch: 0, .. })
        ));
        assert_eq!(trip.unwrap().tag(), "non_finite_loss");
        assert_eq!(s.trips().len(), 1);
    }

    #[test]
    fn loss_spike_needs_a_full_window() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        for e in 0..5 {
            assert!(s.observe(&stats(e, 1.0, 1.0, 5, 5)).is_none());
        }
        // 10× the median of five 1.0 losses
        let trip = s.observe(&stats(5, 10.0, 1.0, 5, 5));
        assert!(matches!(trip, Some(TripReason::LossSpike { epoch: 5, .. })));
    }

    #[test]
    fn early_big_loss_without_window_is_not_a_spike() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        assert!(s.observe(&stats(0, 100.0, 1.0, 5, 5)).is_none());
        assert!(s.observe(&stats(1, 2.0, 1.0, 5, 5)).is_none());
    }

    #[test]
    fn vanishing_gradient_trips() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        let trip = s.observe(&stats(0, 1.0, 1e-9, 5, 5));
        assert!(matches!(trip, Some(TripReason::VanishingGradient { .. })));
    }

    #[test]
    fn bias_collapse_needs_consecutive_plateaued_epochs() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        // all predictions one class, loss flat — epoch 0 establishes the
        // baseline, epochs 1–2 build the streak, epoch 2 trips
        assert!(s.observe(&stats(0, 1.0, 1.0, 10, 0)).is_none());
        assert!(s.observe(&stats(1, 1.0, 1.0, 10, 0)).is_none());
        let trip = s.observe(&stats(2, 1.0, 1.0, 10, 0));
        assert!(
            matches!(trip, Some(TripReason::BiasCollapse { epoch: 2, .. })),
            "{trip:?}"
        );
    }

    #[test]
    fn healthy_label_split_never_collapses() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        for e in 0..10 {
            let trip = s.observe(&stats(e, 1.0, 1.0, 5, 5));
            assert!(trip.is_none(), "epoch {e}: {trip:?}");
        }
    }

    #[test]
    fn decreasing_loss_resets_the_collapse_streak() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        // entropy 0 throughout, but the loss keeps improving >5%/epoch —
        // that is a prior-fitting phase, not a collapse
        let mut loss = 4.0;
        for e in 0..8 {
            let trip = s.observe(&stats(e, loss, 1.0, 10, 0));
            assert!(trip.is_none(), "epoch {e}: {trip:?}");
            loss *= 0.9;
        }
    }

    #[test]
    fn no_refinement_rois_skip_the_collapse_check() {
        let mut s = Sentinel::new(SentinelPolicy::Warn);
        for e in 0..6 {
            assert!(s.observe(&stats(e, 1.0, 1.0, 0, 0)).is_none());
        }
    }

    #[test]
    fn policy_tags_are_stable() {
        assert_eq!(SentinelPolicy::Warn.tag(), "warn");
        assert_eq!(SentinelPolicy::Abort.tag(), "abort");
        assert_eq!(
            Sentinel::new(SentinelPolicy::Abort).policy(),
            SentinelPolicy::Abort
        );
    }

    #[test]
    fn median_of_window() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
