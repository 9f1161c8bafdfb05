//! Training-dynamics telemetry: per-layer activation and gradient
//! statistics collected during [`forward_all`]/[`backward_all`] and
//! optimiser steps.
//!
//! The collector is **thread-local and default-off**: nothing is
//! recorded (and nothing is computed) until [`begin_step`] arms it, so
//! the inference path and `rhsd-par` worker threads pay only a
//! thread-local flag read per layer chain. All statistics are computed
//! by *reading* tensors with plain sequential loops — arming the
//! collector can never change model outputs, which stay bit-identical
//! with telemetry on or off (pinned by `tests/training_dynamics.rs`).
//!
//! Only the *outermost* layer chain records: composite layers
//! (`Sequential`, the encoder–decoder, Inception blocks) run nested
//! [`forward_all`] calls internally, and a reentrancy depth gate keeps
//! those from double-counting. Keys are `{scope}/{Name}#{index}` where
//! the scope (e.g. `backbone`) is pushed by the caller via [`scope`]
//! and `#{index}` is the layer's position in the outermost chain.
//!
//! [`forward_all`]: crate::forward_all
//! [`backward_all`]: crate::backward_all

use std::cell::RefCell;

use rhsd_tensor::Tensor;

/// Activations with magnitude above this count as saturated — a coarse
/// "exploding activation" heuristic for the post-conv LeakyReLU maps,
/// whose healthy magnitudes sit well below 1.
pub const SATURATION_ABS: f32 = 10.0;

/// Single-pass summary of one activation tensor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActStat {
    /// Total number of scalars scanned.
    pub elems: u64,
    /// Scalars `<= 0` — the dead side of a ReLU-family activation.
    pub nonpos: u64,
    /// Scalars with `|a| >` [`SATURATION_ABS`].
    pub saturated: u64,
    /// Sum of absolute values (for the mean magnitude).
    pub abs_sum: f64,
}

impl ActStat {
    /// Scans `t` in storage order with scalar accumulators (pinned,
    /// deterministic reduction order).
    ///
    /// Shapes: accepts any shape; statistics are over all scalars.
    pub fn of(t: &Tensor) -> Self {
        let mut s = ActStat {
            elems: t.len() as u64,
            ..ActStat::default()
        };
        for &a in t.as_slice() {
            if a <= 0.0 {
                s.nonpos += 1;
            }
            if a.abs() > SATURATION_ABS {
                s.saturated += 1;
            }
            s.abs_sum += f64::from(a.abs());
        }
        s
    }

    /// Fraction of non-positive scalars (dead-ReLU fraction), in `[0, 1]`.
    pub fn dead_frac(&self) -> f64 {
        if self.elems == 0 {
            0.0
        } else {
            self.nonpos as f64 / self.elems as f64
        }
    }

    /// Fraction of saturated scalars, in `[0, 1]`.
    pub fn saturated_frac(&self) -> f64 {
        if self.elems == 0 {
            0.0
        } else {
            self.saturated as f64 / self.elems as f64
        }
    }

    /// Mean absolute value of the activation map.
    pub fn mean_abs(&self) -> f64 {
        if self.elems == 0 {
            0.0
        } else {
            self.abs_sum / self.elems as f64
        }
    }

    /// Merges another tensor's summary into this one (running totals
    /// across the samples of a batch).
    pub fn merge(&mut self, other: &ActStat) {
        self.elems += other.elems;
        self.nonpos += other.nonpos;
        self.saturated += other.saturated;
        self.abs_sum += other.abs_sum;
    }
}

/// One optimiser parameter-slot update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParamUpdate {
    /// L2 norm of the accumulated gradient consumed by the step.
    pub grad_norm: f32,
    /// L2 norm of the applied weight delta (the SGD velocity).
    pub update_norm: f32,
    /// L2 norm of the weights *after* the update.
    pub weight_norm: f32,
}

impl ParamUpdate {
    /// `‖Δw‖ / ‖w‖` — the classic learning-health ratio (≈1e-3 is
    /// healthy; ≪1e-5 means frozen, ≫1e-2 means thrashing). Zero-weight
    /// parameters report 0.
    pub fn update_ratio(&self) -> f64 {
        if self.weight_norm > 0.0 {
            f64::from(self.update_norm) / f64::from(self.weight_norm)
        } else {
            0.0
        }
    }
}

/// Everything recorded between [`begin_step`] and [`end_step`]:
/// activation summaries and flowing-gradient norms keyed by layer, plus
/// per-parameter-slot optimiser updates in step order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepDynamics {
    /// `(key, stat)` per outermost-chain layer, in forward order.
    /// Repeated keys (several samples per batch) are expected; use
    /// [`StepDynamics::merged_activations`] for per-layer totals.
    pub activations: Vec<(String, ActStat)>,
    /// `(key, L2 norm)` of the gradient flowing *out of* each layer
    /// (w.r.t. its input), in backward call order.
    pub flow_grads: Vec<(String, f32)>,
    /// Optimiser per-slot updates, index-aligned with the parameter
    /// list passed to `Sgd::step`.
    pub param_updates: Vec<ParamUpdate>,
}

impl StepDynamics {
    /// Folds repeated activation keys (one entry per sample) into one
    /// merged stat per layer, preserving first-seen (forward) order.
    pub fn merged_activations(&self) -> Vec<(String, ActStat)> {
        let mut out: Vec<(String, ActStat)> = Vec::new();
        for (key, stat) in &self.activations {
            match out.iter_mut().find(|(k, _)| k == key) {
                Some((_, acc)) => acc.merge(stat),
                None => out.push((key.clone(), *stat)),
            }
        }
        out
    }

    /// Mean flowing-gradient norm per layer key, first-seen order.
    pub fn merged_flow_grads(&self) -> Vec<(String, f32)> {
        let mut out: Vec<(String, f64, u32)> = Vec::new();
        for (key, norm) in &self.flow_grads {
            match out.iter_mut().find(|(k, _, _)| k == key) {
                Some((_, sum, n)) => {
                    *sum += f64::from(*norm);
                    *n += 1;
                }
                None => out.push((key.clone(), f64::from(*norm), 1)),
            }
        }
        out.into_iter()
            .map(|(k, sum, n)| (k, (sum / f64::from(n)) as f32))
            .collect()
    }

    /// Merges a later step's records into this one (accumulating a
    /// whole batch or epoch into a single summary).
    pub fn absorb(&mut self, other: StepDynamics) {
        self.activations.extend(other.activations);
        self.flow_grads.extend(other.flow_grads);
        self.param_updates.extend(other.param_updates);
    }
}

struct Collector {
    /// Reentrancy depth of `forward_all`/`backward_all`; only depth-1
    /// chains (the outermost) record.
    depth: u32,
    /// Scope labels pushed by [`scope`], joined with `/` in keys.
    scopes: Vec<&'static str>,
    step: StepDynamics,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Arms the thread-local collector. Any recording already in progress
/// is discarded (callers pair this with [`end_step`]).
pub fn begin_step() {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            depth: 0,
            scopes: Vec::new(),
            step: StepDynamics::default(),
        });
    });
}

/// Disarms the collector and returns what it gathered, or `None` when
/// it was never armed.
pub fn end_step() -> Option<StepDynamics> {
    COLLECTOR.with(|c| c.borrow_mut().take().map(|col| col.step))
}

/// `true` while the current thread's collector is armed.
pub fn active() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// The calling thread's collector settings, to record a piece of work
/// on any thread with them (see [`Fork::record`]). A disarmed fork
/// records nothing.
#[derive(Debug, Clone)]
pub struct Fork {
    /// `None` when the collector was disarmed at [`fork`].
    armed: Option<(u32, Vec<&'static str>)>,
}

/// Captures the calling thread's collector settings (armed or not, the
/// reentrancy depth and the scope labels) for [`Fork::record`].
pub fn fork() -> Fork {
    let armed = COLLECTOR.with(|c| {
        c.borrow()
            .as_ref()
            .map(|col| (col.depth, col.scopes.clone()))
    });
    Fork { armed }
}

impl Fork {
    /// Runs `f` on the current thread with a fresh collector armed like
    /// the forking thread's, and returns what it recorded (nothing when
    /// the fork is disarmed). The thread's own collector is set aside
    /// for the call and restored after, so a pool worker can record one
    /// task's share of a step, and the forking thread one region's,
    /// for the caller to [`absorb`] in a fixed order.
    pub fn record<R>(&self, f: impl FnOnce() -> R) -> (R, StepDynamics) {
        let Some((depth, scopes)) = &self.armed else {
            return (f(), StepDynamics::default());
        };
        let saved = COLLECTOR.with(|c| {
            c.borrow_mut().replace(Collector {
                depth: *depth,
                scopes: scopes.clone(),
                step: StepDynamics::default(),
            })
        });
        let _restore = Restore(saved);
        let out = f();
        let step = COLLECTOR.with(|c| {
            c.borrow_mut()
                .as_mut()
                .map(|col| std::mem::take(&mut col.step))
        });
        (out, step.unwrap_or_default())
    }
}

/// Puts a set-aside collector back on drop, also when the recorded
/// work panics.
struct Restore(Option<Collector>);

impl Drop for Restore {
    fn drop(&mut self) {
        let saved = self.0.take();
        COLLECTOR.with(|c| *c.borrow_mut() = saved);
    }
}

/// Appends `step`'s records to the calling thread's collector. No-op
/// when disarmed.
pub fn absorb(step: StepDynamics) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.step.absorb(step);
        }
    });
}

/// Pushes a scope label (e.g. `"backbone"`) prefixed onto every key
/// recorded while the returned guard lives. No-op when disarmed.
pub fn scope(label: &'static str) -> ScopeGuard {
    let pushed = COLLECTOR.with(|c| match c.borrow_mut().as_mut() {
        Some(col) => {
            col.scopes.push(label);
            true
        }
        None => false,
    });
    ScopeGuard { pushed }
}

/// RAII guard returned by [`scope`]; pops the label on drop.
pub struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.scopes.pop();
                }
            });
        }
    }
}

/// Suppresses recording while the returned guard lives: the enclosed
/// layer chains run at nested depth, so they never record. Used around
/// sections whose internal chains would otherwise record with ambiguous
/// keys (e.g. per-RoI refinement sub-passes, where parallel inception
/// branches would collide on positional keys). No-op when disarmed.
pub fn pause() -> PauseGuard {
    let bumped = COLLECTOR.with(|c| match c.borrow_mut().as_mut() {
        Some(col) => {
            col.depth += 1;
            true
        }
        None => false,
    });
    PauseGuard { bumped }
}

/// RAII guard returned by [`pause`]; re-enables recording on drop.
pub struct PauseGuard {
    bumped: bool,
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        if self.bumped {
            exit_chain();
        }
    }
}

/// Called by `forward_all`/`backward_all` on entry. Returns `true` when
/// this chain is the outermost one and should record.
pub(crate) fn enter_chain() -> bool {
    COLLECTOR.with(|c| match c.borrow_mut().as_mut() {
        Some(col) => {
            col.depth += 1;
            col.depth == 1
        }
        None => false,
    })
}

/// Called by `forward_all`/`backward_all` on exit.
pub(crate) fn exit_chain() {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.depth = col.depth.saturating_sub(1);
        }
    });
}

fn make_key(scopes: &[&'static str], name: &str, index: usize) -> String {
    let mut key = String::new();
    for s in scopes {
        key.push_str(s);
        key.push('/');
    }
    key.push_str(name);
    key.push('#');
    key.push_str(&index.to_string());
    key
}

/// Records an activation summary for the layer at `index` of the
/// outermost chain. Caller gates on [`enter_chain`]'s return.
pub(crate) fn record_activation(name: &str, index: usize, t: &Tensor) {
    let stat = ActStat::of(t);
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let key = make_key(&col.scopes, name, index);
            col.step.activations.push((key, stat));
        }
    });
}

/// Records the L2 norm of the gradient flowing out of the layer at
/// `index`. Caller gates on [`enter_chain`]'s return.
pub(crate) fn record_flow_grad(name: &str, index: usize, g: &Tensor) {
    let norm = g.sq_norm().sqrt();
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let key = make_key(&col.scopes, name, index);
            col.step.flow_grads.push((key, norm));
        }
    });
}

/// Records one optimiser parameter-slot update. No-op when disarmed.
pub(crate) fn record_param_update(update: ParamUpdate) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.step.param_updates.push(update);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn act_stat_counts_dead_saturated_and_mean() {
        let t = Tensor::from_vec([5], vec![-1.0, 0.0, 2.0, 100.0, -20.0]).unwrap();
        let s = ActStat::of(&t);
        assert_eq!(s.elems, 5);
        assert_eq!(s.nonpos, 3);
        assert_eq!(s.saturated, 2);
        assert!((s.mean_abs() - 24.6).abs() < 1e-9);
        assert!((s.dead_frac() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_stat_has_zero_fractions() {
        let s = ActStat::default();
        assert_eq!(s.dead_frac(), 0.0);
        assert_eq!(s.saturated_frac(), 0.0);
        assert_eq!(s.mean_abs(), 0.0);
    }

    #[test]
    fn collector_is_off_by_default_and_scoped_keys_compose() {
        assert!(!active());
        assert!(end_step().is_none());

        begin_step();
        assert!(active());
        {
            let _g = scope("backbone");
            let outer = enter_chain();
            assert!(outer, "outermost chain records");
            assert!(!enter_chain(), "nested chain does not record");
            record_activation("Conv2d", 1, &Tensor::ones([4]));
            exit_chain();
            exit_chain();
        }
        let inner = enter_chain();
        assert!(inner, "depth returns to zero after exits");
        record_flow_grad("Conv2d", 1, &Tensor::from_vec([2], vec![3.0, 4.0]).unwrap());
        exit_chain();

        let step = end_step().unwrap();
        assert!(!active());
        assert_eq!(step.activations.len(), 1);
        assert_eq!(step.activations[0].0, "backbone/Conv2d#1");
        assert_eq!(step.flow_grads, vec![("Conv2d#1".to_owned(), 5.0)]);
    }

    #[test]
    fn fork_records_apart_and_absorb_appends() {
        let (v, d) = fork().record(|| 7);
        assert_eq!((v, d), (7, StepDynamics::default()), "a disarmed fork");

        begin_step();
        let f = {
            let _g = scope("backbone");
            fork()
        };
        // A pool worker's share carries the forking thread's scopes.
        let remote = std::thread::scope(|s| {
            s.spawn(|| {
                f.record(|| {
                    assert!(enter_chain());
                    record_activation("Conv2d", 0, &Tensor::ones([2]));
                    exit_chain();
                })
                .1
            })
            .join()
            .unwrap()
        });
        assert_eq!(remote.activations[0].0, "backbone/Conv2d#0");
        // On the forking thread the armed collector is set aside, then
        // restored with nothing of the share in it.
        let ((), local) = f.record(|| {
            enter_chain();
            record_flow_grad("Relu", 1, &Tensor::from_vec([2], vec![3.0, 4.0]).unwrap());
            exit_chain();
        });
        assert_eq!(local.flow_grads, vec![("backbone/Relu#1".to_owned(), 5.0)]);
        assert!(active());
        absorb(remote);
        absorb(local);
        let step = end_step().unwrap();
        assert_eq!(step.activations.len(), 1);
        assert_eq!(step.flow_grads.len(), 1);
        absorb(StepDynamics::default());
        assert!(!active(), "absorb never arms the collector");
    }

    #[test]
    fn merged_activations_fold_repeated_keys_in_order() {
        let mut step = StepDynamics::default();
        let a = ActStat::of(&Tensor::ones([2]));
        let b = ActStat::of(&Tensor::zeros([2]));
        step.activations.push(("x#0".into(), a));
        step.activations.push(("y#1".into(), b));
        step.activations.push(("x#0".into(), b));
        let merged = step.merged_activations();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].0, "x#0");
        assert_eq!(merged[0].1.elems, 4);
        assert_eq!(merged[0].1.nonpos, 2);
        assert_eq!(merged[1].0, "y#1");
    }

    #[test]
    fn merged_flow_grads_average_per_key() {
        let mut step = StepDynamics::default();
        step.flow_grads.push(("a#0".into(), 1.0));
        step.flow_grads.push(("a#0".into(), 3.0));
        step.flow_grads.push(("b#1".into(), 7.0));
        let merged = step.merged_flow_grads();
        assert_eq!(
            merged,
            vec![("a#0".to_owned(), 2.0), ("b#1".to_owned(), 7.0)]
        );
    }

    #[test]
    fn update_ratio_guards_zero_weights() {
        let u = ParamUpdate {
            grad_norm: 1.0,
            update_norm: 0.5,
            weight_norm: 0.0,
        };
        assert_eq!(u.update_ratio(), 0.0);
        let u = ParamUpdate {
            weight_norm: 2.0,
            ..u
        };
        assert!((u.update_ratio() - 0.25).abs() < 1e-12);
    }
}
