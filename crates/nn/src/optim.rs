//! Stochastic gradient descent with momentum and step learning-rate decay.
//!
//! The paper trains with an initial learning rate of 0.002, decayed ×0.1
//! every 30 000 steps; [`StepDecay`] reproduces that schedule.

use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::Tensor;

/// Step learning-rate schedule: `lr = initial · factor^(step / every)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecay {
    /// Learning rate at step 0.
    pub initial: f32,
    /// Multiplicative decay factor applied every `every` steps.
    pub factor: f32,
    /// Decay period in optimiser steps.
    pub every: usize,
}

impl StepDecay {
    /// The paper's schedule: 0.002, ×0.1 every 30 000 steps.
    pub fn paper() -> Self {
        StepDecay {
            initial: 0.002,
            factor: 0.1,
            every: 30_000,
        }
    }

    /// A constant learning rate.
    pub fn constant(lr: f32) -> Self {
        StepDecay {
            initial: lr,
            factor: 1.0,
            every: usize::MAX,
        }
    }

    /// Learning rate at a given step.
    pub fn lr_at(&self, step: usize) -> f32 {
        let k = (step / self.every) as i32;
        self.initial * self.factor.powi(k)
    }
}

/// SGD with classical momentum.
///
/// Velocities are allocated lazily per parameter slot, so the same
/// optimiser instance must always be stepped with the same parameter list
/// (the natural usage: one optimiser per model).
#[derive(Debug)]
pub struct Sgd {
    schedule: StepDecay,
    momentum: f32,
    step: usize,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimiser with the given schedule and momentum.
    pub fn new(schedule: StepDecay, momentum: f32) -> Self {
        Sgd {
            schedule,
            momentum,
            step: 0,
            velocities: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.schedule.lr_at(self.step)
    }

    /// The momentum velocities, one per parameter slot stepped so far:
    /// after a step, each is the weight delta that step applied.
    pub fn velocities(&self) -> &[Tensor] {
        &self.velocities
    }

    /// Applies one update: `v ← µ·v − lr·g`, `w ← w + v`, then clears
    /// the gradients.
    ///
    /// Shapes: `grads` mirrors `params` slot for slot.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not mirror `params`, or if the parameter
    /// list shrinks or reorders between calls in a way that changes
    /// tensor shapes.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &mut [Tensor]) {
        assert_eq!(params.len(), grads.len(), "grads must mirror params");
        let lr = self.lr();
        if self.velocities.len() < params.len() {
            for p in params[self.velocities.len()..].iter() {
                self.velocities.push(Tensor::zeros(p.shape().clone()));
            }
        }
        for ((w, g), v) in params
            .iter_mut()
            .zip(grads.iter_mut())
            .zip(&mut self.velocities)
        {
            assert_eq!(
                w.shape(),
                v.shape(),
                "parameter shape changed between optimiser steps"
            );
            // v ← µ·v − lr·g
            v.map_inplace(|x| x * self.momentum);
            axpy(v, -lr, g);
            // w ← w + v
            axpy(w, 1.0, v);
            g.map_inplace(|_| 0.0);
        }
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_decay_paper_schedule() {
        let s = StepDecay::paper();
        assert_eq!(s.lr_at(0), 0.002);
        assert_eq!(s.lr_at(29_999), 0.002);
        assert!((s.lr_at(30_000) - 0.0002).abs() < 1e-9);
        assert!((s.lr_at(60_000) - 0.00002).abs() < 1e-9);
    }

    #[test]
    fn constant_schedule_never_decays() {
        let s = StepDecay::constant(0.1);
        assert_eq!(s.lr_at(0), s.lr_at(1_000_000));
    }

    fn scalar(v: f32) -> Tensor {
        Tensor::from_vec([1], vec![v]).unwrap()
    }

    #[test]
    fn sgd_without_momentum_is_plain_descent() {
        let mut w = scalar(1.0);
        let mut g = [scalar(2.0)];
        let mut opt = Sgd::new(StepDecay::constant(0.5), 0.0);
        opt.step(&mut [&mut w], &mut g);
        assert_eq!(w.as_slice(), &[0.0]);
        assert_eq!(g[0].as_slice(), &[0.0], "grads cleared after step");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut w = scalar(0.0);
        let mut opt = Sgd::new(StepDecay::constant(1.0), 0.5);
        // constant gradient of 1: updates are -1, -1.5, -1.75, …
        opt.step(&mut [&mut w], &mut [scalar(1.0)]);
        assert_eq!(w.as_slice(), &[-1.0]);
        opt.step(&mut [&mut w], &mut [scalar(1.0)]);
        assert_eq!(w.as_slice(), &[-2.5]);
        assert_eq!(opt.velocities()[0].as_slice(), &[-1.5], "the applied delta");
    }

    #[test]
    fn sgd_minimises_quadratic() {
        // f(w) = (w − 3)², gradient 2(w − 3)
        let mut w = scalar(0.0);
        let mut opt = Sgd::new(StepDecay::constant(0.1), 0.9);
        for _ in 0..100 {
            let g = scalar(2.0 * (w.as_slice()[0] - 3.0));
            opt.step(&mut [&mut w], &mut [g]);
        }
        assert!((w.as_slice()[0] - 3.0).abs() < 0.05);
    }
}
