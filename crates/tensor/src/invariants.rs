//! Runtime invariant checks behind the `debug_invariants` cargo feature.
//!
//! With the feature **off** (the default) every function here is an
//! inlined empty body — callers pay nothing in release builds. With the
//! feature **on**, two classes of contract are enforced by aborting the
//! offending computation:
//!
//! * **finiteness** — [`check_finite`] scans a tensor for NaN/Inf after a
//!   forward/backward op and panics naming the op and the poisoned index;
//! * **shape contracts** — [`check_layer_input`] panics when a layer
//!   receives an input violating its documented `/// Shapes:` section,
//!   naming the layer, the expected shape and the actual shape.
//!
//! Violations are also counted through `rhsd-obs`
//! (`invariants.nonfinite` / `invariants.shape_contract`) before the
//! panic, so metrics exports from a crashed run show what tripped.
//!
//! The panics here are deliberate: an invariant violation is a
//! programming error, not a recoverable condition, and the feature
//! exists to surface it at the first poisoned op instead of three layers
//! downstream.

use std::fmt;

#[cfg(feature = "debug_invariants")]
use crate::Shape;
use crate::Tensor;

/// Panics if `t` contains a NaN or infinity, naming `op`.
///
/// No-op unless the `debug_invariants` feature is enabled.
#[cfg(feature = "debug_invariants")]
#[expect(
    clippy::panic,
    reason = "aborting on poisoned tensors is this feature's purpose"
)]
pub fn check_finite(op: &str, t: &Tensor) {
    if let Some((i, &v)) = t
        .as_slice()
        .iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite())
    {
        rhsd_obs::counter("invariants.nonfinite", 1);
        panic!(
            "debug_invariants: non-finite value {v} at flat index {i} after op `{op}` (shape {})",
            t.shape()
        );
    }
}

/// Panics if `t` contains a NaN or infinity, naming `op`.
///
/// No-op unless the `debug_invariants` feature is enabled.
#[cfg(not(feature = "debug_invariants"))]
#[inline(always)]
pub fn check_finite(_op: &str, _t: &Tensor) {}

/// Panics unless `ok`, reporting a layer input shape-contract violation
/// that names the layer, the expected shape and the actual shape.
/// `expected` is formatted only when the contract is violated, so a
/// satisfied check builds no string.
///
/// No-op unless the `debug_invariants` feature is enabled.
#[cfg(feature = "debug_invariants")]
#[expect(
    clippy::panic,
    reason = "aborting on contract violations is this feature's purpose"
)]
pub fn check_layer_input(layer: &str, expected: fmt::Arguments<'_>, ok: bool, actual: &Shape) {
    if !ok {
        rhsd_obs::counter("invariants.shape_contract", 1);
        panic!(
            "debug_invariants: shape contract violated in layer `{layer}`: expected {expected}, got {actual}"
        );
    }
}

/// Panics unless `ok`, reporting a layer input shape-contract violation.
///
/// No-op unless the `debug_invariants` feature is enabled.
#[cfg(not(feature = "debug_invariants"))]
#[inline(always)]
pub fn check_layer_input(
    _layer: &str,
    _expected: fmt::Arguments<'_>,
    _ok: bool,
    _actual: &crate::Shape,
) {
}

#[cfg(all(test, feature = "debug_invariants"))]
mod tests {
    use super::*;

    #[test]
    fn finite_tensors_pass() {
        check_finite("test_op", &Tensor::ones([2, 2]));
    }

    #[test]
    #[should_panic(expected = "after op `conv2d`")]
    fn nan_is_caught_with_op_name() {
        let mut t = Tensor::zeros([3]);
        t.set(&[1], f32::NAN);
        check_finite("conv2d", &t);
    }

    #[test]
    #[should_panic(expected = "shape contract violated in layer `Linear`")]
    fn shape_contract_names_layer_and_shapes() {
        let actual = Shape::from([3, 4]);
        check_layer_input("Linear", format_args!("[n_in={}]", 8), false, &actual);
    }

    #[test]
    fn satisfied_contract_is_silent() {
        check_layer_input("Linear", format_args!("[n_in=8]"), true, &Shape::from([8]));
    }
}
