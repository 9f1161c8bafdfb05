//! Loss functions of the Classification-and-Regression (C&R) objective.
//!
//! Implements the robust (smooth) L1 localisation loss of Eq. (5) and the
//! L2 weight-regularisation term of Eq. (4). The cross-entropy hotspot
//! loss of Eq. (6) is `rhsd_tensor::ops::softmax::cross_entropy_rows`.

use rhsd_tensor::ops::elementwise::axpy;
use rhsd_tensor::Tensor;

/// Smooth-L1 (Huber) value for one scalar difference — Eq. (5).
///
/// Quadratic within `|d| < 1`, linear outside, avoiding exploding
/// gradients on large regression offsets.
pub fn smooth_l1_scalar(d: f32) -> f32 {
    if d.abs() < 1.0 {
        0.5 * d * d
    } else {
        d.abs() - 0.5
    }
}

/// Derivative of [`smooth_l1_scalar`].
pub fn smooth_l1_grad_scalar(d: f32) -> f32 {
    if d.abs() < 1.0 {
        d
    } else {
        d.signum()
    }
}

/// Smooth-L1 loss between predicted and target regression vectors, with a
/// per-row weight (rows are clips; weight 0 masks non-positive clips, whose
/// coordinates must not contribute — §3.2.1).
///
/// Returns `(loss, d_pred)`. The loss is normalised by the sum of weights.
///
/// Shapes: `pred` and `target` are `[n, 4]`; `weights` has `n` entries;
/// `d_pred` matches `pred`.
///
/// # Panics
///
/// Panics if shapes disagree or `weights.len() != pred.dim(0)`.
pub fn smooth_l1_loss(pred: &Tensor, target: &Tensor, weights: &[f32]) -> (f32, Tensor) {
    assert_eq!(
        pred.shape(),
        target.shape(),
        "smooth_l1 shape mismatch: {} vs {}",
        pred.shape(),
        target.shape()
    );
    assert_eq!(pred.rank(), 2, "smooth_l1 expects [n,4]-style rank 2 input");
    let (n, k) = (pred.dim(0), pred.dim(1));
    assert_eq!(
        weights.len(),
        n,
        "weights length {} != rows {n}",
        weights.len()
    );
    let wsum: f32 = weights.iter().sum();
    let norm = if wsum > 0.0 { wsum } else { 1.0 };

    let pv = pred.as_slice();
    let tv = target.as_slice();
    let mut loss = 0.0f32;
    let mut grad = vec![0.0f32; n * k];
    for i in 0..n {
        let w = weights[i];
        if w == 0.0 {
            continue;
        }
        for j in 0..k {
            let d = pv[i * k + j] - tv[i * k + j];
            loss += w * smooth_l1_scalar(d);
            grad[i * k + j] = w * smooth_l1_grad_scalar(d) / norm;
        }
    }
    (loss / norm, Tensor::from_parts([n, k], grad))
}

/// L2 regularisation term `β/2 · Σ‖W‖²` over a parameter set, accumulating
/// `β·W` into each gradient — the Eq. (4) regulariser.
///
/// Only weight tensors (rank ≥ 2) are regularised; biases are exempt, the
/// standard practice (penalising biases pushes activations toward
/// constants without improving generalisation).
///
/// Returns the penalty value.
///
/// Shapes: `grads` mirrors `params` slot for slot.
pub fn l2_penalty(params: &[&mut Tensor], grads: &mut [Tensor], beta: f32) -> f32 {
    let mut total = 0.0f32;
    for (w, g) in params.iter().zip(grads.iter_mut()) {
        if w.rank() < 2 {
            continue;
        }
        total += w.sq_norm();
        let scaled = w.map(|v| beta * v);
        axpy(g, 1.0, &scaled);
    }
    0.5 * beta * total
}

/// Clips the *global* norm of a set of gradients to `max_norm`,
/// returning the pre-clip norm. Standard stabiliser against the exploding
/// gradients the robust-L1 loss (Eq. 5) cannot fully prevent early in
/// training.
///
/// Shapes: `grads` may hold any shapes; the norm runs over every
/// scalar of every gradient.
pub fn clip_grad_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let total: f32 = grads.iter().map(|g| g.sq_norm()).sum();
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            g.map_inplace(|v| v * scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_l1_is_continuous_at_one() {
        let inside = smooth_l1_scalar(1.0 - 1e-6);
        let outside = smooth_l1_scalar(1.0 + 1e-6);
        assert!((inside - outside).abs() < 1e-5);
        assert!((smooth_l1_scalar(1.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn smooth_l1_quadratic_inside_linear_outside() {
        assert_eq!(smooth_l1_scalar(0.5), 0.125);
        assert_eq!(smooth_l1_scalar(3.0), 2.5);
        assert_eq!(smooth_l1_scalar(-3.0), 2.5);
    }

    #[test]
    fn smooth_l1_grad_bounded_by_one() {
        for d in [-100.0f32, -2.0, -0.5, 0.0, 0.5, 2.0, 100.0] {
            assert!(smooth_l1_grad_scalar(d).abs() <= 1.0);
        }
    }

    #[test]
    fn smooth_l1_loss_zero_on_exact_match() {
        let p = Tensor::from_vec([2, 4], vec![1.0; 8]).unwrap();
        let (loss, grad) = smooth_l1_loss(&p, &p, &[1.0, 1.0]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.sq_norm(), 0.0);
    }

    #[test]
    fn smooth_l1_loss_masks_zero_weight_rows() {
        let p = Tensor::from_vec([2, 2], vec![0., 0., 100., 100.]).unwrap();
        let t = Tensor::zeros([2, 2]);
        let (loss, grad) = smooth_l1_loss(&p, &t, &[1.0, 0.0]);
        assert_eq!(loss, 0.0);
        assert_eq!(&grad.as_slice()[2..], &[0.0, 0.0]);
    }

    #[test]
    fn smooth_l1_gradcheck() {
        let p = Tensor::from_vec([2, 2], vec![0.3, -2.0, 1.5, 0.0]).unwrap();
        let t = Tensor::from_vec([2, 2], vec![0.0, 0.0, 0.5, -0.2]).unwrap();
        let w = [1.0f32, 0.7];
        let (_, grad) = smooth_l1_loss(&p, &t, &w);
        let eps = 1e-3;
        for probe in 0..4 {
            let mut pp = p.clone();
            pp.as_mut_slice()[probe] += eps;
            let mut pm = p.clone();
            pm.as_mut_slice()[probe] -= eps;
            let numeric =
                (smooth_l1_loss(&pp, &t, &w).0 - smooth_l1_loss(&pm, &t, &w).0) / (2.0 * eps);
            assert!((numeric - grad.as_slice()[probe]).abs() < 1e-3, "[{probe}]");
        }
    }

    #[test]
    fn l2_penalty_value_and_gradient() {
        let mut w = Tensor::from_vec([2, 1], vec![3.0, 4.0]).unwrap();
        let mut g = [Tensor::zeros([2, 1])];
        let val = l2_penalty(&[&mut w], &mut g, 0.2);
        assert!((val - 0.5 * 0.2 * 25.0).abs() < 1e-6);
        assert!((g[0].as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((g[0].as_slice()[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn l2_penalty_exempts_biases() {
        let mut bias = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let mut g = [Tensor::zeros([3])];
        let val = l2_penalty(&[&mut bias], &mut g, 0.2);
        assert_eq!(val, 0.0);
        assert_eq!(g[0].sq_norm(), 0.0);
    }

    #[test]
    fn clip_grad_norm_rescales_only_above_threshold() {
        let mut g = [Tensor::from_vec([2, 1], vec![3.0, 4.0]).unwrap()];
        let norm = clip_grad_norm(&mut g, 10.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let _ = clip_grad_norm(&mut g, 1.0);
        assert!((g[0].sq_norm().sqrt() - 1.0).abs() < 1e-5, "clipped to max");
        assert!((g[0].as_slice()[0] - 0.6).abs() < 1e-5, "direction kept");
    }
}
