//! Separable Gaussian optical kernel.
//!
//! The aerial-image model approximates the projection optics' point-spread
//! function with an isotropic Gaussian — the standard first-order
//! surrogate when a full Hopkins/SOCS simulation is unavailable.

/// A 1-D Gaussian filter used separably in x and y.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianKernel {
    sigma_px: f64,
    weights: Vec<f32>,
}

impl GaussianKernel {
    /// Builds a kernel with standard deviation `sigma_px` (pixels),
    /// truncated at 3σ and normalised to unit sum.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_px` is not positive and finite.
    pub fn new(sigma_px: f64) -> Self {
        assert!(
            sigma_px.is_finite() && sigma_px > 0.0,
            "sigma must be positive, got {sigma_px}"
        );
        let radius = (3.0 * sigma_px).ceil() as i64;
        let mut weights: Vec<f32> = (-radius..=radius)
            .map(|i| (-((i * i) as f64) / (2.0 * sigma_px * sigma_px)).exp() as f32)
            .collect();
        let sum: f32 = weights.iter().sum();
        for w in &mut weights {
            *w /= sum;
        }
        GaussianKernel { sigma_px, weights }
    }

    /// The standard deviation in pixels.
    pub fn sigma_px(&self) -> f64 {
        self.sigma_px
    }

    /// Half-width of the truncated kernel in pixels.
    pub fn radius(&self) -> usize {
        self.weights.len() / 2
    }

    /// The normalised tap weights, centre at index [`GaussianKernel::radius`].
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        for sigma in [0.5, 1.0, 2.5, 5.0] {
            let k = GaussianKernel::new(sigma);
            let sum: f32 = k.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "sigma {sigma}");
        }
    }

    #[test]
    fn weights_are_symmetric_and_peaked() {
        let k = GaussianKernel::new(2.0);
        let w = k.weights();
        let n = w.len();
        assert_eq!(n % 2, 1, "odd tap count");
        for i in 0..n / 2 {
            assert!((w[i] - w[n - 1 - i]).abs() < 1e-7);
        }
        let centre = w[n / 2];
        assert!(w.iter().all(|&x| x <= centre));
    }

    #[test]
    fn radius_scales_with_sigma() {
        assert_eq!(GaussianKernel::new(1.0).radius(), 3);
        assert_eq!(GaussianKernel::new(2.0).radius(), 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_sigma() {
        GaussianKernel::new(0.0);
    }
}
