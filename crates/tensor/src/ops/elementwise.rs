//! Elementwise arithmetic.

use crate::Tensor;

/// Elementwise difference `a - b`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip_with(b, |x, y| x - y)
}

/// In-place `a += k * b` (AXPY), the core optimiser update primitive.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn axpy(a: &mut Tensor, k: f32, b: &Tensor) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "axpy shape mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += k * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec([v.len()], v.to_vec()).unwrap()
    }

    #[test]
    fn basic_arithmetic() {
        let a = t(&[1., 2., 3.]);
        let b = t(&[4., 5., 6.]);
        assert_eq!(sub(&b, &a).as_slice(), &[3., 3., 3.]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = t(&[1., 1.]);
        axpy(&mut a, 0.5, &t(&[2., -4.]));
        assert_eq!(a.as_slice(), &[2., -1.]);
    }
}
