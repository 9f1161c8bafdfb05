//! The dense row-major `f32` tensor type.

use std::fmt;

use rand::Rng;

use crate::error::{Result, TensorError};
use crate::shape::Shape;

/// A dense, row-major, owned `f32` tensor.
///
/// `Tensor` is the numeric workhorse of the RHSD stack: layout rasters,
/// CNN feature maps, network weights and gradients are all `Tensor`s.
/// Data is stored contiguously; the last axis is the fastest-varying.
///
/// # Examples
///
/// ```
/// use rhsd_tensor::Tensor;
///
/// let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok::<(), rhsd_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the element count implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.len() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor from a shape and a data buffer whose length is
    /// correct *by construction* (e.g. built by iterating the shape).
    ///
    /// This is the infallible counterpart of [`Tensor::from_vec`] for
    /// callers that computed `data` from `shape` itself, where a length
    /// mismatch would be a programming error rather than a recoverable
    /// condition.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the element count implied by
    /// `shape`.
    pub fn from_parts(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            data.len(),
            "from_parts: shape {shape} implies {} elements, data holds {}",
            shape.len(),
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a tensor by evaluating `f` at every coordinate, in
    /// row-major order (once, at `&[]`, for a rank-0 shape; never for an
    /// empty one).
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        let dims = shape.dims();
        let mut data = Vec::with_capacity(len);
        // One odometer: bump the last axis, carrying into earlier ones.
        let mut coord = vec![0usize; dims.len()];
        for _ in 0..len {
            data.push(f(&coord));
            for (c, &d) in coord.iter_mut().zip(dims).rev() {
                *c += 1;
                if *c < d {
                    break;
                }
                *c = 0;
            }
        }
        Tensor { shape, data }
    }

    /// Creates a tensor of uniform random values in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor of normally-distributed values (Box–Muller).
    pub fn rand_normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.len())
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                mean + std * z
            })
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of one axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads one element.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes one element.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reshapes without copying.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.data.len(),
                to: shape.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Reshapes without copying, for target shapes whose element count
    /// matches *by construction* — the infallible counterpart of
    /// [`Tensor::reshape`].
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn with_shape(self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "with_shape: cannot view {} elements as shape {shape}",
            self.data.len()
        );
        Tensor {
            shape,
            data: self.data,
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip_with shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        crate::ops::reduce::max_f32(self.data.iter().copied())
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        crate::ops::reduce::min_f32(self.data.iter().copied())
    }

    /// Sum of squared elements — the squared Frobenius/L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Returns `true` if every pairwise difference is at most `tol`.
    ///
    /// Shapes must match for the tensors to compare equal.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, …, {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor::zeros([0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones([3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full([2], 2.5).as_slice(), &[2.5, 2.5]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert_eq!(
            Tensor::from_vec([2, 2], vec![1.0; 3]).unwrap_err(),
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn from_fn_sees_coordinates() {
        let t = Tensor::from_fn([2, 3], |c| (c[0] * 10 + c[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_fn_visits_coordinates_in_row_major_order() {
        for dims in [vec![2, 3, 4], vec![5], vec![1, 1, 7, 3], vec![3, 1, 2]] {
            let shape = Shape::new(dims.clone());
            let mut seen = Vec::new();
            let t = Tensor::from_fn(shape.clone(), |c| {
                seen.push(c.to_vec());
                seen.len() as f32
            });
            assert_eq!(seen.len(), shape.len(), "{dims:?}");
            for (n, c) in seen.iter().enumerate() {
                assert_eq!(shape.offset(c), n, "{dims:?}: call {n} saw {c:?}");
                assert_eq!(t.as_slice()[n], (n + 1) as f32);
            }
        }
    }

    #[test]
    fn from_fn_calls_once_at_rank_zero_and_never_when_empty() {
        let mut calls = Vec::new();
        let t = Tensor::from_fn(Shape::new(vec![]), |c| {
            calls.push(c.to_vec());
            4.5
        });
        assert_eq!(calls, vec![Vec::<usize>::new()]);
        assert_eq!(t.as_slice(), &[4.5]);
        let mut calls = 0;
        let t = Tensor::from_fn([2, 0, 3], |_| {
            calls += 1;
            1.0
        });
        assert_eq!(calls, 0);
        assert!(t.is_empty());
        assert_eq!(t.dims(), &[2, 0, 3]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros([2, 2, 2]);
        t.set(&[1, 0, 1], 7.0);
        assert_eq!(t.get(&[1, 0, 1]), 7.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.clone().reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.dims(), &[3, 2]);
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec([3], vec![10., 20., 30.]).unwrap();
        assert_eq!(a.map(|x| x * 2.0).as_slice(), &[2., 4., 6.]);
        assert_eq!(a.zip_with(&b, |x, y| x + y).as_slice(), &[11., 22., 33.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_rejects_mismatched_shapes() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        a.zip_with(&b, |x, _| x);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1., -2., 3., 0.]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.sq_norm(), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn rand_normal_statistics_roughly_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let t = Tensor::rand_normal([10_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = Tensor::rand_uniform([1000], -1.0, 1.0, &mut rng);
        assert!(t.min() >= -1.0 && t.max() < 1.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec([2], vec![1.0005, 2.0]).unwrap();
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        let c = Tensor::from_vec([1, 2], vec![1.0, 2.0]).unwrap();
        assert!(!a.approx_eq(&c, 1.0), "different shapes never approx-eq");
    }

    #[test]
    fn debug_output_compact_for_large_tensors() {
        let t = Tensor::zeros([100]);
        let s = format!("{t:?}");
        assert!(s.contains("100 elems"));
    }
}
