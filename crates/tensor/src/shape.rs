//! Shapes and row-major index arithmetic.

use std::fmt;

/// The shape (dimension sizes) of a [`Tensor`](crate::Tensor).
///
/// Shapes are row-major: the last axis is contiguous in memory. A shape may
/// have any rank; the RHSD stack mostly uses rank 1 (vectors), 2 (matrices),
/// 3 (`[C, H, W]` feature maps) and 4 (`[C, H, W, N]` batches in the lane
/// layout).
///
/// # Examples
///
/// ```
/// use rhsd_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.offset(&[1, 2, 3]), 12 + 2 * 4 + 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions).
    ///
    /// A rank-0 shape has one element (a scalar).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns `true` if the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Size of one axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Flattens a multi-dimensional index into a linear offset: the
    /// row-major offset by Horner's rule, `((i₀·d₁ + i₁)·d₂ + i₂)…`,
    /// with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} != shape rank {}",
            index.len(),
            self.rank()
        );
        let mut off = 0;
        for (axis, (&i, &d)) in index.iter().zip(&self.0).enumerate() {
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} with size {d}"
            );
            off = off * d + i;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_len_dims() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.len(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(vec![]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn zero_dim_is_empty() {
        let s = Shape::from([3, 0, 2]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    /// Every index of `dims` in row-major order (the last axis fastest).
    fn indices(dims: &[usize]) -> Vec<Vec<usize>> {
        dims.iter().fold(vec![vec![]], |acc, &d| {
            acc.into_iter()
                .flat_map(|idx| {
                    (0..d).map(move |i| {
                        let mut next = idx.clone();
                        next.push(i);
                        next
                    })
                })
                .collect()
        })
    }

    #[test]
    fn offset_matches_the_row_major_formula() {
        for dims in [vec![2, 3, 4], vec![5], vec![1, 1, 7, 3], vec![]] {
            let s = Shape::new(dims.clone());
            let all = indices(&dims);
            assert_eq!(all.len(), s.len(), "{dims:?}");
            for (n, idx) in all.iter().enumerate() {
                // Σ iₐ · Π_{b>a} d_b, spelled out.
                let formula: usize = (0..dims.len())
                    .map(|a| idx[a] * dims[a + 1..].iter().product::<usize>())
                    .sum();
                assert_eq!(s.offset(idx), formula, "{dims:?} at {idx:?}");
                assert_eq!(formula, n, "row-major order");
            }
        }
        assert_eq!(Shape::from([2, 3, 4]).offset(&[1, 2, 3]), 12 + 2 * 4 + 3);
    }

    #[test]
    #[should_panic(expected = "index 2 out of bounds for axis 0 with size 2")]
    fn offset_rejects_out_of_bounds() {
        Shape::from([2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "index 3 out of bounds for axis 2 with size 3")]
    fn offset_rejects_out_of_bounds_on_the_last_axis() {
        Shape::from([1, 1, 3]).offset(&[0, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "index rank 1 != shape rank 2")]
    fn offset_rejects_wrong_rank() {
        Shape::from([2, 2]).offset(&[0]);
    }

    #[test]
    #[should_panic(expected = "index rank 1 != shape rank 0")]
    fn offset_rejects_an_index_into_a_scalar() {
        Shape::new(vec![]).offset(&[0]);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2, 3]");
        assert_eq!(format!("{:?}", Shape::from([7])), "[7]");
    }

    #[test]
    fn conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = [1usize, 2].into();
        let c: Shape = (&[1usize, 2][..]).into();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
