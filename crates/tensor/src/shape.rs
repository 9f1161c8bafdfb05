//! Shapes and row-major index arithmetic.

use std::fmt;

/// The shape (dimension sizes) of a [`Tensor`](crate::Tensor).
///
/// Shapes are row-major: the last axis is contiguous in memory. A shape may
/// have any rank; the RHSD stack mostly uses rank 1 (vectors), 2 (matrices),
/// 3 (`[C, H, W]` feature maps) and 4 (`[N, C, H, W]` batches).
///
/// # Examples
///
/// ```
/// use rhsd_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
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

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
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
        let strides = self.strides();
        for (axis, (&i, &s)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(
                i < self.0[axis],
                "index {i} out of bounds for axis {axis} with size {}",
                self.0[axis]
            );
            off += i * s;
        }
        off
    }

    /// Inverse of [`Shape::offset`]: converts a linear offset to coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= self.len()`.
    pub fn coords(&self, offset: usize) -> Vec<usize> {
        assert!(
            offset < self.len(),
            "offset {offset} out of bounds for shape with {} elements",
            self.len()
        );
        let mut rem = offset;
        let strides = self.strides();
        strides
            .iter()
            .map(|&s| {
                let c = rem / s;
                rem %= s;
                c
            })
            .collect()
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

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([5]).strides(), vec![1]);
        assert_eq!(Shape::new(vec![]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_and_coords_roundtrip() {
        let s = Shape::from([2, 3, 4]);
        for off in 0..s.len() {
            let c = s.coords(off);
            assert_eq!(s.offset(&c), off);
        }
    }

    #[test]
    fn offset_matches_manual_calculation() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 2 * 4 + 3);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_bounds() {
        Shape::from([2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn offset_rejects_wrong_rank() {
        Shape::from([2, 2]).offset(&[0]);
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
