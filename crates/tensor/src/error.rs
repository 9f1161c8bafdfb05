//! Error types for fallible tensor construction and reshaping.

use std::fmt;

/// Errors produced by fallible [`Tensor`](crate::Tensor) operations.
///
/// Hot-path arithmetic (convolution, pooling, …) panics on shape mismatch
/// instead — those mismatches are programming errors, mirroring the
/// convention of mainstream array libraries. Constructors and reshapes that
/// depend on runtime data return `Result<_, TensorError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The element count implied by the shape does not match the data length.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// A reshape was requested to a shape with a different element count.
    ReshapeMismatch {
        /// Element count of the source tensor.
        from: usize,
        /// Element count of the requested shape.
        to: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "data length {actual} does not match shape element count {expected}"
            ),
            TensorError::ReshapeMismatch { from, to } => write!(
                f,
                "cannot reshape tensor with {from} elements into shape with {to} elements"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias for results carrying a [`TensorError`].
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TensorError::LengthMismatch {
            expected: 6,
            actual: 4,
        };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('4'));

        let e = TensorError::ReshapeMismatch { from: 8, to: 9 };
        assert!(e.to_string().contains("reshape"));
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TensorError>();
    }
}
