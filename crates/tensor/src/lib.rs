//! # rhsd-tensor
//!
//! Dense `f32` tensor math substrate for the RHSD (faster region-based
//! hotspot detection) stack — a from-scratch replacement for the GPU
//! tensor runtime the original paper used.
//!
//! The crate provides:
//!
//! - [`Tensor`]: an owned, row-major, N-dimensional `f32` array.
//! - [`Shape`]: dimension bookkeeping and index arithmetic.
//! - [`ops`]: convolution and transposed convolution read in place,
//!   max/RoI pooling, the fully-connected matrix–vector products,
//!   softmax/cross-entropy, reductions and elementwise math — each
//!   differentiable op paired with its analytic backward pass.
//! - [`reference`]: the plain serial loops (`im2col`, `col2im`,
//!   `matmul`, `transpose`) the tests hold those ops to, bit for bit.
//!
//! # Examples
//!
//! ```
//! use rhsd_tensor::{ops::conv::{conv2d, ConvSpec}, Tensor};
//!
//! let image = Tensor::ones([1, 8, 8]);
//! let edge = Tensor::from_vec([1, 1, 3, 3],
//!     vec![-1., -1., -1., -1., 8., -1., -1., -1., -1.])?;
//! let response = conv2d(&image, &edge, None, ConvSpec::same(3));
//! assert_eq!(response.dims(), &[1, 8, 8]);
//! # Ok::<(), rhsd_tensor::TensorError>(())
//! ```

mod error;
pub mod invariants;
pub mod ops;
pub mod reference;
mod shape;
mod tensor;
pub mod workspace;

pub use error::{Result, TensorError};
pub use shape::Shape;
pub use tensor::Tensor;
