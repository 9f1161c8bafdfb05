//! Numeric operators over [`Tensor`](crate::Tensor)s.
//!
//! Every differentiable operator ships its analytic backward pass next to
//! the forward pass, and every backward pass is validated against finite
//! differences in unit tests.

pub mod conv;
pub mod deconv;
mod direct;
pub mod elementwise;
pub mod kernels;
pub mod matvec;
pub mod pool;
pub mod reduce;
pub mod softmax;
