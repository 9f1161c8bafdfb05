//! Individual network layers.

mod activation;
mod conv2d;
mod deconv2d;
mod linear;
mod pool;
mod sequential;

pub use activation::{LeakyRelu, Relu};
pub use conv2d::Conv2d;
pub use deconv2d::Deconv2d;
pub use linear::{Flatten, Linear};
pub use pool::MaxPool2d;
pub use sequential::Sequential;
