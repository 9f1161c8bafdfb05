//! # rhsd-nn
//!
//! A from-scratch CPU CNN framework powering the RHSD hotspot-detection
//! stack — the replacement for the TensorFlow/GPU substrate of the
//! original DAC 2019 paper.
//!
//! Building blocks:
//!
//! - [`Layer`]: the forward/backward module trait over read-only
//!   weights; [`layers`] holds convolution, deconvolution, pooling,
//!   linear, ReLU and [`layers::Sequential`].
//! - [`Tape`] and [`Grads`]: the caller-owned state of a training pass —
//!   the saved activations and the gradient accumulators.
//! - [`inception`]: Inception modules A and B (Figure 3).
//! - [`encdec`]: the joint encoder–decoder front end (§3.1.1).
//! - [`loss`]: smooth-L1 (Eq. 5), cross-entropy (Eq. 6) and the L2
//!   regulariser of the C&R objective (Eq. 4).
//! - [`optim`]: SGD with momentum and the paper's step-decay LR schedule.
//!
//! # Examples
//!
//! ```
//! use rhsd_nn::layers::{Conv2d, Relu, Sequential};
//! use rhsd_nn::{Grads, Layer, Tape};
//! use rhsd_tensor::{ops::conv::ConvSpec, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let net = Sequential::new()
//!     .push(Conv2d::new(1, 4, ConvSpec::same(3), &mut rng))
//!     .push(Relu::new());
//! let x = Tensor::zeros([1, 32, 32]);
//!
//! // Inference records nothing.
//! let features = net.forward(x.clone(), &mut Tape::inference());
//! assert_eq!(features.dims(), &[4, 32, 32]);
//!
//! // Training records on a tape and accumulates into caller-owned grads.
//! let mut tape = Tape::recording();
//! let y = net.forward(x, &mut tape);
//! let mut grads = Grads::zeros_like(net.params());
//! let gx = net.backward(&mut tape, Tensor::ones(y.dims()), &mut grads);
//! assert_eq!(gx.dims(), &[1, 32, 32]);
//! assert!(tape.is_empty());
//! ```

pub mod encdec;
mod grads;
pub mod inception;
pub mod init;
mod layer;
pub mod layers;
pub mod loss;
pub mod optim;

pub use grads::Grads;
pub use layer::{backward_all, backward_params_all, forward_all, forward_from, Layer, Tape};
