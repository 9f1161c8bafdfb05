//! Checkpointing: saving and restoring the parameters of any [`Layer`].
//!
//! Parameters are serialised in the stable order produced by
//! [`Layer::params`], so a checkpoint can be restored into a freshly
//! constructed network of identical architecture.

use std::io::{Read, Write};

use rhsd_tensor::Tensor;

use crate::layer::Layer;

/// A serialisable snapshot of a network's parameter values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint {
    /// Parameter tensors in [`Layer::params`] order.
    pub tensors: Vec<Tensor>,
}

/// Errors produced when restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Parameter counts differ between checkpoint and network.
    CountMismatch {
        /// Parameters in the checkpoint.
        expected: usize,
        /// Parameters exposed by the network.
        actual: usize,
    },
    /// A parameter's shape differs from the network's.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
    },
    /// Underlying serialisation error.
    Serde(serde_json::Error),
    /// Underlying I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::CountMismatch { expected, actual } => write!(
                f,
                "checkpoint has {expected} parameters, network has {actual}"
            ),
            CheckpointError::ShapeMismatch { index } => {
                write!(f, "parameter {index} shape mismatch")
            }
            CheckpointError::Serde(e) => write!(f, "serialisation error: {e}"),
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Serde(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Extracts a checkpoint from a network.
pub fn snapshot(layer: &dyn Layer) -> Checkpoint {
    Checkpoint {
        tensors: layer.params().into_iter().cloned().collect(),
    }
}

/// Restores a checkpoint into the parameter list of a network of
/// identical architecture (e.g. [`Layer::params_mut`]).
///
/// Shapes: `params` must mirror the checkpoint's tensors slot for slot.
///
/// # Errors
///
/// Returns [`CheckpointError::CountMismatch`] or
/// [`CheckpointError::ShapeMismatch`] when the architectures differ;
/// nothing is written then.
pub fn restore(mut params: Vec<&mut Tensor>, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    if params.len() != ckpt.tensors.len() {
        return Err(CheckpointError::CountMismatch {
            expected: ckpt.tensors.len(),
            actual: params.len(),
        });
    }
    for (i, (p, t)) in params.iter_mut().zip(ckpt.tensors.iter()).enumerate() {
        if p.shape() != t.shape() {
            return Err(CheckpointError::ShapeMismatch { index: i });
        }
    }
    for (p, t) in params.iter_mut().zip(ckpt.tensors.iter()) {
        **p = t.clone();
    }
    Ok(())
}

/// Writes a network's parameters as JSON.
///
/// # Errors
///
/// Returns any serialisation or I/O failure.
pub fn save(layer: &dyn Layer, writer: impl Write) -> Result<(), CheckpointError> {
    serde_json::to_writer(writer, &snapshot(layer))?;
    Ok(())
}

/// Restores a network's parameters from JSON written by [`save`].
///
/// # Errors
///
/// Returns deserialisation, I/O, or architecture-mismatch failures.
pub fn load(layer: &mut dyn Layer, reader: impl Read) -> Result<(), CheckpointError> {
    let ckpt: Checkpoint = serde_json::from_reader(reader)?;
    restore(layer.params_mut(), &ckpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Relu, Sequential};
    use crate::Tape;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_tensor::ops::conv::ConvSpec;

    fn make_net(seed: u64) -> Sequential {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Sequential::new()
            .push(Conv2d::new(1, 3, ConvSpec::same(3), &mut rng))
            .push(Relu::new())
            .push(Conv2d::new(3, 1, ConvSpec::same(3), &mut rng))
    }

    #[test]
    fn snapshot_restore_roundtrip_reproduces_outputs() {
        let a = make_net(1);
        let mut b = make_net(2);
        let x = Tensor::rand_normal([1, 6, 6], 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(3));
        let run = |net: &Sequential| net.forward(&x, &mut Tape::inference());
        assert!(!run(&a).approx_eq(&run(&b), 1e-6));

        let ckpt = snapshot(&a);
        restore(b.params_mut(), &ckpt).unwrap();
        assert!(run(&a).approx_eq(&run(&b), 1e-6));
    }

    #[test]
    fn save_load_json_roundtrip() {
        let a = make_net(4);
        let mut buf = Vec::new();
        save(&a, &mut buf).unwrap();
        let mut b = make_net(5);
        load(&mut b, buf.as_slice()).unwrap();
        let x = Tensor::rand_normal([1, 5, 5], 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(6));
        let run = |net: &Sequential| net.forward(&x, &mut Tape::inference());
        assert!(run(&a).approx_eq(&run(&b), 1e-6));
    }

    #[test]
    fn restore_rejects_wrong_architecture() {
        let ckpt = snapshot(&make_net(7));
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut tiny = Sequential::new().push(Conv2d::new(1, 1, ConvSpec::same(1), &mut rng));
        match restore(tiny.params_mut(), &ckpt) {
            Err(CheckpointError::CountMismatch { .. }) => {}
            other => panic!("expected CountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_wrong_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let a = Sequential::new().push(Conv2d::new(1, 2, ConvSpec::same(3), &mut rng));
        let mut b = Sequential::new().push(Conv2d::new(1, 2, ConvSpec::same(1), &mut rng));
        let ckpt = snapshot(&a);
        match restore(b.params_mut(), &ckpt) {
            Err(CheckpointError::ShapeMismatch { index: 0 }) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }
}
