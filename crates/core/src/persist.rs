//! Saving and restoring trained detectors.
//!
//! A saved model is the configuration plus an architecture-checked
//! parameter checkpoint, serialised as one JSON document.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_nn::serialize::{restore, Checkpoint, CheckpointError};

use crate::config::RhsdConfig;
use crate::model::RhsdNetwork;

/// Format tag written into every saved model document. Loading checks
/// it before touching the checkpoint, so a file that is valid JSON but
/// not a model (or a model from an incompatible future format) fails
/// with a typed [`PersistError::Format`] instead of a shape mismatch
/// deep inside restore.
pub const MODEL_FORMAT: &str = "rhsd-model/1";

/// Errors from saving or loading a trained detector, annotated with
/// where in the pipeline the failure happened (and with the file path
/// for the path-based APIs).
#[derive(Debug)]
pub enum PersistError {
    /// The model file could not be created or opened.
    File {
        /// The path that failed to open.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Serialising or writing the model document failed.
    Write(CheckpointError),
    /// Reading or parsing the saved JSON failed.
    Read(CheckpointError),
    /// The document parsed but carries the wrong format tag.
    Format {
        /// The tag found in the document.
        found: String,
    },
    /// The document parsed but its checkpoint does not match the
    /// architecture implied by the saved configuration.
    Restore(CheckpointError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::File { path, source } => {
                write!(f, "cannot open model file {}: {source}", path.display())
            }
            PersistError::Write(e) => write!(f, "cannot write model: {e}"),
            PersistError::Read(e) => write!(f, "cannot read model: {e}"),
            PersistError::Format { found } => write!(
                f,
                "not a saved model: format tag `{found}` (expected `{MODEL_FORMAT}`)"
            ),
            PersistError::Restore(e) => write!(f, "saved model is inconsistent: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::File { source, .. } => Some(source),
            PersistError::Format { .. } => None,
            PersistError::Write(e) | PersistError::Read(e) | PersistError::Restore(e) => Some(e),
        }
    }
}

/// Serialised form of a trained network.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SavedModel {
    /// Format tag; [`MODEL_FORMAT`] for documents written by this crate.
    pub format: String,
    /// The network configuration (architecture).
    pub config: RhsdConfig,
    /// Parameter values.
    pub checkpoint: Checkpoint,
}

/// Extracts a serialisable snapshot from a network.
pub fn save_model(network: &RhsdNetwork) -> SavedModel {
    let tensors = network.params().into_iter().cloned().collect();
    SavedModel {
        format: MODEL_FORMAT.to_owned(),
        config: network.config().clone(),
        checkpoint: Checkpoint { tensors },
    }
}

/// Reconstructs a network from a snapshot.
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the checkpoint does not match the
/// architecture implied by the saved configuration.
pub fn load_model(saved: &SavedModel) -> Result<RhsdNetwork, CheckpointError> {
    // Architecture is fully determined by the config; initialise with a
    // fixed seed then overwrite every parameter.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = RhsdNetwork::new(saved.config.clone(), &mut rng);
    restore(net.params_mut(), &saved.checkpoint)?;
    Ok(net)
}

/// Writes a model as JSON.
///
/// # Errors
///
/// Returns [`PersistError::Write`] on serialisation or I/O failures.
pub fn save_to_writer(network: &RhsdNetwork, writer: impl Write) -> Result<(), PersistError> {
    serde_json::to_writer(writer, &save_model(network)).map_err(|e| PersistError::Write(e.into()))
}

/// Reads a model from JSON written by [`save_to_writer`].
///
/// # Errors
///
/// Returns [`PersistError::Read`] when the document cannot be parsed,
/// [`PersistError::Format`] when it parses but is not a
/// [`MODEL_FORMAT`] document, and [`PersistError::Restore`] when the
/// checkpoint does not fit the saved architecture.
pub fn load_from_reader(reader: impl Read) -> Result<RhsdNetwork, PersistError> {
    let saved: SavedModel =
        serde_json::from_reader(reader).map_err(|e| PersistError::Read(e.into()))?;
    if saved.format != MODEL_FORMAT {
        return Err(PersistError::Format {
            found: saved.format,
        });
    }
    load_model(&saved).map_err(PersistError::Restore)
}

/// Saves a model to a file path.
///
/// # Errors
///
/// Returns [`PersistError::File`] (naming `path`) when the file cannot be
/// created, [`PersistError::Write`] on serialisation failures.
pub fn save_to_path(network: &RhsdNetwork, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let file = std::fs::File::create(path).map_err(|source| PersistError::File {
        path: path.to_path_buf(),
        source,
    })?;
    save_to_writer(network, std::io::BufWriter::new(file))
}

/// Loads a model from a file path.
///
/// # Errors
///
/// Returns [`PersistError::File`] (naming `path`) when the file cannot be
/// opened, otherwise as [`load_from_reader`].
pub fn load_from_path(path: impl AsRef<Path>) -> Result<RhsdNetwork, PersistError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|source| PersistError::File {
        path: path.to_path_buf(),
        source,
    })?;
    load_from_reader(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_tensor::Tensor;

    #[test]
    fn save_load_roundtrip_reproduces_detections() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let image = Tensor::rand_uniform([1, cfg.region_px, cfg.region_px], 0.0, 1.0, &mut rng);
        let before = net.detect(&image);

        let mut buf = Vec::new();
        save_to_writer(&net, &mut buf).unwrap();
        let restored = load_from_reader(buf.as_slice()).unwrap();
        let after = restored.detect(&image);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            assert!((a.score - b.score).abs() < 1e-6);
            assert!((a.bbox.cx - b.bbox.cx).abs() < 1e-4);
        }
    }

    #[test]
    fn load_rejects_mismatched_architecture() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
        let mut saved = save_model(&net);
        saved.checkpoint.tensors.pop();
        assert!(load_model(&saved).is_err());
    }

    #[test]
    fn missing_file_error_names_the_path() {
        let err = match load_from_path("/nonexistent/rhsd/model.json") {
            Err(e) => e,
            Ok(_) => unreachable!("load of a missing file must fail"),
        };
        assert!(matches!(err, PersistError::File { .. }));
        let msg = err.to_string();
        assert!(msg.contains("/nonexistent/rhsd/model.json"), "{msg}");
    }

    #[test]
    fn mismatched_architecture_is_a_restore_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
        let mut saved = save_model(&net);
        saved.checkpoint.tensors.pop();
        let err = match load_model(&saved) {
            Err(e) => e,
            Ok(_) => unreachable!("architecture mismatch must fail"),
        };
        assert!(matches!(err, CheckpointError::CountMismatch { .. }));
    }

    #[test]
    fn truncated_document_is_a_typed_read_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(104);
        let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
        let mut buf = Vec::new();
        save_to_writer(&net, &mut buf).unwrap();
        // Cut the document mid-stream: a crashed save must fail loudly
        // but typed — never panic, never restore a half-model.
        for keep in [0, 1, buf.len() / 2, buf.len() - 1] {
            let err = match load_from_reader(&buf[..keep]) {
                Err(e) => e,
                Ok(_) => unreachable!("truncated model (len {keep}) must not load"),
            };
            assert!(matches!(err, PersistError::Read(_)), "{err}");
        }
    }

    #[test]
    fn corrupt_json_is_a_typed_read_error() {
        for garbage in ["", "not json", "{\"config\": 3", "[1,2,3]", "{}"] {
            let err = match load_from_reader(garbage.as_bytes()) {
                Err(e) => e,
                Ok(_) => unreachable!("garbage `{garbage}` must not load"),
            };
            assert!(matches!(err, PersistError::Read(_)), "{garbage}: {err}");
        }
    }

    #[test]
    fn wrong_format_tag_is_a_typed_format_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(105);
        let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
        let mut buf = Vec::new();
        save_to_writer(&net, &mut buf).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        let forged = doc.replace(MODEL_FORMAT, "rhsd-model/999");
        assert_ne!(doc, forged, "format tag must appear in the document");
        let err = match load_from_reader(forged.as_bytes()) {
            Err(e) => e,
            Ok(_) => unreachable!("future-format model must not load"),
        };
        assert!(matches!(err, PersistError::Format { .. }), "{err}");
        assert!(err.to_string().contains("rhsd-model/999"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("rhsd_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let mut rng = ChaCha8Rng::seed_from_u64(102);
        let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
        save_to_path(&net, &path).unwrap();
        let restored = load_from_path(&path).unwrap();
        assert_eq!(restored.config(), net.config());
        std::fs::remove_file(&path).ok();
    }
}
