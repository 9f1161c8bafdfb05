//! Saving and restoring trained detectors: the `rhsd-model/2` file.
//!
//! A saved model is three parts, back to back:
//!
//! 1. one header line of JSON, ended by `\n`:
//!    `{"format":"rhsd-model/2","config":{…},"shapes":[[…],…]}` — the
//!    format tag, the [`RhsdConfig`] that fixes the architecture, and the
//!    shape of every parameter tensor in [`RhsdNetwork::params`] order;
//! 2. the parameter values as raw little-endian `f32`, tensor after
//!    tensor in the same order;
//! 3. an 8-byte little-endian FNV-1a-64 checksum of every byte before it.
//!
//! The header fixes the exact file length, so truncation and trailing
//! bytes are caught before the checksum is read, and the checksum catches
//! any single-byte edit. Weights are stored bit for bit: a saved-then-
//! loaded network reproduces every parameter exactly.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_obs::json::{self, number, Value};
use rhsd_tensor::Tensor;

use crate::config::RhsdConfig;
use crate::model::RhsdNetwork;

/// Format tag written into every saved model's header. Loading checks it
/// before anything else, because the tag decides how the rest is read: a
/// file from another format fails with a typed [`PersistError::Format`].
pub const MODEL_FORMAT: &str = "rhsd-model/2";

/// Bytes of the trailing checksum.
const CHECKSUM_BYTES: usize = 8;

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
    /// Writing the model failed.
    Write(std::io::Error),
    /// The file is not a well-formed model: unreadable, no header, a
    /// header that is not a model header, the wrong length or a bad
    /// checksum.
    Read(String),
    /// The header carries a format tag other than [`MODEL_FORMAT`].
    Format {
        /// The tag found in the header.
        found: String,
    },
    /// The saved configuration fails [`RhsdConfig::is_valid`], so no
    /// network can be built from it.
    InvalidConfig,
    /// The parameter shapes do not match the architecture implied by the
    /// saved configuration.
    Restore(RestoreError),
}

/// How a parameter payload fails to fit a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// Parameter counts differ between the file and the network.
    CountMismatch {
        /// Parameters in the file.
        expected: usize,
        /// Parameters exposed by the network.
        actual: usize,
    },
    /// A parameter's shape differs from the network's.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::CountMismatch { expected, actual } => {
                write!(f, "file has {expected} parameters, network has {actual}")
            }
            RestoreError::ShapeMismatch { index } => write!(f, "parameter {index} shape mismatch"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::File { path, source } => {
                write!(f, "cannot open model file {}: {source}", path.display())
            }
            PersistError::Write(e) => write!(f, "cannot write model: {e}"),
            PersistError::Read(why) => write!(f, "cannot read model: {why}"),
            PersistError::Format { found } => write!(
                f,
                "not a saved model: format tag `{found}` (expected `{MODEL_FORMAT}`)"
            ),
            PersistError::InvalidConfig => {
                f.write_str("saved model has an invalid configuration (RhsdConfig::is_valid)")
            }
            PersistError::Restore(e) => write!(f, "saved model is inconsistent: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::File { source, .. } | PersistError::Write(source) => Some(source),
            PersistError::Restore(e) => Some(e),
            PersistError::Read(_) | PersistError::Format { .. } | PersistError::InvalidConfig => {
                None
            }
        }
    }
}

fn read_error(why: impl Into<String>) -> PersistError {
    PersistError::Read(why.into())
}

/// FNV-1a-64 over `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(OFFSET_BASIS, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// `items`, each rendered by `render`, as a compact JSON array.
fn list<T>(items: &[T], render: impl Fn(&T) -> String) -> String {
    format!(
        "[{}]",
        items.iter().map(render).collect::<Vec<_>>().join(",")
    )
}

/// The configuration as one JSON object. `f32` fields go out widened to
/// `f64`, whose shortest decimal form reads back to the same `f32`.
fn config_json(c: &RhsdConfig) -> String {
    let f = |v: &f32| number(f64::from(*v));
    let u = |v: &usize| v.to_string();
    let fields = [
        ("region_px", u(&c.region_px)),
        ("clip_px", u(&c.clip_px)),
        ("stride", u(&c.stride)),
        ("aspect_ratios", list(&c.aspect_ratios, f)),
        ("scales", list(&c.scales, f)),
        ("encdec_hidden", list(&c.encdec_hidden, u)),
        ("stem_channels", list(&c.stem_channels, u)),
        ("inception_width_a", u(&c.inception_width_a)),
        ("inception_width_b", u(&c.inception_width_b)),
        ("cpn_mid_channels", u(&c.cpn_mid_channels)),
        ("refine_width", u(&c.refine_width)),
        ("fc_width", u(&c.fc_width)),
        ("roi_size", u(&c.roi_size)),
        ("iou_pos", f(&c.iou_pos)),
        ("iou_neg", f(&c.iou_neg)),
        ("anchor_batch", u(&c.anchor_batch)),
        ("roi_batch", u(&c.roi_batch)),
        ("hnms_threshold", f(&c.hnms_threshold)),
        ("pre_nms_top_n", u(&c.pre_nms_top_n)),
        ("score_threshold", f(&c.score_threshold)),
        ("alpha_loc", f(&c.alpha_loc)),
        ("beta", f(&c.beta)),
        ("use_encoder_decoder", c.use_encoder_decoder.to_string()),
        ("use_l2", c.use_l2.to_string()),
        ("use_refinement", c.use_refinement.to_string()),
        ("use_hnms", c.use_hnms.to_string()),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// A non-negative integer that fits `usize`.
fn as_usize(v: &Value) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

/// `v`'s elements decoded by `item`, if `v` is an array of such values.
fn items<T>(v: &Value, item: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
    v.as_arr()?.iter().map(item).collect()
}

/// Decodes [`config_json`]'s object. Every field must be present and
/// well typed; the result is not yet checked with
/// [`RhsdConfig::is_valid`].
fn config_from_json(v: &Value) -> Result<RhsdConfig, PersistError> {
    fn field<'v, T>(
        v: &'v Value,
        key: &str,
        decode: impl Fn(&'v Value) -> Option<T>,
    ) -> Result<T, PersistError> {
        v.get(key).and_then(decode).ok_or_else(|| {
            read_error(format!(
                "header config field `{key}` is missing or mistyped"
            ))
        })
    }
    let uint = |k: &str| field(v, k, as_usize);
    let float = |k: &str| field(v, k, |x: &Value| x.as_f64().map(|x| x as f32));
    let floats = |k: &str| field(v, k, |x: &Value| items(x, |e| e.as_f64().map(|e| e as f32)));
    let flag = |k: &str| field(v, k, Value::as_bool);
    Ok(RhsdConfig {
        region_px: uint("region_px")?,
        clip_px: uint("clip_px")?,
        stride: uint("stride")?,
        aspect_ratios: floats("aspect_ratios")?,
        scales: floats("scales")?,
        encdec_hidden: field(v, "encdec_hidden", |x| items(x, as_usize))?,
        stem_channels: field(v, "stem_channels", |x| items(x, as_usize)?.try_into().ok())?,
        inception_width_a: uint("inception_width_a")?,
        inception_width_b: uint("inception_width_b")?,
        cpn_mid_channels: uint("cpn_mid_channels")?,
        refine_width: uint("refine_width")?,
        fc_width: uint("fc_width")?,
        roi_size: uint("roi_size")?,
        iou_pos: float("iou_pos")?,
        iou_neg: float("iou_neg")?,
        anchor_batch: uint("anchor_batch")?,
        roi_batch: uint("roi_batch")?,
        hnms_threshold: float("hnms_threshold")?,
        pre_nms_top_n: uint("pre_nms_top_n")?,
        score_threshold: float("score_threshold")?,
        alpha_loc: float("alpha_loc")?,
        beta: float("beta")?,
        use_encoder_decoder: flag("use_encoder_decoder")?,
        use_l2: flag("use_l2")?,
        use_refinement: flag("use_refinement")?,
        use_hnms: flag("use_hnms")?,
    })
}

/// The parameters' values as little-endian `f32`, tensor after tensor.
fn payload(params: &[&Tensor]) -> Vec<u8> {
    params
        .iter()
        .flat_map(|t| t.as_slice().iter().flat_map(|v| v.to_le_bytes()))
        .collect()
}

/// The complete `rhsd-model/2` file for `config` and `params`.
fn encode(config: &RhsdConfig, params: &[&Tensor]) -> Vec<u8> {
    let shapes = list(params, |t| list(t.dims(), usize::to_string));
    let mut out = format!(
        "{{\"format\":\"{MODEL_FORMAT}\",\"config\":{},\"shapes\":{shapes}}}\n",
        config_json(config)
    )
    .into_bytes();
    out.extend(payload(params));
    let sum = checksum(&out);
    out.extend(sum.to_le_bytes());
    out
}

/// Copies `payload` (little-endian `f32`, laid out by `shapes`) into the
/// parameter list of a network (e.g. [`RhsdNetwork::params_mut`]).
///
/// Shapes: `params` must mirror `shapes` slot for slot, and `payload`
/// must hold exactly their element count times four bytes.
///
/// # Errors
///
/// Returns [`RestoreError::CountMismatch`] or
/// [`RestoreError::ShapeMismatch`] when the architectures differ;
/// nothing is written then.
fn restore(
    mut params: Vec<&mut Tensor>,
    shapes: &[Vec<usize>],
    payload: &[u8],
) -> Result<(), RestoreError> {
    if params.len() != shapes.len() {
        return Err(RestoreError::CountMismatch {
            expected: shapes.len(),
            actual: params.len(),
        });
    }
    if let Some(index) = params.iter().zip(shapes).position(|(p, s)| p.dims() != s) {
        return Err(RestoreError::ShapeMismatch { index });
    }
    let mut words = payload
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    for p in &mut params {
        for (dst, src) in p.as_mut_slice().iter_mut().zip(&mut words) {
            *dst = src;
        }
    }
    Ok(())
}

/// Writes a model as an `rhsd-model/2` file.
///
/// # Errors
///
/// Returns [`PersistError::Write`] on I/O failures.
pub fn save_to_writer(network: &RhsdNetwork, mut writer: impl Write) -> Result<(), PersistError> {
    writer
        .write_all(&encode(network.config(), &network.params()))
        .and_then(|()| writer.flush())
        .map_err(PersistError::Write)
}

/// Reads a model written by [`save_to_writer`].
///
/// # Errors
///
/// Checked in this order:
/// - [`PersistError::Read`] when the input cannot be read, has no header
///   line, or its header is not JSON or has no string `format`;
/// - [`PersistError::Format`] when the tag is not [`MODEL_FORMAT`];
/// - [`PersistError::Read`] when the header has no valid `shapes`, the
///   input is not exactly as long as they imply, the checksum does not
///   match or the `config` does not decode;
/// - [`PersistError::InvalidConfig`] when the configuration is invalid;
/// - [`PersistError::Restore`] when the shapes do not fit the network
///   the configuration builds.
pub fn load_from_reader(mut reader: impl Read) -> Result<RhsdNetwork, PersistError> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| read_error(format!("i/o error: {e}")))?;
    let header_len = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| read_error("no header line"))?;
    let header =
        std::str::from_utf8(&bytes[..header_len]).map_err(|_| read_error("header is not UTF-8"))?;
    let header =
        json::parse(header).map_err(|at| read_error(format!("header is not JSON (byte {at})")))?;
    match header.get("format").and_then(Value::as_str) {
        None => return Err(read_error("header has no format tag")),
        Some(tag) if tag != MODEL_FORMAT => {
            return Err(PersistError::Format {
                found: tag.to_owned(),
            })
        }
        Some(_) => {}
    }

    let shapes = header
        .get("shapes")
        .and_then(|v| items(v, |s| items(s, as_usize)))
        .ok_or_else(|| read_error("header has no parameter shapes"))?;
    let floats = shapes.iter().try_fold(0usize, |n, s| {
        n.checked_add(s.iter().try_fold(1usize, |k, &d| k.checked_mul(d))?)
    });
    let expected = floats
        .and_then(|n| n.checked_mul(4))
        .and_then(|n| n.checked_add(header_len + 1 + CHECKSUM_BYTES))
        .ok_or_else(|| read_error("parameter shapes overflow"))?;
    if bytes.len() != expected {
        return Err(read_error(format!(
            "expected {expected} bytes, found {}",
            bytes.len()
        )));
    }
    let (body, sum) = bytes.split_at(expected - CHECKSUM_BYTES);
    let mut stored = [0u8; CHECKSUM_BYTES];
    stored.copy_from_slice(sum);
    let (stored, computed) = (u64::from_le_bytes(stored), checksum(body));
    if stored != computed {
        return Err(read_error(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }

    let config = header
        .get("config")
        .ok_or_else(|| read_error("header has no config"))
        .and_then(config_from_json)?;
    if !config.is_valid() {
        return Err(PersistError::InvalidConfig);
    }
    // The architecture is fully determined by the config; initialise
    // with a fixed seed, then overwrite every parameter.
    let mut net = RhsdNetwork::new(config, &mut ChaCha8Rng::seed_from_u64(0));
    restore(net.params_mut(), &shapes, &body[header_len + 1..]).map_err(PersistError::Restore)?;
    Ok(net)
}

/// Saves a model to a file path.
///
/// # Errors
///
/// Returns [`PersistError::File`] (naming `path`) when the file cannot be
/// created, [`PersistError::Write`] on write failures.
pub fn save_to_path(network: &RhsdNetwork, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let file = std::fs::File::create(path).map_err(|source| PersistError::File {
        path: path.to_path_buf(),
        source,
    })?;
    save_to_writer(network, file)
}

/// Loads a model from a file path. The file is recognised by its
/// content, whatever its extension.
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
    load_from_reader(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_nn::layers::{Conv2d, Relu, Sequential};
    use rhsd_nn::{Layer, Tape};
    use rhsd_tensor::ops::conv::ConvSpec;

    fn tiny_net(seed: u64) -> RhsdNetwork {
        RhsdNetwork::new(RhsdConfig::tiny(), &mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn saved(net: &RhsdNetwork) -> Vec<u8> {
        let mut buf = Vec::new();
        save_to_writer(net, &mut buf).unwrap();
        buf
    }

    fn load_err(bytes: &[u8]) -> PersistError {
        match load_from_reader(bytes) {
            Err(e) => e,
            Ok(_) => unreachable!("this input must not load"),
        }
    }

    fn shapes(params: &[&Tensor]) -> Vec<Vec<usize>> {
        params.iter().map(|t| t.dims().to_vec()).collect()
    }

    #[test]
    fn save_load_roundtrip_reproduces_detections() {
        let cfg = RhsdConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let image = Tensor::rand_uniform([1, cfg.region_px, cfg.region_px], 0.0, 1.0, &mut rng);
        let before = net.detect(&image);

        let restored = load_from_reader(saved(&net).as_slice()).unwrap();
        let after = restored.detect(&image);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            assert!((a.score - b.score).abs() < 1e-6);
            assert!((a.bbox.cx - b.bbox.cx).abs() < 1e-4);
        }
    }

    #[test]
    fn roundtrip_reproduces_every_parameter_bit() {
        let net = tiny_net(106);
        let restored = load_from_reader(saved(&net).as_slice()).unwrap();
        assert_eq!(restored.config(), net.config());
        let bits = |n: &RhsdNetwork| -> Vec<u32> {
            n.params()
                .iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&restored), bits(&net));
    }

    #[test]
    fn header_roundtrips_every_config() {
        let mut ablation = RhsdConfig::demo();
        ablation.use_encoder_decoder = false;
        ablation.use_l2 = false;
        ablation.score_threshold = 0.05;
        for cfg in [
            RhsdConfig::paper(),
            RhsdConfig::demo(),
            RhsdConfig::tiny(),
            ablation,
        ] {
            let header = json::parse(&config_json(&cfg)).unwrap();
            assert_eq!(config_from_json(&header).unwrap(), cfg);
        }
    }

    #[test]
    fn file_is_header_payload_and_checksum() {
        let net = tiny_net(107);
        let bytes = saved(&net);
        let floats: usize = net.params().iter().map(|t| t.len()).sum();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap();
        assert!(bytes.starts_with(b"{\"format\":\"rhsd-model/2\","));
        assert_eq!(bytes.len(), header_len + 1 + 4 * floats + CHECKSUM_BYTES);
    }

    #[test]
    fn mismatched_architecture_is_a_restore_error() {
        let net = tiny_net(103);
        let params = net.params();
        let bytes = encode(net.config(), &params[..params.len() - 1]);
        let err = load_err(&bytes);
        assert!(
            matches!(
                err,
                PersistError::Restore(RestoreError::CountMismatch { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        // A forged header with a correct checksum: region_px 100 is not a
        // multiple of the stride, which `RhsdNetwork::new` would assert.
        let net = tiny_net(108);
        let mut cfg = net.config().clone();
        cfg.region_px = 100;
        let err = load_err(&encode(&cfg, &net.params()));
        assert!(matches!(err, PersistError::InvalidConfig), "{err}");
        assert!(err.to_string().contains("invalid configuration"), "{err}");
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
    fn truncated_document_is_a_typed_read_error() {
        let buf = saved(&tiny_net(104));
        // Cut the file mid-stream: a crashed save must fail loudly but
        // typed — never panic, never restore a half-model.
        for keep in [0, 1, buf.len() / 2, buf.len() - 1] {
            let err = load_err(&buf[..keep]);
            assert!(matches!(err, PersistError::Read(_)), "{err}");
        }
    }

    #[test]
    fn corrupt_json_is_a_typed_read_error() {
        for garbage in [
            "",
            "not json",
            "{\"config\": 3",
            "[1,2,3]\n",
            "{}\n",
            "{\"format\":2}\n",
            "{\"format\":\"rhsd-model/2\"}\n",
        ] {
            let err = load_err(garbage.as_bytes());
            assert!(matches!(err, PersistError::Read(_)), "{garbage}: {err}");
        }
    }

    #[test]
    fn bad_checksum_is_a_typed_read_error() {
        let mut buf = saved(&tiny_net(109));
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let err = load_err(&buf);
        assert!(matches!(err, PersistError::Read(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn wrong_format_tag_is_a_typed_format_error() {
        let buf = saved(&tiny_net(105));
        let tag = MODEL_FORMAT.as_bytes();
        let at = buf.windows(tag.len()).position(|w| w == tag).unwrap();
        let forged = [&buf[..at], b"rhsd-model/999", &buf[at + tag.len()..]].concat();
        let err = load_err(&forged);
        assert!(matches!(err, PersistError::Format { .. }), "{err}");
        assert!(err.to_string().contains("rhsd-model/999"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("rhsd_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let net = tiny_net(102);
        save_to_path(&net, &path).unwrap();
        let restored = load_from_path(&path).unwrap();
        assert_eq!(restored.config(), net.config());
        std::fs::remove_file(&path).ok();
    }

    fn make_net(seed: u64) -> Sequential {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Sequential::new()
            .push(Conv2d::new(1, 3, ConvSpec::same(3), &mut rng))
            .push(Relu::new())
            .push(Conv2d::new(3, 1, ConvSpec::same(3), &mut rng))
    }

    #[test]
    fn restore_roundtrip_reproduces_outputs() {
        let a = make_net(1);
        let mut b = make_net(2);
        let x = Tensor::rand_normal([1, 6, 6], 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(3));
        let run = |net: &Sequential| net.forward(x.clone(), &mut Tape::inference());
        assert!(!run(&a).approx_eq(&run(&b), 1e-6));

        let params = a.params();
        restore(b.params_mut(), &shapes(&params), &payload(&params)).unwrap();
        assert!(run(&a).approx_eq(&run(&b), 1e-6));
    }

    #[test]
    fn restore_rejects_wrong_architecture() {
        let a = make_net(7);
        let params = a.params();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut tiny = Sequential::new().push(Conv2d::new(1, 1, ConvSpec::same(1), &mut rng));
        assert_eq!(
            restore(tiny.params_mut(), &shapes(&params), &payload(&params)),
            Err(RestoreError::CountMismatch {
                expected: 4,
                actual: 2
            })
        );
    }

    #[test]
    fn restore_rejects_wrong_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let a = Sequential::new().push(Conv2d::new(1, 2, ConvSpec::same(3), &mut rng));
        let mut b = Sequential::new().push(Conv2d::new(1, 2, ConvSpec::same(1), &mut rng));
        let params = a.params();
        assert_eq!(
            restore(b.params_mut(), &shapes(&params), &payload(&params)),
            Err(RestoreError::ShapeMismatch { index: 0 })
        );
    }
}
