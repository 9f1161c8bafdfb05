//! Failure-injection tests: the stack must degrade loudly (typed errors)
//! or gracefully (empty results) — never silently corrupt output.

#![expect(clippy::expect_used, reason = "test helpers fail loudly")]

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::core::persist::{load_from_reader, save_to_writer, PersistError};
use rhsd::core::{RhsdConfig, RhsdNetwork};
use rhsd::layout::io::{read_rlf, RlfError};
use rhsd::layout::{Layout, Rect, METAL1};
use rhsd::litho::{label_region, ProcessWindow};
use rhsd::tensor::Tensor;

#[test]
fn truncated_checkpoint_is_rejected() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
    let mut buf = Vec::new();
    save_to_writer(&net, &mut buf).unwrap();
    // chop the document in half
    buf.truncate(buf.len() / 2);
    assert!(load_from_reader(buf.as_slice()).is_err());
}

#[test]
fn corrupted_checkpoint_json_is_rejected() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut rng);
    let mut buf = Vec::new();
    save_to_writer(&net, &mut buf).unwrap();
    // flip every bit of two bytes in the middle of the weights
    let mid = buf.len() / 2;
    buf[mid] ^= 0xff;
    buf[mid + 1] ^= 0xff;
    assert!(load_from_reader(buf.as_slice()).is_err());
}

/// A saved tiny model and the length of its header line (newline
/// included).
fn saved_tiny_model() -> (Vec<u8>, usize) {
    let net = RhsdNetwork::new(RhsdConfig::tiny(), &mut ChaCha8Rng::seed_from_u64(6));
    let mut buf = Vec::new();
    save_to_writer(&net, &mut buf).expect("save to memory");
    let header = buf.iter().position(|&b| b == b'\n').expect("a header line") + 1;
    (buf, header)
}

/// Loads `bytes`, which must fail with a typed read or format error.
fn rejects(bytes: &[u8]) -> Result<(), String> {
    match load_from_reader(bytes) {
        Err(PersistError::Read(_) | PersistError::Format { .. }) => Ok(()),
        Err(e) => Err(format!("unexpected error kind: {e}")),
        Ok(_) => Err("a damaged model loaded".to_owned()),
    }
}

proptest! {
    /// Model-loader fuzz: truncation at any length, any one byte changed
    /// in the header, the weights or the checksum, and any appended bytes
    /// are each a typed error — never a panic, never a loaded model. The
    /// FNV-1a checksum changes on every single-byte edit, so this is a
    /// property, not a probability.
    #[test]
    fn damaged_model_files_are_typed_errors(
        cut in 0.0f64..1.0,
        part in 0usize..3,
        at in 0.0f64..1.0,
        mask in 1u8..=255,
        extra in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let (buf, header) = saved_tiny_model();
        let n = buf.len();
        rejects(&buf[..(cut * n as f64) as usize])?;

        let (lo, hi) = [(0, header), (header, n - 8), (n - 8, n)][part];
        let mut flipped = buf.clone();
        flipped[lo + (at * (hi - lo) as f64) as usize] ^= mask;
        rejects(&flipped)?;

        let mut longer = buf;
        longer.extend(extra);
        rejects(&longer)?;
    }
}

#[test]
fn detect_on_pathological_inputs_stays_finite() {
    let cfg = RhsdConfig::tiny();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let net = RhsdNetwork::new(cfg.clone(), &mut rng);
    let n = cfg.region_px;
    for image in [
        Tensor::zeros([1, n, n]),
        Tensor::ones([1, n, n]),
        Tensor::full([1, n, n], 1e6), // absurd intensity
    ] {
        let dets = net.detect(&image);
        for d in &dets {
            assert!(d.score.is_finite(), "score must stay finite");
            assert!(d.bbox.cx.is_finite() && d.bbox.w.is_finite());
        }
    }
}

#[test]
fn litho_oracle_on_empty_layout_is_clean() {
    let layout = Layout::new(Rect::new(0, 0, 2560, 2560));
    let defects = label_region(
        &layout,
        METAL1,
        &Rect::new(0, 0, 2560, 2560),
        &ProcessWindow::euv_default(),
        10.0,
    );
    assert!(defects.is_empty(), "empty layout has no defects");
}

#[test]
fn rlf_parser_survives_garbage() {
    for garbage in [
        "",
        "\u{0}\u{0}\u{0}",
        "RLF 1\nEXTENT a b c d\n",
        "RLF 1\nEXTENT 0 0 100 100\nLAYER 1\nPOLY 0 0 5 5\n",
        "RLF one\n",
    ] {
        match read_rlf(garbage.as_bytes()) {
            Err(
                RlfError::BadHeader
                | RlfError::BadRecord { .. }
                | RlfError::MissingExtent
                | RlfError::UnsupportedVersion(_)
                | RlfError::NoCurrentLayer { .. },
            ) => {}
            Err(RlfError::Io(_)) => {}
            Ok(_) => panic!("garbage {garbage:?} parsed successfully"),
        }
    }
}

#[test]
fn training_with_degenerate_schedule_stays_finite() {
    // zero learning rate: loss constant but finite, no panic
    use rhsd::core::TrainConfig;
    use rhsd::data::RegionSample;
    use rhsd::layout::RasterSpec;

    let cfg = RhsdConfig::tiny();
    let px = cfg.region_px;
    let window = Rect::new(0, 0, (px * 10) as i64, (px * 10) as i64);
    let sample = RegionSample {
        image: Tensor::zeros([1, px, px]),
        window,
        spec: RasterSpec::new(window, px, px),
        gt_clips: vec![],
        gt_centers: vec![],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut net = RhsdNetwork::new(cfg, &mut rng);
    let mut tc = TrainConfig::tiny();
    tc.schedule = rhsd::nn::optim::StepDecay::constant(1e-20);
    tc.epochs = 1;
    let hist = rhsd::core::train(&mut net, &[sample], &tc);
    assert!(hist[0].mean_loss.is_finite());
}
