//! Failure-injection tests: the stack must degrade loudly (typed errors)
//! or gracefully (empty results) — never silently corrupt output.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::core::persist::{load_from_reader, save_to_writer};
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
    // flip bytes in the middle (a stubbed serializer may emit nothing;
    // an empty stream must still be rejected)
    let mid = buf.len() / 2;
    if buf.len() >= 2 {
        buf[mid] = b'!';
        buf[mid + 1] = b'!';
    }
    assert!(load_from_reader(buf.as_slice()).is_err());
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
