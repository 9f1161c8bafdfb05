//! Divergence-sentinel regression tests.
//!
//! The centrepiece re-creates the PR-6 learning-rate collapse: at demo
//! scale, `lr = 0.01` with momentum 0.9 and batch 4 drives the
//! refinement head into a bias-only prior predictor (label entropy ≈ 0,
//! refinement loss pinned at the class-prior entropy) that used to
//! surface only as 0%-accuracy rows at final eval. The sentinel must
//! catch it within the first three epochs, while the fixed quick
//! configuration (lr = 0.005, batch 2) trains with no sentinel events.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::core::{train_checked, RhsdConfig, RhsdNetwork, SentinelPolicy, TrainConfig, TripReason};
use rhsd::data::{BBox, RegionSample};
use rhsd::layout::{RasterSpec, Rect};
use rhsd::obs;
use rhsd::obs::json::Value;
use rhsd::tensor::Tensor;
use rhsd_bench::pipeline::{
    build_benchmarks, merged_train_regions, ours_config, train_config, Effort,
};

/// The merged demo-scale training set (3 cases, no augmentation) — the
/// same regions the quick bench trains on.
fn quick_samples() -> Vec<RegionSample> {
    let benches = build_benchmarks();
    let region = rhsd::data::RegionConfig::demo();
    merged_train_regions(&benches, &region, false)
}

#[test]
fn lr001_collapse_trips_the_sentinel_within_three_epochs() {
    let samples = quick_samples();
    // The PR-6 configuration: demo schedule with the old 0.01 rate.
    let mut tc = TrainConfig::demo();
    tc.epochs = 3;
    tc.schedule.initial = 0.01;
    tc.sentinel = SentinelPolicy::Abort;
    let mut rng = ChaCha8Rng::seed_from_u64(103);
    let mut net = RhsdNetwork::new(ours_config(), &mut rng);
    let abort = train_checked(&mut net, &samples, &tc)
        .expect_err("the lr=0.01 collapse must trip the aborting sentinel");
    match &abort.reason {
        TripReason::BiasCollapse {
            epoch,
            label_entropy,
            ..
        } => {
            assert!(
                *epoch <= 2,
                "collapse must be caught within the first 3 epochs, tripped at {epoch}"
            );
            assert!(
                *label_entropy <= 0.1,
                "trip evidence: label entropy {label_entropy} should be ≈0"
            );
        }
        other => panic!("expected BiasCollapse, got {other:?}"),
    }
    // The abort carries the history up to and including the trip.
    assert_eq!(abort.history.len(), abort.reason.epoch() + 1);
}

#[test]
fn fixed_quick_config_trains_with_no_sentinel_events() {
    let samples = quick_samples();
    // The fixed configuration the quick bench runs (lr = 0.005, batch 2),
    // trimmed to 6 epochs to keep the test fast — comfortably past the
    // epochs where the collapse configuration trips.
    let mut tc = train_config(Effort::Quick);
    tc.epochs = 6;
    let mut rng = ChaCha8Rng::seed_from_u64(103);
    let mut net = RhsdNetwork::new(ours_config(), &mut rng);
    let report = train_checked(&mut net, &samples, &tc).expect("clean run");
    assert_eq!(report.history.len(), 6);
    assert!(
        report.trips.is_empty(),
        "fixed config must train clean, got {:?}",
        report.trips
    );
    // Per-layer rows ride along and the label histogram is populated.
    let last = report.history.last().expect("history");
    assert!(!last.layers.is_empty());
    assert!(last.pred_hotspot + last.pred_non_hotspot > 0);
}

fn synthetic_samples(cfg: &RhsdConfig, n: usize) -> Vec<RegionSample> {
    let px = cfg.region_px;
    (0..n)
        .map(|i| {
            let cx = (px / 4 + (i * 13) % (px / 2)) as f32;
            let cy = (px / 4 + (i * 29) % (px / 2)) as f32;
            let image = Tensor::from_fn([1, px, px], |c| {
                let dx = c[2] as f32 - cx;
                let dy = c[1] as f32 - cy;
                if dx * dx + dy * dy < 36.0 {
                    1.0
                } else {
                    0.0
                }
            });
            let window = Rect::new(0, 0, (px * 10) as i64, (px * 10) as i64);
            RegionSample {
                image,
                window,
                spec: RasterSpec::new(window, px, px),
                gt_clips: vec![BBox::new(cx, cy, cfg.clip_px as f32, cfg.clip_px as f32)],
                gt_centers: vec![(cx, cy)],
            }
        })
        .collect()
}

/// Injected NaN → typed abort, sentinel ledger event, and a `run_end`
/// line recording the trip reason. Kept in this binary (ledgers are
/// process-global; `tests/ledger_integration.rs` owns the happy path).
#[test]
fn nan_loss_aborts_and_leaves_a_ledger_trail() {
    obs::reset();
    obs::set_enabled(true);
    let path = std::env::temp_dir().join(format!("rhsd_sentinel_it_{}.jsonl", std::process::id()));
    obs::ledger::open(&path, obs::ledger::Manifest::default()).expect("open ledger");

    let cfg = RhsdConfig::tiny();
    let samples = synthetic_samples(&cfg, 2);
    let mut rng = ChaCha8Rng::seed_from_u64(92);
    let mut net = RhsdNetwork::new(cfg, &mut rng);
    // Poison one weight: the forward pass goes NaN, so the epoch loss
    // does too.
    net.params_mut()[0].as_mut_slice()[0] = f32::NAN;
    let mut tc = TrainConfig::tiny();
    tc.sentinel = SentinelPolicy::Abort;
    let abort = train_checked(&mut net, &samples, &tc).expect_err("NaN loss must abort");
    assert!(
        matches!(abort.reason, TripReason::NonFiniteLoss { epoch: 0, .. }),
        "{:?}",
        abort.reason
    );
    let status = format!("aborted: {}", abort.reason.tag());
    obs::ledger::close(&status).expect("close ledger");
    obs::set_enabled(false);
    obs::reset();

    let text = std::fs::read_to_string(&path).expect("ledger file");
    let _ = std::fs::remove_file(&path);
    let parsed: Vec<Value> = text
        .lines()
        .map(|l| obs::json::parse(l).expect("valid JSON line"))
        .collect();
    let field = |v: &Value, key: &str| -> String {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .unwrap_or_default()
    };
    // The sentinel trip is in the stream, typed and attributed. Filter
    // by reason: tests sharing this process may emit their own events
    // into the global sink while this ledger is open.
    let sentinel = parsed
        .iter()
        .find(|v| field(v, "event") == "sentinel" && field(v, "reason") == "non_finite_loss")
        .expect("non_finite_loss sentinel event in ledger");
    assert_eq!(field(sentinel, "action"), "abort");
    assert_eq!(sentinel.get("epoch").and_then(Value::as_u64), Some(0));
    assert!(field(sentinel, "detail").contains("non-finite"));
    // run_end records the trip reason in its status.
    let last = parsed.last().expect("nonempty ledger");
    assert_eq!(field(last, "event"), "run_end");
    assert_eq!(field(last, "status"), "aborted: non_finite_loss");
}
