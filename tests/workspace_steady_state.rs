//! The steady-state allocation guarantee: once the per-thread scratch
//! pools are warm, repeated inference *and* training draw every tensor
//! scratch buffer (packed GEMM blocks, column-gradient matrices, pooling
//! buffers) from the `rhsd_tensor::workspace` pool and perform **zero**
//! workspace allocations. This is the contract the `workspace` block in
//! the bench record (schema `rhsd-bench-table/6`; mirrored by the
//! `cache.workspace.*` obs gauges) makes observable; this test pins it
//! end to end through a real network's forward and backward passes,
//! which also pins that the pool's retire-on-miss policy converges.
//!
//! One test per binary: the workspace counters are process-global, and a
//! lone test keeps them quiescent while we read them.

use rand::SeedableRng;
use rhsd::core::{RhsdConfig, RhsdNetwork};
use rhsd::data::{BBox, RegionSample};
use rhsd::layout::{RasterSpec, Rect};
use rhsd::tensor::{workspace, Tensor};

/// Asserts that `run`, once warmed by three calls, makes five more with
/// zero workspace allocations while still drawing on the pool.
fn assert_steady(what: &str, mut run: impl FnMut()) {
    for _ in 0..3 {
        run();
    }
    let before = workspace::stats();
    for _ in 0..5 {
        run();
    }
    let after = workspace::stats();

    assert_eq!(
        after.allocs,
        before.allocs,
        "warm {what} must perform zero workspace allocations \
         (allocs grew by {})",
        after.allocs - before.allocs
    );
    assert!(
        after.bytes_reused > before.bytes_reused,
        "warm {what} must serve its scratch from the pool"
    );
    assert_eq!(after.high_water, before.high_water, "no new retention");
}

#[test]
fn steady_state_inference_makes_zero_workspace_allocations() {
    // One pool thread: all scratch traffic lands on one warm pool, so
    // the counter deltas below are exact.
    rhsd::par::set_threads(1);

    let cfg = RhsdConfig::tiny();
    let px = cfg.region_px;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
    let image = Tensor::from_fn([1, px, px], |c| ((c[1] * 31 + c[2] * 7) % 13) as f32 / 13.0);

    assert_steady("inference", || {
        net.detect(&image);
    });

    // A training step on a region with one hotspot: the extractor and
    // CPN backward passes plus the per-RoI refinement loop. Reseeding
    // keeps every step's RoI sample, and so its buffer sizes, the same.
    let centre = px as f32 / 2.0;
    let window = Rect::new(0, 0, (px * 10) as i64, (px * 10) as i64);
    let sample = RegionSample {
        image: image.clone(),
        window,
        spec: RasterSpec::new(window, px, px),
        gt_clips: vec![BBox::new(
            centre,
            centre,
            cfg.clip_px as f32,
            cfg.clip_px as f32,
        )],
        gt_centers: vec![(centre, centre)],
    };
    assert_steady("training", || {
        let mut step_rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        net.zero_grad();
        let stats = net.train_step(&sample, &mut step_rng);
        assert!(stats.rois > 0, "the step must run the refinement loop");
    });

    rhsd::par::set_threads(rhsd::par::default_threads());
}
