//! The steady-state allocation guarantee: once the per-thread scratch
//! pools are warm, repeated inference *and* training perform **zero**
//! workspace allocations. This is the contract the `workspace` block in
//! the bench record (schema `rhsd-bench-table/6`; mirrored by the
//! `cache.workspace.*` obs gauges) makes observable; this test pins it
//! end to end through a real network's forward and backward passes,
//! which also pins that the pool's retire-on-miss policy converges.
//!
//! The convolutions and transposed convolutions read their maps through
//! a zero-padded copy of each task's band of rows, taken from the pool,
//! so warm inference reuses retained buffers and allocates none; an
//! unpadded stride-1 convolution whose rows fill whole strips reads its
//! map where it lies and takes no scratch, and the fully-connected
//! forward and its input gradient transpose their batch into a plain
//! buffer, taking none either. Training also draws the weight
//! gradients' scratch from the pool: a single map's band copy, packed
//! panels, tile accumulators and lane sums, and a lane-layout batch's
//! padded copies, its per-map rows and their transpose.
//!
//! One test per binary: the workspace counters are process-global, and a
//! lone test keeps them quiescent while we read them.

use rand::SeedableRng;
use rhsd::core::{RhsdConfig, RhsdNetwork};
use rhsd::data::{BBox, RegionSample};
use rhsd::layout::{RasterSpec, Rect};
use rhsd::tensor::ops::conv::{conv2d, conv2d_weight_grads, ConvSpec};
use rhsd::tensor::ops::deconv::{conv_transpose2d, conv_transpose2d_backward};
use rhsd::tensor::ops::matvec::matvec;
use rhsd::tensor::{workspace, Tensor};

/// What a warm run may do with the workspace pool.
#[derive(Clone, Copy, PartialEq)]
enum Pool {
    /// Take no scratch at all: every counter stays put.
    Untouched,
    /// Serve its scratch from retained buffers, allocating none.
    Reused,
}

/// Asserts that `run`, once warmed by three calls, makes five more with
/// zero workspace allocations, using the pool as `pool` says.
fn assert_steady(what: &str, pool: Pool, mut run: impl FnMut()) {
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
    match pool {
        Pool::Untouched => assert_eq!(
            after.bytes_reused, before.bytes_reused,
            "warm {what} must take no workspace scratch"
        ),
        Pool::Reused => assert!(
            after.bytes_reused > before.bytes_reused,
            "warm {what} must serve its scratch from the pool"
        ),
    }
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

    // The full-resolution front end's shapes, bias included.
    let spec = ConvSpec::same(3);
    let x = Tensor::from_fn([8, px, px], |c| ((c[0] + c[1] * 3 + c[2]) % 7) as f32 - 3.0);
    let w = Tensor::from_fn([12, 8, 3, 3], |c| {
        ((c[0] * 5 + c[1] + c[3]) % 5) as f32 - 2.0
    });
    let b = Tensor::from_fn([12], |c| c[0] as f32);
    assert_steady("conv2d", Pool::Reused, || {
        conv2d(&x, &w, Some(&b), spec);
    });
    // An inception 1×1 at 32²: rows of whole strips, read in place.
    let x1 = Tensor::from_fn([20, 32, 32], |c| {
        ((c[0] + c[1] * 3 + c[2]) % 7) as f32 - 3.0
    });
    let w1 = Tensor::from_fn([5, 20, 1, 1], |c| ((c[0] * 5 + c[1]) % 5) as f32 - 2.0);
    assert_steady("1x1 conv2d", Pool::Untouched, || {
        conv2d(&x1, &w1, None, ConvSpec::same(1));
    });
    let wt = Tensor::from_fn([8, 12, 3, 3], |c| {
        ((c[0] + c[1] * 5 + c[2]) % 5) as f32 - 2.0
    });
    assert_steady("conv_transpose2d", Pool::Reused, || {
        conv_transpose2d(&x, &wt, Some(&b), spec);
    });
    // The same layers' weight gradients: 8 -> 12 on 16-lane strip pairs
    // where the tier has them, and the deconvolution's 8 input channels
    // as lanes.
    let g = Tensor::from_fn([12, px, px], |c| {
        ((c[0] + c[1] + c[2] * 5) % 9) as f32 - 4.0
    });
    assert_steady("conv2d weight gradients", Pool::Reused, || {
        conv2d_weight_grads(&x, &w, &g, spec);
    });
    assert_steady("conv_transpose2d backward", Pool::Reused, || {
        conv_transpose2d_backward(x.clone(), &wt, &g, spec);
    });

    // The refinement head's batched shapes, in the lane layout: a
    // region's 40 RoIs of 7×7 maps through a 3×3 convolution, and its
    // 320→48 FC over 40 vectors.
    let rois = Tensor::from_fn([20, 7, 7, 40], |c| ((c[3] + c[0] * 3 + c[2]) % 5) as f32);
    let w_roi = Tensor::from_fn([5, 20, 3, 3], |c| ((c[0] + c[2]) % 3) as f32 - 1.0);
    assert_steady("batched conv2d", Pool::Reused, || {
        conv2d(&rois, &w_roi, None, spec);
    });
    // Their weight gradients with the RoIs in the lanes, at the
    // stride-2 3×3 inception B runs.
    let stride2 = ConvSpec::new(3, 2, 1);
    let g_roi = Tensor::from_fn([5, 4, 4, 40], |c| {
        ((c[0] + c[1] * 3 + c[3]) % 7) as f32 - 3.0
    });
    assert_steady("batched weight gradients", Pool::Reused, || {
        conv2d_weight_grads(&rois, &w_roi, &g_roi, stride2);
    });
    let fc = Tensor::from_fn([48, 320], |c| ((c[0] * 7 + c[1]) % 9) as f32 - 4.0);
    let rows = Tensor::from_fn([320, 40], |c| ((c[0] + c[1]) % 4) as f32);
    assert_steady("batched FC", Pool::Untouched, || {
        matvec(&fc, &rows);
    });

    assert_steady("inference", Pool::Reused, || {
        net.detect(&image);
    });

    // A training step on a region with one hotspot: the extractor and
    // CPN backward passes plus the batched refinement head. Reseeding
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
    assert_steady("training", Pool::Reused, || {
        let mut step_rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        net.zero_grad();
        let stats = net.train_step(&sample, &mut step_rng);
        assert!(stats.rois > 0, "the step must run the refinement head");
    });

    rhsd::par::set_threads(rhsd::par::default_threads());
}
