//! Thread-count determinism: the `rhsd-par` pool uses a fixed chunk
//! schedule with disjoint output slices and an in-order reduction, so
//! every parallel section must produce **bit-identical** f32 results at
//! any thread count. These tests pin that contract for the conv kernels
//! (forward and backward), the litho aerial image, and the end-to-end
//! scan + bench-record accuracy rows.
//!
//! The pool's thread count is process-global (`rhsd::par::set_threads`),
//! so every test serialises on one mutex and restores the default.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use rand::SeedableRng;
use rhsd::core::{train, train_checked, RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{train_regions, BBox, Benchmark, RegionConfig, RegionSample};
use rhsd::layout::synth::CaseId;
use rhsd::layout::{RasterSpec, Rect};
use rhsd::litho::aerial::aerial_image;
use rhsd::litho::GaussianKernel;
use rhsd::nn::optim::{Sgd, StepDecay};
use rhsd::tensor::ops::conv::{conv2d, conv2d_backward, ConvSpec};
use rhsd::tensor::Tensor;
use rhsd_bench::pipeline::{bench_json, DetectorReport};

/// Serialises tests that switch the global pool size.
static POOL: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Runs `f` once at each thread count and returns both results.
fn at_threads<T>(a: usize, b: usize, f: impl Fn() -> T) -> (T, T) {
    rhsd::par::set_threads(a);
    let ra = f();
    rhsd::par::set_threads(b);
    let rb = f();
    rhsd::par::set_threads(rhsd::par::default_threads());
    (ra, rb)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Deterministic pseudo-random fill from a seed and flat coordinates.
fn noise(seed: u64, coords: &[usize]) -> f32 {
    let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &c in coords {
        h = (h ^ c as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 31;
    }
    (h % 2000) as f32 / 1000.0 - 1.0
}

// Property: conv2d output and all three gradients are bit-identical
// between a serial pool and a 4-worker pool, across random shapes and
// contents; likewise the separable aerial-image convolution.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn conv_forward_and_backward_bit_identical(
        seed in 0u64..1_000_000,
        c_in in 1usize..4,
        c_out in 1usize..5,
        hw in 4usize..24,
        kernel_idx in 0usize..3,
    ) {
        let _guard = pool_lock();
        let kernel = [1usize, 3, 5][kernel_idx];
        let spec = ConvSpec::new(kernel, 1, kernel / 2);
        let input = Tensor::from_fn([c_in, hw, hw], |c| noise(seed, c));
        let weight = Tensor::from_fn([c_out, c_in, kernel, kernel], |c| noise(seed ^ 1, c));
        let bias = Tensor::from_fn([c_out], |c| noise(seed ^ 2, c));
        let (oh, ow) = (spec.out_size(hw), spec.out_size(hw));
        let grad = Tensor::from_fn([c_out, oh, ow], |c| noise(seed ^ 3, c));

        let ((o1, gi1, gw1, gb1), (o4, gi4, gw4, gb4)) = at_threads(1, 4, || {
            let out = conv2d(&input, &weight, Some(&bias), spec);
            let (gi, gw, gb) = conv2d_backward(input.clone(), &weight, &grad, spec);
            (out, gi, gw, gb)
        });

        prop_assert_eq!(bits(&o1), bits(&o4), "forward differs");
        prop_assert_eq!(bits(&gi1), bits(&gi4), "d_input differs");
        prop_assert_eq!(bits(&gw1), bits(&gw4), "d_weight differs");
        prop_assert_eq!(bits(&gb1), bits(&gb4), "d_bias differs");
    }

    #[test]
    fn aerial_image_bit_identical(
        seed in 0u64..1_000_000,
        h in 8usize..48,
        w in 8usize..48,
        sigma in 1u32..5,
    ) {
        let _guard = pool_lock();
        let mask = Tensor::from_fn([1, h, w], |c| noise(seed, c).abs());
        let kernel = GaussianKernel::new(f64::from(sigma));
        let (a, b) = at_threads(1, 4, || aerial_image(&mask, &kernel));
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

/// End to end: a tiny train + scan and the rendered bench-record rows
/// must agree bit-for-bit between `--threads 1` and `--threads 4` — the
/// accuracy columns `bench-diff --skip-runtime` gates on are
/// thread-count invariant.
#[test]
fn scan_and_bench_accuracy_rows_bit_identical() {
    let _guard = pool_lock();

    let run = || {
        let bench = Benchmark::demo(CaseId::Case2);
        let region = RegionConfig::demo();
        let mut samples = train_regions(&bench, &region);
        samples.truncate(4);
        let mut cfg = RhsdConfig::tiny();
        cfg.region_px = region.region_px;
        cfg.clip_px = region.clip_px;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut net = RhsdNetwork::new(cfg, &mut rng);
        train(&mut net, &samples, &TrainConfig::tiny());
        let det = RegionDetector::new(net, region);
        let result = det.scan_test_half(&bench);
        let row = rhsd::baselines::CaseResult::new(bench.id.name(), &result.evaluation, 0.0);
        let report = DetectorReport::new("Ours", vec![row]);
        let record = bench_json("determinism-test", true, 7, &[report]);
        (result, record)
    };
    let ((r1, j1), (r4, j4)) = at_threads(1, 4, run);

    assert_eq!(r1.regions, r4.regions);
    assert_eq!(r1.detections.len(), r4.detections.len());
    for (a, b) in r1.detections.iter().zip(r4.detections.iter()) {
        assert_eq!(a.clip, b.clip);
        assert_eq!(a.region, b.region);
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "scores must match bit-for-bit"
        );
    }
    assert_eq!(
        format!("{:?}", r1.evaluation),
        format!("{:?}", r4.evaluation)
    );

    // The records differ only in scheduling-dependent lines: the
    // recorded thread count and the workspace-pool counters (per-thread
    // scratch pools warm up differently at different pool sizes).
    let strip = |record: &str| -> String {
        record
            .lines()
            .filter(|l| {
                let l = l.trim_start();
                !l.starts_with("\"threads\"") && !l.starts_with("\"workspace\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&j1),
        strip(&j4),
        "bench records must match modulo `threads`/`workspace`"
    );
    assert!(j1.contains("\"threads\": 1"), "{j1}");
    assert!(j4.contains("\"threads\": 4"), "{j4}");
}

/// The span-tree *shape* — every stack path with its call count — must
/// be identical at any pool size. Parallel sections run under the
/// submitting thread's span stack (rhsd-par re-installs it as the base
/// stack on every worker), so moving work across threads must not move
/// spans between tree nodes; only per-thread timing attribution may
/// differ.
#[test]
fn span_tree_shape_identical_across_thread_counts() {
    let _guard = pool_lock();

    let run = || {
        rhsd::obs::reset();
        rhsd::obs::set_enabled(true);
        {
            let _scan = rhsd::obs::span("scan");
            let bench = Benchmark::demo(CaseId::Case2);
            let mask = {
                let _raster = rhsd::obs::span("raster");
                Tensor::from_fn([1, 40, 40], |c| noise(11, c).abs())
            };
            let _ = {
                let _litho = rhsd::obs::span("litho");
                aerial_image(&mask, &GaussianKernel::new(2.0))
            };
            drop(bench);
        }
        {
            let cfg = RhsdConfig::tiny();
            let regions: Vec<RegionSample> = (0..3).map(|i| pin_sample(&cfg, i)).collect();
            let mut net = RhsdNetwork::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(9));
            let mut tc = TrainConfig::tiny();
            tc.epochs = 1;
            train(&mut net, &regions, &tc);
        }
        let tree = rhsd::obs::span_tree();
        rhsd::obs::set_enabled(false);
        rhsd::obs::reset();
        tree
    };
    let (t1, t4) = at_threads(1, 4, run);

    assert!(!t1.is_empty(), "spans were recorded");
    assert_eq!(
        t1.shape(),
        t4.shape(),
        "span-tree shape (paths + call counts) must be pool-size invariant"
    );
}

/// A forward split at the stem — the stem, then the rest, as a served
/// region replays its cached stem — opens exactly the span keys of one
/// whole forward pass: each layer of the rest keeps its index in the
/// extractor, so both paths' span trees line up layer by layer.
#[test]
fn split_forward_opens_the_span_keys_of_the_whole_pass() {
    use rhsd::nn::{Layer, Tape};
    let _guard = pool_lock();
    let cfg = RhsdConfig::tiny();
    let net = RhsdNetwork::new(cfg.clone(), &mut rand_chacha::ChaCha8Rng::seed_from_u64(3));
    let fx = net.extractor();
    let x = pin_sample(&cfg, 0).image;
    let keys = |pass: &dyn Fn()| {
        rhsd::obs::reset();
        rhsd::obs::set_enabled(true);
        {
            let _root = rhsd::obs::span("pass");
            pass();
        }
        let tree = rhsd::obs::span_tree();
        rhsd::obs::set_enabled(false);
        rhsd::obs::reset();
        tree.shape()
    };
    let whole = keys(&|| {
        fx.forward(x.clone(), &mut Tape::inference());
    });
    let split = keys(&|| {
        fx.forward_rest(&fx.forward_stem(&x));
    });
    assert!(
        whole.iter().any(|(k, _)| k.starts_with("pass;InceptionB#")),
        "{whole:?}"
    );
    assert_eq!(whole, split);
}

/// Data-parallel training opens few pool sections: each optimiser step
/// runs its regions' forward passes as one section and their extractor
/// backward passes as another, and every convolution inside a region's
/// task runs inline. (Region by region, a traced perfbench `train` epoch
/// opened 810 sections over 54 regions.)
#[test]
fn minibatch_training_opens_few_pool_sections() {
    let _guard = pool_lock();
    let bench = Benchmark::demo(CaseId::Case2);
    let region = RegionConfig::demo();
    let mut samples = train_regions(&bench, &region);
    samples.truncate(4);
    let mut cfg = RhsdConfig::demo();
    cfg.region_px = region.region_px;
    cfg.clip_px = region.clip_px;
    let mut tc = TrainConfig::demo();
    tc.epochs = 1;
    tc.batch_size = 2;
    let mut net = RhsdNetwork::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(8));

    rhsd::par::set_threads(2);
    rhsd::obs::reset();
    rhsd::obs::set_enabled(true);
    train(&mut net, &samples, &tc);
    let counters = rhsd::obs::snapshot().counters;
    rhsd::obs::set_enabled(false);
    rhsd::obs::reset();
    rhsd::par::set_threads(rhsd::par::default_threads());

    let steps = samples.len().div_ceil(tc.batch_size) as u64;
    let sections = counters.get("par.sections").copied().unwrap_or(0);
    assert!(
        sections >= steps,
        "each step runs its regions on the pool: {sections} sections"
    );
    assert!(
        sections <= 4 * steps,
        "{sections} pool sections over {steps} optimiser steps"
    );
}

/// FNV-1a hash of every parameter's bits and every step's loss bits
/// after [`training_numerics_are_pinned`]'s three rounds. A change to it
/// is a change to training arithmetic: it must be re-pinned on purpose
/// and named in CHANGES.md, never silently.
const TRAINING_PIN: u64 = 0x51a9_7fae_0135_1067;

fn fnv1a(h: &mut u64, word: u32) {
    fnv1a_bytes(h, &word.to_le_bytes());
}

fn fnv1a_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// A tiny-config region with one hotspot whose position moves per round.
fn pin_sample(cfg: &RhsdConfig, round: usize) -> RegionSample {
    let px = cfg.region_px;
    let c = (px / 3 + 7 * round) as f32;
    let image = Tensor::from_fn([1, px, px], |i| {
        let (dx, dy) = (i[2] as f32 - c, i[1] as f32 - c);
        if dx * dx + dy * dy < 30.0 || (i[2] / 4 + round).is_multiple_of(3) {
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
        gt_clips: vec![BBox::new(c, c, cfg.clip_px as f32, cfg.clip_px as f32)],
        gt_centers: vec![(c, c)],
    }
}

/// Training numerics pinned across commits: three `train_step` +
/// `Sgd::step` rounds of `RhsdConfig::tiny()` must reproduce the
/// recorded bits of every loss and every parameter. The kernels are
/// bit-identical across ISAs, so this holds under `RHSD_FORCE_SCALAR=1`
/// too.
#[test]
fn training_numerics_are_pinned() {
    let _guard = pool_lock();
    let cfg = RhsdConfig::tiny();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2019);
    let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
    let mut opt = Sgd::new(StepDecay::constant(0.01), 0.9);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..3 {
        net.zero_grad();
        let stats = net.train_step(&pin_sample(&cfg, round), &mut rng);
        fnv1a(&mut h, stats.total().to_bits());
        fnv1a(&mut h, stats.rois as u32);
        let (mut params, grads) = net.params_and_grads_mut();
        opt.step(&mut params, grads);
    }
    for t in net.params() {
        for v in t.as_slice() {
            fnv1a(&mut h, v.to_bits());
        }
    }
    assert_eq!(h, TRAINING_PIN, "training bits moved: hash {h:#018x}");
}

/// FNV-1a hash of [`demo_training_batch_is_pinned`]'s statistics and
/// gradients.
const DEMO_TRAINING_PIN: u64 = 0xe6d8_8ebc_90c6_9d5a;

/// Training numerics at the demo geometry: one `train_batch` of
/// `RhsdConfig::demo()` over two regions. The tiny network's channel
/// tiles have at most four rows and its activation maps are narrow; the
/// demo network's 8-row fold tiles, single-channel fold strips and
/// 128-px activation maps run here. Hashes each region's loss and RoI
/// count and every gradient bit.
#[test]
fn demo_training_batch_is_pinned() {
    let _guard = pool_lock();
    let cfg = RhsdConfig::demo();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2021);
    let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
    let samples = [pin_sample(&cfg, 0), pin_sample(&cfg, 1)];
    let batch: Vec<&RegionSample> = samples.iter().collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for stats in net.train_batch(&batch, &mut rng) {
        fnv1a(&mut h, stats.total().to_bits());
        fnv1a(&mut h, stats.rois as u32);
    }
    for g in net.grads().iter() {
        for v in g.as_slice() {
            fnv1a(&mut h, v.to_bits());
        }
    }
    assert_eq!(h, DEMO_TRAINING_PIN, "training bits moved: hash {h:#018x}");
}

/// FNV-1a hash of [`demo_detections_are_pinned`]'s raw head outputs
/// and detections. A change to it is a change to inference arithmetic.
const DEMO_DETECTIONS_PIN: u64 = 0x5464_cf4e_ea1d_d1c2;

/// Inference numerics at the demo geometry, where the refinement head
/// sees a full 40-proposal batch: for a fixed-seed demo network over
/// three pinned regions, hashes the head's raw logits and codes for
/// every proposal, then every detection's box and score bits. Equal at
/// 1 and 2 threads, and on every ISA.
#[test]
fn demo_detections_are_pinned() {
    use rhsd::core::refine::roi_from_bbox;
    use rhsd::nn::{Layer, Tape};
    let _guard = pool_lock();
    let cfg = RhsdConfig::demo();
    let net = RhsdNetwork::new(
        cfg.clone(),
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(2032),
    );
    let head = net.refinement().expect("the demo network refines");
    let run = || {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for round in 0..3 {
            let image = pin_sample(&cfg, round).image;
            let proposals = net.proposals(&image);
            assert_eq!(proposals.len(), cfg.pre_nms_top_n, "a full proposal batch");
            let feats = net
                .extractor()
                .forward(image.clone(), &mut Tape::inference());
            let rois: Vec<_> = proposals
                .iter()
                .map(|p| roi_from_bbox(&p.bbox, cfg.stride, cfg.feature_px()))
                .collect();
            let out = head.forward(&feats, &rois, &mut Tape::inference());
            for v in out
                .cls_logits
                .as_slice()
                .iter()
                .chain(out.reg_code.as_slice())
            {
                fnv1a(&mut h, v.to_bits());
            }
            for d in net.detect(&image) {
                for v in [d.bbox.x0(), d.bbox.y0(), d.bbox.x1(), d.bbox.y1(), d.score] {
                    fnv1a(&mut h, v.to_bits());
                }
            }
        }
        h
    };
    let (h1, h2) = at_threads(1, 2, run);
    assert_eq!(h1, h2, "thread counts disagree");
    assert_eq!(
        h1, DEMO_DETECTIONS_PIN,
        "inference bits moved: hash {h1:#018x}"
    );
}

/// FNV-1a hash of the TCAD'18 baseline's per-epoch training losses and
/// its clip scores after [`tcad18_training_numerics_are_pinned`].
const TCAD18_TRAINING_PIN: u64 = 0x7911_43ea_6eaf_4fe0;

/// The clip-based baseline's training numerics (a `Sequential` of conv,
/// pooling, flatten and linear layers) pinned the same way.
#[test]
fn tcad18_training_numerics_are_pinned() {
    use rhsd::baselines::{Tcad18Config, Tcad18Detector};
    let _guard = pool_lock();
    let mut cfg = Tcad18Config::demo();
    cfg.epochs = 2;
    cfg.biased_epochs = 1;
    let px = cfg.raster_px();
    let clips: Vec<(Tensor, bool)> = (0..4)
        .map(|i| {
            let image = Tensor::from_fn([1, px, px], |c| noise(40 + i as u64, c).abs());
            (image, i % 2 == 0)
        })
        .collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    let mut det = Tcad18Detector::new(cfg, &mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for loss in det.train(&clips) {
        fnv1a(&mut h, loss.to_bits());
    }
    for (image, _) in &clips {
        fnv1a(&mut h, det.classify(image).to_bits());
    }
    assert_eq!(
        h, TCAD18_TRAINING_PIN,
        "training bits moved: hash {h:#018x}"
    );
}

/// TCAD'18 rasterises and classifies its clip windows on the pool, all
/// on one shared classifier: every window's score (threshold 0, so every
/// window is marked) and the evaluation must be bit-identical at
/// `--threads 1` and `2`.
#[test]
fn tcad18_scan_bit_identical_across_thread_counts() {
    use rhsd::baselines::{Tcad18Config, Tcad18Detector};
    let _guard = pool_lock();
    let bench = Benchmark::demo(CaseId::Case2);
    let mut cfg = Tcad18Config::demo();
    cfg.epochs = 1;
    cfg.biased_epochs = 0;
    cfg.threshold = 0.0;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
    let mut det = Tcad18Detector::new(cfg, &mut rng);
    det.train_on_benchmark(&bench, &bench.train_extent.clone(), 1);
    let t = bench.test_extent;
    let sub = Rect::new(t.x0, t.y0, t.x0 + 1920, t.y0 + 1920);

    let ((m1, e1), (m2, e2)) = at_threads(1, 2, || det.scan(&bench, &sub));
    assert_eq!(
        m1.len(),
        det.scan_cost(&sub),
        "threshold 0 marks every window"
    );
    assert_eq!(m1.len(), m2.len());
    for (a, b) in m1.iter().zip(&m2) {
        assert_eq!(a.clip, b.clip);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    assert_eq!(format!("{e1:?}"), format!("{e2:?}"));
}

/// FNV-1a hash of every parameter bit and every `EpochStats` field after
/// [`minibatch_training_is_pinned_at_any_thread_count`]'s run; the
/// data-parallel minibatch must reproduce it at every pool size.
const MINIBATCH_TRAINING_PIN: u64 = 0x0add_c2f7_b739_4f8d;

/// Mini-batch training is bit-identical at any pool size: `train_checked`
/// over 7 regions in batches of 3 (so the last batch has one region), two
/// epochs, hashes every final parameter and every epoch statistic,
/// per-parameter-group rows included, to the same value at 1, 2 and 4
/// threads.
#[test]
fn minibatch_training_is_pinned_at_any_thread_count() {
    let _guard = pool_lock();
    let cfg = RhsdConfig::tiny();
    let regions: Vec<RegionSample> = (0..7).map(|i| pin_sample(&cfg, i % 5)).collect();
    let mut tc = TrainConfig::tiny();
    tc.batch_size = 3;
    let run = |threads: usize| -> u64 {
        rhsd::par::set_threads(threads);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2020);
        let mut net = RhsdNetwork::new(cfg.clone(), &mut rng);
        let report = train_checked(&mut net, &regions, &tc).expect("warn policy never aborts");
        let mut groups = net.param_names();
        groups.dedup();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in net.params() {
            for v in t.as_slice() {
                fnv1a(&mut h, v.to_bits());
            }
        }
        assert_eq!(report.history.len(), 2);
        for e in &report.history {
            fnv1a_bytes(&mut h, &(e.epoch as u64).to_le_bytes());
            for v in [
                e.mean_loss,
                e.mean_cpn_cls,
                e.mean_cpn_reg,
                e.mean_refine_cls,
                e.mean_grad_norm,
                e.lr,
                e.pred_entropy,
            ] {
                fnv1a(&mut h, v.to_bits());
            }
            fnv1a_bytes(&mut h, &e.pred_hotspot.to_le_bytes());
            fnv1a_bytes(&mut h, &e.pred_non_hotspot.to_le_bytes());
            let keys: Vec<&String> = e.layers.iter().map(|l| &l.key).collect();
            assert_eq!(keys, groups.iter().collect::<Vec<_>>(), "a row per group");
            for l in &e.layers {
                fnv1a_bytes(&mut h, l.key.as_bytes());
                for v in [l.grad_norm, l.update_ratio, l.weight_norm] {
                    fnv1a(&mut h, v.to_bits());
                }
            }
        }
        h
    };
    let hashes: Vec<u64> = [1, 2, 4].into_iter().map(run).collect();
    rhsd::par::set_threads(rhsd::par::default_threads());
    for (threads, h) in [1, 2, 4].into_iter().zip(&hashes) {
        assert_eq!(
            *h, MINIBATCH_TRAINING_PIN,
            "training bits moved at {threads} threads: hash {h:#018x}"
        );
    }
}
