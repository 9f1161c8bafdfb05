//! `cargo xtask microbench` — a zero-dependency kernel timing harness.
//!
//! Times the kernel families the end-to-end repro spends its cycles
//! in — the weight gradients' register tile (`weight_tile`), the
//! in-place convolutions forward and backward (`rhsd_tensor::ops::conv`
//! and `::deconv`, on the demo network's front-end shapes), the
//! refinement head's batched RoI convolutions and FC (`roi_conv2d`,
//! `roi_fc`, each beside the same RoIs run one per call), the FC's
//! input gradient (`roi_fc_backward`, `rhsd_tensor::ops::matvec`) and
//! the whole head's inference pass (`refine_head`), the
//! weight gradients alone (`conv2d_weight_grads`, of single maps and of
//! the head's lane-layout RoI batches), the fold alone
//! (`fold`), narrow-map
//! convolutions (the CPN's 8² map, inception B's stride 2), the 2×2
//! max-pool with and without its argmax (`max_pool2d`,
//! `max_pool2d_values`) and its backward (`max_pool2d_backward`), the
//! refinement head's RoI pooling with and without its argmax
//! (`roi_pool`, `roi_pool_values`), the
//! in-place `LeakyRelu` forward and backward, the separable litho
//! aerial convolution (`rhsd_litho::aerial`) and one whole training
//! step (`train_step`: a warm `RhsdNetwork::train_batch` of two demo
//! regions on one thread) — over a fixed shape table, and
//! writes a JSON record next to the `BENCH_*.json` bench records. The
//! harness exists to localise regressions: when `bench-diff` flags an
//! end-to-end runtime change, the per-kernel rows here say which layer
//! moved.
//!
//! Timing protocol: one untimed warm-up iteration (fills the workspace
//! scratch pools), then `reps` timed iterations, each after an untimed
//! set-up call where the kernel consumes or overwrites its input (a
//! backward convolution, the in-place `LeakyRelu`); both the minimum and the
//! mean wall time are recorded. The minimum is the stable
//! noise-resistant statistic; the mean surfaces allocator or scheduling
//! jitter. A `--quick` mode shrinks the rep counts for CI.
//!
//! Since `rhsd-microbench/2` every case is timed twice — once with the
//! kernel dispatcher forced to the scalar reference path and once on the
//! detected ISA — and carries `scalar_best_secs` plus the derived
//! `speedup` column (scalar best / dispatched best), so the SIMD win is
//! measured in the same record that tracks absolute times. Under
//! `RHSD_FORCE_SCALAR=1` both passes run the scalar path and the
//! speedup hovers at 1. When the detected ISA is above AVX2, the rows
//! of the kernels the wider tier widens (the weight tile, the
//! convolutions, folds and transposed convolutions forward and
//! backward, the weight gradients alone, and the refinement head's RoI
//! convolutions, FC and whole pass) are also timed on AVX2 and carry
//! `avx2_best_secs`, so the wider tier's own gain is in the record.
//!
//! The weight tile, convolution, weight-gradient, fold and RoI
//! convolution rows also carry `gmacs`: achieved multiply-adds per
//! second on the dispatched ISA, in billions, counted from the row's
//! shape — `C_out·C_in·K²·H'·W'` for a convolution and its weight
//! gradients (times the RoIs of a batch), the column matrix `Wᵀ · g`'s
//! `C_src·C_dst·K²·H·W` for a fold, and every lane's multiply-add for
//! the tile.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use rand::SeedableRng;
use rhsd_core::refine::RefinementHead;
use rhsd_core::{RhsdConfig, RhsdNetwork};
use rhsd_data::{train_regions, Benchmark, RegionConfig, RegionSample};
use rhsd_layout::synth::CaseId;
use rhsd_litho::aerial::aerial_image;
use rhsd_litho::GaussianKernel;
use rhsd_nn::layers::LeakyRelu;
use rhsd_nn::{Layer, Tape};
use rhsd_obs::Stopwatch;
use rhsd_tensor::ops::conv::{conv2d, conv2d_backward, conv2d_weight_grads, ConvSpec};
use rhsd_tensor::ops::deconv::{conv_transpose2d, conv_transpose2d_backward};
use rhsd_tensor::ops::kernels::{self, Isa};
use rhsd_tensor::ops::matvec::{matvec, matvec_t};
use rhsd_tensor::ops::pool::{
    max_pool2d, max_pool2d_backward, max_pool2d_values, roi_pool, roi_pool_values, FeatureRoi,
};
use rhsd_tensor::Tensor;

/// One timed kernel invocation set.
struct Case {
    /// Kernel family (`conv2d` / `roi_fc` / `aerial` / …).
    kernel: &'static str,
    /// Human-readable shape description.
    shape: String,
    /// Timed repetitions (after one warm-up).
    reps: usize,
    /// Fastest observed wall time on the dispatched ISA.
    best_secs: f64,
    /// Mean wall time over the reps on the dispatched ISA.
    mean_secs: f64,
    /// Fastest observed wall time with dispatch forced to the scalar
    /// reference kernels.
    scalar_best_secs: f64,
    /// `scalar_best_secs / best_secs` — the SIMD win for this shape.
    speedup: f64,
    /// Fastest observed wall time on AVX2, for a row timed on a wider
    /// tier whose kernels that tier widens.
    avx2_best_secs: Option<f64>,
    /// Multiply-adds per call, from the shape (convolution, fold and
    /// RoI convolution rows).
    macs: Option<u64>,
}

impl Case {
    /// The row with `macs` multiply-adds per call.
    fn with_macs(self, macs: usize) -> Self {
        Case {
            macs: Some(macs as u64),
            ..self
        }
    }

    /// Achieved multiply-adds per second on the dispatched ISA, in
    /// billions, for a row that counts them.
    fn gmacs(&self) -> Option<f64> {
        self.macs
            .map(|m| m as f64 / self.best_secs.max(1e-12) / 1e9)
    }
}

/// Deterministic pseudo-random fill, matching the style of the
/// determinism tests (no RNG dependency).
fn noise(seed: u64, i: usize) -> f32 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 31;
    (h % 2000) as f32 / 1000.0 - 1.0
}

fn filled(dims: &[usize], seed: u64) -> Tensor {
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n).map(|i| noise(seed, i)).collect();
    Tensor::from_vec(dims, data).expect("element count matches the shape")
}

/// Times `f` over `reps` iterations after one warm-up call, each call
/// on what an untimed `setup` call made just before it (a copy of a
/// map an in-place kernel overwrites); a volatile checksum of each
/// result keeps the optimiser honest.
fn time_case<S>(
    reps: usize,
    setup: &mut impl FnMut() -> S,
    f: &mut impl FnMut(S) -> Tensor,
) -> (f64, f64) {
    let warm = f(setup());
    std::hint::black_box(warm.as_slice().first().copied());
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..reps {
        let input = setup();
        let t0 = Stopwatch::start();
        let out = f(input);
        let dt = t0.secs();
        std::hint::black_box(out.as_slice().first().copied());
        best = best.min(dt);
        total += dt;
    }
    (best, total / reps as f64)
}

/// Times one shape twice — scalar-forced, then on `active` — and folds
/// both into a [`Case`] row. Dispatch is left on `active` afterwards.
fn timed(
    active: Isa,
    kernel: &'static str,
    shape: String,
    reps: usize,
    mut f: impl FnMut() -> Tensor,
) -> Case {
    timed_on(active, kernel, shape, reps, || (), |()| f())
}

/// The kernel families that spend their time in the convolution and
/// fold runs or the weight gradients' kernels, which the AVX-512 tier
/// widens; every other kernel runs its AVX2 body on that tier.
const WIDENED: [&str; 11] = [
    "weight_tile",
    "conv2d",
    "conv2d_backward",
    "conv2d_weight_grads",
    "conv_transpose2d",
    "conv_transpose2d_backward",
    "fold",
    "roi_conv2d",
    "roi_fc",
    "roi_fc_backward",
    "refine_head",
];

/// [`timed`] with an untimed `setup` call before each timed call, whose
/// result the call consumes.
fn timed_on<S>(
    active: Isa,
    kernel: &'static str,
    shape: String,
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> Tensor,
) -> Case {
    let mut time_on = |isa| {
        kernels::set_isa(isa);
        time_case(reps, &mut setup, &mut f)
    };
    let (scalar_best, _) = time_on(Isa::Scalar);
    let avx2_best = (active > Isa::Avx2 && WIDENED.contains(&kernel)).then(|| time_on(Isa::Avx2).0);
    let (best, mean) = time_on(active);
    Case {
        kernel,
        shape,
        reps,
        best_secs: best,
        mean_secs: mean,
        scalar_best_secs: scalar_best,
        speedup: scalar_best / best.max(1e-12),
        avx2_best_secs: avx2_best,
        macs: None,
    }
}

fn run_cases(quick: bool) -> Vec<Case> {
    let active = kernels::isa();
    let mut cases = Vec::new();

    // The weight gradients' register tile in isolation: 8 rows of 16
    // lanes accumulated over `kc` packed panel steps, re-run `iters`
    // times per timed call — one 16-lane call where the tier has 16
    // lanes, else two 8-lane calls, so every tier does the same work.
    // The `conv2d_weight_grads` rows below add packing and map layout;
    // this row times exactly the loop the ISA selector swaps.
    let (kc, iters, reps) = if quick {
        (256, 400, 8)
    } else {
        (256, 2000, 20)
    };
    let lanes = 2 * kernels::NR;
    let av: Vec<f32> = (0..kc + 8).map(|i| noise(7, i)).collect();
    let panel: Vec<f32> = (0..kc * lanes).map(|i| noise(8, i)).collect();
    // The same panel as two 8-lane strips.
    let halves: [Vec<f32>; 2] = std::array::from_fn(|h| {
        panel
            .chunks_exact(lanes)
            .flat_map(|step| &step[h * kernels::NR..][..kernels::NR])
            .copied()
            .collect()
    });
    let walk = kernels::Walk {
        run: kc,
        col: 1,
        row: kc,
    };
    cases.push(
        timed(
            active,
            "weight_tile",
            format!("8x{lanes}xkc{kc} x{iters}"),
            reps,
            move || {
                let mut acc = vec![0.0f32; 8 * lanes];
                let idx: [usize; 8] = std::array::from_fn(|r| r);
                for _ in 0..iters {
                    if kernels::weight_lanes() == lanes {
                        kernels::weight_tile(&mut acc, (&av, &idx), walk, &panel, (lanes, 1));
                    } else {
                        for (acc, half) in acc.chunks_exact_mut(8 * kernels::NR).zip(&halves) {
                            let v = (kernels::NR, 1);
                            kernels::weight_tile(acc, (&av, &idx), walk, half, v);
                        }
                    }
                }
                Tensor::from_vec([8, lanes], acc).expect("tile shape matches")
            },
        )
        .with_macs(8 * lanes * kc * iters),
    );

    // The demo network's full-resolution front end (3x3, stride 1,
    // pad 1): the stem's first two convolutions at 128², its third at
    // 64², and the encoder-decoder's first transposed convolution at
    // 128², plus the single-channel ends of the encoder-decoder (its
    // first convolution and last transposed convolution), an inception
    // 3×3 at 32² and an inception 1×1 (`k` 1). Each shape is timed
    // forward and backward; a convolution also times its weight
    // gradients alone (`conv2d_weight_grads`), the training-only half
    // of its backward that no forward row shares.
    let conv_shapes: &[(bool, usize, usize, usize, usize, usize)] = if quick {
        &[(false, 8, 12, 128, 3, 3), (false, 20, 5, 32, 1, 8)]
    } else {
        &[
            (false, 1, 8, 128, 3, 12),
            (false, 8, 12, 128, 3, 8),
            (false, 12, 16, 64, 3, 12),
            (false, 1, 4, 128, 3, 12),
            (false, 4, 8, 128, 3, 12),
            (false, 24, 24, 16, 3, 40),
            (false, 5, 5, 32, 3, 40),
            (false, 20, 5, 32, 1, 40),
            (true, 8, 4, 128, 3, 8),
            (true, 4, 1, 128, 3, 12),
        ]
    };
    // A backward consumes its input and returns the input gradient in
    // that buffer; each call takes a copy made before the timer starts.
    for &(transposed, c_in, c_out, hw, k, reps) in conv_shapes {
        let spec = ConvSpec::same(k);
        let input = filled(&[c_in, hw, hw], 3);
        let bias = filled(&[c_out], 5);
        let grad = filled(&[c_out, hw, hw], 6);
        let shape = format!("{c_in}x{hw}x{hw}->{c_out} k{k}s1p{}", k / 2);
        if transposed {
            let weight = filled(&[c_in, c_out, k, k], 4);
            cases.push(timed(
                active,
                "conv_transpose2d",
                shape.clone(),
                reps,
                || conv_transpose2d(&input, &weight, Some(&bias), spec),
            ));
            cases.push(timed_on(
                active,
                "conv_transpose2d_backward",
                shape,
                reps,
                || input.clone(),
                |x| conv_transpose2d_backward(x, &weight, &grad, spec).0,
            ));
        } else {
            let weight = filled(&[c_out, c_in, k, k], 4);
            let macs = c_out * c_in * k * k * hw * hw;
            cases.push(
                timed(active, "conv2d", shape.clone(), reps, || {
                    conv2d(&input, &weight, Some(&bias), spec)
                })
                .with_macs(macs),
            );
            cases.push(timed_on(
                active,
                "conv2d_backward",
                shape.clone(),
                reps,
                || input.clone(),
                |x| conv2d_backward(x, &weight, &grad, spec).0,
            ));
            cases.push(
                timed(active, "conv2d_weight_grads", shape, reps, || {
                    let mut grads = conv2d_weight_grads(&input, &weight, &grad, spec);
                    grads.swap_remove(0).0
                })
                .with_macs(macs),
            );
        }
    }

    // Narrow maps, whose strips nearly all touch a border: the CPN's
    // 3×3 at 8², and inception B's stride-2 3×3 at 32² (16² out).
    let narrow: &[(usize, usize, usize, ConvSpec, usize)] = if quick {
        &[(20, 32, 8, ConvSpec::same(3), 8)]
    } else {
        &[
            (20, 32, 8, ConvSpec::same(3), 40),
            (20, 5, 32, ConvSpec::new(3, 2, 1), 40),
        ]
    };
    for &(c_in, c_out, hw, spec, reps) in narrow {
        let input = filled(&[c_in, hw, hw], 3);
        let weight = filled(&[c_out, c_in, spec.kernel, spec.kernel], 4);
        let bias = filled(&[c_out], 5);
        let macs = c_out * c_in * spec.kernel * spec.kernel * spec.out_size(hw).pow(2);
        cases.push(
            timed(
                active,
                "conv2d",
                format!(
                    "{c_in}x{hw}x{hw}->{c_out} k{}s{}p{}",
                    spec.kernel, spec.stride, spec.padding
                ),
                reps,
                || conv2d(&input, &weight, Some(&bias), spec),
            )
            .with_macs(macs),
        );
    }

    // The fold alone (`conv2d`'s input gradient and `conv_transpose2d`'s
    // forward pass), which `conv2d_backward` mixes with the weight
    // gradients: a `src`-channel map folded onto `dst` channels is the
    // input gradient of a `dst → src` convolution, whose forward row
    // above does the same multiply-adds. Timed as a bias-free transposed
    // convolution, which is the fold and nothing else.
    let fold_shapes: &[(usize, usize, usize, usize, usize)] = if quick {
        &[(8, 4, 128, 3, 3), (8, 1, 128, 3, 3), (5, 20, 32, 1, 8)]
    } else {
        &[
            (8, 4, 128, 3, 12),
            (12, 8, 128, 3, 8),
            (4, 1, 128, 3, 12),
            (8, 1, 128, 3, 12),
            (24, 24, 16, 3, 40),
            (5, 20, 32, 1, 40),
        ]
    };
    // Then a stride-2 fold: inception B's stride-2 3×3 input gradient,
    // 5 channels at 16² onto 20 channels (31² as a transposed
    // convolution), whose taps gather lane by lane.
    let fold_specs = fold_shapes
        .iter()
        .map(|&(src, dst, hw, k, reps)| (src, dst, hw, ConvSpec::same(k), reps))
        .chain(if quick {
            None
        } else {
            Some((5, 20, 16, ConvSpec::new(3, 2, 1), 40))
        });
    for (src, dst, hw, spec, reps) in fold_specs {
        let k = spec.kernel;
        let grad = filled(&[src, hw, hw], 6);
        let weight = filled(&[src, dst, k, k], 4);
        // The column matrix `Wᵀ · g`: every source pixel, tap and
        // destination channel.
        let macs = src * dst * k * k * hw * hw;
        cases.push(
            timed(
                active,
                "fold",
                format!(
                    "{src}x{hw}x{hw}->{dst} k{k}s{}p{}",
                    spec.stride, spec.padding
                ),
                reps,
                || conv_transpose2d(&grad, &weight, None, spec),
            )
            .with_macs(macs),
        );
    }

    // 2×2 max pooling at stride 2: the stem's 12×128² map and 16×64²,
    // with the argmax a training pass keeps and values alone, and the
    // backward through that argmax.
    let pool_shapes: &[(usize, usize, usize)] = if quick {
        &[(12, 128, 4)]
    } else {
        &[(12, 128, 20), (16, 64, 40)]
    };
    for &(c, hw, reps) in pool_shapes {
        let x = filled(&[c, hw, hw], 16);
        let shape = format!("{c}x{hw}x{hw}");
        cases.push(timed(active, "max_pool2d", shape.clone(), reps, || {
            max_pool2d(&x).output
        }));
        cases.push(timed(
            active,
            "max_pool2d_values",
            shape.clone(),
            reps,
            || max_pool2d_values(&x),
        ));
        let pooled = max_pool2d(&x);
        let grad = filled(pooled.output.dims(), 17);
        cases.push(timed(active, "max_pool2d_backward", shape, reps, || {
            max_pool2d_backward(x.dims(), &pooled.argmax, &grad)
        }));
    }

    // `LeakyRelu` on a recording tape, in place: the forward with its
    // one-bit-per-element mask, and the backward through that mask. Each
    // forward call takes a copy of the map, and each backward call a
    // copy of the gradient and a tape with the mask recorded, made just
    // before the timer starts.
    let relu_shapes: &[(usize, usize, usize)] = if quick {
        &[(8, 128, 4)]
    } else {
        &[(8, 128, 20), (20, 32, 40)]
    };
    let relu = LeakyRelu::default_slope();
    for &(c, hw, reps) in relu_shapes {
        let x = filled(&[c, hw, hw], 14);
        let g = filled(&[c, hw, hw], 15);
        let shape = format!("{c}x{hw}x{hw}");
        cases.push(timed_on(
            active,
            "leaky_relu_forward",
            shape.clone(),
            reps,
            || x.clone(),
            |x| relu.forward(x, &mut Tape::recording()),
        ));
        cases.push(timed_on(
            active,
            "leaky_relu_backward",
            shape,
            reps,
            || {
                let mut tape = Tape::recording();
                relu.forward(x.clone(), &mut tape);
                (tape, g.clone())
            },
            |(mut tape, g)| relu.backward(&mut tape, g, &mut []),
        ));
    }

    // The refinement head's shapes, as its batches run in the lane
    // layout `[C, H, W, 40]`: one region's 40 RoIs of 7×7 maps through
    // its 3×3 convolution (branch width 5), its 1×1 convolution of the
    // 20 backbone channels, inception B's stride-2 3×3s over the 20
    // backbone channels and over a 1×1 branch's 5, and of the 4×4 maps
    // after it through inception A's 1×1 over 15 channels, and its
    // 320→48 FC over 40 vectors. Each batched row has beside it the same
    // 40 RoIs run one RoI per call. Then the FC's input gradient, 48→320
    // over the same 40 vectors (`Linear`'s backward), and the whole
    // demo head's inference pass over the RoI pooling rows' 40 RoIs.
    let rois = 40;
    let roi_reps = if quick { 4 } else { 20 };
    let roi_shapes = [
        (5, 7, ConvSpec::same(3)),
        (20, 7, ConvSpec::same(1)),
        (20, 7, ConvSpec::new(3, 2, 1)),
        (5, 7, ConvSpec::new(3, 2, 1)),
        (15, 4, ConvSpec::same(1)),
    ];
    for (c_in, hw, spec) in roi_shapes {
        let k = spec.kernel;
        let batch = filled(&[c_in, hw, hw, rois], 9);
        let singles: Vec<Tensor> = (0..rois)
            .map(|i| filled(&[c_in, hw, hw], 9 + i as u64))
            .collect();
        let weight = filled(&[5, c_in, k, k], 10);
        let bias = filled(&[5], 11);
        let shape = |n: &str| {
            format!(
                "{n} {c_in}x{hw}x{hw}->5 k{k}s{}p{}",
                spec.stride, spec.padding
            )
        };
        let macs = rois * 5 * c_in * k * k * spec.out_size(hw).pow(2);
        cases.push(
            timed(active, "roi_conv2d", shape("40 RoIs"), roi_reps, || {
                conv2d(&batch, &weight, Some(&bias), spec)
            })
            .with_macs(macs),
        );
        cases.push(
            timed(active, "roi_conv2d", shape("40x1 RoI"), roi_reps, || {
                let outs: Vec<Tensor> = singles
                    .iter()
                    .map(|x| conv2d(x, &weight, Some(&bias), spec))
                    .collect();
                outs.into_iter().next().expect("forty RoIs")
            })
            .with_macs(macs),
        );
    }
    // The head's weight gradients in the lane layout, as a training
    // step runs them: inception B's stride-2 3×3 over the backbone's 20
    // channels and inception A's 1×1 over 15, on a step's 12 RoIs and
    // on 40.
    for n in [12, 40] {
        for (c_in, hw, spec) in [(20, 7, ConvSpec::new(3, 2, 1)), (15, 4, ConvSpec::same(1))] {
            let k = spec.kernel;
            let oh = spec.out_size(hw);
            let batch = filled(&[c_in, hw, hw, n], 9);
            let weight = filled(&[5, c_in, k, k], 10);
            let grad = filled(&[5, oh, oh, n], 11);
            let shape = format!(
                "{n} RoIs {c_in}x{hw}x{hw}->5 k{k}s{}p{}",
                spec.stride, spec.padding
            );
            cases.push(
                timed(active, "conv2d_weight_grads", shape, roi_reps, || {
                    let mut grads = conv2d_weight_grads(&batch, &weight, &grad, spec);
                    grads.swap_remove(0).0
                })
                .with_macs(n * 5 * c_in * k * k * oh * oh),
            );
        }
    }
    let fc = filled(&[48, 320], 12);
    let rows = filled(&[320, rois], 13);
    let singles: Vec<Tensor> = (0..rois).map(|i| filled(&[320], 13 + i as u64)).collect();
    cases.push(timed(
        active,
        "roi_fc",
        "40 RoIs 320->48".into(),
        roi_reps,
        || matvec(&fc, &rows),
    ));
    cases.push(timed(
        active,
        "roi_fc",
        "40x1 RoI 320->48".into(),
        roi_reps,
        || {
            let outs: Vec<Tensor> = singles.iter().map(|x| matvec(&fc, x)).collect();
            outs.into_iter().next().expect("forty RoIs")
        },
    ));
    let fc_grads = filled(&[48, rois], 14);
    cases.push(timed(
        active,
        "roi_fc_backward",
        "40 RoIs 48->320".into(),
        roi_reps,
        || matvec_t(&fc, &fc_grads),
    ));

    // RoI max pooling as the demo head runs it: one region's 40 RoIs of
    // the `[20, 8, 8]` backbone map into 7×7 cells, with the argmax a
    // training pass keeps and values alone. The RoIs are the whole map,
    // one pixel, one clamped at the border and pseudo-random windows.
    let map = filled(&[20, 8, 8], 18);
    let mut pool_rois = vec![
        FeatureRoi::new(0, 0, 8, 8),
        FeatureRoi::new(3, 4, 4, 5),
        FeatureRoi::new(6, 5, 12, 9),
    ];
    for i in pool_rois.len()..rois {
        // A coordinate in 0..8 from the noise in [-1, 1).
        let at = |seed: u64| (((noise(seed, i) + 1.0) * 4.0) as usize).min(7);
        let (x0, y0) = (at(19), at(20));
        pool_rois.push(FeatureRoi::new(x0, y0, x0 + 1 + at(21), y0 + 1 + at(22)));
    }
    cases.push(timed(
        active,
        "roi_pool",
        "40 RoIs 20x8x8->7x7".into(),
        roi_reps,
        || roi_pool(&map, &pool_rois, 7, 7).output,
    ));
    cases.push(timed(
        active,
        "roi_pool_values",
        "40 RoIs 20x8x8->7x7".into(),
        roi_reps,
        || roi_pool_values(&map, &pool_rois, 7, 7),
    ));
    let head = RefinementHead::new(
        &RhsdConfig::demo(),
        20,
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(23),
    );
    cases.push(timed(
        active,
        "refine_head",
        "40 RoIs 20x8x8 demo".into(),
        roi_reps,
        || {
            head.forward(&map, &pool_rois, &mut Tape::inference())
                .cls_logits
        },
    ));

    // One whole training step beside the kernel rows: a warm
    // `train_batch` of two demo regions (extractor, CPN and refinement
    // head forward and backward, no optimiser step) on a demo network,
    // on one pool thread whatever `--threads` says.
    let threads = rhsd_par::threads();
    rhsd_par::set_threads(1);
    let bench = Benchmark::demo(CaseId::Case2);
    let regions = train_regions(&bench, &RegionConfig::demo());
    let batch: Vec<&RegionSample> = regions.iter().take(2).collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(24);
    let mut net = RhsdNetwork::new(RhsdConfig::demo(), &mut rng);
    cases.push(timed(
        active,
        "train_step",
        format!("{} demo regions, 1 thread", batch.len()),
        if quick { 2 } else { 8 },
        || {
            net.zero_grad();
            net.train_batch(&batch, &mut rng);
            net.grads()[0].clone()
        },
    ));
    rhsd_par::set_threads(threads);

    // Aerial shapes at the EUV nominal sigma (region-raster scale).
    let aerial_shapes: &[(usize, usize)] = if quick {
        &[(128, 8)]
    } else {
        &[(128, 20), (256, 10)]
    };
    for &(px, reps) in aerial_shapes {
        let mask = filled(&[1, px, px], 6);
        let kernel = GaussianKernel::new(3.75);
        cases.push(timed(
            active,
            "aerial",
            format!("{px}x{px} sigma3.75"),
            reps,
            || aerial_image(&mask, &kernel),
        ));
    }

    cases
}

/// Renders the record. Hand-written JSON in the style of
/// `rhsd_bench::pipeline::bench_json`.
fn render(quick: bool, threads: usize, cases: &[Case]) -> String {
    let ws = rhsd_tensor::workspace::stats();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rhsd-microbench/2\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"isa\": \"{}\",", kernels::isa_name());
    let _ = writeln!(
        out,
        "  \"workspace\": {{\"allocs\": {}, \"bytes_reused\": {}, \"high_water_bytes\": {}}},",
        ws.allocs, ws.bytes_reused, ws.high_water
    );
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 == cases.len() { "" } else { "," };
        let gmacs = c
            .gmacs()
            .map(|g| format!(", \"gmacs\": {g:.3}"))
            .unwrap_or_default();
        let avx2 = c
            .avx2_best_secs
            .map(|t| format!(", \"avx2_best_secs\": {t:.6}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"reps\": {}, \"best_secs\": {:.6}, \"mean_secs\": {:.6}, \"scalar_best_secs\": {:.6}{avx2}, \"speedup\": {:.3}{gmacs}}}{comma}",
            c.kernel, c.shape, c.reps, c.best_secs, c.mean_secs, c.scalar_best_secs, c.speedup
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Entry point for `cargo xtask microbench`.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a count")?;
                threads = Some(v.parse().map_err(|e| format!("--threads: {e}"))?);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file")?;
                out_path = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown microbench option `{other}`")),
        }
    }
    let threads = threads.unwrap_or_else(rhsd_par::default_threads);
    rhsd_par::set_threads(threads);
    let out_path = out_path.unwrap_or_else(|| crate::default_root().join("MICROBENCH.json"));

    let cases = run_cases(quick);
    let record = render(quick, threads, &cases);

    println!("dispatched isa: {}", kernels::isa_name());
    for c in &cases {
        let gmacs = c
            .gmacs()
            .map(|g| format!("  {g:>6.2} GMAC/s"))
            .unwrap_or_default();
        let avx2 = c
            .avx2_best_secs
            .map(|t| format!("  avx2 {:>8.3} ms", t * 1e3))
            .unwrap_or_default();
        println!(
            "{:<25} {:<24} reps {:>3}  best {:>10.3} ms  mean {:>10.3} ms  scalar {:>10.3} ms{avx2}  speedup {:>5.2}x{gmacs}",
            c.kernel,
            c.shape,
            c.reps,
            c.best_secs * 1e3,
            c.mean_secs * 1e3,
            c.scalar_best_secs * 1e3,
            c.speedup
        );
    }
    std::fs::write(&out_path, &record).map_err(|e| format!("write {}: {e}", out_path.display()))?;
    println!("microbench: wrote {}", out_path.display());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cases_cover_every_kernel_family() {
        let cases = run_cases(true);
        let kernels: Vec<&str> = cases.iter().map(|c| c.kernel).collect();
        assert!(kernels.contains(&"weight_tile"));
        assert!(kernels.contains(&"conv2d"));
        assert!(kernels.contains(&"conv2d_backward"));
        // Every weight-gradient row has its forward mirror.
        let shapes = |family: &str| -> Vec<&str> {
            cases
                .iter()
                .filter(|c| c.kernel == family)
                .map(|c| c.shape.as_str())
                .collect()
        };
        let (roi_grads, weight_grads): (Vec<&str>, Vec<&str>) = shapes("conv2d_weight_grads")
            .into_iter()
            .partition(|s| s.contains(" RoIs "));
        assert!(!weight_grads.is_empty());
        for s in &weight_grads {
            assert!(shapes("conv2d").contains(s), "{s}");
        }
        // The head's lane-layout weight gradients, on 12 and 40 RoIs.
        for n in [12, 40] {
            for s in ["20x7x7->5 k3s2p1", "15x4x4->5 k1s1p0"] {
                let row = format!("{n} RoIs {s}");
                assert!(roi_grads.contains(&row.as_str()), "{row}: {roi_grads:?}");
            }
        }
        for family in ["fold", "leaky_relu_forward", "leaky_relu_backward"] {
            assert!(kernels.contains(&family), "{family}");
        }
        // A whole training step, beside the kernel rows.
        assert_eq!(shapes("train_step"), ["2 demo regions, 1 thread"]);
        // The fold rows cover both tile shapes: channel tiles and the
        // single-channel strip tiles.
        let folds = shapes("fold");
        assert!(folds.iter().any(|s| s.ends_with("->1 k3s1p1")), "{folds:?}");
        assert!(
            folds.iter().any(|s| !s.ends_with("->1 k3s1p1")),
            "{folds:?}"
        );
        // A 1×1 fold row, beside the forward convolution that mirrors it.
        assert!(folds.contains(&"5x32x32->20 k1s1p0"), "{folds:?}");
        assert!(shapes("conv2d").contains(&"20x32x32->5 k1s1p0"));
        assert!(kernels.contains(&"aerial"));
        // A narrow-map forward row, and both max-pool passes.
        assert!(shapes("conv2d").contains(&"20x8x8->32 k3s1p1"));
        for family in ["max_pool2d", "max_pool2d_values", "max_pool2d_backward"] {
            assert!(shapes(family).contains(&"12x128x128"), "{family}");
        }
        // The demo head's RoI pooling, with and without its argmax.
        for family in ["roi_pool", "roi_pool_values"] {
            assert_eq!(shapes(family), ["40 RoIs 20x8x8->7x7"], "{family}");
        }
        for family in ["roi_conv2d", "roi_fc"] {
            let shapes: Vec<&str> = cases
                .iter()
                .filter(|c| c.kernel == family)
                .map(|c| c.shape.as_str())
                .collect();
            // Every batched row has its one-RoI-per-call row beside it.
            let batched = shapes.iter().filter(|s| s.starts_with("40 RoIs")).count();
            let single = shapes.iter().filter(|s| s.starts_with("40x1 RoI")).count();
            assert!(batched > 0 && batched == single, "{family}: {shapes:?}");
        }
        assert_eq!(shapes("roi_fc_backward"), ["40 RoIs 48->320"]);
        // Inception B's stride-2 3×3s, on the backbone's 20 channels
        // and on a 1×1 branch's 5, and inception A's 4×4 1×1s; then the
        // whole head.
        let roi_convs = shapes("roi_conv2d");
        for s in [
            "40 RoIs 20x7x7->5 k3s2p1",
            "40 RoIs 5x7x7->5 k3s2p1",
            "40 RoIs 15x4x4->5 k1s1p0",
        ] {
            assert!(roi_convs.contains(&s), "{s}: {roi_convs:?}");
        }
        assert_eq!(shapes("refine_head"), ["40 RoIs 20x8x8 demo"]);
        // Weight tile, convolution, weight-gradient, fold and RoI
        // convolution rows count their multiply-adds; the others do not.
        for c in &cases {
            let counted = matches!(
                c.kernel,
                "weight_tile" | "conv2d" | "conv2d_weight_grads" | "fold" | "roi_conv2d"
            );
            assert_eq!(c.macs.is_some(), counted, "{} {}", c.kernel, c.shape);
            if let Some(g) = c.gmacs() {
                assert!(g.is_finite() && g > 0.0, "{} {}", c.kernel, c.shape);
            }
        }
        // Above AVX2, exactly the rows of the widened kernels carry an
        // AVX2 time.
        let wide = kernels::isa() > Isa::Avx2;
        for c in &cases {
            assert!(c.best_secs.is_finite() && c.best_secs >= 0.0);
            assert!(c.mean_secs >= c.best_secs);
            assert!(c.scalar_best_secs.is_finite() && c.scalar_best_secs >= 0.0);
            assert!(c.speedup.is_finite() && c.speedup > 0.0);
            let widened = wide && WIDENED.contains(&c.kernel);
            assert_eq!(
                c.avx2_best_secs.is_some(),
                widened,
                "{} {}",
                c.kernel,
                c.shape
            );
        }
    }

    #[test]
    fn record_is_parseable_and_carries_the_schema() {
        let cases = vec![Case {
            kernel: "conv2d",
            shape: "8x8x8->8 k3s1p1".into(),
            reps: 3,
            best_secs: 0.001,
            mean_secs: 0.002,
            scalar_best_secs: 0.003,
            speedup: 3.0,
            avx2_best_secs: Some(0.0015),
            macs: Some(4_000_000),
        }];
        let record = render(true, 2, &cases);
        let v = rhsd_obs::json::parse(&record).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("rhsd-microbench/2")
        );
        assert!(v.get("isa").and_then(|i| i.as_str()).is_some());
        let arr = v.get("cases").and_then(|c| c.as_arr()).expect("cases");
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("kernel").and_then(|k| k.as_str()),
            Some("conv2d")
        );
        assert_eq!(arr[0].get("speedup").and_then(|s| s.as_f64()), Some(3.0));
        assert_eq!(
            arr[0].get("scalar_best_secs").and_then(|s| s.as_f64()),
            Some(0.003)
        );
        assert_eq!(arr[0].get("gmacs").and_then(|g| g.as_f64()), Some(4.0));
        assert_eq!(
            arr[0].get("avx2_best_secs").and_then(|t| t.as_f64()),
            Some(0.0015)
        );
        assert!(v.get("workspace").is_some());
    }
}
