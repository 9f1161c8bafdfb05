//! The convolution ops read their maps in place: the forward pass runs
//! one ascending-tap chain per output element, the input gradient and
//! the transposed convolution fold straight into the map (a 1×1 input
//! gradient as a forward convolution), and the weight gradients read
//! their taps from the map on the weight tile (a batch's with the maps
//! in the lanes). None of this
//! may move a bit: every output must equal the plain lowering — the
//! `im2col` matrix fed to the serial `matmul`, an operand transposed
//! where the product needs it, with `col2im` folding where the op needs
//! it, all from `rhsd_tensor::reference` — compared with `to_bits`, at
//! one pool thread and at four.
//!
//! The pool's thread count is process-global, so every test serialises
//! on one mutex and restores the default.

#![expect(clippy::expect_used, reason = "test helpers fail loudly")]

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use rhsd::tensor::ops::conv::{conv2d, conv2d_backward, conv2d_backward_batch, ConvSpec};
use rhsd::tensor::ops::deconv::{conv_transpose2d, conv_transpose2d_backward};
use rhsd::tensor::ops::kernels::NR;
use rhsd::tensor::reference::{col2im, im2col, matmul, transpose};
use rhsd::tensor::Tensor;

static POOL: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Deterministic pseudo-random fill; every 5th value is a zero of
/// either sign, so zero operands, `-0.0` products and the fold's masked
/// lanes all meet signed zeros.
fn noise(seed: u64, coords: &[usize]) -> f32 {
    let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &c in coords {
        h = (h ^ c as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 31;
    }
    if h.is_multiple_of(5) {
        if h >> 40 & 1 == 1 {
            -0.0
        } else {
            0.0
        }
    } else {
        (h % 2000) as f32 / 1000.0 - 1.0
    }
}

/// Views a tensor as a rank-2 `[rows, len / rows]` matrix.
fn mat(t: &Tensor, rows: usize) -> Tensor {
    let cols = t.len() / rows;
    t.clone().with_shape([rows, cols])
}

/// Adds `bias[c]` to every element of channel `c`, as the ops do.
fn add_bias(t: Tensor, bias: &Tensor) -> Tensor {
    let plane = t.len() / bias.len();
    let dims = t.dims().to_vec();
    let mut v = t.as_slice().to_vec();
    for (c, &b) in bias.as_slice().iter().enumerate() {
        for o in &mut v[c * plane..(c + 1) * plane] {
            *o += b;
        }
    }
    Tensor::from_vec(dims, v).expect("same length")
}

/// Per-channel sums in ascending order from `-0.0`, as the ops' bias
/// gradients (and `Iterator::sum`) run them.
fn channel_sums(t: &Tensor) -> Vec<f32> {
    let c = t.dim(0);
    let plane = t.len() / c;
    (0..c)
        .map(|ci| {
            let mut acc = -0.0f32;
            for &v in &t.as_slice()[ci * plane..(ci + 1) * plane] {
                acc += v;
            }
            acc
        })
        .collect()
}

/// The four conv outputs of one shape: forward, then the three gradients.
type ConvOut = (Tensor, Tensor, Tensor, Tensor);

/// conv2d and its backward through the materialised im2col matrix.
fn conv_reference(x: &Tensor, w: &Tensor, b: &Tensor, g: &Tensor, spec: ConvSpec) -> ConvOut {
    let (c_in, h, wd) = (x.dim(0), x.dim(1), x.dim(2));
    let c_out = w.dim(0);
    let cols = im2col(x, spec);
    let out = matmul(&mat(w, c_out), &cols).with_shape(g.dims().to_vec());
    let out = add_bias(out, b);
    let g2 = mat(g, c_out);
    let dw = matmul(&g2, &transpose(&cols)).with_shape(w.dims().to_vec());
    let dcols = matmul(&transpose(&mat(w, c_out)), &g2);
    let dx = col2im(&dcols, c_in, h, wd, spec);
    let db = Tensor::from_vec([c_out], channel_sums(g)).expect("one per channel");
    (out, dx, dw, db)
}

/// conv_transpose2d and its backward through the materialised matrices.
fn deconv_reference(x: &Tensor, w: &Tensor, b: &Tensor, g: &Tensor, spec: ConvSpec) -> ConvOut {
    let (c_in, h, wd) = (x.dim(0), x.dim(1), x.dim(2));
    let c_out = w.dim(1);
    let cols = matmul(&transpose(&mat(w, c_in)), &mat(x, c_in));
    let out = col2im(&cols, c_out, g.dim(1), g.dim(2), spec);
    let out = add_bias(out, b);
    let gcols = im2col(g, spec);
    let dx = matmul(&mat(w, c_in), &gcols).with_shape([c_in, h, wd]);
    let dw = matmul(&mat(x, c_in), &transpose(&gcols)).with_shape(w.dims().to_vec());
    let db = Tensor::from_vec([c_out], channel_sums(g)).expect("one per channel");
    (out, dx, dw, db)
}

fn conv_fused(x: &Tensor, w: &Tensor, b: &Tensor, g: &Tensor, spec: ConvSpec) -> ConvOut {
    let out = conv2d(x, w, Some(b), spec);
    let (dx, dw, db) = conv2d_backward(x.clone(), w, g, spec);
    (out, dx, dw, db)
}

fn deconv_fused(x: &Tensor, w: &Tensor, b: &Tensor, g: &Tensor, spec: ConvSpec) -> ConvOut {
    let out = conv_transpose2d(x, w, Some(b), spec);
    let (dx, dw, db) = conv_transpose2d_backward(x.clone(), w, g, spec);
    (out, dx, dw, db)
}

/// Asserts the lowered op equals its reference bit for bit at one and
/// at four pool threads.
fn assert_lowering(what: &str, reference: &ConvOut, run: impl Fn() -> ConvOut) {
    for threads in [1, 4] {
        rhsd::par::set_threads(threads);
        let got = run();
        rhsd::par::set_threads(rhsd::par::default_threads());
        for (name, r, g) in [
            ("output", &reference.0, &got.0),
            ("d_input", &reference.1, &got.1),
            ("d_weight", &reference.2, &got.2),
            ("d_bias", &reference.3, &got.3),
        ] {
            assert_eq!(r.dims(), g.dims(), "{what} {name} shape");
            assert!(
                bits(r) == bits(g),
                "{what} {name} differs at {threads} threads"
            );
        }
    }
}

/// Checks conv and deconv on one geometry: `c_a` channels on the
/// convolution's input side, `c_b` on its output side, an `h × w` map.
fn check_shape(seed: u64, c_a: usize, c_b: usize, (h, w): (usize, usize), spec: ConvSpec) {
    let _guard = pool_lock();
    let k = spec.kernel;
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));

    let x = Tensor::from_fn([c_a, h, w], |c| noise(seed, c));
    let wt = Tensor::from_fn([c_b, c_a, k, k], |c| noise(seed ^ 1, c));
    let b = Tensor::from_fn([c_b], |c| noise(seed ^ 2, c));
    let g = Tensor::from_fn([c_b, oh, ow], |c| noise(seed ^ 3, c));
    let reference = conv_reference(&x, &wt, &b, &g, spec);
    assert_lowering("conv2d", &reference, || conv_fused(&x, &wt, &b, &g, spec));

    // The transposed convolution maps the conv's output geometry back.
    let dx = Tensor::from_fn([c_b, oh, ow], |c| noise(seed ^ 4, c));
    let dwt = Tensor::from_fn([c_b, c_a, k, k], |c| noise(seed ^ 5, c));
    let db = Tensor::from_fn([c_a], |c| noise(seed ^ 6, c));
    let (th, tw) = (spec.transpose_out_size(oh), spec.transpose_out_size(ow));
    let dg = Tensor::from_fn([c_a, th, tw], |c| noise(seed ^ 7, c));
    let reference = deconv_reference(&dx, &dwt, &db, &dg, spec);
    assert_lowering("conv_transpose2d", &reference, || {
        deconv_fused(&dx, &dwt, &db, &dg, spec)
    })
}

/// Kernel, stride and padding of every geometry the properties draw:
/// odd kernels with and without "same" padding, the `ConvSpec::new(2,
/// 2, 0)` encoder–decoder pair, other even kernels, strides 2 and 3.
const SPECS: [(usize, usize, usize); 10] = [
    (1, 1, 0),
    (3, 1, 1),
    (3, 1, 0),
    (5, 1, 2),
    (5, 1, 0),
    (3, 2, 1),
    (2, 2, 0),
    (4, 2, 1),
    (3, 3, 1),
    (2, 3, 0),
];

/// Grows an extent to the smallest one the kernel fits.
fn fit(n: usize, spec: ConvSpec) -> usize {
    n.max(spec.kernel.saturating_sub(2 * spec.padding)).max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conv_lowering_is_bit_identical_to_im2col_gemm(
        seed in 0u64..1_000_000,
        c_in in 1usize..20,
        c_out in 1usize..20,
        h in 1usize..23,
        w in 1usize..37,
        spec_idx in 0usize..10,
    ) {
        let (kernel, stride, padding) = SPECS[spec_idx];
        let spec = ConvSpec::new(kernel, stride, padding);
        check_shape(seed, c_in, c_out, (fit(h, spec), fit(w, spec)), spec);
    }
}

/// Every map narrower than two strips — a strip can be narrower than
/// one register — one of exactly two, and runs of three and four
/// strips whose last strip is partial, under each stride, with channel
/// counts that leave a one-channel block on either side.
#[test]
fn narrow_maps_are_bit_identical() {
    for w in (1..=NR + 1).chain([2 * NR, 2 * NR + 1, 3 * NR - 1, 4 * NR - 1]) {
        for (kernel, stride, padding) in [
            (3, 1, 1),
            (1, 1, 0),
            (2, 2, 0),
            (3, 3, 1),
            (3, 2, 1),
            (5, 1, 2),
        ] {
            let spec = ConvSpec::new(kernel, stride, padding);
            check_shape(w as u64, 9, 17, (fit(5, spec), fit(w, spec)), spec);
        }
    }
}

/// Shapes the small properties cannot reach: over 2048 output pixels
/// (several weight-gradient bands), chains of more than 256 taps, odd
/// widths, and runs of whole strips tiled by a one-channel block on
/// either side. Then the demo network's
/// weight-gradient geometries: lane strips partly filled by 4, 5 and 12
/// output channels, 128-wide maps, an inception B stride-2 3×3 and
/// inception 1×1s at 32².
#[test]
fn wide_and_deep_lowerings_are_bit_identical() {
    for (c_a, c_b, hw, spec) in [
        (2, 12, (48, 45), ConvSpec::same(3)),
        (12, 5, (20, 51), ConvSpec::same(5)),
        (3, 17, (70, 66), ConvSpec::new(3, 2, 1)),
        (1, 8, (64, 41), ConvSpec::new(1, 1, 0)),
        (17, 9, (40, 64), ConvSpec::same(3)),
        (19, 1, (33, 70), ConvSpec::new(2, 2, 0)),
        (33, 4, (12, 29), ConvSpec::same(3)),
        (1, 4, (10, 128), ConvSpec::same(3)),
        (4, 8, (9, 128), ConvSpec::same(3)),
        (8, 12, (6, 128), ConvSpec::same(3)),
        (5, 5, (32, 32), ConvSpec::same(3)),
        (20, 8, (32, 32), ConvSpec::new(3, 2, 1)),
        (16, 5, (32, 32), ConvSpec::same(1)),
        (20, 5, (32, 32), ConvSpec::same(1)),
    ] {
        check_shape(7, c_a, c_b, hw, spec);
    }
}

/// The weight gradients' lane panels: every output-channel count the
/// planner splits differently — one lane, four (four taps to a 16-lane
/// vector), five and eight (one strip), nine (a strip and one lane),
/// twelve and sixteen (a 16-lane strip pair, partly filled or whole)
/// and twenty (a pair and a four-lane panel) — under 3×3 kernels at
/// strides 1 and 2, a 2×2 kernel and a 1×1 one, on maps of one band and
/// of several, against the plain lowering. The transposed convolution
/// of each shape runs the same panels with the input's channels as
/// lanes.
#[test]
fn weight_gradient_lane_panels_are_bit_identical() {
    for c_out in [1, 4, 5, 8, 9, 12, 16, 20] {
        for spec in [
            ConvSpec::same(3),
            ConvSpec::new(3, 2, 1),
            ConvSpec::new(2, 2, 0),
            ConvSpec::same(1),
        ] {
            for (c_in, hw) in [(1, (13, 37)), (3, (9, 11)), (2, (70, 40))] {
                check_shape((c_out * 7 + c_in) as u64, c_in, c_out, hw, spec);
            }
        }
    }
}

/// The refinement head's shapes as lane batches of one map, six, a
/// training step's twelve and forty: each map's weight and bias
/// gradients from the batch equal the map's own call and the plain
/// lowering, bit for bit, at one and four threads.
#[test]
fn head_lane_batches_match_the_lowering_map_by_map() {
    for n in [1, 6, 12, 40] {
        for (c_in, hw, spec) in [
            (20, 7, ConvSpec::new(3, 2, 1)),
            (5, 7, ConvSpec::same(3)),
            (15, 4, ConvSpec::same(1)),
        ] {
            let _guard = pool_lock();
            check_lanes(n, (c_in, 5), (hw, hw), spec, true);
        }
    }
}

/// A gradient channel of only `-0.0` has the bias gradient `-0.0`: the
/// ops' chains start there, as `Iterator::sum` does, and so do the
/// reference's, so a change of start value on either side fails here.
/// (The noise fill never gives a whole channel of `-0.0`.)
#[test]
fn negative_zero_gradient_channels_keep_their_sign() {
    let _guard = pool_lock();
    let spec = ConvSpec::same(3);
    let (c_a, c_b, (h, w)) = (3, 4, (9, 11));
    let negative_zero_channel = |t: Tensor, c: usize| {
        let plane = t.len() / t.dim(0);
        let mut t = t;
        t.as_mut_slice()[c * plane..][..plane].fill(-0.0);
        t
    };
    let x = Tensor::from_fn([c_a, h, w], |c| noise(21, c));
    let wt = Tensor::from_fn([c_b, c_a, 3, 3], |c| noise(22, c));
    let b = Tensor::from_fn([c_b], |c| noise(23, c));
    let g = negative_zero_channel(Tensor::from_fn([c_b, h, w], |c| noise(24, c)), 1);
    let reference = conv_reference(&x, &wt, &b, &g, spec);
    assert_eq!(reference.3.as_slice()[1].to_bits(), (-0.0f32).to_bits());
    assert_lowering("conv2d", &reference, || conv_fused(&x, &wt, &b, &g, spec));

    let up = Tensor::from_fn([c_b, h, w], |c| noise(25, c));
    let db = Tensor::from_fn([c_a], |c| noise(26, c));
    let dg = negative_zero_channel(Tensor::from_fn([c_a, h, w], |c| noise(27, c)), 2);
    let reference = deconv_reference(&up, &wt, &db, &dg, spec);
    assert_eq!(reference.3.as_slice()[2].to_bits(), (-0.0f32).to_bits());
    assert_lowering("conv_transpose2d", &reference, || {
        deconv_fused(&up, &wt, &db, &dg, spec)
    });
}

/// Map `i` of a `[C, H, W, N]` batch (lane `i` of every pixel) as a
/// `[C, H, W]` tensor of its own.
fn lane(t: &Tensor, i: usize) -> Tensor {
    let n = t.dim(3);
    let v: Vec<f32> = t.as_slice().iter().skip(i).step_by(n).copied().collect();
    Tensor::from_vec(t.dims()[..3].to_vec(), v).expect("one map")
}

/// Runs the batch `[c_in, h, w, n]` through `conv2d` and its backward
/// and checks every lane against the map's own single-map calls, bit
/// for bit: the forward output, the input gradient and the map's weight
/// and bias gradients, at one and four threads. `check_reference` also
/// compares each lane with the plain lowering, gradients included.
fn check_lanes(
    n: usize,
    (c_in, c_out): (usize, usize),
    (h, w): (usize, usize),
    spec: ConvSpec,
    check_reference: bool,
) {
    let k = spec.kernel;
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let seed = (n * 100 + h * 10 + w + spec.stride) as u64;
    let x = Tensor::from_fn([c_in, h, w, n], |c| noise(seed, c));
    let wt = Tensor::from_fn([c_out, c_in, k, k], |c| noise(seed ^ 1, c));
    let b = Tensor::from_fn([c_out], |c| noise(seed ^ 2, c));
    let g = Tensor::from_fn([c_out, oh, ow, n], |c| noise(seed ^ 3, c));
    for threads in [1, 4] {
        rhsd::par::set_threads(threads);
        let out = conv2d(&x, &wt, Some(&b), spec);
        let (dx, params) = conv2d_backward_batch(x.clone(), &wt, &g, spec);
        assert_eq!(out.dims(), &[c_out, oh, ow, n]);
        assert_eq!(dx.dims(), x.dims());
        assert_eq!(params.len(), n);
        for (i, (dw, db)) in params.iter().enumerate() {
            let what = format!("map {i} of {n}, {h}x{w} {spec:?}, {threads} threads");
            let (xi, gi) = (lane(&x, i), lane(&g, i));
            let one = conv2d(&xi, &wt, Some(&b), spec);
            let (dxi, dwi, dbi) = conv2d_backward(xi.clone(), &wt, &gi, spec);
            assert!(bits(&lane(&out, i)) == bits(&one), "output: {what}");
            assert!(bits(&lane(&dx, i)) == bits(&dxi), "d_input: {what}");
            assert!(bits(dw) == bits(&dwi), "d_weight: {what}");
            assert!(bits(db) == bits(&dbi), "d_bias: {what}");
            if check_reference {
                let (want_out, want_dx, want_dw, want_db) = conv_reference(&xi, &wt, &b, &gi, spec);
                assert!(bits(&one) == bits(&want_out), "reference output: {what}");
                assert!(bits(&dxi) == bits(&want_dx), "reference d_input: {what}");
                assert!(bits(dw) == bits(&want_dw), "reference d_weight: {what}");
                assert!(bits(db) == bits(&want_db), "reference d_bias: {what}");
            }
        }
    }
    rhsd::par::set_threads(rhsd::par::default_threads());
}

/// A batch of maps in the lane layout `[C, H, W, N]` runs as one call:
/// the forward output, the input gradient and every map's weight and
/// bias gradients must equal the map's own call bit for bit — the
/// refinement head's 7×7 RoIs at strides 1 and 2, its 4×4 maps, a 1×1
/// map, a batch of rows longer than one task, larger maps banded over
/// several tasks and an empty batch, at one and four threads.
#[test]
fn batched_conv_equals_per_image_calls() {
    let _guard = pool_lock();
    for (n, c_in, c_out, (h, w), spec) in [
        (40, 20, 5, (7, 7), ConvSpec::same(3)),
        (40, 20, 5, (7, 7), ConvSpec::same(1)),
        (100, 5, 5, (7, 7), ConvSpec::same(3)), // several tasks of whole rows
        (40, 5, 5, (7, 7), ConvSpec::new(3, 2, 1)),
        (40, 15, 5, (4, 4), ConvSpec::same(1)),
        (9, 5, 5, (4, 4), ConvSpec::same(3)),
        (3, 2, 9, (1, 1), ConvSpec::same(3)),
        (5, 3, 17, (5, 6), ConvSpec::new(2, 2, 0)),
        (2, 3, 4, (9, 11), ConvSpec::same(3)),
        (2, 3, 4, (48, 48), ConvSpec::same(3)), // banded over several tasks
        (0, 3, 4, (7, 7), ConvSpec::same(3)),
    ] {
        check_lanes(n, (c_in, c_out), (h, w), spec, false);
    }
}

/// Batches of RoI-sized maps at widths around one strip (4, 7, 8, 9
/// and 16 pixels) at strides 1 and 2: each map of the batched forward
/// pass and input gradient equals the plain lowering of that map alone,
/// bit for bit, at one and four threads.
#[test]
fn roi_batches_at_strip_widths_are_bit_identical() {
    for w in [4, 7, 8, 9, 16] {
        for spec in [ConvSpec::same(3), ConvSpec::new(3, 2, 1), ConvSpec::same(1)] {
            let _guard = pool_lock();
            check_lanes(12, (5, 5), (w, w), spec, true);
        }
    }
}

/// Batches whose lane count leaves every kind of tail: fewer lanes than
/// a strip, exactly one, one more, the training head's 12 (a strip and
/// a half), 17 and the inference head's 40, at the head's 7×7 and 4×4
/// maps, under 1×1 and 3×3 kernels at strides 1 and 2. Every map's
/// forward output, input gradient and weight and bias gradients equal
/// its single-map calls bit for bit.
#[test]
fn lane_tail_batches_are_bit_identical() {
    for n in [1, 7, 8, 9, 12, 17, 40] {
        for hw in [7, 4] {
            for spec in [
                ConvSpec::same(1),
                ConvSpec::new(1, 2, 0),
                ConvSpec::same(3),
                ConvSpec::new(3, 2, 1),
            ] {
                let _guard = pool_lock();
                check_lanes(n, (5, 9), (hw, hw), spec, false);
            }
        }
    }
}

/// Equal bits, or NaN in both: NaN payloads may differ with the order
/// of an op's operands, which the lowering does not pin.
fn same_or_both_nan(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits())
}

/// A fold adds a tap only where `col2im` does: a NaN or ±Inf weight on
/// a border tap reaches exactly the pixels whose source lies inside the
/// map, and every other pixel keeps its finite sum. Pinned for the
/// convolution's input gradient and the transposed convolution's
/// forward pass, at strides 1 and 2 and widths around one strip.
#[test]
fn folds_add_nan_and_inf_weights_only_where_col2im_does() {
    let _guard = pool_lock();
    for w in [4, 7, 9, 16] {
        for spec in [
            ConvSpec::same(3),
            ConvSpec::new(3, 2, 1),
            ConvSpec::same(5),
            ConvSpec::new(2, 2, 0),
        ] {
            let (k, c_a, c_b) = (spec.kernel, 3, 4);
            let (oh, ow) = (spec.out_size(w), spec.out_size(w));
            let seed = (w * 5 + k) as u64;
            let mut wt = Tensor::from_fn([c_b, c_a, k, k], |c| noise(seed, c));
            // Corner taps of three weight planes: NaN, +Inf and -Inf.
            for (o, i, ky, kx, v) in [
                (0, 0, 0, 0, f32::NAN),
                (1, 2, k - 1, k - 1, f32::INFINITY),
                (3, 1, 0, k - 1, f32::NEG_INFINITY),
            ] {
                wt.set(&[o, i, ky, kx], v);
            }
            let x = Tensor::from_fn([c_a, w, w], |c| noise(seed ^ 1, c));
            let g = Tensor::from_fn([c_b, oh, ow], |c| noise(seed ^ 2, c));
            let w_mat = mat(&wt, c_b);
            // The input gradient: col2im(Wᵀ · g).
            let dcols = matmul(&transpose(&w_mat), &mat(&g, c_b));
            let want = col2im(&dcols, c_a, w, w, spec);
            let (dx, _, _) = conv2d_backward(x, &wt, &g, spec);
            assert!(same_or_both_nan(&dx, &want), "d_input {w}x{w} {spec:?}");
            // The transposed convolution of `g` with the same weight as
            // `[C_in, C_out, K, K]`: the same fold, onto the transposed
            // geometry (one pixel short of `w` where the stride does not
            // divide it).
            let (th, tw) = (spec.transpose_out_size(oh), spec.transpose_out_size(ow));
            let want_up = col2im(&dcols, c_a, th, tw, spec);
            let up = conv_transpose2d(&g, &wt, None, spec);
            assert!(same_or_both_nan(&up, &want_up), "deconv {w}x{w} {spec:?}");
            // The border pixels the bad taps never reach stay finite.
            let finite = want.as_slice().iter().filter(|v| v.is_finite()).count();
            assert!(finite > 0 && finite < want.len(), "{w}x{w} {spec:?}");
        }
    }
}
