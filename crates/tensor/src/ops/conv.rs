//! 2-D convolution with analytic backward passes.
//!
//! Implements the convolution of Eq. (1) of the paper. Tensors are
//! `[C, H, W]` feature maps, or `[C, H, W, N]` batches of them in the
//! lane layout, whose every pixel holds one value per map (the
//! refinement head's RoIs); weights are `[C_out, C_in, K, K]`. A
//! batched output element is bit for bit what the map alone would give.
//!
//! The forward pass and the input gradient read their maps in place
//! (`ops::direct`): the forward pass runs one ascending-tap chain per
//! output element, and the input gradient folds the output gradient
//! straight into the map, rounding as `col2im(Wᵀ · grad)` does (a 1×1
//! kernel's as the forward convolution it equals). The weight gradient
//! runs on the GEMM register tile with the taps as rows, read from the
//! input map in place, and the output channels as lanes
//! (`weight_product`). The full column matrix exists only in
//! [`crate::reference`], as the tests' oracle.

use std::borrow::Cow;
use std::ops::Range;

use crate::ops::direct::{self, tile, Map};
use crate::ops::kernels::{self, NR};
use crate::{workspace, Tensor};

/// Minimum output pixels per band of a [`weight_product`].
const BAND: usize = 512;

/// Geometry of a convolution: kernel size, stride and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial directions.
    pub stride: usize,
    /// Zero padding added on every border.
    pub padding: usize,
}

impl ConvSpec {
    /// A convenience constructor.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        ConvSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// `K×K` kernel with stride 1 and "same" padding (odd kernels only).
    pub fn same(kernel: usize) -> Self {
        ConvSpec::new(kernel, 1, kernel / 2)
    }

    /// Output spatial size for an input of extent `n`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_size(&self, n: usize) -> usize {
        let padded = n + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {padded}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Output spatial size of the *transposed* convolution for input extent `n`.
    pub fn transpose_out_size(&self, n: usize) -> usize {
        (n - 1) * self.stride + self.kernel - 2 * self.padding
    }
}

/// The weight-gradient product `out = lanes · im2col(m)ᵀ`
/// (`[n_lanes, c·K²]`) for one `[c, h, w]` map `m` under `spec`, with
/// `lanes` as `[n_lanes, H'·W']` — `conv2d`'s `grad · im2col(x)ᵀ` and
/// `conv_transpose2d`'s `x · im2col(grad)ᵀ`, written over `out`.
///
/// It runs as its transpose `im2col(m) · lanesᵀ` on the GEMM register
/// tile ([`kernels::gemm_micro`]), so no im2col matrix is packed. Each
/// tile row is one tap `(c, ky, kx)`, whose `A` values the tile reads
/// in place, one output row at a time (`acs` = stride). The `NR` lanes
/// are `NR` rows of `lanes`, packed as `lanesᵀ` strips. Each element is
/// one chain over ascending pixels from `+0.0`, one mul and one add per
/// step, with padding a literal `0.0` term: the chain of the plain
/// `matmul(lanes, transpose(im2col(m)))` ([`crate::reference`]) with
/// each product's operands swapped, which IEEE multiplication rounds to
/// the same bits.
pub(crate) fn weight_product(
    out: &mut [f32],
    m: &[f32],
    (c, h, w): (usize, usize, usize),
    spec: ConvSpec,
    lanes: &[f32],
    n_lanes: usize,
) {
    let ConvSpec {
        kernel: k,
        stride,
        padding: p,
    } = spec;
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let (pixels, taps) = (oh * ow, c * k * k);
    debug_assert_eq!(m.len(), c * h * w, "weight product: map length");
    debug_assert_eq!(lanes.len(), n_lanes * pixels, "weight product: lanes");
    debug_assert_eq!(out.len(), n_lanes * taps, "weight product: output");
    if pixels == 0 || taps == 0 || n_lanes == 0 {
        return;
    }
    // Bands of whole output rows, at least `BAND` pixels each. A padded
    // map's band rows are copied with the padding written out as zeros,
    // so every tap reads inside the copy; an unpadded map is read where
    // it lies. One lane strip's band of `lanesᵀ` stays in L1 while every
    // tap tile runs over it. Each strip's accumulators (`[taps, NR]`)
    // carry the chains from band to band.
    let band = BAND.div_ceil(ow).min(oh);
    let (hp, wp) = match p {
        0 => (h, w),
        _ => ((band - 1) * stride + k, w + 2 * p),
    };
    let copy_len = if p == 0 { 0 } else { c * hp * wp };
    let acc_len = n_lanes.div_ceil(NR) * taps * NR;
    let mut scratch = workspace::take(copy_len + acc_len + band * ow * NR);
    let (copy, rest) = scratch.split_at_mut(copy_len);
    let (acc, panel) = rest.split_at_mut(acc_len);
    let op = TapRows {
        offs: &(0..taps)
            .map(|t| (t / (k * k) * hp + t / k % k) * wp + t % k)
            .collect::<Vec<_>>(),
        row_step: stride * wp,
        stride,
        ow,
    };
    // Tiles of at most `mr` taps, as even as the count allows.
    let tiles = taps.div_ceil(kernels::gemm_mr());
    for y0 in (0..oh).step_by(band) {
        let px = y0 * ow..(y0 + band).min(oh) * ow;
        for (ci, dst) in copy.chunks_exact_mut(hp * wp).enumerate() {
            for (y, row) in (y0 * stride..).zip(dst.chunks_exact_mut(wp)) {
                // Rows in the padding wrap to huge values.
                let dst = &mut row[p..p + w];
                match y.wrapping_sub(p) {
                    iy if iy < h => dst.copy_from_slice(&m[(ci * h + iy) * w..][..w]),
                    _ => dst.fill(0.0),
                }
            }
        }
        let (a, base) = match p {
            0 => (m, y0 * op.row_step),
            _ => (&*copy, 0),
        };
        let panel = &mut panel[..px.len() * NR];
        for (acc, strip) in acc
            .chunks_exact_mut(taps * NR)
            .zip(lanes.chunks(NR * pixels))
        {
            pack_lanes(panel, strip, pixels, px.clone());
            for i in 0..tiles {
                let (t0, t1) = (i * taps / tiles, (i + 1) * taps / tiles);
                tile!(t1 - t0, op.tile((a, base), acc, t0, panel));
            }
        }
    }
    for (s, acc) in acc.chunks_exact(taps * NR).enumerate() {
        let dst = &mut out[s * NR * taps..][..NR.min(n_lanes - s * NR) * taps];
        for (l, row) in dst.chunks_exact_mut(taps).enumerate() {
            for (d, a) in row.iter_mut().zip(acc.chunks_exact(NR)) {
                *d = a[l];
            }
        }
    }
}

/// The bias gradient: the sum of each of the `c` channels of `plane`
/// values in `v`, bit for bit the chain `Iterator::sum` folds
/// (ascending, from `-0.0`). Up to `NR` channels' chains run side by
/// side, so their adds overlap instead of waiting on one another.
pub(crate) fn channel_sums(v: &[f32], c: usize, plane: usize) -> Vec<f32> {
    let mut sums = Vec::with_capacity(c);
    for c0 in (0..c).step_by(NR) {
        let lanes = NR.min(c - c0);
        let rows: [&[f32]; NR] =
            std::array::from_fn(|l| &v[(c0 + l.min(lanes - 1)) * plane..][..plane]);
        let mut acc = [-0.0f32; NR];
        for p in 0..plane {
            for (a, row) in acc.iter_mut().zip(rows).take(lanes) {
                *a += row[p];
            }
        }
        sums.extend_from_slice(&acc[..lanes]);
    }
    sums
}

/// Packs pixels `px` of the `rows` (`[lanes ≤ NR, pixels]`) as
/// `lanesᵀ`: `NR` values per pixel, lanes past the rows left as they
/// are.
fn pack_lanes(panel: &mut [f32], rows: &[f32], pixels: usize, px: Range<usize>) {
    for (p, d) in px.zip(panel.chunks_exact_mut(NR)) {
        for (d, row) in d.iter_mut().zip(rows.chunks_exact(pixels)) {
            *d = row[p];
        }
    }
}

/// The taps of a [`weight_product`], read in place from the map or a
/// band's padded copy.
struct TapRows<'a> {
    /// Offset of tap `(c, ky, kx)` from output pixel `(0, 0)` of the map
    /// or the copy.
    offs: &'a [usize],
    /// Distance between two output rows in the map or the copy.
    row_step: usize,
    stride: usize,
    ow: usize,
}

impl TapRows<'_> {
    /// One register tile: taps `t0..t0 + MRR` of one lane strip, whose
    /// accumulators `acc` (`[taps, NR]`) continue over the band's output
    /// rows in `panel`, in order, reading the taps from `a` with the
    /// band's first output row at `base`.
    fn tile<const MRR: usize>(
        &self,
        (a, base): (&[f32], usize),
        acc: &mut [f32],
        t0: usize,
        panel: &[f32],
    ) {
        let acc = &mut acc[t0 * NR..][..MRR * NR];
        let mut regs: [[f32; NR]; MRR] =
            std::array::from_fn(|r| std::array::from_fn(|l| acc[r * NR + l]));
        for (i, row) in panel.chunks_exact(self.ow * NR).enumerate() {
            let mut aidx: [usize; MRR] =
                std::array::from_fn(|r| base + self.offs[t0 + r] + i * self.row_step);
            kernels::gemm_micro(&mut regs, a, &mut aidx, self.stride, row);
        }
        acc.copy_from_slice(regs.as_flattened());
    }
}

/// Views an op's input as a [`Map`] batch: one `[C, H, W]` map, or —
/// when the op takes batches — a `[C, H, W, N]` batch in the lane
/// layout.
pub(crate) fn map_of<'a>(op: &str, input: &'a Tensor, batched: bool) -> Map<'a> {
    let rank = input.rank();
    assert!(
        rank == 3 || (batched && rank == 4),
        "{op} input must be {}, got {}",
        if batched {
            "[C,H,W] or [C,H,W,N]"
        } else {
            "[C,H,W]"
        },
        input.shape()
    );
    let d = input.dims();
    Map {
        v: input.as_slice(),
        n: d.get(3).copied().unwrap_or(1),
        c: d[0],
        h: d[1],
        w: d[2],
    }
}

/// `input`'s shape with its `[C, H, W]` axes replaced by `chw`: the
/// shape of an op's output, a batch's lane axis kept.
fn with_chw(input: &Tensor, chw: [usize; 3]) -> Vec<usize> {
    let mut dims = input.dims().to_vec();
    dims[..3].copy_from_slice(&chw);
    dims
}

/// Checks an op's `[_, _, K, K]` weight against its input's `c_in`
/// channels: rank, a square kernel equal to `spec.kernel`, and `c_in`
/// on weight axis `c_axis` (1 for a convolution's
/// `[C_out, C_in, K, K]`, 0 for a transposed one's `[C_in, C_out, K, K]`).
/// Returns the weight's other channel count.
pub(crate) fn check_weight(
    op: &str,
    c_in: usize,
    weight: &Tensor,
    spec: ConvSpec,
    c_axis: usize,
) -> usize {
    assert_eq!(
        weight.rank(),
        4,
        "{op} weight must be rank 4, got {}",
        weight.shape()
    );
    let (k, k2) = (weight.dim(2), weight.dim(3));
    assert_eq!(k, k2, "{op} kernel must be square, got {}", weight.shape());
    assert_eq!(
        k, spec.kernel,
        "{op} weight kernel {k} != spec kernel {}",
        spec.kernel
    );
    let wc_in = weight.dim(c_axis);
    assert_eq!(
        c_in, wc_in,
        "{op} channel mismatch: input {c_in} vs weight {wc_in}"
    );
    weight.dim(1 - c_axis)
}

/// Checks that `bias` is `[c_out]` and returns its values.
pub(crate) fn check_bias(bias: Option<&Tensor>, c_out: usize) -> Option<&[f32]> {
    bias.map(|b| {
        assert_eq!(
            b.dims(),
            &[c_out],
            "bias must be [C_out], got {}",
            b.shape()
        );
        b.as_slice()
    })
}

/// Forward 2-D convolution: `[C_in,H,W] ⊛ [C_out,C_in,K,K] (+bias) → [C_out,H',W']`,
/// or lane by lane over a batch: `[C_in,H,W,N] → [C_out,H',W',N]`.
///
/// `bias` may be `None` for bias-free layers.
///
/// # Panics
///
/// Panics on rank, kernel or channel mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: ConvSpec) -> Tensor {
    let x = map_of("conv2d", input, true);
    let c_out = check_weight("conv2d", x.c, weight, spec, 1);
    let bias = check_bias(bias, c_out);
    let (oh, ow) = (spec.out_size(x.h), spec.out_size(x.w));
    let mut out = vec![0.0f32; c_out * oh * ow * x.n];
    direct::conv_into(&mut out, x, weight.as_slice(), c_out, spec, bias);
    let out = Tensor::from_parts(with_chw(input, [c_out, oh, ow]), out);
    crate::invariants::check_finite("conv2d", &out);
    out
}

/// Gradients of [`conv2d`] with respect to input, weight and bias.
///
/// `grad_out` must be `[C_out, H', W']`. Returns `(d_input, d_weight,
/// d_bias)`, `d_input` in `input`'s buffer (see
/// [`conv2d_backward_batch`]).
///
/// # Panics
///
/// Panics on the forward pass's rank, kernel or channel mismatches
/// (`input` must be one `[C, H, W]` map), and if `grad_out` disagrees
/// with the forward geometry.
pub fn conv2d_backward(
    input: Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Tensor, Tensor) {
    map_of("conv2d_backward", &input, false);
    let (d_input, mut params) = conv2d_backward_batch(input, weight, grad_out, spec);
    let (d_weight, d_bias) = params.remove(0);
    (d_input, d_weight, d_bias)
}

/// Gradients of [`conv2d`] over a map or a batch: the input gradient,
/// shaped like `input` and folded for the whole batch at once, lane by
/// lane, and each map's own `(d_weight, d_bias)` in batch order — so a
/// caller adding them into its accumulators one by one keeps the
/// per-map add order.
///
/// The input is consumed: the weight gradients read it first, then the
/// input gradient overwrites its buffer, so a training pass's backward
/// allocates no map of the input's size.
///
/// `grad_out` must be shaped like the forward output.
///
/// # Panics
///
/// Panics on the forward pass's rank, kernel or channel mismatches, and
/// if `grad_out` disagrees with the forward geometry.
pub fn conv2d_backward_batch(
    mut input: Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Vec<(Tensor, Tensor)>) {
    let (x, c_out) = check_backward(&input, weight, grad_out, spec);
    let params = weight_grads(x, grad_out.as_slice(), c_out, spec);
    let (n, c_in, h, w) = (x.n, x.c, x.h, x.w);

    // d_input = col2im(Wᵀ · grad), folded in place: `[C_out, C_in, K, K]`
    // is the fold's `[source, output]` weight layout as it stands. Both
    // paths overwrite every element of the input's buffer.
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let grad = Map {
        v: grad_out.as_slice(),
        n,
        c: c_out,
        h: oh,
        w: ow,
    };
    let dx = input.as_mut_slice();
    if spec == ConvSpec::new(1, 1, 0) {
        // A 1×1 fold adds its single tap's chain `part` to `+0.0`, which
        // gives `part` (a chain from `+0.0` never ends at `-0.0`): the
        // forward convolution of `grad` with the weight's `[C_in, C_out]`
        // transpose, bit for bit, in the forward's faster tiles.
        let wt = weight.as_slice();
        let wt_t: Vec<f32> = (0..c_in)
            .flat_map(|ci| (0..c_out).map(move |co| wt[co * c_in + ci]))
            .collect();
        direct::conv_into(dx, grad, &wt_t, c_in, spec, None);
    } else {
        direct::fold_into(dx, (c_in, h, w), grad, weight.as_slice(), spec, None);
    }

    crate::invariants::check_finite("conv2d_backward", &input);
    (input, params)
}

/// The parameter gradients of [`conv2d_backward_batch`] alone, bit for
/// bit: each map's `(d_weight, d_bias)` in batch order, with no input
/// gradient — for an input nothing differentiates, such as a raster.
///
/// # Panics
///
/// As [`conv2d_backward_batch`].
pub fn conv2d_weight_grads(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> Vec<(Tensor, Tensor)> {
    let (x, c_out) = check_backward(input, weight, grad_out, spec);
    weight_grads(x, grad_out.as_slice(), c_out, spec)
}

/// Checks a [`conv2d`] backward's operands; returns the input batch and
/// the output channel count.
fn check_backward<'a>(
    input: &'a Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> (Map<'a>, usize) {
    let x = map_of("conv2d_backward", input, true);
    let c_out = check_weight("conv2d_backward", x.c, weight, spec, 1);
    let (oh, ow) = (spec.out_size(x.h), spec.out_size(x.w));
    assert_eq!(
        grad_out.dims(),
        &with_chw(input, [c_out, oh, ow])[..],
        "grad_out shape {} inconsistent with conv geometry",
        grad_out.shape()
    );
    (x, c_out)
}

/// Each map's `(d_weight, d_bias)` from the batch `x` and its output
/// gradient `gv` (`[c_out, oh, ow, x.n]`), in lane order: a batch's
/// lanes are gathered map by map, and each map runs the single map's
/// chains.
fn weight_grads(x: Map, gv: &[f32], c_out: usize, spec: ConvSpec) -> Vec<(Tensor, Tensor)> {
    let (c_in, h, w, n) = (x.c, x.h, x.w, x.n);
    let k = spec.kernel;
    let ncols = spec.out_size(h) * spec.out_size(w);
    let ckk = c_in * k * k;
    let lane =
        |v: &'_ [f32], r: usize| -> Vec<f32> { v.iter().skip(r).step_by(n).copied().collect() };
    (0..n)
        .map(|r| {
            let (xv, gv) = match n {
                1 => (Cow::Borrowed(x.v), Cow::Borrowed(gv)),
                _ => (Cow::Owned(lane(x.v, r)), Cow::Owned(lane(gv, r))),
            };
            let dbias = channel_sums(&gv, c_out, ncols);
            // d_weight = grad · im2col(x)ᵀ, the taps read from the map.
            let mut dw = vec![0.0f32; c_out * ckk];
            weight_product(&mut dw, &xv, (c_in, h, w), spec, &gv, c_out);
            (
                Tensor::from_parts([c_out, c_in, k, k], dw),
                Tensor::from_parts([c_out], dbias),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{im2col, matmul, transpose};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn out_size_formulae() {
        let s = ConvSpec::new(3, 1, 1);
        assert_eq!(s.out_size(8), 8);
        let s = ConvSpec::new(3, 2, 1);
        assert_eq!(s.out_size(8), 4);
        let s = ConvSpec::new(2, 2, 0);
        assert_eq!(s.out_size(8), 4);
        // transpose inverts forward for matching geometry
        let s = ConvSpec::new(3, 2, 1);
        assert_eq!(s.transpose_out_size(4), 7);
    }

    #[test]
    fn same_spec_preserves_size() {
        for k in [1, 3, 5, 7] {
            assert_eq!(ConvSpec::same(k).out_size(16), 16, "kernel {k}");
        }
    }

    #[test]
    fn weight_product_matches_the_im2col_gemm() {
        // Every weight is its `g · im2col(x)ᵀ` element bit for bit,
        // with signed zeros in both operands: padding, strides, partly
        // filled lane strips, tap tiles of every height, a
        // 1-pixel map and maps of several bands, padded or not.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut signed_zeros = |dims: [usize; 3]| {
            let mut t = Tensor::rand_normal(dims, 0.0, 1.0, &mut rng);
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                match i % 7 {
                    0 => *v = 0.0,
                    3 => *v = -0.0,
                    _ => {}
                }
            }
            t
        };
        for (c, lanes, h, w, spec) in [
            (2, 5, 7, 7, ConvSpec::same(3)),
            (3, 12, 9, 11, ConvSpec::same(3)),
            (1, 8, 20, 20, ConvSpec::same(3)),
            (5, 20, 6, 6, ConvSpec::same(1)),
            (3, 4, 9, 9, ConvSpec::new(3, 2, 1)),
            (2, 3, 11, 10, ConvSpec::new(2, 3, 2)),
            (4, 17, 23, 19, ConvSpec::new(5, 1, 2)),
            (2, 9, 1, 1, ConvSpec::same(3)),
            (2, 9, 19, 17, ConvSpec::new(3, 1, 0)),
            (2, 9, 40, 30, ConvSpec::same(3)),
            (3, 5, 70, 66, ConvSpec::new(3, 2, 1)),
            (2, 3, 60, 50, ConvSpec::new(1, 1, 0)),
        ] {
            let x = signed_zeros([c, h, w]);
            let pixels = spec.out_size(h) * spec.out_size(w);
            let g = signed_zeros([lanes, pixels, 1]).with_shape([lanes, pixels]);
            let want = matmul(&g, &transpose(&im2col(&x, spec)));
            let k = spec.kernel;
            let mut got = vec![0.0f32; lanes * c * k * k];
            weight_product(&mut got, x.as_slice(), (c, h, w), spec, g.as_slice(), lanes);
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(want.as_slice()),
                "{c}x{h}x{w} -> {lanes} {spec:?}"
            );
        }
    }

    #[test]
    fn channel_sums_equal_iterator_sums() {
        // Channel counts around one lane block, empty planes, and
        // channels of only `-0.0` (whose sum keeps the sign only from a
        // `-0.0` start) or holding ±inf and NaN.
        for (c, plane) in [(1, 5), (7, 3), (8, 16), (12, 9), (17, 1), (5, 0)] {
            let mut v: Vec<f32> = (0..c * plane)
                .map(|i| (i * 37 % 23) as f32 / 7.0 - 1.5)
                .collect();
            for (i, x) in v.iter_mut().enumerate() {
                match i / plane.max(1) % 4 {
                    1 => *x = -0.0,
                    2 if i % 5 == 0 => *x = [f32::INFINITY, f32::NAN][i % 2],
                    _ => {}
                }
            }
            let want: Vec<u32> = (0..c)
                .map(|ci| v[ci * plane..][..plane].iter().sum::<f32>().to_bits())
                .collect();
            let got: Vec<u32> = channel_sums(&v, c, plane)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(got, want, "{c} channels of {plane}");
        }
    }

    #[test]
    fn conv2d_known_values() {
        // 3×3 input, 2×2 kernel of ones → sliding-window sums.
        let x = Tensor::from_vec([1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let w = Tensor::ones([1, 1, 2, 2]);
        let y = conv2d(&x, &w, None, ConvSpec::new(2, 1, 0));
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[12., 16., 24., 28.]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let x = Tensor::ones([1, 2, 2]);
        let w = Tensor::zeros([2, 1, 1, 1]);
        let b = Tensor::from_vec([2], vec![3.0, -1.0]).unwrap();
        let y = conv2d(&x, &w, Some(&b), ConvSpec::new(1, 1, 0));
        assert_eq!(y.as_slice(), &[3., 3., 3., 3., -1., -1., -1., -1.]);
    }

    #[test]
    fn conv2d_multichannel_sums_channels() {
        let x = Tensor::from_vec([2, 1, 1], vec![2.0, 5.0]).unwrap();
        let w = Tensor::from_vec([1, 2, 1, 1], vec![10.0, 1.0]).unwrap();
        let y = conv2d(&x, &w, None, ConvSpec::new(1, 1, 0));
        assert_eq!(y.as_slice(), &[25.0]);
    }

    /// Finite-difference gradient check for conv2d over input, weight, bias.
    #[test]
    fn conv2d_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let spec = ConvSpec::new(3, 2, 1);
        let x = Tensor::rand_normal([2, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal([3], 0.0, 0.5, &mut rng);
        // loss = sum(conv(x))
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d(x, w, Some(b), spec).sum();
        let g_out = Tensor::ones([3, spec.out_size(5), spec.out_size(5)]);
        let (dx, dw, db) = conv2d_backward(x.clone(), &w, &g_out, spec);

        let eps = 1e-2;
        for (tensor, grad, name) in [(&x, &dx, "x"), (&w, &dw, "w"), (&b, &db, "b")] {
            for probe in 0..tensor.len().min(12) {
                let mut plus = tensor.clone();
                plus.as_mut_slice()[probe] += eps;
                let mut minus = tensor.clone();
                minus.as_mut_slice()[probe] -= eps;
                let (fp, fm) = match name {
                    "x" => (loss(&plus, &w, &b), loss(&minus, &w, &b)),
                    "w" => (loss(&x, &plus, &b), loss(&x, &minus, &b)),
                    _ => (loss(&x, &w, &plus), loss(&x, &w, &minus)),
                };
                let numeric = (fp - fm) / (2.0 * eps);
                let analytic = grad.as_slice()[probe];
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{name}[{probe}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn weight_grads_alone_match_the_full_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let spec = ConvSpec::same(3);
        let x = Tensor::rand_normal([3, 9, 11, 2], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([4, 3, 3, 3], 0.0, 0.5, &mut rng);
        let g = Tensor::rand_normal([4, 9, 11, 2], 0.0, 1.0, &mut rng);
        let (_, full) = conv2d_backward_batch(x.clone(), &w, &g, spec);
        let alone = conv2d_weight_grads(&x, &w, &g, spec);
        assert_eq!(full.len(), 2);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ((dw, db), (aw, ab)) in full.iter().zip(&alone) {
            assert_eq!(bits(dw), bits(aw));
            assert_eq!(bits(db), bits(ab));
        }
    }

    #[test]
    #[should_panic(expected = "conv2d_backward channel mismatch")]
    fn conv2d_backward_rejects_weight_channel_mismatch() {
        // The weight's C_in (3) disagrees with the input's 2 channels.
        conv2d_backward(
            Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([1, 3, 3, 3]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(3),
        );
    }

    #[test]
    #[should_panic(expected = "conv2d_backward weight kernel 3 != spec kernel 1")]
    fn conv2d_backward_rejects_kernel_mismatch() {
        conv2d_backward(
            Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([1, 2, 3, 3]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(1),
        );
    }

    #[test]
    #[should_panic(expected = "conv2d_backward weight must be rank 4")]
    fn conv2d_backward_rejects_weight_rank() {
        conv2d_backward(
            Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([1, 2, 9]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(3),
        );
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv2d_rejects_channel_mismatch() {
        conv2d(
            &Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([1, 3, 3, 3]),
            None,
            ConvSpec::same(3),
        );
    }
}
