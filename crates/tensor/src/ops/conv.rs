//! 2-D convolution with analytic backward passes.
//!
//! Implements the convolution of Eq. (1) of the paper. Tensors are
//! `[C, H, W]` feature maps, or `[N, C, H, W]` batches of them (the
//! refinement head's RoIs); weights are `[C_out, C_in, K, K]`. A batched
//! output element is bit for bit what the map alone would give.
//!
//! The forward pass and the input gradient read their maps in place
//! (`ops::direct`): the forward pass runs one ascending-tap chain per
//! output element, and the input gradient folds the output gradient
//! straight into the map, rounding as `col2im(Wᵀ · grad)` does. The
//! weight gradient is a GEMM whose packing pass reads the transposed
//! im2col matrix from the input map (`Im2col`). [`im2col`] and
//! [`col2im`] build and fold the full column matrix only as public
//! references.

use crate::ops::direct::{self, Map};
use crate::ops::kernels::NR;
use crate::ops::matmul::{gemm_into, BSource};
use crate::Tensor;

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

/// Unfolds `[C, H, W]` into a `[C·K·K, H_out·W_out]` column matrix.
///
/// Column `(oy·W_out + ox)` holds the receptive field of output pixel
/// `(oy, ox)`; out-of-bounds taps read as zero (zero padding).
///
/// # Panics
///
/// Panics if `input` is not rank 3.
pub fn im2col(input: &Tensor, spec: ConvSpec) -> Tensor {
    assert_eq!(
        input.rank(),
        3,
        "im2col expects [C,H,W], got {}",
        input.shape()
    );
    let (c, h, w) = (input.dim(0), input.dim(1), input.dim(2));
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    let iv = input.as_slice();
    // The plain per-element definition: a reference for the in-place
    // kernels and the fused packing of `Im2col`.
    let mut out = Vec::with_capacity(c * k * k * oh * ow);
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                        out.push(if inside {
                            iv[(ci * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        });
                    }
                }
            }
        }
    }
    Tensor::from_parts([c * k * k, oh * ow], out)
}

/// The im2col matrix of a `[C, H, W]` map as a view: the GEMM packing
/// pass reads blocks of its transpose straight from the map, so the
/// weight gradients never build the `[H'·W', C·K²]` matrix. Rows are
/// taps `(c, ky, kx)`, columns output pixels `(oy, ox)`, both row-major;
/// out-of-bounds taps read as zero. Every packed value is a copy, so
/// packing from the view equals packing from [`im2col`] bit for bit.
#[derive(Clone, Copy)]
pub(crate) struct Im2col<'a> {
    map: &'a [f32],
    h: usize,
    w: usize,
    spec: ConvSpec,
    ow: usize,
}

/// One tap `(c, ky, kx)` of an [`Im2col`] row, walked in row order.
#[derive(Clone, Copy)]
struct Tap {
    c: usize,
    ky: usize,
    kx: usize,
}

impl Tap {
    fn of(p: usize, k: usize) -> Tap {
        Tap {
            c: p / (k * k),
            ky: p / k % k,
            kx: p % k,
        }
    }

    fn advance(&mut self, k: usize) {
        self.kx += 1;
        if self.kx == k {
            self.kx = 0;
            self.ky += 1;
            if self.ky == k {
                self.ky = 0;
                self.c += 1;
            }
        }
    }
}

impl<'a> Im2col<'a> {
    /// Views `map` (`[c, h, w]` row-major) under `spec`.
    pub(crate) fn new(map: &'a [f32], c: usize, h: usize, w: usize, spec: ConvSpec) -> Self {
        debug_assert_eq!(map.len(), c * h * w, "im2col view: map length");
        Im2col {
            map,
            h,
            w,
            spec,
            ow: spec.out_size(w),
        }
    }

    /// The map value of channel `c` at padded coordinates `(y, x)`
    /// (`oy·stride + ky`, `ox·stride + kx`); zero in the padding.
    #[inline(always)]
    fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        // Coordinates above the padding wrap to huge values, which the
        // bounds test then rejects.
        let (iy, ix) = (
            y.wrapping_sub(self.spec.padding),
            x.wrapping_sub(self.spec.padding),
        );
        if iy < self.h && ix < self.w {
            self.map[(c * self.h + iy) * self.w + ix]
        } else {
            0.0
        }
    }

    /// Packs pixels `p0..p1` × taps `j0..j1` (the transposed
    /// orientation: B rows are pixels) into `NR`-tap strips.
    pub(crate) fn pack_pixels(&self, p0: usize, p1: usize, j0: usize, j1: usize, dst: &mut [f32]) {
        let (k, kc) = (self.spec.kernel, p1 - p0);
        for (s, strip) in dst.chunks_exact_mut(kc * NR).enumerate() {
            let j = j0 + s * NR;
            let mut taps = [Tap { c: 0, ky: 0, kx: 0 }; NR];
            let lanes = NR.min(j1 - j);
            let mut tap = Tap::of(j, k);
            for t in &mut taps[..lanes] {
                *t = tap;
                tap.advance(k);
            }
            // Walk the pixels one output-row segment at a time.
            let mut p = p0;
            while p < p1 {
                let (oy, ox0) = (p / self.ow, p % self.ow);
                let seg = (self.ow - ox0).min(p1 - p);
                let rows = &mut strip[(p - p0) * NR..][..seg * NR];
                self.pack_segment(&taps[..lanes], oy, ox0, rows);
                p += seg;
            }
        }
    }

    /// Packs output pixels `(oy, ox0..)` of one output row, `NR` taps
    /// per pixel, lanes past `taps` zero. At stride 1, runs of `NR`
    /// pixels whose taps all read inside the map copy `NR` input values
    /// per tap and transpose them through a register-sized block.
    fn pack_segment(&self, taps: &[Tap], oy: usize, ox0: usize, rows: &mut [f32]) {
        let (stride, pad, w) = (self.spec.stride, self.spec.padding, self.w);
        let n = rows.len() / NR;
        // Pixels `fast_lo..fast_hi` (relative) go through the block path.
        let (mut fast_lo, mut fast_hi) = (n, n);
        let mut src: [Option<(&[f32], usize)>; NR] = [None; NR];
        if stride == 1 {
            let kx_max = taps.iter().map(|t| t.kx).max().unwrap_or(0);
            let kx_min = taps.iter().map(|t| t.kx).min().unwrap_or(0);
            // First pixel whose leftmost tap is inside, first whose
            // rightmost is not.
            let lo = pad.saturating_sub(kx_min).max(ox0) - ox0;
            let hi = (w + pad).saturating_sub(kx_max).saturating_sub(ox0).min(n);
            if lo + NR <= hi {
                fast_lo = lo;
                fast_hi = lo + (hi - lo) / NR * NR;
            }
            for (s, t) in src.iter_mut().zip(taps) {
                let iy = (oy + t.ky).wrapping_sub(pad);
                if iy < self.h {
                    *s = Some((&self.map[(t.c * self.h + iy) * w..][..w], t.kx));
                }
            }
        }
        let generic = |out: &mut [f32], ox: usize| {
            for (l, d) in out.iter_mut().enumerate() {
                *d = taps.get(l).map_or(0.0, |t| {
                    self.at(t.c, oy * stride + t.ky, ox * stride + t.kx)
                });
            }
        };
        let (head, rest) = rows.split_at_mut(fast_lo * NR);
        for (i, out) in head.chunks_exact_mut(NR).enumerate() {
            generic(out, ox0 + i);
        }
        let (mid, tail) = rest.split_at_mut((fast_hi - fast_lo) * NR);
        // Lanes that read the padding rows, or no tap, stay zero.
        let mut block = [[0.0f32; NR]; NR];
        for (g, group) in mid.chunks_exact_mut(NR * NR).enumerate() {
            let ox = ox0 + fast_lo + g * NR;
            for (b, s) in block.iter_mut().zip(&src) {
                if let Some((row, kx)) = s {
                    b.copy_from_slice(&row[ox + kx - pad..][..NR]);
                }
            }
            for (t, out) in group.chunks_exact_mut(NR).enumerate() {
                out.copy_from_slice(&std::array::from_fn::<f32, NR, _>(|l| block[l][t]));
            }
        }
        for (i, out) in tail.chunks_exact_mut(NR).enumerate() {
            generic(out, ox0 + fast_hi + i);
        }
    }
}

/// Adjoint of [`im2col`]: folds a `[C·K·K, H_out·W_out]` column matrix back
/// into a `[C, H, W]` map, *summing* overlapping contributions in
/// ascending tap order per output pixel.
///
/// # Panics
///
/// Panics if `cols` does not have the shape implied by `(c, h, w)` and `spec`.
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: ConvSpec) -> Tensor {
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    assert_eq!(
        cols.dims(),
        &[c * k * k, oh * ow],
        "col2im input shape {} inconsistent with geometry",
        cols.shape()
    );
    // The plain serial definition: a reference for the in-place fold.
    let cv = cols.as_slice();
    let mut out = vec![0.0f32; c * h * w];
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let base = ((ci * k + ky) * k + kx) * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky).wrapping_sub(spec.padding);
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx).wrapping_sub(spec.padding);
                        if iy < h && ix < w {
                            out[(ci * h + iy) * w + ix] += cv[base + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_parts([c, h, w], out)
}

/// Views an op's input as a [`Map`] batch: one `[C, H, W]` map, or —
/// when the op takes batches — an `[N, C, H, W]` batch of them.
pub(crate) fn map_of<'a>(op: &str, input: &'a Tensor, batched: bool) -> Map<'a> {
    let rank = input.rank();
    assert!(
        rank == 3 || (batched && rank == 4),
        "{op} input must be {}, got {}",
        if batched {
            "[C,H,W] or [N,C,H,W]"
        } else {
            "[C,H,W]"
        },
        input.shape()
    );
    let d = &input.dims()[rank - 3..];
    let n = if rank == 4 { input.dim(0) } else { 1 };
    Map {
        v: input.as_slice(),
        n,
        c: d[0],
        h: d[1],
        w: d[2],
    }
}

/// The shape of an op's output with `chw` per map: rank 3 for a single
/// map, `[N, ..]` for a batch.
fn batch_shape(input: &Tensor, n: usize, chw: [usize; 3]) -> Vec<usize> {
    if input.rank() == 4 {
        vec![n, chw[0], chw[1], chw[2]]
    } else {
        chw.to_vec()
    }
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
/// or map by map over a batch: `[N,C_in,H,W] → [N,C_out,H',W']`.
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
    let mut out = vec![0.0f32; x.n * c_out * oh * ow];
    direct::conv_into(&mut out, x, weight.as_slice(), c_out, spec, bias);
    let out = Tensor::from_parts(batch_shape(input, x.n, [c_out, oh, ow]), out);
    crate::invariants::check_finite("conv2d", &out);
    out
}

/// Gradients of [`conv2d`] with respect to input, weight and bias.
///
/// `grad_out` must be `[C_out, H', W']`. Returns `(d_input, d_weight, d_bias)`.
///
/// # Panics
///
/// Panics on the forward pass's rank, kernel or channel mismatches
/// (`input` must be one `[C, H, W]` map), and if `grad_out` disagrees
/// with the forward geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Tensor, Tensor) {
    map_of("conv2d_backward", input, false);
    let (d_input, mut params) = conv2d_backward_batch(input, weight, grad_out, spec);
    let (d_weight, d_bias) = params.remove(0);
    (d_input, d_weight, d_bias)
}

/// Gradients of [`conv2d`] over a map or a batch: the input gradient,
/// shaped like `input` and folded for the whole batch at once, and each
/// map's own `(d_weight, d_bias)` in batch order — so a caller adding
/// them into its accumulators one by one keeps the per-map add order.
///
/// `grad_out` must be shaped like the forward output.
///
/// # Panics
///
/// Panics on the forward pass's rank, kernel or channel mismatches, and
/// if `grad_out` disagrees with the forward geometry.
pub fn conv2d_backward_batch(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Vec<(Tensor, Tensor)>) {
    let (x, c_out) = check_backward(input, weight, grad_out, spec);
    let params = weight_grads(x, grad_out.as_slice(), c_out, spec);

    // d_input = col2im(Wᵀ · grad), folded in place: `[C_out, C_in, K, K]`
    // is the fold's `[source, output]` weight layout as it stands.
    let (oh, ow) = (spec.out_size(x.h), spec.out_size(x.w));
    let grad = Map {
        v: grad_out.as_slice(),
        n: x.n,
        c: c_out,
        h: oh,
        w: ow,
    };
    let mut dx = vec![0.0f32; x.v.len()];
    direct::fold_into(
        &mut dx,
        (x.c, x.h, x.w),
        grad,
        weight.as_slice(),
        spec,
        None,
    );
    let d_input = Tensor::from_parts(input.dims(), dx);

    crate::invariants::check_finite("conv2d_backward", &d_input);
    (d_input, params)
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
        &batch_shape(input, x.n, [c_out, oh, ow])[..],
        "grad_out shape {} inconsistent with conv geometry",
        grad_out.shape()
    );
    (x, c_out)
}

/// Each map's `(d_weight, d_bias)` from the batch `x` and its output
/// gradient `gv` (`[n, c_out, oh, ow]`).
fn weight_grads(x: Map, gv: &[f32], c_out: usize, spec: ConvSpec) -> Vec<(Tensor, Tensor)> {
    let (c_in, h, w) = (x.c, x.h, x.w);
    let k = spec.kernel;
    let ncols = spec.out_size(h) * spec.out_size(w);
    let ckk = c_in * k * k;
    x.v.chunks_exact((c_in * h * w).max(1))
        .zip(gv.chunks_exact((c_out * ncols).max(1)))
        .take(x.n)
        .map(|(xv, gv)| {
            // d_bias: sum over spatial positions.
            let dbias: Vec<f32> = (0..c_out)
                .map(|co| gv[co * ncols..(co + 1) * ncols].iter().sum())
                .collect();
            // d_weight = grad · im2col(x)ᵀ — the packing pass gathers the
            // transposed im2col matrix straight from the input map.
            let cols = Im2col::new(xv, c_in, h, w, spec);
            let mut dw = vec![0.0f32; c_out * ckk];
            gemm_into(&mut dw, gv, c_out, ncols, ckk, BSource::Im2colT(cols));
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
    fn im2col_identity_kernel() {
        // K=1, s=1, p=0: columns are just the flattened input.
        let x = Tensor::from_fn([2, 2, 2], |c| (c[0] * 4 + c[1] * 2 + c[2]) as f32);
        let cols = im2col(&x, ConvSpec::new(1, 1, 0));
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let x = Tensor::ones([1, 2, 2]);
        let cols = im2col(&x, ConvSpec::new(3, 1, 1));
        // centre tap of corner output (0,0) is x[0,0]=1; top-left tap is padding=0
        assert_eq!(cols.dims(), &[9, 4]);
        assert_eq!(cols.get(&[0, 0]), 0.0); // ky=0,kx=0 at output (0,0) → (-1,-1)
        assert_eq!(cols.get(&[4, 0]), 1.0); // centre tap
    }

    #[test]
    fn pixel_packing_copies_the_im2col_matrix() {
        // Every packed value is the im2col entry it stands for, zero
        // padding lanes included, for pixel ranges that start and end
        // mid-row and tap ranges with a ragged last strip; rows of 20
        // or more pixels also take the stride-1 block path.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for (c, h, w, spec) in [
            (2, 5, 7, ConvSpec::same(3)),
            (2, 4, 40, ConvSpec::same(3)),
            (3, 3, 29, ConvSpec::new(5, 1, 2)),
            (2, 2, 20, ConvSpec::new(1, 1, 0)),
            (1, 3, 26, ConvSpec::new(3, 1, 0)),
            (1, 6, 9, ConvSpec::new(3, 2, 1)),
            (3, 7, 5, ConvSpec::new(5, 1, 2)),
            (2, 4, 11, ConvSpec::new(2, 3, 2)),
            (1, 3, 3, ConvSpec::new(1, 1, 0)),
        ] {
            let x = Tensor::rand_normal([c, h, w], 0.0, 1.0, &mut rng);
            let cols = im2col(&x, spec);
            let (taps, pixels) = (cols.dim(0), cols.dim(1));
            let view = Im2col::new(x.as_slice(), c, h, w, spec);
            for (p0, p1, j0, j1) in [
                (0, pixels, 0, taps),
                (1, pixels - 1, 1, taps),
                (pixels / 2, pixels, 0, taps.min(3)),
            ] {
                let strips = (j1 - j0).div_ceil(NR);
                let mut got = vec![f32::NAN; strips * (p1 - p0) * NR];
                view.pack_pixels(p0, p1, j0, j1, &mut got);
                for (s, strip) in got.chunks_exact(NR * (p1 - p0)).enumerate() {
                    for (i, row) in strip.chunks_exact(NR).enumerate() {
                        for (l, &v) in row.iter().enumerate() {
                            let j = j0 + s * NR + l;
                            let want = if j < j1 { cols.get(&[j, p0 + i]) } else { 0.0 };
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "{spec:?} tap {j} pixel {}",
                                p0 + i
                            );
                        }
                    }
                }
            }
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

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = ConvSpec::new(3, 2, 1);
        let x = Tensor::rand_normal([2, 5, 5], 0.0, 1.0, &mut rng);
        let cols_shape = [2 * 9, spec.out_size(5) * spec.out_size(5)];
        let y = Tensor::rand_normal(cols_shape, 0.0, 1.0, &mut rng);
        let lhs: f32 = im2col(&x, spec)
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(col2im(&y, 2, 5, 5, spec).as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
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
        let (dx, dw, db) = conv2d_backward(&x, &w, &g_out, spec);

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
        let x = Tensor::rand_normal([2, 3, 9, 11], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([4, 3, 3, 3], 0.0, 0.5, &mut rng);
        let g = Tensor::rand_normal([2, 4, 9, 11], 0.0, 1.0, &mut rng);
        let (_, full) = conv2d_backward_batch(&x, &w, &g, spec);
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
            &Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([1, 3, 3, 3]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(3),
        );
    }

    #[test]
    #[should_panic(expected = "conv2d_backward weight kernel 3 != spec kernel 1")]
    fn conv2d_backward_rejects_kernel_mismatch() {
        conv2d_backward(
            &Tensor::zeros([2, 4, 4]),
            &Tensor::zeros([1, 2, 3, 3]),
            &Tensor::zeros([1, 4, 4]),
            ConvSpec::same(1),
        );
    }

    #[test]
    #[should_panic(expected = "conv2d_backward weight must be rank 4")]
    fn conv2d_backward_rejects_weight_rank() {
        conv2d_backward(
            &Tensor::zeros([2, 4, 4]),
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
