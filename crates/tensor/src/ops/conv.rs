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

use crate::ops::direct::{self, tile, Map};
use crate::ops::kernels::{self, Walk, NR};
use crate::{workspace, Tensor};

/// The bytes a band of a [`weight_product`] keeps in L1: its rows of
/// the map's padded copy and its packed panel.
const BAND_BYTES: usize = 32 << 10;

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
/// `conv_transpose2d`'s `x · im2col(grad)ᵀ`, written over `out`. With
/// `sums`, also each lane row's sum (`conv2d`'s bias gradient), bit for
/// bit the chain `Iterator::sum` folds (ascending, from `-0.0`).
///
/// It runs as its transpose `im2col(m) · lanesᵀ` on the weight tile
/// ([`kernels::weight_tile`]), so no im2col matrix is packed. The lanes
/// split into panels ([`panels`]): a vector holds `v / g` lanes times
/// `g` taps `(c, ky, kx..kx + g)`, whose `A` values lie side by side in
/// the map at any stride, so one broadcast load reads them. With more
/// than `NR` lanes left a 16-lane vector holds two lane strips (`g` 1);
/// with fewer, two or four adjacent taps of one strip (a 3-tap row then
/// runs as one vector of four taps, the fourth never stored). Each tile
/// row is one tap group, read in place one output row at a time. Bands
/// of whole output rows are sized so that a band's rows of the map —
/// copied with the padding written out as zeros when the map is padded
/// or a vector reads past a row's last tap, else read where they lie —
/// and its packed panel stay in L1 ([`BAND_BYTES`]). The panel is
/// packed per band ([`kernels::pack_panel`]), which also adds it into
/// the lane sums, and every tap tile runs over it; each panel's
/// accumulators carry the chains from band to band.
///
/// Each element is one chain over ascending pixels from `+0.0`, one mul
/// and one add per step, with padding a literal `0.0` term: the chain
/// of the plain `matmul(lanes, transpose(im2col(m)))`
/// ([`crate::reference`]) with each product's operands swapped, which
/// IEEE multiplication rounds to the same bits.
pub(crate) fn weight_product(
    out: &mut [f32],
    m: &[f32],
    (c, h, w): (usize, usize, usize),
    spec: ConvSpec,
    lanes: &[f32],
    n_lanes: usize,
    mut sums: Option<&mut [f32]>,
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
    if let Some(s) = sums.as_deref_mut() {
        debug_assert_eq!(s.len(), n_lanes, "weight product: one sum per lane");
        s.fill(-0.0);
    }
    if pixels == 0 || n_lanes == 0 {
        return;
    }
    let plan = panels(n_lanes, c, k, kernels::weight_lanes());
    let gmax = plan.iter().map(|pl| pl.g).max().unwrap_or(1);
    let vmax = plan.iter().map(|pl| pl.v).max().unwrap_or(NR);
    // A band of `b` output rows holds `rows(b)` rows of the map.
    let copied = p > 0 || gmax > 1;
    let wp = if copied { w + 2 * p } else { w };
    let rows = |b: usize| (b - 1) * stride + k;
    let floats = |b: usize| usize::from(copied) * c * rows(b) * wp + b * ow * vmax;
    let extra = (BAND_BYTES / 4).saturating_sub(floats(1)) / floats(2).saturating_sub(floats(1));
    let band = (1 + extra).min(oh);
    let hp = if copied { rows(band) } else { h };
    // `gmax - 1` zeros after the copy for the last row's unstored taps.
    let copy_len = if copied { c * hp * wp + gmax - 1 } else { 0 };
    let acc_len: usize = plan.iter().map(|pl| pl.rows(c, k) * pl.v).sum();
    let sums_len: usize = plan.iter().map(|pl| pl.v).sum();
    let mut scratch = workspace::take(copy_len + acc_len + sums_len + band * ow * vmax);
    let (copy, rest) = scratch.split_at_mut(copy_len);
    let (acc, rest) = rest.split_at_mut(acc_len);
    let (lane_sums, panel) = rest.split_at_mut(sums_len);
    lane_sums.fill(-0.0);
    // Each panel's tile rows: where row `(c, ky, group)` reads its first
    // tap from output pixel `(0, 0)`.
    let offs: Vec<Vec<usize>> = plan
        .iter()
        .map(|pl| {
            let kxs = (0..k).step_by(pl.g);
            (0..c)
                .flat_map(|ci| (0..k).map(move |ky| (ci * hp + ky) * wp))
                .flat_map(|at| kxs.clone().map(move |kx| at + kx))
                .collect()
        })
        .collect();
    let mr = kernels::gemm_mr();
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
        let (a, base) = match copied {
            true => (&*copy, 0),
            false => (m, y0 * stride * w),
        };
        let (mut acc, mut lane_sums) = (&mut *acc, &mut *lane_sums);
        for (pl, offs) in plan.iter().zip(&offs) {
            let panel = &mut panel[..px.len() * pl.v];
            let (sum, rest) = std::mem::take(&mut lane_sums).split_at_mut(pl.v);
            lane_sums = rest;
            kernels::pack_panel(
                panel,
                &lanes[pl.l0 * pixels..(pl.l0 + pl.cs) * pixels],
                pixels,
                px.clone(),
                (pl.v, pl.g),
                sums.is_some().then_some(sum),
            );
            let (pl_acc, rest) = std::mem::take(&mut acc).split_at_mut(pl.rows(c, k) * pl.v);
            acc = rest;
            let op = TapRows {
                a,
                base,
                walk: Walk {
                    run: ow,
                    col: stride,
                    row: stride * wp,
                },
                panel,
                offs,
                vg: (pl.v, pl.g),
            };
            // Tiles of at most `mr` rows, as even as the count allows.
            let n_rows = offs.len();
            let tiles = n_rows.div_ceil(mr);
            for i in 0..tiles {
                let (r0, r1) = (i * n_rows / tiles, (i + 1) * n_rows / tiles);
                tile!(r1 - r0, op.tile(pl_acc, r0));
            }
        }
    }
    let (mut acc, mut lane_sums) = (&*acc, &*lane_sums);
    for pl in &plan {
        let (pl_acc, rest) = acc.split_at(pl.rows(c, k) * pl.v);
        let (sum, rest_sums) = lane_sums.split_at(pl.v);
        (acc, lane_sums) = (rest, rest_sums);
        let groups = k.div_ceil(pl.g);
        for (r, vals) in pl_acc.chunks_exact(pl.v).enumerate() {
            let (cy, kx0) = (r / groups, r % groups * pl.g);
            for (l, &val) in vals.iter().enumerate() {
                let (ch, kx) = (l / pl.g, kx0 + l % pl.g);
                if ch < pl.cs && kx < k {
                    out[(pl.l0 + ch) * taps + cy * k + kx] = val;
                }
            }
        }
        if let Some(s) = sums.as_deref_mut() {
            for (ch, s) in s[pl.l0..pl.l0 + pl.cs].iter_mut().enumerate() {
                *s = sum[ch * pl.g];
            }
        }
    }
}

/// One lane panel of a [`weight_product`]: lanes `l0..l0 + cs` in
/// vectors of `v` lanes, each vector `v / g` lanes times `g` adjacent
/// taps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Panel {
    l0: usize,
    cs: usize,
    v: usize,
    g: usize,
}

impl Panel {
    /// The tile rows of a `c`-channel map under a `k`-tap kernel: one per
    /// group of `g` taps of each kernel row.
    fn rows(self, c: usize, k: usize) -> usize {
        c * k * k.div_ceil(self.g)
    }
}

/// What a pixel of one panel costs a [`weight_product`], per vector
/// width (`NR`, `2·NR` lanes): one tile row's step, and packing the
/// panel. Measured on an AVX-512 host (release build, one thread), in
/// units of a tenth of an 8-lane row step: a 16-lane step costs 1.05–1.5
/// 8-lane ones, and packing 2.5 of them at 8 lanes and 3.3–5 at 16. The
/// figures are rounded against the wider vector, which must win
/// clearly to be chosen.
const ROW_COST: [usize; 2] = [10, 15];
const PACK_COST: [usize; 2] = [25, 40];

/// Splits `n_lanes` lanes into the panels of a [`weight_product`] of a
/// `c`-channel map under a `k`-tap kernel, with vectors of up to `width`
/// lanes: each panel takes a vector width (`NR` or `width`) and a
/// power-of-two tap group `g` (1 under a 1×1 kernel, whose taps are not
/// adjacent), and the split costs the least per pixel ([`ROW_COST`],
/// [`PACK_COST`]); ties go to fewer panels, then to the narrower first
/// vector. Many lanes take 16-lane strip pairs; a 4-lane panel takes
/// four taps to a 16-lane vector; 8 lanes of a few channels stay on one
/// 8-lane strip, whose cheaper packing outweighs the tap pairs' fewer
/// rows.
fn panels(n_lanes: usize, c: usize, k: usize, width: usize) -> Vec<Panel> {
    let gmax = if k == 1 { 1 } else { k.next_power_of_two() };
    let layouts: Vec<(usize, usize)> = [NR, width]
        .into_iter()
        .flat_map(|v| {
            (0..)
                .map(|e| 1usize << e)
                .take_while(move |&g| g <= v.min(gmax))
                .map(move |g| (v, g))
        })
        .collect();
    let cost = |(v, g): (usize, usize)| {
        let wide = usize::from(v > NR);
        c * k * k.div_ceil(g) * ROW_COST[wide] + PACK_COST[wide]
    };
    // `best[m]`: the (cost, panels) of the last `m` lanes' cheapest
    // split, and its first panel's layout.
    let mut best = vec![((0, 0), (NR, 1)); n_lanes + 1];
    for m in 1..=n_lanes {
        best[m] = layouts
            .iter()
            .map(|&(v, g)| {
                let ((rest, count), _) = best[m - (v / g).min(m)];
                ((rest + cost((v, g)), count + 1), (v, g))
            })
            .min_by_key(|&(key, (v, _))| (key, v))
            .unwrap_or(best[m]);
    }
    let mut plan = Vec::new();
    let mut m = n_lanes;
    while m > 0 {
        let (v, g) = best[m].1;
        let cs = (v / g).min(m);
        plan.push(Panel {
            l0: n_lanes - m,
            cs,
            v,
            g,
        });
        m -= cs;
    }
    plan
}

/// The tap-group rows of one panel of a [`weight_product`], read in
/// place from the map or a band's padded copy.
struct TapRows<'a> {
    /// The map or the copy.
    a: &'a [f32],
    /// Where the band's first output row reads tap `(0, 0, 0)`.
    base: usize,
    walk: Walk,
    /// The band's packed panel.
    panel: &'a [f32],
    /// Each row's offset from `base`.
    offs: &'a [usize],
    /// The panel's lanes and tap group.
    vg: (usize, usize),
}

impl TapRows<'_> {
    /// One register tile: rows `r0..r0 + MRR` of the panel, whose
    /// accumulators in `acc` (`[rows, v]`) continue over the band.
    fn tile<const MRR: usize>(&self, acc: &mut [f32], r0: usize) {
        let (v, g) = self.vg;
        let aidx: [usize; MRR] = std::array::from_fn(|r| self.base + self.offs[r0 + r]);
        kernels::weight_tile::<MRR>(
            &mut acc[r0 * v..][..MRR * v],
            (self.a, &aidx),
            self.walk,
            self.panel,
            (v, g),
        );
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
/// gradient `gv` (`[c_out, oh, ow, x.n]`), in lane order: a single map
/// through [`weight_product`], a batch through [`lane_weight_grads`].
fn weight_grads(x: Map, gv: &[f32], c_out: usize, spec: ConvSpec) -> Vec<(Tensor, Tensor)> {
    if x.n != 1 {
        return lane_weight_grads(x, gv, c_out, spec);
    }
    let k = spec.kernel;
    // d_weight = grad · im2col(x)ᵀ, the taps read from the map.
    let mut dw = vec![0.0f32; c_out * x.c * k * k];
    let mut db = vec![0.0f32; c_out];
    weight_product(
        &mut dw,
        x.v,
        (x.c, x.h, x.w),
        spec,
        gv,
        c_out,
        Some(&mut db),
    );
    vec![(
        Tensor::from_parts([c_out, x.c, k, k], dw),
        Tensor::from_parts([c_out], db),
    )]
}

/// Each map's `(d_weight, d_bias)` of a lane-layout batch, with the
/// maps in the lanes: one chain per (output channel, tap, map), the
/// input's lane vector at the tap times the gradient's lane vector at
/// the pixel ([`kernels::lane_product`]), over ascending pixels from
/// `+0.0` with the padding a literal `0.0` term — each map's own chain
/// of [`weight_product`] — and each bias the map's ascending sum from
/// `-0.0`. The batch is first copied row by row with its padding
/// written out as zeros, and the gradient as it is; a lane vector past
/// the batch's last map reads the next pixel's lanes, or the zeros
/// after each copy, and is never stored.
fn lane_weight_grads(x: Map, gv: &[f32], c_out: usize, spec: ConvSpec) -> Vec<(Tensor, Tensor)> {
    let Map { v: xv, n, c, h, w } = x;
    let ConvSpec {
        kernel: k,
        stride,
        padding: p,
    } = spec;
    if n == 0 {
        return Vec::new();
    }
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let (steps, taps) = (oh * ow, c * k * k);
    let (hp, wp, np) = (h + 2 * p, w + 2 * p, n.next_multiple_of(NR));
    let width = kernels::weight_lanes();
    // A vector of zeros after each copy for the last lanes' reads.
    let (xlen, ylen) = (c * hp * wp * n + width, c_out * steps * n + width);
    // `dw` is `[rows, np]`, its rows padded to whole strips for the
    // transpose into `tr`, `[n, rows]`.
    let rows = (c_out * taps).next_multiple_of(NR);
    let mut scratch = workspace::take(xlen + ylen + (rows + c_out) * np + n * rows);
    let (xc, rest) = scratch.split_at_mut(xlen);
    let (yc, rest) = rest.split_at_mut(ylen);
    let (dw, rest) = rest.split_at_mut(rows * np);
    let (db, tr) = rest.split_at_mut(c_out * np);
    let (row, src_row) = (wp * n, w * n);
    for (ci, plane) in xc.chunks_exact_mut(hp * row).enumerate() {
        for (y, dst) in plane.chunks_exact_mut(row).skip(p).take(h).enumerate() {
            dst[p * n..][..src_row].copy_from_slice(&xv[(ci * h + y) * src_row..][..src_row]);
        }
    }
    yc[..gv.len()].copy_from_slice(gv);
    // Where tap `(ci, ky, kx)` of output pixel `(0, 0)` lies in the copy.
    let mut toff = Vec::with_capacity(taps);
    for ci in 0..c {
        for ky in 0..k {
            toff.extend((0..k).map(|kx| ((ci * hp + ky) * wp + kx) * n));
        }
    }
    let op = LaneRows {
        xc,
        yc,
        toff: &toff,
        walk: Walk {
            run: ow,
            col: stride * n,
            row: stride * row,
        },
        n,
        steps,
    };
    let mr = kernels::gemm_mr();
    let tiles = taps.div_ceil(mr);
    let mut b0 = 0;
    while b0 < np {
        let v = if np - b0 >= width { width } else { NR };
        for (co, dw) in dw[..c_out * taps * np]
            .chunks_exact_mut(taps * np)
            .enumerate()
        {
            for i in 0..tiles {
                let (t0, t1) = (i * taps / tiles, (i + 1) * taps / tiles);
                tile!(t1 - t0, op.tile(dw, (co, t0), (b0, v)));
            }
        }
        b0 += v;
    }
    db.fill(-0.0);
    for (sums, ch) in db.chunks_exact_mut(np).zip(op.yc.chunks_exact(steps * n)) {
        for px in ch.chunks_exact(n) {
            for (s, &g) in sums.iter_mut().zip(px) {
                *s += g;
            }
        }
    }
    // Map `r` is lane `r` of every row: transposed a strip of rows at a
    // time.
    for (b, block) in dw.chunks_exact(NR * np).enumerate() {
        let lanes: [&[f32]; NR] = std::array::from_fn(|l| &block[l * np..][..n]);
        for (r, dst) in tr.chunks_exact_mut(rows).enumerate() {
            let vals: [f32; NR] = std::array::from_fn(|l| lanes[l][r]);
            dst[b * NR..][..NR].copy_from_slice(&vals);
        }
    }
    tr.chunks_exact(rows)
        .enumerate()
        .map(|(r, dw)| {
            (
                Tensor::from_parts([c_out, c, k, k], dw[..c_out * taps].to_vec()),
                Tensor::from_parts([c_out], db.iter().skip(r).step_by(np).copied().collect()),
            )
        })
        .collect()
}

/// The `(output channel, tap)` rows of a [`lane_weight_grads`] batch,
/// over its copies.
struct LaneRows<'a> {
    /// The batch, `[c, hp, wp, n]`.
    xc: &'a [f32],
    /// The output gradient, `[c_out, steps, n]`.
    yc: &'a [f32],
    /// Each tap's offset in `xc` at output pixel `(0, 0)`.
    toff: &'a [usize],
    walk: Walk,
    n: usize,
    steps: usize,
}

impl LaneRows<'_> {
    /// Taps `t0..t0 + MRR` of output channel `co` at lanes
    /// `b0..b0 + v`, into the channel's rows of `dw` (`[taps, np]`).
    fn tile<const MRR: usize>(
        &self,
        dw: &mut [f32],
        (co, t0): (usize, usize),
        (b0, v): (usize, usize),
    ) {
        let xo: [usize; MRR] = std::array::from_fn(|r| self.toff[t0 + r] + b0);
        let yo = co * self.steps * self.n + b0;
        let np = dw.len() / self.toff.len();
        kernels::lane_product::<MRR>(
            (&mut dw[t0 * np + b0..], np),
            (self.xc, &xo),
            (self.yc, yo),
            (self.walk, self.n, self.steps),
            v,
        );
    }
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
    fn weight_product_matches_the_im2col_gemm_on_every_tier() {
        // Every weight is its `g · im2col(x)ᵀ` element bit for bit, and
        // every lane sum its ascending sum from `-0.0`, with signed zeros
        // in both operands, under every tier the CPU grants: padding,
        // strides, lane counts of every panel layout (strip pairs, tap
        // pairs and quads, partly filled strips), tap tiles of every
        // height, a 1-pixel map and maps of several bands, padded or
        // not.
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
        let cases: Vec<_> = [
            (2, 5, 7, 7, ConvSpec::same(3)),
            (3, 12, 9, 11, ConvSpec::same(3)),
            (1, 8, 20, 20, ConvSpec::same(3)),
            (1, 4, 20, 19, ConvSpec::same(3)),
            (4, 1, 9, 13, ConvSpec::same(3)),
            (5, 20, 6, 6, ConvSpec::same(1)),
            (3, 4, 9, 9, ConvSpec::new(3, 2, 1)),
            (2, 3, 11, 10, ConvSpec::new(2, 3, 2)),
            (4, 17, 23, 19, ConvSpec::new(5, 1, 2)),
            (2, 9, 1, 1, ConvSpec::same(3)),
            (2, 9, 19, 17, ConvSpec::new(3, 1, 0)),
            (2, 6, 19, 17, ConvSpec::new(3, 1, 0)),
            (2, 9, 40, 30, ConvSpec::same(3)),
            (3, 5, 70, 66, ConvSpec::new(3, 2, 1)),
            (2, 3, 60, 50, ConvSpec::new(1, 1, 0)),
            (3, 24, 16, 16, ConvSpec::same(3)),
        ]
        .into_iter()
        .map(|(c, lanes, h, w, spec)| {
            let x = signed_zeros([c, h, w]);
            let pixels = spec.out_size(h) * spec.out_size(w);
            let g = signed_zeros([lanes, pixels, 1]).with_shape([lanes, pixels]);
            (c, lanes, h, w, spec, x, g)
        })
        .collect();
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        crate::ops::kernels::tests::each_tier(|isa| {
            for (c, lanes, h, w, spec, x, g) in &cases {
                let (c, lanes, spec) = (*c, *lanes, *spec);
                let want = matmul(g, &transpose(&im2col(x, spec)));
                let pixels = g.dim(1);
                let want_sums: Vec<f32> = (0..lanes)
                    .map(|l| g.as_slice()[l * pixels..][..pixels].iter().sum())
                    .collect();
                let k = spec.kernel;
                let mut got = vec![0.0f32; lanes * c * k * k];
                let mut sums = vec![f32::NAN; lanes];
                let shape = (c, *h, *w);
                weight_product(
                    &mut got,
                    x.as_slice(),
                    shape,
                    spec,
                    g.as_slice(),
                    lanes,
                    Some(&mut sums),
                );
                let what = format!("{isa:?} {c}x{h}x{w} -> {lanes} {spec:?}");
                assert_eq!(bits(&got), bits(want.as_slice()), "{what}");
                assert_eq!(bits(&sums), bits(&want_sums), "sums: {what}");
                let mut alone = vec![0.0f32; got.len()];
                weight_product(
                    &mut alone,
                    x.as_slice(),
                    shape,
                    spec,
                    g.as_slice(),
                    lanes,
                    None,
                );
                assert_eq!(bits(&alone), bits(&got), "without sums: {what}");
            }
        });
    }

    #[test]
    fn panels_take_the_cheapest_layout() {
        let layout = |n, c, k, width| -> Vec<(usize, usize, usize)> {
            panels(n, c, k, width)
                .iter()
                .map(|p| (p.cs, p.v, p.g))
                .collect()
        };
        // 16-lane vectors: strip pairs for many lanes, four taps of a
        // 3-tap row to a vector for four lanes of several channels (of
        // one, that ties with two taps to an 8-lane vector, which wins
        // as the narrower), one 8-lane strip for a few channels' eight
        // lanes, and 1×1 kernels on a pair and a strip.
        assert_eq!(layout(12, 8, 3, 16), [(12, 16, 1)]);
        assert_eq!(layout(16, 12, 3, 16), [(16, 16, 1)]);
        assert_eq!(layout(4, 4, 3, 16), [(4, 16, 4)]);
        assert_eq!(layout(4, 1, 3, 16), [(4, 8, 2)]);
        assert_eq!(layout(8, 1, 3, 16), [(8, 8, 1)]);
        assert_eq!(layout(5, 5, 1, 16), [(5, 8, 1)]);
        assert_eq!(layout(24, 16, 1, 16), [(8, 8, 1), (16, 16, 1)]);
        // 8-lane vectors: strips, and two taps to a vector for four
        // lanes.
        assert_eq!(layout(12, 8, 3, 8), [(8, 8, 1), (4, 8, 2)]);
        assert_eq!(layout(4, 1, 3, 8), [(4, 8, 2)]);
        // Every lane in exactly one panel, in order.
        for n in 0..40 {
            for (c, k, width) in [(1, 3, 16), (5, 1, 16), (8, 5, 8), (3, 2, 16)] {
                let plan = panels(n, c, k, width);
                let mut next = 0;
                for p in &plan {
                    assert_eq!(p.l0, next, "{n} lanes");
                    assert!(p.cs >= 1 && p.cs * p.g <= p.v && p.v <= width.max(NR));
                    next += p.cs;
                }
                assert_eq!(next, n);
            }
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
