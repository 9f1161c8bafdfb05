//! Max pooling and Region-of-Interest (RoI) max pooling.
//!
//! Max pooling is 2×2 at stride 2 — the only pooling the networks use —
//! and runs one output row at a time over the two input rows it reads.
//! Its argmax is each winner's position in its window, so the backward
//! pass writes the input gradient window by window instead of
//! scattering into a zeroed map.
//!
//! RoI pooling (§3.3, Fig. 7 of the paper) transforms a variable-sized
//! feature-map window into a fixed `H×W` grid by max-pooling each cell
//! independently, preserving the whole feature information of a proposed
//! clip regardless of its size.

use super::kernels;
use crate::Tensor;

/// Result of a pooling forward pass: the pooled map plus, for every
/// output element, where its maximum came from (needed for the backward
/// pass). [`max_pool2d`] records the winner's position in its 2×2 window
/// (`u8`), [`roi_pool`] the winner's flat input offset (`u32`).
#[derive(Debug, Clone)]
pub struct PoolOutput<A> {
    /// Pooled feature map `[C, H', W']` (or the RoI batch
    /// `[C, H', W', N]`).
    pub output: Tensor,
    /// For every output element, the input that won.
    pub argmax: Vec<A>,
}

/// The pooled extent of `n`: `⌊n / 2⌋` windows, or one over the valid
/// extent of a map smaller than the window.
fn pooled_size(n: usize) -> usize {
    (n / 2).max(1)
}

/// Max-pools `input` (`[C, H, W]`) over 2×2 windows
/// at stride 2, one output row at a time, filling `argmax` (when given)
/// with each output element's winning window position: 0 and 1 along
/// the window's top row, 2 and 3 along its bottom row. The first
/// maximum of a window wins (strict `>` from `-inf`), so a window of
/// NaNs yields `-inf` (and position 0), and equal signed zeros keep the
/// first one's sign. A map one pixel high or wide pools its row or
/// column twice over, which changes nothing: a repeated value (window
/// position 2 and 3, or 1 and 3) never wins.
fn pool_with(input: &Tensor, mut argmax: Option<&mut Vec<u8>>) -> Tensor {
    assert_eq!(
        input.rank(),
        3,
        "max_pool2d expects [C,H,W], got {}",
        input.shape()
    );
    let (planes, h, w) = (input.dim(0), input.dim(1), input.dim(2));
    let (oh, ow) = (pooled_size(h), pooled_size(w));
    let iv = input.as_slice();
    let mut out = vec![f32::NEG_INFINITY; planes * oh * ow];
    if let Some(a) = argmax.as_deref_mut() {
        a.clear();
        a.resize(out.len(), 0);
    }
    // The window's second row and column, repeated when the map has one.
    let (dy, dx) = (if h > 1 { w } else { 0 }, usize::from(w > 1));
    let rows = if h * w == 0 { 0 } else { planes * oh };
    for (r, orow) in out.chunks_exact_mut(ow).take(rows).enumerate() {
        let top = ((r / oh) * h + 2 * (r % oh)) * w;
        let (t, b) = (&iv[top..][..w], &iv[top + dy..][..w]);
        // The window's values in position order.
        let window = |ox: usize| {
            let x = 2 * ox;
            [t[x], t[x + dx], b[x], b[x + dx]]
        };
        match argmax.as_deref_mut() {
            None => {
                for (ox, o) in orow.iter_mut().enumerate() {
                    *o = first_max(window(ox)).0;
                }
            }
            Some(a) => {
                for (ox, (o, a)) in orow.iter_mut().zip(&mut a[r * ow..][..ow]).enumerate() {
                    (*o, *a) = first_max(window(ox));
                }
            }
        }
    }
    Tensor::from_parts([planes, oh, ow], out)
}

/// A window's first maximum (strict `>` from `-inf`) and its position;
/// `-inf` at position 0 when no value beats `-inf` (an empty map, or a
/// window of NaNs).
fn first_max(window: [f32; 4]) -> (f32, u8) {
    let (mut m, mut at) = (f32::NEG_INFINITY, 0);
    for (p, v) in (0u8..).zip(window) {
        if v > m {
            (m, at) = (v, p);
        }
    }
    (m, at)
}

/// 2-D max pooling over `[C, H, W]` with
/// 2×2 windows at stride 2: `⌊H / 2⌋ × ⌊W / 2⌋` outputs, an odd last
/// row or column left out. A map one pixel high or wide pools once
/// over its valid extent. The argmax holds each output's winning
/// window position (see [`max_pool2d_backward`]).
///
/// # Panics
///
/// Panics if `input` is not rank 3.
pub fn max_pool2d(input: &Tensor) -> PoolOutput<u8> {
    let mut argmax = Vec::new();
    let output = pool_with(input, Some(&mut argmax));
    PoolOutput { output, argmax }
}

/// [`max_pool2d`]'s pooled map alone, for passes that never go back
/// through the pool: bit-identical values, no argmax.
///
/// # Panics
///
/// Panics if `input` is not rank 3.
pub fn max_pool2d_values(input: &Tensor) -> Tensor {
    pool_with(input, None)
}

/// Backward pass of [`max_pool2d`]: each output gradient goes to the
/// window position that won (`argmax`, 0–3 in the window's row-major
/// order). The input gradient is written window by window, in one pass:
/// the winner gets `0.0 + g` (so a `-0.0` gradient lands as `+0.0`,
/// and NaNs pass through), every other input `+0.0`, including an odd
/// last row or column that no window reads. Windows never overlap, so
/// this equals adding each gradient onto a zero map at its winner.
///
/// # Panics
///
/// Panics if `input_shape` is not rank 3, or if `grad_out` or
/// `argmax` does not hold one entry per pooled output.
pub fn max_pool2d_backward(input_shape: &[usize], argmax: &[u8], grad_out: &Tensor) -> Tensor {
    assert_eq!(
        input_shape.len(),
        3,
        "max_pool2d_backward expects [C,H,W], got {input_shape:?}"
    );
    let (planes, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
    let (oh, ow) = (pooled_size(h), pooled_size(w));
    let go = grad_out.as_slice();
    assert_eq!(
        (go.len(), argmax.len()),
        (planes * oh * ow, planes * oh * ow),
        "grad_out and argmax must hold one entry per pooled output"
    );
    if h * w == 0 {
        return Tensor::zeros(input_shape);
    }
    let mut gi = Vec::with_capacity(planes * h * w);
    // One row of windows at a time, written in full into `pair` (an odd
    // last column stays `+0.0`) and appended: its top row takes window
    // positions 0 and 1, its bottom row 2 and 3. A one-pixel-high map
    // appends the top row alone; on a one-pixel-wide map positions 1
    // and 3 repeat 0 and 2 and never win.
    let mut pair = vec![0.0f32; 2 * w];
    let window_rows = h.min(2) * w;
    let plane_out = oh * ow;
    for (g, a) in go
        .chunks_exact(plane_out)
        .zip(argmax.chunks_exact(plane_out))
    {
        for (g, a) in g.chunks_exact(ow).zip(a.chunks_exact(ow)) {
            for (first, row) in (0u8..).step_by(2).zip(pair.chunks_exact_mut(w)) {
                // The winner's offset from the row's first position: 0
                // or 1 if it lies in this row.
                let pick = |a: u8, g: f32, p: u8| {
                    if a.wrapping_sub(first) == p {
                        0.0 + g
                    } else {
                        0.0
                    }
                };
                if w == 1 {
                    row[0] = pick(a[0], g[0], 0);
                }
                for (o, (&a, &g)) in row.as_chunks_mut::<2>().0.iter_mut().zip(a.iter().zip(g)) {
                    *o = [pick(a, g, 0), pick(a, g, 1)];
                }
            }
            gi.extend_from_slice(&pair[..window_rows]);
        }
        if h > 1 && h % 2 == 1 {
            // The odd last row: no window reads it.
            gi.extend(std::iter::repeat_n(0.0, w));
        }
    }
    Tensor::from_parts(input_shape, gi)
}

/// A region of interest on a feature map, in feature-map pixel coordinates.
///
/// `x0/y0` are inclusive, `x1/y1` exclusive. Degenerate regions are clamped
/// to at least one pixel inside the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureRoi {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Top edge (inclusive).
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Bottom edge (exclusive).
    pub y1: usize,
}

impl FeatureRoi {
    /// Creates an RoI, normalising the corner order.
    pub fn new(x0: usize, y0: usize, x1: usize, y1: usize) -> Self {
        FeatureRoi {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    fn clamped(&self, h: usize, w: usize) -> FeatureRoi {
        let x0 = self.x0.min(w.saturating_sub(1));
        let y0 = self.y0.min(h.saturating_sub(1));
        FeatureRoi {
            x0,
            y0,
            x1: self.x1.clamp(x0 + 1, w),
            y1: self.y1.clamp(y0 + 1, h),
        }
    }
}

/// RoI max pooling of a batch of regions: pools the window of each of
/// `rois` from the `[C, H, W]` map into lane `r` of the
/// `[C, out_h, out_w, N]` output (the lane layout of a batch, one lane
/// per RoI, in RoI order); `argmax` holds, in the same layout, offsets
/// into the map.
///
/// Each output cell `(i, j)` pools the sub-window
/// `[⌊i·h/out_h⌋, ⌈(i+1)·h/out_h⌉) × [⌊j·w/out_w⌋, ⌈(j+1)·w/out_w⌉)` of the
/// RoI, so every input pixel of the RoI is covered and cells never escape it.
///
/// # Panics
///
/// Panics if `input` is not rank 3 or holds `2^31` values or more, or
/// if `out_h`/`out_w` is zero.
pub fn roi_pool(
    input: &Tensor,
    rois: &[FeatureRoi],
    out_h: usize,
    out_w: usize,
) -> PoolOutput<u32> {
    let mut argmax = vec![0; rois.len() * input.dim(0) * out_h * out_w];
    let output = roi_pool_with(input, rois, (out_h, out_w), Some(&mut argmax));
    PoolOutput { output, argmax }
}

/// [`roi_pool`]'s pooled batch alone, for passes that never go back
/// through the pool: bit-identical values, no argmax.
///
/// # Panics
///
/// Panics if `input` is not rank 3 or holds `2^31` values or more, or
/// if `out_h`/`out_w` is zero.
pub fn roi_pool_values(input: &Tensor, rois: &[FeatureRoi], out_h: usize, out_w: usize) -> Tensor {
    roi_pool_with(input, rois, (out_h, out_w), None)
}

/// RoI-pools `rois` from `input`, writing each output element's input
/// offset into `argmax` when there is one.
///
/// Every cell of every RoI scans a window of one size, `hm × wm`: the
/// largest bin height and width of the batch. A bin smaller than that
/// repeats its last row and column, which a first maximum never picks
/// (a repeated value is not `>` the best so far), so each cell's value
/// and winner are those of its own bin, scanned row by row. The
/// window pixels are listed once, lane by lane, and shared by every
/// channel; the scan ([`kernels::window_max`]) has no data-dependent
/// branch.
fn roi_pool_with(
    input: &Tensor,
    rois: &[FeatureRoi],
    (out_h, out_w): (usize, usize),
    argmax: Option<&mut [u32]>,
) -> Tensor {
    assert_eq!(
        input.rank(),
        3,
        "roi_pool expects [C,H,W], got {}",
        input.shape()
    );
    assert!(out_h > 0 && out_w > 0, "output size must be positive");
    let (c, h, w) = (input.dim(0), input.dim(1), input.dim(2));
    let n = rois.len();
    let cells = out_h * out_w * n;
    let mut out = vec![0.0f32; c * cells];
    // Per cell row `i` and column `j`, every RoI's bin.
    let (mut row_bins, mut col_bins) = (vec![(0, 0); out_h * n], vec![(0, 0); out_w * n]);
    for (r, roi) in rois.iter().enumerate() {
        let roi = roi.clamped(h, w);
        for i in 0..out_h {
            row_bins[i * n + r] = bin(roi.y0, roi.y1, i, out_h);
        }
        for j in 0..out_w {
            col_bins[j * n + r] = bin(roi.x0, roi.x1, j, out_w);
        }
    }
    let extent = |bins: &[(usize, usize)]| bins.iter().map(|(lo, hi)| hi - lo).max();
    let (Some(hm), Some(wm)) = (extent(&row_bins), extent(&col_bins)) else {
        return Tensor::from_parts([c, out_h, out_w, n], out);
    };
    // Per bin and window row (column), every lane's pixel row offset
    // (column), the last one repeated past the bin's end.
    let window = |bins: &[(usize, usize)], size: usize, scale: usize| -> Vec<usize> {
        let mut at = Vec::with_capacity(bins.len() * size);
        for cell in bins.chunks_exact(n) {
            for d in 0..size {
                at.extend(cell.iter().map(|&(lo, hi)| (lo + d).min(hi - 1) * scale));
            }
        }
        at
    };
    let (ys, xs) = (window(&row_bins, hm, w), window(&col_bins, wm, 1));
    // Cell `(i, j)`'s window pixels, tap by tap, lane by lane.
    let taps = hm * wm;
    let mut idx = Vec::with_capacity(cells * taps);
    for rows in ys.chunks_exact(hm * n) {
        for cols in xs.chunks_exact(wm * n) {
            for y in rows.chunks_exact(n) {
                for x in cols.chunks_exact(n) {
                    idx.extend(y.iter().zip(x).map(|(&y, &x)| (y + x) as u32));
                }
            }
        }
    }
    kernels::window_max(&mut out, argmax, input.as_slice(), h * w, &idx, (taps, n));
    Tensor::from_parts([c, out_h, out_w, n], out)
}

/// Cell `i` of `n` over the clamped RoI extent `[lo, hi)`:
/// `[lo + ⌊i·len/n⌋, lo + ⌈(i+1)·len/n⌉)` for `len = hi - lo ≥ 1`. Such
/// a cell is never empty (`⌈x + len/n⌉ > ⌊x⌋`) and ends at `hi` at the
/// latest (`i < n`).
fn bin(lo: usize, hi: usize, i: usize, n: usize) -> (usize, usize) {
    let len = hi - lo;
    (lo + i * len / n, lo + ((i + 1) * len).div_ceil(n))
}

/// Backward pass of [`roi_pool`] for one RoI: routes lane `r` of
/// `grad_out` (the batch's `[C, out_h, out_w, N]` gradient) to that
/// lane's map offsets in `argmax` (the batch's
/// [`PoolOutput::argmax`]), summing in output order, and returns the
/// `input_shape` map gradient.
///
/// # Panics
///
/// Panics if `grad_out` length differs from `argmax` length, or `r` is
/// not below `lanes`.
pub fn roi_pool_backward(
    input_shape: &[usize],
    argmax: &[u32],
    grad_out: &[f32],
    (r, lanes): (usize, usize),
) -> Tensor {
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "grad_out length {} != argmax length {}",
        grad_out.len(),
        argmax.len()
    );
    assert!(r < lanes, "lane {r} of {lanes}");
    let mut grad_in = Tensor::zeros(input_shape);
    let gi = grad_in.as_mut_slice();
    for (g, &off) in grad_out.iter().zip(argmax).skip(r).step_by(lanes) {
        gi[off as usize] += *g;
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn max_pool_2x2_known() {
        let x = Tensor::from_vec(
            [1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        )
        .unwrap();
        let p = max_pool2d(&x);
        assert_eq!(p.output.dims(), &[1, 2, 2]);
        assert_eq!(p.output.as_slice(), &[6., 8., 14., 16.]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec([1, 2, 2], vec![1., 5., 2., 3.]).unwrap();
        let p = max_pool2d(&x);
        assert_eq!(p.output.as_slice(), &[5.0]);
        let g = max_pool2d_backward(
            &[1, 2, 2],
            &p.argmax,
            &Tensor::from_vec([1, 1, 1], vec![7.0]).unwrap(),
        );
        assert_eq!(g.as_slice(), &[0., 7., 0., 0.]);
    }

    #[test]
    fn max_pool_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let x = Tensor::rand_normal([2, 4, 4], 0.0, 1.0, &mut rng);
        let p = max_pool2d(&x);
        let g_out = Tensor::ones(p.output.dims());
        let dx = max_pool2d_backward(x.dims(), &p.argmax, &g_out);
        let eps = 1e-3;
        for probe in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric =
                (max_pool2d(&plus).output.sum() - max_pool2d(&minus).output.sum()) / (2.0 * eps);
            let analytic = dx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "x[{probe}]: {numeric} vs {analytic}"
            );
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn values_only_pool_matches_the_argmax_pool_bit_for_bit() {
        // NaNs never win (strict `>`), an all-NaN window pools to -inf,
        // and equal signed zeros keep the first one's sign.
        let mut x = Tensor::from_fn([4, 5, 5], |c| {
            ((c[0] * 3 + c[1] * 5 + c[2]) % 9) as f32 - 4.0
        });
        for (i, v) in [f32::NAN, -0.0, 0.0, f32::NAN, f32::NAN, f32::NAN]
            .into_iter()
            .enumerate()
        {
            x.as_mut_slice()[i] = v;
        }
        x.as_mut_slice()[10] = -0.0;
        x.as_mut_slice()[11] = 0.0;
        let full = max_pool2d(&x);
        let values = max_pool2d_values(&x);
        assert_eq!(values.dims(), &[4, 2, 2]);
        assert_eq!(bits(&values), bits(&full.output));
        assert_eq!(full.argmax.len(), values.len());
    }

    /// The 2×2 window by its definition: rows `2·oy..2·oy + 2` and
    /// columns `2·ox..2·ox + 2` clipped to the map, scanned row by row
    /// with strict `>` from `-inf` and position 0; the position counts
    /// 0, 1 along the window's top row and 2, 3 along its bottom row.
    fn reference_pool(x: &Tensor) -> (Vec<f32>, Vec<u8>) {
        let rank = x.rank();
        let (h, w) = (x.dim(rank - 2), x.dim(rank - 1));
        let planes: usize = x.dims()[..rank - 2].iter().product();
        let (oh, ow) = (pooled_size(h), pooled_size(w));
        let (mut vals, mut wins) = (Vec::new(), Vec::new());
        for ci in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (mut best, mut at) = (f32::NEG_INFINITY, 0);
                    for y in 2 * oy..(2 * oy + 2).min(h) {
                        for xx in 2 * ox..(2 * ox + 2).min(w) {
                            let v = x.as_slice()[(ci * h + y) * w + xx];
                            if v > best {
                                best = v;
                                at = (2 * (y - 2 * oy) + xx - 2 * ox) as u8;
                            }
                        }
                    }
                    vals.push(best);
                    wins.push(at);
                }
            }
        }
        (vals, wins)
    }

    /// The scatter [`max_pool2d_backward`] replaced: a zero map, onto
    /// which each gradient is added at its window's winning input, in
    /// output order. On a one-pixel-high (or -wide) map the window's
    /// second row (column) is its first again.
    fn scatter_backward(dims: &[usize], argmax: &[u8], grad: &[f32]) -> Tensor {
        let rank = dims.len();
        let (h, w) = (dims[rank - 2], dims[rank - 1]);
        let (oh, ow) = (pooled_size(h), pooled_size(w));
        let (dy, dx) = (usize::from(h > 1), usize::from(w > 1));
        let mut gi = Tensor::zeros(dims);
        for (o, (&a, &g)) in argmax.iter().zip(grad).enumerate() {
            let (plane, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
            let y = 2 * oy + dy * usize::from(a / 2);
            let x = 2 * ox + dx * usize::from(a % 2);
            gi.as_mut_slice()[(plane * h + y) * w + x] += g;
        }
        gi
    }

    #[test]
    fn pool_backward_equals_the_scatter_onto_zeros() {
        // -0.0 and NaN gradients (the winner's `0.0 + g` must read as the
        // scatter's), odd sizes (an unread last row or column), one-pixel
        // maps and many channels; inputs with ties and NaN windows.
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let nan_payload = f32::from_bits(0x7fc0_0abc);
        let specials = [-0.0, 0.0, f32::NAN, -nan_payload, 1.5, -2.0];
        for dims in [
            vec![1, 4, 4],
            vec![2, 5, 7],
            vec![3, 1, 6],
            vec![2, 7, 1],
            vec![1, 1, 1],
            vec![2, 1, 5],
            vec![6, 3, 5],
            vec![6, 1, 9],
            vec![12, 33, 31],
        ] {
            let mut x = Tensor::rand_normal(dims.as_slice(), 0.0, 1.0, &mut rng);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                match i % 7 {
                    0 => *v = 0.0,
                    3 => *v = -0.0,
                    5 if i % 3 == 0 => *v = f32::NAN,
                    _ => {}
                }
            }
            let p = max_pool2d(&x);
            let mut g = Tensor::rand_normal(p.output.dims(), 0.0, 1.0, &mut rng);
            for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = specials[i / 2 % specials.len()];
                }
            }
            let direct = max_pool2d_backward(x.dims(), &p.argmax, &g);
            let scatter = scatter_backward(x.dims(), &p.argmax, g.as_slice());
            assert_eq!(direct.dims(), x.dims());
            assert_eq!(bits(&direct), bits(&scatter), "{dims:?}");
            // Every winner position is one the scan can pick.
            let (_, wins) = reference_pool(&x);
            assert_eq!(p.argmax, wins, "{dims:?}");
        }
        // An all -0.0 gradient lands as +0.0 on the winners too.
        let x = Tensor::from_vec([1, 2, 3], vec![1., 5., 9., 2., 3., 9.]).unwrap();
        let p = max_pool2d(&x);
        let g = max_pool2d_backward(x.dims(), &p.argmax, &Tensor::full([1, 1, 1], -0.0));
        assert!(g.as_slice().iter().all(|v| v.to_bits() == 0), "{g:?}");
    }

    #[test]
    fn pool_matches_the_window_definition() {
        // NaN windows (all NaN, and NaN before or after a number), ±0.0
        // ties in both orders, ±inf, odd sizes (the last row and column
        // left out), maps smaller than the window in either axis and
        // many channels, values and argmax alike.
        let specials = [f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY];
        for dims in [
            vec![1, 4, 4],
            vec![2, 5, 7],
            vec![3, 1, 6],
            vec![2, 7, 1],
            vec![1, 1, 1],
            vec![6, 3, 5],
            vec![6, 1, 9],
            vec![4, 6, 6],
            vec![12, 33, 31],
        ] {
            let mut x = Tensor::from_fn(dims.as_slice(), |c| {
                let i = c.iter().fold(0, |a, &v| a * 31 + v);
                (i * 7 % 11) as f32 - 5.0
            });
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                match i % 9 {
                    0..=2 if i % 4 == 0 => *v = specials[i / 4 % specials.len()],
                    5 => *v = -*v,
                    _ => {}
                }
            }
            // A whole window of NaNs, and a window tied at ±0.0.
            let (h, w) = (x.dim(x.rank() - 2), x.dim(x.rank() - 1));
            if h >= 2 && w >= 4 {
                let v = x.as_mut_slice();
                for off in [0, 1, w, w + 1] {
                    v[off] = f32::NAN;
                }
                for (off, z) in [(2, -0.0), (3, 0.0), (w + 2, 0.0), (w + 3, -0.0)] {
                    v[off] = z;
                }
            }
            let (vals, wins) = reference_pool(&x);
            let p = max_pool2d(&x);
            let v = max_pool2d_values(&x);
            let want: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits(&p.output), want, "{dims:?} values");
            assert_eq!(bits(&v), want, "{dims:?} values-only pass");
            assert_eq!(p.argmax, wins, "{dims:?} argmax");
            let r = x.rank();
            assert_eq!(
                p.output.dims()[r - 2..],
                [pooled_size(x.dim(r - 2)), pooled_size(x.dim(r - 1))]
            );
        }
        // An all-NaN window pools to -inf, routed to its first position.
        let x = Tensor::from_vec([1, 2, 2], vec![f32::NAN; 4]).unwrap();
        let p = max_pool2d(&x);
        assert_eq!(p.output.as_slice(), &[f32::NEG_INFINITY]);
        assert_eq!(p.argmax, vec![0]);
        // Equal signed zeros keep the first one's sign.
        let x = Tensor::from_vec([1, 2, 2], vec![-0.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(
            max_pool2d_values(&x).as_slice()[0].to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn roi_batch_stacks_single_roi_pools() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let x = Tensor::rand_normal([3, 9, 9], 0.0, 1.0, &mut rng);
        let rois = [
            FeatureRoi::new(0, 0, 9, 9),
            FeatureRoi::new(8, 8, 9, 9),
            FeatureRoi::new(2, 3, 40, 5),
        ];
        let batch = roi_pool(&x, &rois, 7, 7);
        assert_eq!(batch.output.dims(), &[3, 7, 7, 3]);
        for (i, roi) in rois.iter().enumerate() {
            let one = roi_pool(&x, std::slice::from_ref(roi), 7, 7);
            let lane = |v: &[f32]| v.iter().skip(i).step_by(3).copied().collect::<Vec<_>>();
            assert_eq!(lane(batch.output.as_slice()), one.output.as_slice());
            let offs: Vec<u32> = batch.argmax.iter().skip(i).step_by(3).copied().collect();
            assert_eq!(offs, one.argmax);
        }
        let values = roi_pool_values(&x, &rois, 7, 7);
        assert_eq!(values, batch.output);
        let empty = roi_pool(&x, &[], 7, 7);
        assert_eq!(empty.output.dims(), &[3, 7, 7, 0]);
    }

    /// RoI pooling cell by cell, by the documented definition: the RoI
    /// clamped to at least one pixel inside the map, cell `(i, j)` over
    /// `[⌊i·h/out_h⌋, ⌈(i+1)·h/out_h⌉) × [⌊j·w/out_w⌋, ⌈(j+1)·w/out_w⌉)`
    /// of it (at least one pixel), scanned row by row with strict `>`
    /// from `-inf` and the cell's first pixel; returned in the RoI-major
    /// order `[N, C, out_h, out_w]`.
    fn reference_roi_pool(
        x: &Tensor,
        rois: &[FeatureRoi],
        out_h: usize,
        out_w: usize,
    ) -> (Vec<f32>, Vec<u32>) {
        let (c, h, w) = (x.dim(0), x.dim(1), x.dim(2));
        let (mut vals, mut offs) = (Vec::new(), Vec::new());
        for roi in rois {
            let x0 = roi.x0.min(w - 1);
            let y0 = roi.y0.min(h - 1);
            let x1 = roi.x1.max(x0 + 1).min(w);
            let y1 = roi.y1.max(y0 + 1).min(h);
            let (rh, rw) = (y1 - y0, x1 - x0);
            for ci in 0..c {
                for i in 0..out_h {
                    for j in 0..out_w {
                        let ya = y0 + i * rh / out_h;
                        let yb =
                            (y0 + ((i + 1) * rh).div_ceil(out_h)).clamp(ya + 1, y1.max(ya + 1));
                        let xa = x0 + j * rw / out_w;
                        let xb =
                            (x0 + ((j + 1) * rw).div_ceil(out_w)).clamp(xa + 1, x1.max(xa + 1));
                        let (mut best, mut at) = (f32::NEG_INFINITY, (ci * h + ya) * w + xa);
                        for y in ya..yb {
                            for xx in xa..xb {
                                let off = (ci * h + y) * w + xx;
                                if x.as_slice()[off] > best {
                                    (best, at) = (x.as_slice()[off], off);
                                }
                            }
                        }
                        vals.push(best);
                        offs.push(at as u32);
                    }
                }
            }
        }
        (vals, offs)
    }

    #[test]
    fn roi_pool_matches_the_per_cell_definition() {
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let (c, h, w) = (4, 11, 9);
        let mut x = Tensor::rand_normal([c, h, w], 0.0, 1.0, &mut rng);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            match i % 11 {
                1 => *v = f32::NAN,
                4 => *v = 0.0,
                7 => *v = -0.0,
                _ => {}
            }
        }
        // An all-NaN block and an all-±0.0 block, so whole cells tie.
        for y in 2..5 {
            for xx in 1..4 {
                x.set(&[1, y, xx], f32::NAN);
                x.set(&[2, y, xx], if (y + xx) % 2 == 0 { 0.0 } else { -0.0 });
            }
        }
        let mut rois = vec![
            FeatureRoi::new(3, 0, 4, h),          // one pixel wide
            FeatureRoi::new(0, 6, w, 7),          // one pixel high
            FeatureRoi::new(0, 0, w, h),          // larger than 7×7
            FeatureRoi::new(2, 3, 5, 6),          // smaller than 7×7
            FeatureRoi::new(1, 2, 4, 5),          // the NaN / ±0.0 blocks
            FeatureRoi::new(0, 0, 1, 1),          // top-left corner
            FeatureRoi::new(w - 1, h - 1, w, h),  // bottom-right corner
            FeatureRoi::new(w + 4, 2, w + 9, 6),  // clamped at the right
            FeatureRoi::new(2, h + 2, 6, h + 30), // clamped at the bottom
            FeatureRoi::new(0, 0, 3 * w, 3 * h),  // clamped past both
        ];
        while rois.len() < 40 {
            let (x0, y0) = (rng.gen_range(0..w + 3), rng.gen_range(0..h + 3));
            let (rw, rh) = (rng.gen_range(0..=w), rng.gen_range(0..=h));
            rois.push(FeatureRoi::new(x0, y0, x0 + rw, y0 + rh));
        }
        let n = rois.len();
        for (out_h, out_w) in [(7, 7), (3, 5), (1, 1)] {
            let (vals, offs) = reference_roi_pool(&x, &rois, out_h, out_w);
            // The reference's `[N, C, out_h, out_w]`, in the lane layout.
            let per = c * out_h * out_w;
            let lanes = |k: usize| (k % n) * per + k / n;
            let want: Vec<u32> = (0..vals.len()).map(|k| vals[lanes(k)].to_bits()).collect();
            let offs: Vec<u32> = (0..offs.len()).map(|k| offs[lanes(k)]).collect();
            let p = roi_pool(&x, &rois, out_h, out_w);
            assert_eq!(p.output.dims(), &[c, out_h, out_w, n]);
            assert_eq!(bits(&p.output), want, "{out_h}×{out_w} values");
            assert_eq!(p.argmax, offs, "{out_h}×{out_w} argmax");
            let v = roi_pool_values(&x, &rois, out_h, out_w);
            assert_eq!(bits(&v), want, "{out_h}×{out_w} values-only pass");
        }
    }

    #[test]
    fn roi_pool_identity_when_roi_matches_output() {
        let x = Tensor::from_fn([1, 7, 7], |c| (c[1] * 7 + c[2]) as f32);
        let p = roi_pool(&x, &[FeatureRoi::new(0, 0, 7, 7)], 7, 7);
        assert_eq!(p.output.as_slice(), x.as_slice());
    }

    #[test]
    fn roi_pool_downsamples_window() {
        let x = Tensor::from_fn([1, 8, 8], |c| (c[1] * 8 + c[2]) as f32);
        // RoI covering the bottom-right 4×4, pooled to 2×2
        let p = roi_pool(&x, &[FeatureRoi::new(4, 4, 8, 8)], 2, 2);
        assert_eq!(p.output.dims(), &[1, 2, 2, 1]);
        // max of each 2×2 cell of the window
        assert_eq!(p.output.as_slice(), &[45., 47., 61., 63.]);
    }

    #[test]
    fn roi_pool_upsamples_small_window() {
        // 1×1 RoI expanded to 7×7: every cell sees the single pixel.
        let mut x = Tensor::zeros([1, 5, 5]);
        x.set(&[0, 2, 3], 9.0);
        let p = roi_pool(&x, &[FeatureRoi::new(3, 2, 4, 3)], 7, 7);
        assert_eq!(p.output.as_slice(), &[9.0; 49]);
    }

    #[test]
    fn roi_pool_covers_every_pixel() {
        // With out smaller than roi, each roi pixel belongs to ≥1 cell:
        // pooled max over all cells == max over the roi.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..20 {
            let x = Tensor::rand_normal([1, 9, 9], 0.0, 1.0, &mut rng);
            let roi = FeatureRoi::new(1, 2, 8, 9);
            let p = roi_pool(&x, &[roi], 3, 3);
            let mut roi_max = f32::NEG_INFINITY;
            for y in roi.y0..roi.y1 {
                for xx in roi.x0..roi.x1 {
                    roi_max = roi_max.max(x.get(&[0, y, xx]));
                }
            }
            assert!((p.output.max() - roi_max).abs() < 1e-6);
        }
    }

    #[test]
    fn roi_pool_clamps_out_of_bounds() {
        let x = Tensor::ones([1, 4, 4]);
        let p = roi_pool(&x, &[FeatureRoi::new(3, 3, 99, 99)], 2, 2);
        assert_eq!(p.output.as_slice(), &[1.0; 4]);
    }

    #[test]
    fn roi_pool_gradcheck() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let x = Tensor::rand_normal([2, 6, 6], 0.0, 1.0, &mut rng);
        let roi = FeatureRoi::new(1, 1, 5, 6);
        let p = roi_pool(&x, &[roi], 3, 3);
        let dx = roi_pool_backward(x.dims(), &p.argmax, &vec![1.0; p.argmax.len()], (0, 1));
        let eps = 1e-3;
        for probe in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric = (roi_pool(&plus, &[roi], 3, 3).output.sum()
                - roi_pool(&minus, &[roi], 3, 3).output.sum())
                / (2.0 * eps);
            assert!((numeric - dx.as_slice()[probe]).abs() < 1e-2, "x[{probe}]");
        }
    }
}
