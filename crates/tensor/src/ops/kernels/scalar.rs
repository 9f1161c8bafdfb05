//! Reference scalar kernels.
//!
//! These are the exact inner loops the pre-SIMD code ran (the chains of
//! the convolutions and their gradients, and `rhsd-litho`'s aerial
//! pass); every SIMD variant must match them bit-for-bit, and the
//! microbench harness times them as the scalar-vs-SIMD baseline.

use std::ops::Range;

use super::{run_strips, FoldTap, Src, Walk, NR};

/// The weight-gradient tile (see [`super::weight_tile`]): lane `l` of
/// row `r` (`acc[r · v + l]`) runs `acc += a · b` over the panel's
/// steps, `a` the value `l % g` past the row's `A` index at the step
/// and `b` lane `l` of the step's `v`-value panel row; one mul and one
/// add per lane per step. The steps go in order, each over every row,
/// and a single-tap row broadcasts its one value, so the compiler can
/// keep the lanes in vector registers.
pub fn weight_tile<const MRR: usize>(
    acc: &mut [f32],
    (av, aidx): (&[f32], &[usize; MRR]),
    walk: Walk,
    panel: &[f32],
    (v, g): (usize, usize),
) {
    for (s, b) in panel.chunks_exact(v).enumerate() {
        let at = walk.at(s);
        for (acc, &ai) in acc.chunks_exact_mut(v).zip(aidx) {
            let a = &av[ai + at..][..g];
            if let [a] = a {
                for (acc, &b) in acc.iter_mut().zip(b) {
                    *acc += a * b;
                }
                continue;
            }
            for (acc, b) in acc.chunks_exact_mut(g).zip(b.chunks_exact(g)) {
                for ((acc, &b), &a) in acc.iter_mut().zip(b).zip(a) {
                    *acc += a * b;
                }
            }
        }
    }
}

/// Packs pixels `px` of the `rows` (`rows.len() / pixels` rows of
/// `pixels` values) as `v` values per pixel, lane `l` holding row
/// `l / g` (`0.0` past the last row); `sums`, when given, adds each
/// packed value to its lane's chain in pixel order.
pub fn pack_panel(
    panel: &mut [f32],
    rows: &[f32],
    pixels: usize,
    px: Range<usize>,
    (v, g): (usize, usize),
    mut sums: Option<&mut [f32]>,
) {
    let cs = rows.len() / pixels.max(1);
    for (p, d) in px.zip(panel.chunks_exact_mut(v)) {
        for (ch, d) in d.chunks_exact_mut(g).enumerate() {
            d.fill(match ch < cs {
                true => rows[ch * pixels + p],
                false => 0.0,
            });
        }
        if let Some(sums) = sums.as_deref_mut() {
            for (s, &d) in sums.iter_mut().zip(&*d) {
                *s += d;
            }
        }
    }
}

/// The lane-batch product (see [`super::lane_product`]): lane `l` of
/// row `r` (`out[r · ostride + l]`) is the chain from `+0.0` of
/// `acc += x · y` over `steps` steps, step `s` reading `x` at
/// `xo[r] + walk.at(s) + l` and `y` at `yo + s · ystep + l`.
pub fn lane_product<const MRR: usize>(
    (out, ostride): (&mut [f32], usize),
    (xv, xo): (&[f32], &[usize; MRR]),
    (yv, yo): (&[f32], usize),
    (walk, ystep, steps): (Walk, usize, usize),
    v: usize,
) {
    for (r, &xr) in xo.iter().enumerate() {
        let out = &mut out[r * ostride..][..v];
        out.fill(0.0);
        for s in 0..steps {
            let x = &xv[xr + walk.at(s)..][..v];
            let y = &yv[yo + s * ystep..][..v];
            for ((a, &x), &y) in out.iter_mut().zip(x).zip(y) {
                *a += x * y;
            }
        }
    }
}

/// Separable-convolution interior: per output pixel, the serial
/// ascending-tap accumulation and one final division — the same chain
/// the bounds-checked border path runs when every tap lands in bounds.
pub fn conv_taps(dst: &mut [f32], src: &[f32], stride: usize, taps: &[f32], norm: f32) {
    for (i, o) in dst.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (t, &tw) in taps.iter().enumerate() {
            acc += tw * src[t * stride + i];
        }
        *o = acc / norm;
    }
}

/// The window maxima of RoI pooling (see [`super::window_max`]): each
/// output's taps scanned in order, the first maximum kept.
pub fn window_max(
    dst: &mut [f32],
    mut at: Option<&mut [u32]>,
    src: &[f32],
    plane: usize,
    idx: &[u32],
    (taps, lanes): (usize, usize),
) {
    let m = idx.len() / taps;
    for (ci, d) in dst.chunks_exact_mut(m).enumerate() {
        let s = &src[ci * plane..][..plane];
        for (o, d) in d.iter_mut().enumerate() {
            let (best, i) = window_first_max(s, idx, (taps, lanes), o);
            *d = best;
            if let Some(at) = at.as_deref_mut() {
                at[ci * m + o] = (ci * plane) as u32 + i;
            }
        }
    }
}

/// The first maximum of output `o`'s taps in the plane `s`, and its
/// index (tap 0's when no value beats `-inf`).
pub(super) fn window_first_max(
    s: &[f32],
    idx: &[u32],
    (taps, lanes): (usize, usize),
    o: usize,
) -> (f32, u32) {
    let first = (o / lanes * taps) * lanes + o % lanes;
    let (mut best, mut at) = (f32::NEG_INFINITY, idx[first]);
    for &i in idx[first..].iter().step_by(lanes).take(taps) {
        let v = s[i as usize];
        if v > best {
            (best, at) = (v, i);
        }
    }
    (best, at)
}

/// Stores a finished strip into `dst` (at most `NR` values), adding
/// `bias` when there is one.
fn store(dst: &mut [f32], acc: &[f32; NR], bias: Option<f32>) {
    match bias {
        Some(b) => {
            for (d, &a) in dst.iter_mut().zip(acc) {
                *d = a + b;
            }
        }
        None => dst.copy_from_slice(&acc[..dst.len()]),
    }
}

/// The run kernel of the in-place convolutions: strip `j` of row `r`
/// is `out[r][j · NR..]`, each lane one chain from `init` of
/// `acc += a · b`, where step `s` reads `A` at `aidx[r] + s · acs` and
/// its `B` row at `src.v[base + j · NR + src.offs[s]..][..NR]`; then
/// `bias[r]` is added, when there is a bias, and the lanes inside the
/// row are stored. One mul and one add per lane per step, like
/// [`weight_tile`].
pub fn conv_micro<const MRR: usize>(
    out: [&mut [f32]; MRR],
    (av, aidx, acs): (&[f32], &[usize; MRR], usize),
    src: Src,
    base: usize,
    init: f32,
    bias: Option<[f32; MRR]>,
) {
    run_strips(&out);
    for (r, row) in out.into_iter().enumerate() {
        for (j, dst) in row.chunks_mut(NR).enumerate() {
            let mut acc = [init; NR];
            for (s, &o) in src.offs.iter().enumerate() {
                let aval = av[aidx[r] + s * acs];
                let b = &src.v[base + j * NR + o..][..NR];
                for (a, &bv) in acc.iter_mut().zip(b) {
                    *a += aval * bv;
                }
            }
            store(dst, &acc, bias.map(|b| b[r]));
        }
    }
}

/// The fold's run kernel: strip `j` of row `r` is `out[r][j · NR..]`,
/// each lane from `+0.0`. For each tap in order, row `r` runs a fresh
/// `+0.0` chain of `part[l] += a · b[l]` over the source channels,
/// where source channel `s` reads `A` at `aidx[r] + tap.a + s · acs`
/// and its `B` row at `src.v[tap.base + j · NR + src.offs[s]..][..NR]`,
/// then adds `part` to the lanes of the tap's mask; the other lanes
/// keep their bits. Then `bias[r]` is added, when there is a bias, and
/// the lanes inside the row are stored.
pub fn fold_micro<const MRR: usize>(
    out: [&mut [f32]; MRR],
    (av, aidx, acs): (&[f32], &[usize; MRR], usize),
    src: Src,
    taps: &[FoldTap],
    bias: Option<[f32; MRR]>,
) {
    run_strips(&out);
    for (r, row) in out.into_iter().enumerate() {
        for (j, dst) in row.chunks_mut(NR).enumerate() {
            let mut acc = [0.0f32; NR];
            for tap in taps {
                let mut part = [0.0f32; NR];
                for (s, &o) in src.offs.iter().enumerate() {
                    let aval = av[aidx[r] + tap.a + s * acs];
                    let b = &src.v[tap.base + j * NR + o..][..NR];
                    for (p, &bv) in part.iter_mut().zip(b) {
                        *p += aval * bv;
                    }
                }
                for (l, (a, p)) in acc.iter_mut().zip(part).enumerate() {
                    if tap.mask >> l & 1 == 1 {
                        *a += p;
                    }
                }
            }
            store(dst, &acc, bias.map(|b| b[r]));
        }
    }
}

/// The `LeakyRelu` forward in place: `x[i]` stays where `x[i] > 0`,
/// else becomes `alpha · x[i]`; bit `i % 64` of `bits[i / 64]` is set
/// where `x[i] > 0` (never for a NaN). Every word is overwritten.
pub fn leaky_relu_pack(x: &mut [f32], alpha: f32, bits: &mut [u64]) {
    for (x, word) in x.chunks_mut(64).zip(bits) {
        *word = 0;
        for (j, x) in x.iter_mut().enumerate() {
            let v = *x;
            let pos = v > 0.0;
            *x = if pos { v } else { alpha * v };
            *word |= u64::from(pos) << j;
        }
    }
}

/// The `LeakyRelu` backward in place through a [`leaky_relu_pack`]
/// mask: `g[i]` stays where bit `i` is set, else becomes `alpha · g[i]`.
pub fn leaky_relu_unpack(g: &mut [f32], alpha: f32, bits: &[u64]) {
    for (g, &word) in g.chunks_mut(64).zip(bits) {
        for (j, g) in g.iter_mut().enumerate() {
            let v = *g;
            *g = if word >> j & 1 == 1 { v } else { alpha * v };
        }
    }
}
