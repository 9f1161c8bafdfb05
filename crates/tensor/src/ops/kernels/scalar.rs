//! Reference scalar kernels.
//!
//! These are the exact inner loops the pre-SIMD code ran (the GEMM tile
//! and `rhsd-litho`'s aerial pass); every SIMD variant must match them
//! bit-for-bit, and the microbench harness times them as the
//! scalar-vs-SIMD baseline.

use super::{run_strips, FoldTap, Src, NR};

/// The `MRR × NR` GEMM register tile: `kc` ascending-`p` steps of
/// `acc[r][j] += a_r · b[j]`, each step one mul and one add per lane.
pub fn gemm_micro<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &mut [usize; MRR],
    acs: usize,
    panel: &[f32],
) {
    let kc = panel.len() / NR;
    let mut poff = 0usize;
    for _ in 0..kc {
        let bp = &panel[poff..poff + NR];
        for r in 0..MRR {
            let aval = av[aidx[r]];
            aidx[r] += acs;
            for (a, &b) in acc[r].iter_mut().zip(bp) {
                *a += aval * b;
            }
        }
        poff += NR;
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
/// [`gemm_micro`].
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
