//! Reference scalar kernels.
//!
//! These are the exact inner loops the pre-SIMD code ran (the GEMM tile
//! and `rhsd-litho`'s aerial pass); every SIMD variant must match them
//! bit-for-bit, and the microbench harness times them as the
//! scalar-vs-SIMD baseline.

use super::{FoldSrc, FoldTap, NR};

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

/// The register tile of the in-place convolutions: `offs.len()`
/// ascending steps of `acc[r][j] += a_r · b_r[j]`, where step `t` of row
/// `r` reads `A` at `aidx[r] + t · acs` and its `B` row at
/// `src[bidx[r] + offs[t]..][..NR]`. One mul and one add per lane per
/// step, like [`gemm_micro`].
pub fn conv_micro<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: &[f32],
    bidx: &[usize; MRR],
    offs: &[usize],
) {
    for (t, &o) in offs.iter().enumerate() {
        for r in 0..MRR {
            let aval = av[aidx[r] + t * acs];
            let b = &src[bidx[r] + o..bidx[r] + o + NR];
            for (a, &bv) in acc[r].iter_mut().zip(b) {
                *a += aval * bv;
            }
        }
    }
}

/// The fold tile: for each tap in order, row `r` runs a fresh `+0.0`
/// chain of `part[j] += a · b[j]` over the source channels, where
/// source channel `s` reads `A` at `aidx[r] + tap.a + s · acs` and its
/// `B` row at `src.v[tap.base + bidx[r] + src.offs[s]..][..NR]`, then
/// adds `part` into `acc[r]` in the lanes of the tap's mask. The other
/// lanes keep their accumulator bits.
pub fn fold_micro<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: FoldSrc,
    bidx: &[usize; MRR],
    taps: &[FoldTap],
) {
    for tap in taps {
        for r in 0..MRR {
            let mut part = [0.0f32; NR];
            for (s, &o) in src.offs.iter().enumerate() {
                let aval = av[aidx[r] + tap.a + s * acs];
                let b = &src.v[tap.base + bidx[r] + o..][..NR];
                for (p, &bv) in part.iter_mut().zip(b) {
                    *p += aval * bv;
                }
            }
            for (l, (a, p)) in acc[r].iter_mut().zip(part).enumerate() {
                if tap.mask >> l & 1 == 1 {
                    *a += p;
                }
            }
        }
    }
}

/// The training `LeakyRelu` forward: `dst[i] = src[i]` where
/// `src[i] > 0`, else `alpha · src[i]`; bit `i % 64` of `bits[i / 64]`
/// is set where `src[i] > 0` (never for a NaN). Every word is
/// overwritten.
pub fn leaky_relu_pack(dst: &mut [f32], src: &[f32], alpha: f32, bits: &mut [u64]) {
    for ((d, s), word) in dst.chunks_mut(64).zip(src.chunks(64)).zip(bits) {
        *word = 0;
        for (j, (d, &x)) in d.iter_mut().zip(s).enumerate() {
            let pos = x > 0.0;
            *d = if pos { x } else { alpha * x };
            *word |= u64::from(pos) << j;
        }
    }
}

/// The `LeakyRelu` backward through a [`leaky_relu_pack`] mask:
/// `dst[i] = grad[i]` where bit `i` is set, else `alpha · grad[i]`.
pub fn leaky_relu_unpack(dst: &mut [f32], grad: &[f32], alpha: f32, bits: &[u64]) {
    for ((d, g), &word) in dst.chunks_mut(64).zip(grad.chunks(64)).zip(bits) {
        for (j, (d, &g)) in d.iter_mut().zip(g).enumerate() {
            *d = if word >> j & 1 == 1 { g } else { alpha * g };
        }
    }
}
