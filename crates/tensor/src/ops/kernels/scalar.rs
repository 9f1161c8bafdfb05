//! Reference scalar kernels.
//!
//! These are the exact inner loops the pre-SIMD code ran (extracted
//! verbatim from `ops::matmul` and `rhsd-litho`'s aerial pass); every
//! SIMD variant must match them bit-for-bit, and the microbench harness
//! times them as the scalar-vs-SIMD baseline.

use super::NR;

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

/// Plain slice copy (the packing-loop reference).
pub fn copy_f32(dst: &mut [f32], src: &[f32]) {
    dst.copy_from_slice(src);
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

/// `acc[r][l] += part[r][l]` for the lanes `l` whose bit is set in
/// `mask`; the other lanes keep their accumulator bits.
pub fn add_lanes(acc: &mut [[f32; NR]], part: &[[f32; NR]], mask: u8) {
    for (arow, prow) in acc.iter_mut().zip(part) {
        for (l, (a, &p)) in arow.iter_mut().zip(prow).enumerate() {
            if mask >> l & 1 == 1 {
                *a += p;
            }
        }
    }
}
