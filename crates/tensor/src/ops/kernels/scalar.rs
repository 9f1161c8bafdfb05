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
