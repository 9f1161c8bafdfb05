//! x86-64 AVX2 kernels.
//!
//! Every function here is `unsafe` only because of its
//! `#[target_feature]` requirement; slice accesses are bounds-checked
//! or covered by the length contracts the dispatcher in [`super`]
//! asserts. Per-lane float arithmetic mirrors the scalar reference
//! exactly — one mul rounding and one add rounding per accumulation
//! step, and a single IEEE division where the reference divides — so
//! every kernel is bit-identical to [`super::scalar`].

use core::arch::x86_64::*;

use super::{scalar, FoldSrc, FoldTap, NR};

/// AVX2 GEMM register tile: `MRR` rows of eight accumulator lanes, one
/// broadcast-mul-add per row per `k` step (two roundings per lane,
/// matching the scalar chain bit-for-bit).
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2.
/// All `A`/panel reads are bounds-checked slices; the unchecked 8-lane
/// loads/stores only target `[f32; NR]` rows and `NR`-sized panel
/// chunks, which are in range by construction.
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_micro_avx2<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &mut [usize; MRR],
    acs: usize,
    panel: &[f32],
) {
    let steps = bound_a_reads::<MRR>(av, aidx, acs, panel);
    let mut accv: [__m256; MRR] = core::array::from_fn(|r| _mm256_loadu_ps(acc[r].as_ptr()));
    let mut off = 0usize;
    for bp in panel.chunks_exact(NR) {
        let b = _mm256_loadu_ps(bp.as_ptr());
        for r in 0..MRR {
            // SAFETY: bound_a_reads proved every aidx[r] + off in range.
            let a = _mm256_set1_ps(*av.get_unchecked(aidx[r] + off));
            accv[r] = _mm256_add_ps(accv[r], _mm256_mul_ps(a, b));
        }
        off += acs;
    }
    for r in 0..MRR {
        aidx[r] += steps * acs;
        _mm256_storeu_ps(acc[r].as_mut_ptr(), accv[r]);
    }
}

/// Proves every `A` read of a `steps`-deep tile pass is in bounds, so
/// the hot loops can broadcast with `get_unchecked`, and keeps the
/// per-step `aidx` read-modify-write (eight bounds checks and eight
/// memory updates per `k` step in the 8-row tile) out of the inner
/// loop. Returns the step count.
///
/// # Panics
///
/// Panics if any row's last `A` index would fall outside `av` — the
/// same panic the safe indexing in the scalar reference raises.
#[inline]
fn bound_a_reads<const MRR: usize>(
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    panel: &[f32],
) -> usize {
    let steps = panel.len() / NR;
    if steps > 0 {
        let last = (steps - 1) * acs;
        for &i in aidx.iter() {
            assert!(i + last < av.len(), "gemm_micro: A index out of range");
        }
    }
    steps
}

/// AVX2 separable-convolution interior: eight output pixels per
/// iteration; each lane runs the serial ascending-tap mul-add chain and
/// one final division — bit-identical to the scalar reference.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that `src.len() >= (taps.len() - 1) * stride + dst.len()` (the
/// dispatcher asserts it); with `i + 8 <= dst.len()` every
/// `t * stride + i` load of eight lanes is then in range.
#[target_feature(enable = "avx2")]
pub unsafe fn conv_taps_avx2(dst: &mut [f32], src: &[f32], stride: usize, taps: &[f32], norm: f32) {
    let normv = _mm256_set1_ps(norm);
    let n = dst.len();
    let mut i = 0usize;
    while i + 8 <= n {
        let mut acc = _mm256_setzero_ps();
        for (t, &tw) in taps.iter().enumerate() {
            let s = _mm256_loadu_ps(src.as_ptr().add(t * stride + i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(tw), s));
        }
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_div_ps(acc, normv));
        i += 8;
    }
    scalar::conv_taps(&mut dst[i..], &src[i..], stride, taps, norm);
}

/// Proves every `A` and `B` read of a [`conv_micro_avx2`] pass is in
/// bounds, so the loops can use unchecked loads.
///
/// # Panics
///
/// Panics if a row's last `A` index or the end of one of its `B` rows
/// would fall outside `av` / `src` — where the scalar reference's safe
/// indexing panics too.
#[inline]
fn bound_conv_reads<const MRR: usize>(
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: &[f32],
    bidx: &[usize; MRR],
    offs: &[usize],
) {
    let Some(&omax) = offs.iter().max() else {
        return;
    };
    let last = (offs.len() - 1) * acs;
    for r in 0..MRR {
        assert!(
            aidx[r] + last < av.len(),
            "conv_micro: A index out of range"
        );
        assert!(
            bidx[r] + omax + NR <= src.len(),
            "conv_micro: B row out of range"
        );
    }
}

/// AVX2 in-place convolution tile: the [`gemm_micro_avx2`] step with
/// each `B` row loaded from `src` at its own offset. When every row
/// shares one `B` base (a tile of output channels) the row is loaded
/// once per step; otherwise (a tile of strips) once per row.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2.
/// `bound_conv_reads` proves every unchecked load in range.
#[target_feature(enable = "avx2")]
pub unsafe fn conv_micro_avx2<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: &[f32],
    bidx: &[usize; MRR],
    offs: &[usize],
) {
    bound_conv_reads(av, aidx, acs, src, bidx, offs);
    let mut accv: [__m256; MRR] = core::array::from_fn(|r| _mm256_loadu_ps(acc[r].as_ptr()));
    if bidx.iter().all(|&b| b == bidx[0]) {
        let bp = src.as_ptr().add(bidx[0]);
        for (t, &o) in offs.iter().enumerate() {
            let b = _mm256_loadu_ps(bp.add(o));
            for r in 0..MRR {
                let a = _mm256_set1_ps(*av.get_unchecked(aidx[r] + t * acs));
                accv[r] = _mm256_add_ps(accv[r], _mm256_mul_ps(a, b));
            }
        }
    } else {
        for (t, &o) in offs.iter().enumerate() {
            for r in 0..MRR {
                let b = _mm256_loadu_ps(src.as_ptr().add(bidx[r] + o));
                let a = _mm256_set1_ps(*av.get_unchecked(aidx[r] + t * acs));
                accv[r] = _mm256_add_ps(accv[r], _mm256_mul_ps(a, b));
            }
        }
    }
    for r in 0..MRR {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), accv[r]);
    }
}

/// The AVX2 lanes whose bit is set in `mask` (bit `l` is lane `l`), as
/// an all-ones lane select.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2; no
/// memory is touched.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lanes_avx2(mask: u8) -> __m256 {
    let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let set = _mm256_and_si256(_mm256_set1_epi32(i32::from(mask)), bits);
    _mm256_castsi256_ps(_mm256_cmpeq_epi32(set, bits))
}

/// Proves every `A` and `B` read of a [`fold_micro_avx2`] pass is in
/// bounds, so the loops can use unchecked loads.
///
/// # Panics
///
/// Panics if a row's last `A` index or the end of one of its `B` rows
/// would fall outside `av` / the source — where the scalar reference's
/// safe indexing panics too.
#[inline]
fn bound_fold_reads<const MRR: usize>(
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: FoldSrc,
    bidx: &[usize; MRR],
    taps: &[FoldTap],
) {
    let amax = aidx.iter().max().copied().unwrap_or(0);
    let bmax = bidx.iter().max().copied().unwrap_or(0);
    let Some(steps) = src.offs.len().checked_sub(1) else {
        return;
    };
    for tap in taps {
        assert!(
            amax + tap.a + steps * acs < av.len(),
            "fold_micro: A index out of range"
        );
        assert!(
            tap.base + bmax + src.span <= src.v.len(),
            "fold_micro: B row out of range"
        );
    }
}

/// AVX2 fold tile: the accumulator rows stay in registers across every
/// tap; each tap's partial is a fresh [`conv_micro_avx2`] chain, added
/// with one add and a blend that keeps the accumulator in lanes whose
/// mask bit is clear.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2.
/// `bound_fold_reads` proves every unchecked load in range.
#[target_feature(enable = "avx2")]
pub unsafe fn fold_micro_avx2<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: FoldSrc,
    bidx: &[usize; MRR],
    taps: &[FoldTap],
) {
    bound_fold_reads(av, aidx, acs, src, bidx, taps);
    let mut accv: [__m256; MRR] = core::array::from_fn(|r| _mm256_loadu_ps(acc[r].as_ptr()));
    let shared = bidx.iter().all(|&b| b == bidx[0]);
    for tap in taps {
        let ap = av.as_ptr().add(tap.a);
        let mut part = [_mm256_setzero_ps(); MRR];
        if shared {
            let bp = src.v.as_ptr().add(tap.base + bidx[0]);
            for (s, &o) in src.offs.iter().enumerate() {
                let b = _mm256_loadu_ps(bp.add(o));
                for r in 0..MRR {
                    let a = _mm256_set1_ps(*ap.add(aidx[r] + s * acs));
                    part[r] = _mm256_add_ps(part[r], _mm256_mul_ps(a, b));
                }
            }
        } else {
            let bp = src.v.as_ptr().add(tap.base);
            for (s, &o) in src.offs.iter().enumerate() {
                for r in 0..MRR {
                    let b = _mm256_loadu_ps(bp.add(bidx[r] + o));
                    let a = _mm256_set1_ps(*ap.add(aidx[r] + s * acs));
                    part[r] = _mm256_add_ps(part[r], _mm256_mul_ps(a, b));
                }
            }
        }
        let keep = lanes_avx2(tap.mask);
        for r in 0..MRR {
            let sum = _mm256_add_ps(accv[r], part[r]);
            accv[r] = _mm256_blendv_ps(accv[r], sum, keep);
        }
    }
    for r in 0..MRR {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), accv[r]);
    }
}

/// AVX2 [`scalar::leaky_relu_pack`]: eight lanes at a time, an ordered
/// `> 0` compare (false for NaN), a blend of `x` and `alpha · x`, and the
/// compare's sign bits moved into the mask word. The last partial word
/// runs the scalar reference.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that `dst.len() == src.len()` and `bits.len() == src.len().div_ceil(64)`
/// (the dispatcher asserts both); the vector loop covers whole words
/// only.
#[target_feature(enable = "avx2")]
pub unsafe fn leaky_relu_pack_avx2(dst: &mut [f32], src: &[f32], alpha: f32, bits: &mut [u64]) {
    let a = _mm256_set1_ps(alpha);
    let zero = _mm256_setzero_ps();
    let words = src.len() / 64;
    for (w, word) in bits[..words].iter_mut().enumerate() {
        let mut m = 0u64;
        for g in 0..8 {
            let i = w * 64 + g * 8;
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
            let y = _mm256_blendv_ps(_mm256_mul_ps(a, x), x, pos);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), y);
            m |= (_mm256_movemask_ps(pos) as u64) << (g * 8);
        }
        *word = m;
    }
    let i = words * 64;
    scalar::leaky_relu_pack(&mut dst[i..], &src[i..], alpha, &mut bits[words..]);
}

/// AVX2 [`scalar::leaky_relu_unpack`]: each mask byte widened to an
/// eight-lane select, then a blend of `g` and `alpha · g`. The last
/// partial word runs the scalar reference.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that `dst.len() == grad.len()` and `bits.len() == grad.len().div_ceil(64)`
/// (the dispatcher asserts both); the vector loop covers whole words
/// only.
#[target_feature(enable = "avx2")]
pub unsafe fn leaky_relu_unpack_avx2(dst: &mut [f32], grad: &[f32], alpha: f32, bits: &[u64]) {
    let a = _mm256_set1_ps(alpha);
    let words = grad.len() / 64;
    for (w, &word) in bits[..words].iter().enumerate() {
        for g in 0..8 {
            let i = w * 64 + g * 8;
            let x = _mm256_loadu_ps(grad.as_ptr().add(i));
            let keep = lanes_avx2((word >> (g * 8)) as u8);
            let y = _mm256_blendv_ps(_mm256_mul_ps(a, x), x, keep);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), y);
        }
    }
    let i = words * 64;
    scalar::leaky_relu_unpack(&mut dst[i..], &grad[i..], alpha, &bits[words..]);
}
