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

use super::{run_strips, scalar, FoldTap, Src, NR};

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

/// Proves every `A` and `B` read of a [`conv_micro_avx2`] run in
/// bounds, so the loops can use unchecked loads, from the span `src`
/// carries: no step is scanned. Returns the run's strip count.
///
/// # Panics
///
/// Panics if the rows' strip counts differ, or a row's last `A` index
/// or the end of its last strip's `B` rows would fall outside `av` /
/// `src` — where the scalar reference panics too.
#[inline]
fn bound_conv_reads<const MRR: usize>(
    out: &[&mut [f32]; MRR],
    (av, aidx, acs): (&[f32], &[usize; MRR], usize),
    src: Src,
    bidx: &[usize; MRR],
) -> usize {
    let strips = run_strips(out);
    let Some(steps) = src.offs.len().checked_sub(1) else {
        return strips;
    };
    if strips == 0 {
        return 0;
    }
    let last = (strips - 1) * NR + src.span;
    for r in 0..MRR {
        assert!(
            aidx[r] + steps * acs < av.len(),
            "conv_micro: A index out of range"
        );
        assert!(
            bidx[r] + last <= src.v.len(),
            "conv_micro: B row out of range"
        );
    }
    strips
}

/// Lanes `0..n` as a `maskstore` select: the lanes of a run's last
/// strip that lie inside its row.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2; no
/// memory is touched.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn first_lanes_avx2(n: usize) -> __m256i {
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    // `n < NR`, so the cast is exact.
    _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane)
}

/// Stores `v` at `row[x..]`, plus `bias` when there is one. A whole
/// strip is one store; the last strip of a row that does not fill it
/// is a masked store of its lanes inside the row, which leaves every
/// value past the row's end untouched.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that the strip starts inside the row (`x < row.len()`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_strip(row: &mut [f32], x: usize, v: __m256, bias: Option<__m256>) {
    let v = match bias {
        Some(b) => _mm256_add_ps(v, b),
        None => v,
    };
    let p = row.as_mut_ptr().add(x);
    let inside = row.len() - x;
    if inside >= NR {
        _mm256_storeu_ps(p, v);
    } else {
        _mm256_maskstore_ps(p, first_lanes_avx2(inside), v);
    }
}

/// Run heights up to which a shared-base run computes two adjacent
/// strips per pass: twice the independent add chains per broadcast
/// `A` value, which short runs (a 4-channel block's 4 chains) need to
/// keep both FP ports busy. Each lane's chain is unchanged.
const PAIR_ROWS: usize = 6;

/// The chains of `SP` adjacent strips of every run row from `init`,
/// where every row reads its `B` rows from `bp` (the first strip's
/// base): step `s` of strip `q` multiplies `A` at `aidx[r] + s · acs`
/// by the eight values at `bp + q · NR + offs[s]`.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that every `A` index and every `B` row read is in bounds.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn shared_chains<const MRR: usize, const SP: usize>(
    init: __m256,
    (av, aidx, acs): (&[f32], &[usize; MRR], usize),
    bp: *const f32,
    offs: &[usize],
) -> [[__m256; MRR]; SP] {
    let mut acc = [[init; MRR]; SP];
    for (s, &o) in offs.iter().enumerate() {
        let b: [__m256; SP] = core::array::from_fn(|q| _mm256_loadu_ps(bp.add(o + q * NR)));
        for r in 0..MRR {
            let a = _mm256_set1_ps(*av.get_unchecked(aidx[r] + s * acs));
            for q in 0..SP {
                acc[q][r] = _mm256_add_ps(acc[q][r], _mm256_mul_ps(a, b[q]));
            }
        }
    }
    acc
}

/// AVX2 run kernel of the in-place convolutions: per strip, the
/// [`gemm_micro_avx2`] step with each `B` row loaded from `src` at its
/// own offset, the chains from `init` in registers, the bias added in
/// registers, and one store per row. When every row shares one `B`
/// base (a run of output channels) the row is loaded once per step,
/// and runs of up to [`PAIR_ROWS`] rows take two strips a pass;
/// otherwise (segments of one channel's row) it is loaded once per
/// row.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2.
/// `bound_conv_reads` proves every unchecked load in range, and every
/// strip starts inside its row, as `store_strip` needs.
#[target_feature(enable = "avx2")]
pub unsafe fn conv_micro_avx2<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    bidx: &[usize; MRR],
    init: f32,
    bias: Option<[f32; MRR]>,
) {
    let strips = bound_conv_reads(&out, a, src, bidx);
    let (av, aidx, acs) = a;
    let bias = bias.map(|b| b.map(|v| _mm256_set1_ps(v)));
    let init = _mm256_set1_ps(init);
    // Strip bases are only offset from, never read, until a step reads
    // them; with no steps they may lie anywhere, hence `wrapping_add`.
    if bidx.iter().all(|&b| b == bidx[0]) {
        let bp = src.v.as_ptr().wrapping_add(bidx[0]);
        let mut j = 0;
        if MRR <= PAIR_ROWS {
            while j + 2 <= strips {
                let acc = shared_chains::<MRR, 2>(init, a, bp.wrapping_add(j * NR), src.offs);
                for (q, acc) in acc.iter().enumerate() {
                    for r in 0..MRR {
                        store_strip(out[r], (j + q) * NR, acc[r], bias.map(|b| b[r]));
                    }
                }
                j += 2;
            }
        }
        for j in j..strips {
            let [acc] = shared_chains::<MRR, 1>(init, a, bp.wrapping_add(j * NR), src.offs);
            for r in 0..MRR {
                store_strip(out[r], j * NR, acc[r], bias.map(|b| b[r]));
            }
        }
        return;
    }
    for j in 0..strips {
        let mut acc = [init; MRR];
        let bp = src.v.as_ptr().wrapping_add(j * NR);
        for (s, &o) in src.offs.iter().enumerate() {
            for r in 0..MRR {
                let b = _mm256_loadu_ps(bp.add(bidx[r] + o));
                let a = _mm256_set1_ps(*av.get_unchecked(aidx[r] + s * acs));
                acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(a, b));
            }
        }
        for r in 0..MRR {
            store_strip(out[r], j * NR, acc[r], bias.map(|b| b[r]));
        }
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

/// Proves every `A` and `B` read of a [`fold_micro_avx2`] run in
/// bounds, so the loops can use unchecked loads, from the span `src`
/// carries. Returns the run's strip count.
///
/// # Panics
///
/// Panics if the rows' strip counts differ, or a row's last `A` index
/// or the end of its last strip's `B` rows would fall outside `av` /
/// the source — where the scalar reference panics too.
#[inline]
fn bound_fold_reads<const MRR: usize>(
    out: &[&mut [f32]; MRR],
    (av, aidx, acs): (&[f32], &[usize; MRR], usize),
    src: Src,
    bidx: &[usize; MRR],
    taps: &[FoldTap],
) -> usize {
    let strips = run_strips(out);
    let Some(steps) = src.offs.len().checked_sub(1) else {
        return strips;
    };
    if strips == 0 {
        return 0;
    }
    let amax = aidx.iter().max().copied().unwrap_or(0);
    let bmax = bidx.iter().max().copied().unwrap_or(0);
    let last = (strips - 1) * NR + src.span;
    for tap in taps {
        assert!(
            amax + tap.a + steps * acs < av.len(),
            "fold_micro: A index out of range"
        );
        assert!(
            tap.base + bmax + last <= src.v.len(),
            "fold_micro: B row out of range"
        );
    }
    strips
}

/// Adds a tap's partials to the accumulators in the lanes of `mask`:
/// one add, then a blend that keeps the accumulator's bits in the
/// other lanes. A tap that reaches every lane skips the blend, which
/// would select the sum in every lane.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2; no
/// memory is touched.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn add_taps<const MRR: usize>(acc: &mut [__m256; MRR], part: &[__m256; MRR], mask: u8) {
    if mask == u8::MAX {
        for r in 0..MRR {
            acc[r] = _mm256_add_ps(acc[r], part[r]);
        }
        return;
    }
    let keep = lanes_avx2(mask);
    for r in 0..MRR {
        let sum = _mm256_add_ps(acc[r], part[r]);
        acc[r] = _mm256_blendv_ps(acc[r], sum, keep);
    }
}

/// The fold's per-tap chains and masked adds for `SP` adjacent strips
/// of every run row, from `+0.0`, where every row reads its `B` rows
/// from `bp` (the first strip's base): tap `t`'s step `s` of strip `q`
/// multiplies `A` at `aidx[r] + t.a + s · acs` by the eight values at
/// `bp + t.base + q · NR + offs[s]`.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that every `A` index and every `B` row read is in bounds.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn shared_taps<const MRR: usize, const SP: usize>(
    (av, aidx, acs): (&[f32], &[usize; MRR], usize),
    bp: *const f32,
    offs: &[usize],
    taps: &[FoldTap],
) -> [[__m256; MRR]; SP] {
    let mut acc = [[_mm256_setzero_ps(); MRR]; SP];
    for tap in taps {
        let ap = av.as_ptr().wrapping_add(tap.a);
        let bp = bp.wrapping_add(tap.base);
        let mut part = [[_mm256_setzero_ps(); MRR]; SP];
        for (s, &o) in offs.iter().enumerate() {
            let b: [__m256; SP] = core::array::from_fn(|q| _mm256_loadu_ps(bp.add(o + q * NR)));
            for r in 0..MRR {
                let a = _mm256_set1_ps(*ap.add(aidx[r] + s * acs));
                for q in 0..SP {
                    part[q][r] = _mm256_add_ps(part[q][r], _mm256_mul_ps(a, b[q]));
                }
            }
        }
        for (acc, part) in acc.iter_mut().zip(&part) {
            add_taps(acc, part, tap.mask);
        }
    }
    acc
}

/// Run heights up to which a shared-base fold run computes two
/// adjacent strips per pass, as [`PAIR_ROWS`] does for the
/// convolution; the fold holds a partial and an accumulator per row.
const FOLD_PAIR_ROWS: usize = 4;

/// AVX2 fold run: per strip, the accumulator rows stay in registers
/// across every tap; each tap's partial is a fresh chain as in
/// [`conv_micro_avx2`], added with one add and a blend that keeps the
/// accumulator in lanes whose mask bit is clear. Then the bias is added
/// in registers and each row stored once. Runs of channels up to
/// [`FOLD_PAIR_ROWS`] rows take two strips a pass.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2.
/// `bound_fold_reads` proves every unchecked load in range, and every
/// strip starts inside its row, as `store_strip` needs.
#[target_feature(enable = "avx2")]
pub unsafe fn fold_micro_avx2<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    bidx: &[usize; MRR],
    taps: &[FoldTap],
    bias: Option<[f32; MRR]>,
) {
    let strips = bound_fold_reads(&out, a, src, bidx, taps);
    let (av, aidx, acs) = a;
    let bias = bias.map(|b| b.map(|v| _mm256_set1_ps(v)));
    // As in `conv_micro_avx2`, bases are offset with `wrapping_add`
    // until a step reads them.
    if bidx.iter().all(|&b| b == bidx[0]) {
        let bp = src.v.as_ptr().wrapping_add(bidx[0]);
        let mut j = 0;
        if MRR <= FOLD_PAIR_ROWS {
            while j + 2 <= strips {
                let acc = shared_taps::<MRR, 2>(a, bp.wrapping_add(j * NR), src.offs, taps);
                for (q, acc) in acc.iter().enumerate() {
                    for r in 0..MRR {
                        store_strip(out[r], (j + q) * NR, acc[r], bias.map(|b| b[r]));
                    }
                }
                j += 2;
            }
        }
        for j in j..strips {
            let [acc] = shared_taps::<MRR, 1>(a, bp.wrapping_add(j * NR), src.offs, taps);
            for r in 0..MRR {
                store_strip(out[r], j * NR, acc[r], bias.map(|b| b[r]));
            }
        }
        return;
    }
    for j in 0..strips {
        let mut acc = [_mm256_setzero_ps(); MRR];
        let bp = src.v.as_ptr().wrapping_add(j * NR);
        for tap in taps {
            let ap = av.as_ptr().wrapping_add(tap.a);
            let bp = bp.wrapping_add(tap.base);
            let mut part = [_mm256_setzero_ps(); MRR];
            for (s, &o) in src.offs.iter().enumerate() {
                for r in 0..MRR {
                    let b = _mm256_loadu_ps(bp.add(bidx[r] + o));
                    let a = _mm256_set1_ps(*ap.add(aidx[r] + s * acs));
                    part[r] = _mm256_add_ps(part[r], _mm256_mul_ps(a, b));
                }
            }
            add_taps(&mut acc, &part, tap.mask);
        }
        for r in 0..MRR {
            store_strip(out[r], j * NR, acc[r], bias.map(|b| b[r]));
        }
    }
}

/// AVX2 [`scalar::leaky_relu_pack`], in place: eight lanes at a time,
/// an ordered `> 0` compare (false for NaN), a blend of `x` and
/// `alpha · x`, and the compare's sign bits moved into the mask word.
/// The last partial word runs the scalar reference.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that `bits.len() == x.len().div_ceil(64)` (the dispatcher asserts
/// it); the vector loop covers whole words only.
#[target_feature(enable = "avx2")]
pub unsafe fn leaky_relu_pack_avx2(x: &mut [f32], alpha: f32, bits: &mut [u64]) {
    let a = _mm256_set1_ps(alpha);
    let zero = _mm256_setzero_ps();
    let words = x.len() / 64;
    for (w, word) in bits[..words].iter_mut().enumerate() {
        let mut m = 0u64;
        for g in 0..8 {
            let p = x.as_mut_ptr().add(w * 64 + g * 8);
            let v = _mm256_loadu_ps(p);
            let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
            _mm256_storeu_ps(p, _mm256_blendv_ps(_mm256_mul_ps(a, v), v, pos));
            m |= (_mm256_movemask_ps(pos) as u64) << (g * 8);
        }
        *word = m;
    }
    let i = words * 64;
    scalar::leaky_relu_pack(&mut x[i..], alpha, &mut bits[words..]);
}

/// AVX2 [`scalar::leaky_relu_unpack`], in place: each mask byte widened
/// to an eight-lane select, then a blend of `g` and `alpha · g`. The
/// last partial word runs the scalar reference.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// that `bits.len() == g.len().div_ceil(64)` (the dispatcher asserts
/// it); the vector loop covers whole words only.
#[target_feature(enable = "avx2")]
pub unsafe fn leaky_relu_unpack_avx2(g: &mut [f32], alpha: f32, bits: &[u64]) {
    let a = _mm256_set1_ps(alpha);
    let words = g.len() / 64;
    for (w, &word) in bits[..words].iter().enumerate() {
        for b in 0..8 {
            let p = g.as_mut_ptr().add(w * 64 + b * 8);
            let v = _mm256_loadu_ps(p);
            let keep = lanes_avx2((word >> (b * 8)) as u8);
            _mm256_storeu_ps(p, _mm256_blendv_ps(_mm256_mul_ps(a, v), v, keep));
        }
    }
    let i = words * 64;
    scalar::leaky_relu_unpack(&mut g[i..], alpha, &bits[words..]);
}

/// AVX2 window maxima of RoI pooling (see [`super::window_max`]): the
/// `NR` lanes of a group gather each tap's values at once, compare with
/// the ordered `>` (false for NaN) and blend the winners' values and
/// indices in, the indices stored as offsets in `src`; a group's lanes
/// past its last whole strip run the scalar scan.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2, and
/// the length contract [`super::window_max`] asserts: whole groups and
/// planes, `src` holding every plane, and every index below `plane`
/// (every offset fitting an `i32`), so every gather reads inside its
/// plane; the stores are bounds-checked.
#[target_feature(enable = "avx2")]
pub unsafe fn window_max_avx2(
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
        let base = _mm256_set1_epi32((ci * plane) as i32);
        for g in 0..m / lanes {
            let taps_at = |t: usize, r: usize| idx.as_ptr().add((g * taps + t) * lanes + r);
            let mut r = 0;
            while r + NR <= lanes {
                let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
                let mut best_at = _mm256_loadu_si256(taps_at(0, r).cast());
                for t in 0..taps {
                    let i = _mm256_loadu_si256(taps_at(t, r).cast());
                    let v = _mm256_i32gather_ps::<4>(s.as_ptr(), i);
                    let wins = _mm256_cmp_ps::<_CMP_GT_OQ>(v, best);
                    best = _mm256_blendv_ps(best, v, wins);
                    let i = _mm256_blendv_ps(
                        _mm256_castsi256_ps(best_at),
                        _mm256_castsi256_ps(i),
                        wins,
                    );
                    best_at = _mm256_castps_si256(i);
                }
                let o = g * lanes + r;
                _mm256_storeu_ps(d[o..o + NR].as_mut_ptr(), best);
                if let Some(at) = at.as_deref_mut() {
                    let at = &mut at[ci * m + o..][..NR];
                    let best_at = _mm256_add_epi32(best_at, base);
                    _mm256_storeu_si256(at.as_mut_ptr().cast(), best_at);
                }
                r += NR;
            }
            for r in r..lanes {
                let o = g * lanes + r;
                let (best, i) = scalar::window_first_max(s, idx, (taps, lanes), o);
                d[o] = best;
                if let Some(at) = at.as_deref_mut() {
                    at[ci * m + o] = (ci * plane) as u32 + i;
                }
            }
        }
    }
}
