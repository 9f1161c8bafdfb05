//! x86-64 kernels: AVX2, and AVX-512 for the convolution and fold runs.
//!
//! Every function here is `unsafe` only because of its
//! `#[target_feature]` requirement; slice accesses are bounds-checked
//! or covered by the length contracts the dispatcher in [`super`]
//! asserts. Per-lane float arithmetic mirrors the scalar reference
//! exactly — one mul rounding and one add rounding per accumulation
//! step, and a single IEEE division where the reference divides — so
//! every kernel is bit-identical to [`super::scalar`].
//!
//! The convolution and fold runs have one body ([`run`]), and the
//! weight gradients' tile, panel packing and lane-batch product one
//! each ([`weight_tile_on`], [`pack_panel_on`], [`lane_product_on`]),
//! all generic over the vector [`Lanes`] of a tier: the AVX2 entry
//! points compile them on 8-lane `ymm` vectors, one `NR` strip each,
//! and the AVX-512 ones on 16-lane `zmm` vectors, two adjacent strips
//! each. The other kernels have AVX2 bodies only, which the AVX-512
//! tier runs too.

use core::arch::x86_64::*;
use std::ops::Range;

use super::{run_strips, scalar, FoldTap, Src, Walk, NR};

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

/// Proves every `A` and `B` read of a [`conv_micro`] run in bounds, so
/// the loops can use unchecked loads, from the span `src` carries: no
/// step is scanned. Returns the run's strip count.
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
    base: usize,
) -> usize {
    let strips = run_strips(out);
    let Some(steps) = src.offs.len().checked_sub(1) else {
        return strips;
    };
    if strips == 0 {
        return 0;
    }
    for &i in aidx {
        assert!(
            i + steps * acs < av.len(),
            "conv_micro: A index out of range"
        );
    }
    assert!(
        base + (strips - 1) * NR + src.span <= src.v.len(),
        "conv_micro: B row out of range"
    );
    strips
}

/// Proves every `A` and `B` read of a [`fold_micro`] run in bounds, so
/// the loops can use unchecked loads, from the span `src` carries.
/// Returns the run's strip count.
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
    let last = (strips - 1) * NR + src.span;
    for tap in taps {
        assert!(
            amax + tap.a + steps * acs < av.len(),
            "fold_micro: A index out of range"
        );
        assert!(
            tap.base + last <= src.v.len(),
            "fold_micro: B row out of range"
        );
    }
    strips
}

/// One tier's vector in the convolution and fold runs: `STRIPS`
/// adjacent `NR`-lane strips of a run row. The run body ([`run`]) is
/// written once over this trait and compiled into each tier's
/// `#[target_feature]` entry points, where every method inlines. Every
/// method issues the one instruction the scalar reference's operation
/// rounds like: `mul` and `add` are never fused. Every method needs its
/// tier's CPU features, so the run body calls them only inside that
/// tier's entry points.
trait Lanes: Copy {
    /// `NR`-lane strips per vector.
    const STRIPS: usize;
    /// Vectors per pass of a convolution run, by its row count (index
    /// 1..=8): enough independent chains per broadcast `A` value to
    /// keep the FP ports busy, few enough to stay in registers.
    const CONV_PASS: [usize; 9];
    /// The same for a fold run, which holds a partial and an
    /// accumulator per row and vector.
    const FOLD_PASS: [usize; 9];
    /// The one-strip vector that runs a run's odd last strip.
    type Half: Lanes;
    /// The lane select [`Lanes::widen`] spreads rows by.
    type Spread: Copy;

    /// `v` in every lane.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features.
    unsafe fn splat(v: f32) -> Self;

    /// The lanes from `p`.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features and
    /// that `p` is valid for reads of every lane.
    unsafe fn load(p: *const f32) -> Self;

    /// `self + b`, lane by lane.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features.
    unsafe fn add(self, b: Self) -> Self;

    /// `self · b`, lane by lane.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features.
    unsafe fn mul(self, b: Self) -> Self;

    /// `self + part` in the lanes of `mask` (bit `l` is lane `l` of
    /// every strip); `self`'s bits in the others.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features.
    unsafe fn add_in(self, part: Self, mask: u8) -> Self;

    /// `G` consecutive values from `p`, repeated across the lanes (lane
    /// `l` holds `p[l % G]`): one broadcast load.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features, that
    /// `G` divides the lane count and that `p` is valid for reads of `G`
    /// values.
    unsafe fn group<const G: usize>(p: *const f32) -> Self;

    /// Stores every lane at `p`.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features and
    /// that `p` is valid for writes of every lane.
    unsafe fn store_all(self, p: *mut f32);

    /// The lane select that gives lane `l` row `l / g`.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features.
    unsafe fn spread(g: usize) -> Self::Spread;

    /// One pixel of a packed panel from its transposed rows: rows `0..8`
    /// in `lo` and `8..16` in `hi`, lane `l` taking row `l / g` (the
    /// rows side by side when `g` is 1). Moves bits only.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features.
    unsafe fn widen(lo: __m256, hi: __m256, g: usize, spread: Self::Spread) -> Self;

    /// Stores the lanes that lie inside `row` at `row[x..]`, and leaves
    /// every value past the row's end untouched.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee the tier's CPU features and
    /// that the vector starts inside the row (`x < row.len()`).
    unsafe fn store(self, row: &mut [f32], x: usize);
}

/// AVX2: one strip per `ymm`, 16 registers.
impl Lanes for __m256 {
    const STRIPS: usize = 1;
    const CONV_PASS: [usize; 9] = [0, 4, 2, 2, 2, 2, 2, 1, 1];
    const FOLD_PASS: [usize; 9] = [0, 4, 2, 2, 2, 1, 1, 1, 1];
    type Half = __m256;
    type Spread = __m256i;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        _mm256_set1_ps(v)
    }

    #[inline(always)]
    unsafe fn group<const G: usize>(p: *const f32) -> Self {
        match G {
            1 => _mm256_set1_ps(*p),
            2 => _mm256_castpd_ps(_mm256_set1_pd(p.cast::<f64>().read_unaligned())),
            4 => {
                let q = _mm_loadu_ps(p);
                _mm256_set_m128(q, q)
            }
            _ => _mm256_loadu_ps(p),
        }
    }

    #[inline(always)]
    unsafe fn store_all(self, p: *mut f32) {
        _mm256_storeu_ps(p, self);
    }

    #[inline(always)]
    unsafe fn spread(g: usize) -> __m256i {
        let rows: [i32; NR] = core::array::from_fn(|l| (l / g) as i32);
        _mm256_loadu_si256(rows.as_ptr().cast())
    }

    #[inline(always)]
    unsafe fn widen(lo: __m256, _hi: __m256, g: usize, spread: __m256i) -> Self {
        match g {
            1 => lo,
            _ => _mm256_permutevar8x32_ps(lo, spread),
        }
    }

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm256_loadu_ps(p)
    }

    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm256_add_ps(self, b)
    }

    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm256_mul_ps(self, b)
    }

    /// One add, then a blend that keeps `self`'s bits outside the mask;
    /// a tap that reaches every lane skips the blend.
    #[inline(always)]
    unsafe fn add_in(self, part: Self, mask: u8) -> Self {
        let sum = _mm256_add_ps(self, part);
        if mask == u8::MAX {
            sum
        } else {
            _mm256_blendv_ps(self, sum, lanes_avx2(mask))
        }
    }

    /// A strip inside the row is one store; a last strip that does not
    /// fill it is one `maskstore` of its lanes inside the row.
    #[inline(always)]
    unsafe fn store(self, row: &mut [f32], x: usize) {
        let p = row.as_mut_ptr().add(x);
        let inside = row.len() - x;
        if inside >= NR {
            _mm256_storeu_ps(p, self);
        } else {
            _mm256_maskstore_ps(p, first_lanes_avx2(inside), self);
        }
    }
}

/// AVX-512: two adjacent strips per `zmm`, 32 registers. A run's odd
/// last strip runs on a `ymm`: on a half-empty `zmm` (8-lane masked
/// loads and stores) the 24-channel 16² fold, whose runs are all one
/// strip, ran at 0.67–0.70× its AVX2 speed. The entry points also
/// enable AVX-512VL, so that `ymm` keeps its 256-bit blend and masked
/// store: on AVX-512F alone the compiler widens them to masked `zmm`
/// instructions, and the same fold ran at 0.76×.
impl Lanes for __m512 {
    const STRIPS: usize = 2;
    const CONV_PASS: [usize; 9] = [0, 4, 2, 2, 2, 2, 2, 2, 2];
    const FOLD_PASS: [usize; 9] = [0, 4, 2, 2, 2, 2, 2, 1, 1];
    type Half = __m256;
    type Spread = __m512i;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        _mm512_set1_ps(v)
    }

    #[inline(always)]
    unsafe fn group<const G: usize>(p: *const f32) -> Self {
        match G {
            1 => _mm512_set1_ps(*p),
            2 => _mm512_castpd_ps(_mm512_set1_pd(p.cast::<f64>().read_unaligned())),
            4 => _mm512_broadcast_f32x4(_mm_loadu_ps(p)),
            8 => _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_loadu_pd(p.cast()))),
            _ => _mm512_loadu_ps(p),
        }
    }

    #[inline(always)]
    unsafe fn store_all(self, p: *mut f32) {
        _mm512_storeu_ps(p, self);
    }

    #[inline(always)]
    unsafe fn spread(g: usize) -> __m512i {
        let rows: [i32; 2 * NR] = core::array::from_fn(|l| (l / g) as i32);
        _mm512_loadu_si512(rows.as_ptr().cast())
    }

    #[inline(always)]
    unsafe fn widen(lo: __m256, hi: __m256, g: usize, spread: __m512i) -> Self {
        match g {
            1 => _mm512_castpd_ps(_mm512_insertf64x4::<1>(
                _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
                _mm256_castps_pd(hi),
            )),
            _ => _mm512_permutexvar_ps(spread, _mm512_castps256_ps512(lo)),
        }
    }

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm512_loadu_ps(p)
    }

    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm512_add_ps(self, b)
    }

    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm512_mul_ps(self, b)
    }

    /// One masked add, the tap's mask in both strips: the lanes outside
    /// it keep `self`'s bits.
    #[inline(always)]
    unsafe fn add_in(self, part: Self, mask: u8) -> Self {
        _mm512_mask_add_ps(self, u16::from(mask) * 0x0101, self, part)
    }

    /// A vector inside the row is one store; the row's last vector,
    /// when it does not fill it, one masked store of its lanes inside.
    #[inline(always)]
    unsafe fn store(self, row: &mut [f32], x: usize) {
        let p = row.as_mut_ptr().add(x);
        let inside = row.len() - x;
        if inside >= 2 * NR {
            _mm512_storeu_ps(p, self);
        } else {
            // `inside < 16`, so the shift fits.
            _mm512_mask_storeu_ps(p, (1u16 << inside) - 1, self);
        }
    }
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

/// The chains of a run's strips: [`Conv`] or [`Fold`].
trait Chains<L: Lanes, const MRR: usize> {
    /// Vectors per pass, from the tier's table.
    const PASS: [usize; 9];

    /// The finished chains of `SP` adjacent vectors of every run row,
    /// before the bias: vector `q` starts `q · STRIPS · NR` values past
    /// `bp`.
    ///
    /// # Safety
    ///
    /// SAFETY: the caller must guarantee `L`'s CPU features and that
    /// every `A` index and every `B` read is in bounds.
    unsafe fn pass<const SP: usize>(&self, bp: *const f32) -> [[L; MRR]; SP];
}

/// A convolution run's chains: step `s` multiplies `A` at
/// `aidx[r] + s · acs` by the lanes at `offs[s]`, from `init`.
struct Conv<'a, const MRR: usize> {
    init: f32,
    a: (&'a [f32], &'a [usize; MRR], usize),
    offs: &'a [usize],
}

impl<L: Lanes, const MRR: usize> Chains<L, MRR> for Conv<'_, MRR> {
    const PASS: [usize; 9] = L::CONV_PASS;

    #[inline(always)]
    unsafe fn pass<const SP: usize>(&self, bp: *const f32) -> [[L; MRR]; SP] {
        let (av, aidx, acs) = self.a;
        let init = L::splat(self.init);
        let mut acc = [[init; MRR]; SP];
        for (k, &o) in self.offs.iter().enumerate() {
            let mut b = [init; SP];
            for (q, b) in b.iter_mut().enumerate() {
                *b = L::load(bp.add(o + q * L::STRIPS * NR));
            }
            for r in 0..MRR {
                let a = L::splat(*av.get_unchecked(aidx[r] + k * acs));
                for q in 0..SP {
                    acc[q][r] = acc[q][r].add(a.mul(b[q]));
                }
            }
        }
        acc
    }
}

/// A fold run's chains: from `+0.0`, per tap a fresh `+0.0` chain whose
/// step `s` multiplies `A` at `aidx[r] + tap.a + s · acs` by the lanes
/// at `tap.base + offs[s]`, added in the tap's lanes.
struct Fold<'a, const MRR: usize> {
    a: (&'a [f32], &'a [usize; MRR], usize),
    offs: &'a [usize],
    taps: &'a [FoldTap],
}

impl<L: Lanes, const MRR: usize> Chains<L, MRR> for Fold<'_, MRR> {
    const PASS: [usize; 9] = L::FOLD_PASS;

    #[inline(always)]
    unsafe fn pass<const SP: usize>(&self, bp: *const f32) -> [[L; MRR]; SP] {
        let (av, aidx, acs) = self.a;
        let zero = L::splat(0.0);
        let mut acc = [[zero; MRR]; SP];
        for tap in self.taps {
            let ap = av.as_ptr().wrapping_add(tap.a);
            let bp = bp.wrapping_add(tap.base);
            let mut part = [[zero; MRR]; SP];
            for (k, &o) in self.offs.iter().enumerate() {
                let mut b = [zero; SP];
                for (q, b) in b.iter_mut().enumerate() {
                    *b = L::load(bp.add(o + q * L::STRIPS * NR));
                }
                for r in 0..MRR {
                    let a = L::splat(*ap.add(aidx[r] + k * acs));
                    for q in 0..SP {
                        part[q][r] = part[q][r].add(a.mul(b[q]));
                    }
                }
            }
            for q in 0..SP {
                for r in 0..MRR {
                    acc[q][r] = acc[q][r].add_in(part[q][r], tap.mask);
                }
            }
        }
        acc
    }
}

/// The vectors `v..` of a run's first `vecs` vectors, vector 0 reading
/// from `bp`, `SP` a pass while a whole pass fits: each pass's chains,
/// the bias added in registers, and one store per row and vector.
/// Returns the first vector left.
///
/// # Safety
///
/// SAFETY: as [`run`].
#[inline(always)]
unsafe fn passes<L: Lanes, const MRR: usize, const SP: usize>(
    out: &mut [&mut [f32]; MRR],
    chains: &impl Chains<L, MRR>,
    (bp, vecs): (*const f32, usize),
    bias: Option<[f32; MRR]>,
    mut v: usize,
) -> usize {
    while v + SP <= vecs {
        let x = v * L::STRIPS * NR;
        let acc = chains.pass::<SP>(bp.wrapping_add(x));
        for (q, acc) in acc.iter().enumerate() {
            for r in 0..MRR {
                let y = match bias {
                    Some(b) => acc[r].add(L::splat(b[r])),
                    None => acc[r],
                };
                y.store(out[r], x + q * L::STRIPS * NR);
            }
        }
        v += SP;
    }
    v
}

/// The run body of both kernels on both tiers: every whole vector of
/// every run row, in passes of the tier's width for the run's height
/// (four vectors, two or one), the vectors a wider pass leaves in
/// narrower ones; then an odd last strip on [`Lanes::Half`]. Without a
/// bias the chains are stored as they are: `x + 0.0` is not `x` when
/// `x` is `-0.0`.
///
/// # Safety
///
/// SAFETY: the caller must guarantee `L`'s CPU features, that `strips`
/// is every row's strip count, and that every `A` index and every `B`
/// read of `strips` strips from `bp` is in bounds; every vector then
/// starts inside its row, as [`Lanes::store`] needs.
#[inline(always)]
unsafe fn run<L, C, const MRR: usize>(
    mut out: [&mut [f32]; MRR],
    chains: C,
    (bp, strips): (*const f32, usize),
    bias: Option<[f32; MRR]>,
) where
    L: Lanes,
    C: Chains<L, MRR> + Chains<L::Half, MRR>,
{
    let o = &mut out;
    let at = (bp, strips / L::STRIPS);
    let pass = <C as Chains<L, MRR>>::PASS[MRR];
    let mut v = 0;
    if pass >= 4 {
        v = passes::<L, MRR, 4>(o, &chains, at, bias, v);
    }
    if pass >= 2 {
        v = passes::<L, MRR, 2>(o, &chains, at, bias, v);
    }
    passes::<L, MRR, 1>(o, &chains, at, bias, v);
    if strips % L::STRIPS != 0 {
        passes::<L::Half, MRR, 1>(o, &chains, (bp, strips), bias, strips - 1);
    }
}

/// [`super::conv_micro`]'s run on either tier: the bounds proved once,
/// then [`run`] over [`Conv`] chains from `src.v[base..]`.
///
/// # Safety
///
/// SAFETY: the caller must guarantee `L`'s CPU features.
#[inline(always)]
unsafe fn conv_micro<L: Lanes, const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    base: usize,
    init: f32,
    bias: Option<[f32; MRR]>,
) {
    let strips = bound_conv_reads(&out, a, src, base);
    let chains = Conv {
        init,
        a,
        offs: src.offs,
    };
    // The base is only offset from, never read, until a step reads it;
    // with no steps it may lie anywhere, hence `wrapping_add`.
    run::<L, _, MRR>(
        out,
        chains,
        (src.v.as_ptr().wrapping_add(base), strips),
        bias,
    );
}

/// [`super::fold_micro`]'s run on either tier: the bounds proved once,
/// then [`run`] over [`Fold`] chains.
///
/// # Safety
///
/// SAFETY: the caller must guarantee `L`'s CPU features.
#[inline(always)]
unsafe fn fold_micro<L: Lanes, const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    taps: &[FoldTap],
    bias: Option<[f32; MRR]>,
) {
    let strips = bound_fold_reads(&out, a, src, taps);
    let chains = Fold {
        a,
        offs: src.offs,
        taps,
    };
    run::<L, _, MRR>(out, chains, (src.v.as_ptr(), strips), bias);
}

/// AVX2 [`super::conv_micro`]: the run body on `ymm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2;
/// the body proves every unchecked load in range.
#[target_feature(enable = "avx2")]
pub unsafe fn conv_micro_avx2<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    base: usize,
    init: f32,
    bias: Option<[f32; MRR]>,
) {
    conv_micro::<__m256, MRR>(out, a, src, base, init, bias);
}

/// AVX-512 [`super::conv_micro`]: the run body on `zmm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports
/// AVX-512F and AVX-512VL; the body proves every unchecked load in
/// range.
#[target_feature(enable = "avx512f,avx512vl")]
pub unsafe fn conv_micro_avx512<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    base: usize,
    init: f32,
    bias: Option<[f32; MRR]>,
) {
    conv_micro::<__m512, MRR>(out, a, src, base, init, bias);
}

/// AVX2 [`super::fold_micro`]: the run body on `ymm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2;
/// the body proves every unchecked load in range.
#[target_feature(enable = "avx2")]
pub unsafe fn fold_micro_avx2<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    taps: &[FoldTap],
    bias: Option<[f32; MRR]>,
) {
    fold_micro::<__m256, MRR>(out, a, src, taps, bias);
}

/// AVX-512 [`super::fold_micro`]: the run body on `zmm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports
/// AVX-512F and AVX-512VL; the body proves every unchecked load in
/// range.
#[target_feature(enable = "avx512f,avx512vl")]
pub unsafe fn fold_micro_avx512<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    taps: &[FoldTap],
    bias: Option<[f32; MRR]>,
) {
    fold_micro::<__m512, MRR>(out, a, src, taps, bias);
}

/// The weight-gradient tile body on both tiers: `MRR` rows of one
/// vector, each lane's chain continued from `acc` over the panel's
/// steps, `G` taps per vector — one broadcast load of the row's `G`
/// adjacent `A` values, one load of the step's panel row shared by
/// every row, and one `mul` then one `add` per row, never fused.
///
/// # Safety
///
/// SAFETY: the caller must guarantee `L`'s CPU features and the bounds
/// [`super::weight_tile`] asserts: `acc` holds `MRR` vectors, the panel
/// whole runs of steps, and every row's `G` values at its furthest step
/// lie inside `av`.
#[inline(always)]
unsafe fn weight_tile_on<L: Lanes, const MRR: usize, const G: usize>(
    acc: &mut [f32],
    (av, aidx): (&[f32], &[usize; MRR]),
    walk: Walk,
    panel: &[f32],
) {
    let v = L::STRIPS * NR;
    let mut regs: [L; MRR] = core::array::from_fn(|r| L::load(acc.as_ptr().add(r * v)));
    let ap: [*const f32; MRR] = core::array::from_fn(|r| av.as_ptr().add(aidx[r]));
    let mut bp = panel.as_ptr();
    for i in 0..panel.len() / v / walk.run.max(1) {
        for x in 0..walk.run {
            let o = i * walk.row + x * walk.col;
            let b = L::load(bp);
            for r in 0..MRR {
                regs[r] = regs[r].add(L::group::<G>(ap[r].add(o)).mul(b));
            }
            bp = bp.add(v);
        }
    }
    for (r, reg) in regs.iter().enumerate() {
        reg.store_all(acc.as_mut_ptr().add(r * v));
    }
}

/// [`super::weight_tile`] on `L`: the body for the row's tap group.
///
/// # Safety
///
/// SAFETY: as [`weight_tile_on`]; `g` divides `L`'s lane count.
#[inline(always)]
unsafe fn weight_tile_groups<L: Lanes, const MRR: usize>(
    acc: &mut [f32],
    a: (&[f32], &[usize; MRR]),
    walk: Walk,
    panel: &[f32],
    g: usize,
) {
    match g {
        1 => weight_tile_on::<L, MRR, 1>(acc, a, walk, panel),
        2 => weight_tile_on::<L, MRR, 2>(acc, a, walk, panel),
        4 => weight_tile_on::<L, MRR, 4>(acc, a, walk, panel),
        8 => weight_tile_on::<L, MRR, 8>(acc, a, walk, panel),
        _ => weight_tile_on::<L, MRR, 16>(acc, a, walk, panel),
    }
}

/// AVX2 [`super::weight_tile`]: the tile body on `ymm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// the bounds the dispatcher asserts, with 8 lanes and `g` at most 8.
#[target_feature(enable = "avx2")]
pub unsafe fn weight_tile_avx2<const MRR: usize>(
    acc: &mut [f32],
    a: (&[f32], &[usize; MRR]),
    walk: Walk,
    panel: &[f32],
    g: usize,
) {
    weight_tile_groups::<__m256, MRR>(acc, a, walk, panel, g);
}

/// AVX-512 [`super::weight_tile`]: the tile body on `zmm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX-512F
/// and AVX-512VL and the bounds the dispatcher asserts, with 16 lanes.
#[target_feature(enable = "avx512f,avx512vl")]
pub unsafe fn weight_tile_avx512<const MRR: usize>(
    acc: &mut [f32],
    a: (&[f32], &[usize; MRR]),
    walk: Walk,
    panel: &[f32],
    g: usize,
) {
    weight_tile_groups::<__m512, MRR>(acc, a, walk, panel, g);
}

/// Rows `j0..j0 + 8` of `rows` (rows of `pixels` values; zeros past
/// row `cs`) at pixels `p..p + 8`, transposed: vector `q` holds pixel
/// `p + q` of the eight rows. Moves bits only.
///
/// # Safety
///
/// SAFETY: the caller must guarantee AVX2 and that pixels `p..p + 8` lie
/// inside every row below `cs`.
#[inline(always)]
unsafe fn transposed_rows(
    rows: &[f32],
    (pixels, cs): (usize, usize),
    j0: usize,
    p: usize,
) -> [__m256; NR] {
    let mut r = [_mm256_setzero_ps(); NR];
    for (j, r) in r.iter_mut().enumerate().take(cs.saturating_sub(j0)) {
        *r = _mm256_loadu_ps(rows.as_ptr().add((j0 + j) * pixels + p));
    }
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xee>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xee>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xee>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xee>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// The panel packing body on both tiers: eight pixels at a time, the
/// rows transposed eight by eight in registers and each pixel spread
/// over the lanes ([`Lanes::widen`]), stored whole and added to the
/// lane sums in pixel order; the last pixels short of eight run the
/// scalar reference, continuing the sums.
///
/// # Safety
///
/// SAFETY: the caller must guarantee `L`'s CPU features and the bounds
/// [`super::pack_panel`] asserts, with `L`'s lane count.
#[inline(always)]
unsafe fn pack_panel_on<L: Lanes>(
    panel: &mut [f32],
    rows: &[f32],
    pixels: usize,
    px: Range<usize>,
    g: usize,
    mut sums: Option<&mut [f32]>,
) {
    let v = L::STRIPS * NR;
    let cs = rows.len() / pixels;
    let spread = L::spread(g);
    let mut sv = sums.as_deref().map(|s| L::load(s.as_ptr()));
    let mut p = px.start;
    let mut d = panel.as_mut_ptr();
    while p + NR <= px.end {
        let lo = transposed_rows(rows, (pixels, cs), 0, p);
        let hi = match cs > NR {
            true => transposed_rows(rows, (pixels, cs), NR, p),
            false => [_mm256_setzero_ps(); NR],
        };
        for q in 0..NR {
            let w = L::widen(lo[q], hi[q], g, spread);
            w.store_all(d);
            if let Some(s) = sv.as_mut() {
                *s = s.add(w);
            }
            d = d.add(v);
        }
        p += NR;
    }
    if let (Some(s), Some(sums)) = (sv, sums.as_deref_mut()) {
        s.store_all(sums.as_mut_ptr());
    }
    let done = (p - px.start) * v;
    scalar::pack_panel(&mut panel[done..], rows, pixels, p..px.end, (v, g), sums);
}

/// AVX2 [`super::pack_panel`]: the packing body on `ymm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// the bounds the dispatcher asserts, with 8 lanes.
#[target_feature(enable = "avx2")]
pub unsafe fn pack_panel_avx2(
    panel: &mut [f32],
    rows: &[f32],
    pixels: usize,
    px: Range<usize>,
    g: usize,
    sums: Option<&mut [f32]>,
) {
    pack_panel_on::<__m256>(panel, rows, pixels, px, g, sums);
}

/// AVX-512 [`super::pack_panel`]: the packing body on `zmm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX-512F
/// and AVX-512VL and the bounds the dispatcher asserts, with 16 lanes.
#[target_feature(enable = "avx512f,avx512vl")]
pub unsafe fn pack_panel_avx512(
    panel: &mut [f32],
    rows: &[f32],
    pixels: usize,
    px: Range<usize>,
    g: usize,
    sums: Option<&mut [f32]>,
) {
    pack_panel_on::<__m512>(panel, rows, pixels, px, g, sums);
}

/// The lane-batch product body on both tiers: `MRR` rows of one vector,
/// each lane's chain from `+0.0`; per step one load of the shared `y`,
/// then per row one load of `x`, one `mul` and one `add`, never fused.
///
/// # Safety
///
/// SAFETY: the caller must guarantee `L`'s CPU features and the bounds
/// [`super::lane_product`] asserts, with `L`'s lane count.
#[inline(always)]
unsafe fn lane_product_on<L: Lanes, const MRR: usize>(
    (out, ostride): (&mut [f32], usize),
    (xv, xo): (&[f32], &[usize; MRR]),
    (yv, yo): (&[f32], usize),
    (walk, ystep, steps): (Walk, usize, usize),
) {
    let mut acc = [L::splat(0.0); MRR];
    let xp: [*const f32; MRR] = core::array::from_fn(|r| xv.as_ptr().add(xo[r]));
    let mut yp = yv.as_ptr().add(yo);
    for i in 0..steps / walk.run.max(1) {
        for x in 0..walk.run {
            let o = i * walk.row + x * walk.col;
            let y = L::load(yp);
            for r in 0..MRR {
                acc[r] = acc[r].add(L::load(xp[r].add(o)).mul(y));
            }
            yp = yp.add(ystep);
        }
    }
    for (r, a) in acc.iter().enumerate() {
        a.store_all(out.as_mut_ptr().add(r * ostride));
    }
}

/// AVX2 [`super::lane_product`]: the body on `ymm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX2 and
/// the bounds the dispatcher asserts, with 8 lanes.
#[target_feature(enable = "avx2")]
pub unsafe fn lane_product_avx2<const MRR: usize>(
    out: (&mut [f32], usize),
    x: (&[f32], &[usize; MRR]),
    y: (&[f32], usize),
    steps: (Walk, usize, usize),
) {
    lane_product_on::<__m256, MRR>(out, x, y, steps);
}

/// AVX-512 [`super::lane_product`]: the body on `zmm` vectors.
///
/// # Safety
///
/// SAFETY: the caller must guarantee the running CPU supports AVX-512F
/// and AVX-512VL and the bounds the dispatcher asserts, with 16 lanes.
#[target_feature(enable = "avx512f,avx512vl")]
pub unsafe fn lane_product_avx512<const MRR: usize>(
    out: (&mut [f32], usize),
    x: (&[f32], &[usize; MRR]),
    y: (&[f32], usize),
    steps: (Walk, usize, usize),
) {
    lane_product_on::<__m512, MRR>(out, x, y, steps);
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
