//! SIMD micro-kernels behind a single runtime ISA selector.
//!
//! Every vectorised inner loop in the workspace lives here (plus the
//! litho aerial convolution, which calls back into this module): the
//! weight gradients' GEMM register tile, the in-place convolution tile
//! (also the fully-connected products' tile), the fold
//! tile, the training `LeakyRelu` mask pack and unpack, and the
//! separable-convolution interior kernel.
//! The lint rule L13 enforces that `core::arch` intrinsics and
//! `#[target_feature]` appear nowhere else.
//!
//! # Dispatch
//!
//! [`isa`] detects the instruction set once (honouring the
//! `RHSD_FORCE_SCALAR=1` environment variable) and caches it; all
//! kernels dispatch through that single selector. There are two tiers:
//! AVX2 where the CPU has it, and the scalar kernels in [`scalar`]
//! everywhere else. The scalar kernels are the reference
//! implementations — they are the exact loops the pre-SIMD code ran, and
//! every AVX2 kernel is **bit-identical** to them:
//!
//! - the f32 GEMM and convolution tiles issue one `mul` and one `add`
//!   per lane per step (no FMA contraction), matching the scalar
//!   `a += v · b` chain rounding-for-rounding;
//! - the fold tile runs each tap's chain the same way from `+0.0`, then
//!   adds it in exactly the selected lanes and leaves the others' bits
//!   untouched;
//! - the `LeakyRelu` kernels select `x` or one `alpha · x` rounding per
//!   lane, by the same ordered `> 0` test (false for NaN) the scalar
//!   code runs;
//! - the interior convolution kernel vectorises across output pixels
//!   while each lane keeps the serial ascending-tap order.
//!
//! The ISA therefore changes speed, never results: an x86-64 CPU without
//! AVX2 runs the scalar reference, slower and to the same bits.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub mod x86;

/// Register-tile width: the lanes of every tile (output columns of the
/// GEMM tile, pixels or vectors of the convolution tile).
pub const NR: usize = 8;

/// The instruction sets the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The reference scalar kernels (any architecture).
    Scalar,
    /// 256-bit AVX2 lanes.
    Avx2,
}

impl Isa {
    /// Stable lowercase tag recorded in bench records and manifests.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

/// Pure selection logic, split out so tests can exercise every branch
/// without touching the process-global state: `force_scalar` is the
/// `RHSD_FORCE_SCALAR=1` override, `has_avx2` the detected CPU
/// feature.
pub fn select_isa(force_scalar: bool, has_avx2: bool) -> Isa {
    if has_avx2 && !force_scalar {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

/// Sentinel meaning "not yet detected".
const ISA_UNSET: u8 = u8::MAX;

static ACTIVE_ISA: AtomicU8 = AtomicU8::new(ISA_UNSET);

fn encode(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => 0,
        Isa::Avx2 => 1,
    }
}

fn decode(v: u8) -> Isa {
    match v {
        1 => Isa::Avx2,
        _ => Isa::Scalar,
    }
}

fn detect() -> Isa {
    let force_scalar = std::env::var_os("RHSD_FORCE_SCALAR").is_some_and(|v| v == "1");
    #[cfg(target_arch = "x86_64")]
    {
        select_isa(force_scalar, std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        select_isa(force_scalar, false)
    }
}

/// The active instruction set — detected on first use, then cached.
pub fn isa() -> Isa {
    let v = ACTIVE_ISA.load(Ordering::Relaxed);
    if v != ISA_UNSET {
        return decode(v);
    }
    let detected = detect();
    // A concurrent first call detects the same value; the race is benign.
    ACTIVE_ISA.store(encode(detected), Ordering::Relaxed);
    detected
}

/// Overrides the active instruction set, process-wide.
///
/// Intended for the microbench harness (scalar-vs-SIMD timing) and for
/// dispatch tests; production code never calls this — it relies on
/// [`isa`]'s one-time detection. Requesting AVX2 on a CPU without it
/// grants the scalar reference.
pub fn set_isa(requested: Isa) -> Isa {
    let granted = match requested {
        Isa::Scalar => Isa::Scalar,
        Isa::Avx2 => detect(),
    };
    ACTIVE_ISA.store(encode(granted), Ordering::Relaxed);
    granted
}

/// The active ISA's stable name (for records and manifests).
pub fn isa_name() -> &'static str {
    isa().name()
}

/// GEMM row-tile height for the active ISA: the AVX2 tile keeps eight
/// accumulator rows in ymm registers (enough independent add chains to
/// saturate the FP ports); the scalar reference keeps the committed
/// MR = 4. The tile height never affects results — each
/// output element's ascending-`p` accumulation chain is the same at any
/// tiling — so this is a pure scheduling choice.
pub fn gemm_mr() -> usize {
    match isa() {
        Isa::Avx2 => 8,
        Isa::Scalar => 4,
    }
}

/// The `MRR × NR` register-tile inner loop of the weight gradients
/// (`conv::weight_product`), over packed `NR`-wide strips:
/// accumulates `panel.len() / NR` ascending-`p` terms into `acc`, one
/// broadcast `A` value per row per step, reading
/// `A` at `aidx[r]` and advancing each index by `acs`.
///
/// Every dispatch target performs, per lane, exactly
/// `acc += a · b` with separate mul and add roundings — bit-identical
/// to [`scalar::gemm_micro`].
#[inline]
pub fn gemm_micro<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &mut [usize; MRR],
    acs: usize,
    panel: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected.
            Isa::Avx2 => unsafe { x86::gemm_micro_avx2(acc, av, aidx, acs, panel) },
            Isa::Scalar => scalar::gemm_micro(acc, av, aidx, acs, panel),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::gemm_micro(acc, av, aidx, acs, panel);
}

/// The register-tile inner loop of the in-place convolutions
/// (`ops::direct`): [`gemm_micro`] with each `B` row read straight from
/// a map. Accumulates `offs.len()` ascending steps into `acc`; step `t`
/// of row `r` multiplies `A` at `aidx[r] + t · acs` by the `NR` values
/// at `src[bidx[r] + offs[t]..]`. A tile of output channels shares one
/// `B` base; a tile of strips along one map row shares its `A` index.
///
/// Every dispatch target performs, per lane, exactly `acc += a · b`
/// with separate mul and add roundings — bit-identical to
/// [`scalar::conv_micro`].
///
/// # Panics
///
/// Panics if an `A` index or a `B` row falls outside its slice.
#[inline]
pub fn conv_micro<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: &[f32],
    bidx: &[usize; MRR],
    offs: &[usize],
) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected.
            Isa::Avx2 => unsafe { x86::conv_micro_avx2(acc, av, aidx, acs, src, bidx, offs) },
            Isa::Scalar => scalar::conv_micro(acc, av, aidx, acs, src, bidx, offs),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::conv_micro(acc, av, aidx, acs, src, bidx, offs);
}

/// A source of fold `B` rows: source channel `s` of a tap at `base`
/// reads `v[base + offs[s]..][..NR]` (plus the tile row's offset).
#[derive(Clone, Copy)]
pub struct FoldSrc<'a> {
    v: &'a [f32],
    offs: &'a [usize],
    /// One past the furthest value a `B` row at `base` 0 reads.
    span: usize,
}

impl<'a> FoldSrc<'a> {
    /// Source channel rows at `offs` in `v`.
    pub fn new(v: &'a [f32], offs: &'a [usize]) -> Self {
        let span = offs.iter().max().map_or(0, |&o| o + NR);
        FoldSrc { v, offs, span }
    }
}

/// One tap of a [`fold_micro`] tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldTap {
    /// Offset of the tap's weights from each tile row's `A` index.
    pub a: usize,
    /// Where the tap's `B` rows start in the source.
    pub base: usize,
    /// The lanes the tap adds to (bit `l` is lane `l`).
    pub mask: u8,
}

/// The register tile of the in-place fold (`ops::direct`): for each tap
/// in order, row `r` runs a fresh `+0.0` chain over the source
/// channels — step `s` multiplies `A` at `aidx[r] + tap.a + s · acs` by
/// the `NR` values at `src.v[tap.base + bidx[r] + src.offs[s]..]` — and
/// adds that partial into `acc[r]` in the lanes of the tap's mask.
/// Lanes outside the mask keep their accumulator bits exactly; they may
/// have read anything. A tile of output channels shares one `B` base; a
/// tile of strips along one map row shares its `A` index.
///
/// Every dispatch target performs, per lane, exactly the chain
/// `part += a · b` with separate mul and add roundings, then one add
/// `acc + part` — bit-identical to [`scalar::fold_micro`].
///
/// # Panics
///
/// Panics if an `A` index or a `B` row falls outside its slice.
#[inline]
pub fn fold_micro<const MRR: usize>(
    acc: &mut [[f32; NR]; MRR],
    av: &[f32],
    aidx: &[usize; MRR],
    acs: usize,
    src: FoldSrc,
    bidx: &[usize; MRR],
    taps: &[FoldTap],
) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected.
            Isa::Avx2 => unsafe { x86::fold_micro_avx2(acc, av, aidx, acs, src, bidx, taps) },
            Isa::Scalar => scalar::fold_micro(acc, av, aidx, acs, src, bidx, taps),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::fold_micro(acc, av, aidx, acs, src, bidx, taps);
}

/// Checks the slice lengths of a `LeakyRelu` mask kernel.
fn check_leaky_lengths(dst: usize, src: usize, words: usize) {
    assert_eq!(dst, src, "leaky_relu kernel length mismatch");
    assert_eq!(
        words,
        src.div_ceil(64),
        "leaky_relu kernel needs one mask word per 64 values"
    );
}

/// The training `LeakyRelu` forward: `dst[i] = src[i]` where
/// `src[i] > 0`, else `alpha · src[i]`, and bit `i % 64` of
/// `bits[i / 64]` set exactly where `src[i] > 0` (a NaN compares false).
/// Every mask word is overwritten. Bit-identical to
/// [`scalar::leaky_relu_pack`] on every ISA: the output is `x` or one
/// `alpha · x` rounding.
///
/// # Panics
///
/// Panics unless `dst` and `src` have one length and `bits` one word
/// per 64 values.
#[inline]
pub fn leaky_relu_pack(dst: &mut [f32], src: &[f32], alpha: f32, bits: &mut [u64]) {
    check_leaky_lengths(dst.len(), src.len(), bits.len());
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected;
            // the lengths were checked above.
            Isa::Avx2 => unsafe { x86::leaky_relu_pack_avx2(dst, src, alpha, bits) },
            Isa::Scalar => scalar::leaky_relu_pack(dst, src, alpha, bits),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::leaky_relu_pack(dst, src, alpha, bits);
}

/// The `LeakyRelu` backward through a [`leaky_relu_pack`] mask:
/// `dst[i] = grad[i]` where bit `i` is set, else `alpha · grad[i]`.
/// Bit-identical to [`scalar::leaky_relu_unpack`] on every ISA.
///
/// # Panics
///
/// Panics unless `dst` and `grad` have one length and `bits` one word
/// per 64 values.
#[inline]
pub fn leaky_relu_unpack(dst: &mut [f32], grad: &[f32], alpha: f32, bits: &[u64]) {
    check_leaky_lengths(dst.len(), grad.len(), bits.len());
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected;
            // the lengths were checked above.
            Isa::Avx2 => unsafe { x86::leaky_relu_unpack_avx2(dst, grad, alpha, bits) },
            Isa::Scalar => scalar::leaky_relu_unpack(dst, grad, alpha, bits),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::leaky_relu_unpack(dst, grad, alpha, bits);
}

/// Interior kernel of a separable convolution:
/// `dst[i] = (Σ_t taps[t] · src[t · stride + i]) / norm`, taps in
/// ascending order — exactly the per-pixel chain the scalar border path
/// runs when every tap is in bounds. The AVX2 kernel vectorises across `i`
/// (independent output pixels); each lane keeps the serial tap order
/// and the final single division, so the interior is bit-identical to
/// the scalar reference at every pixel.
///
/// # Panics
///
/// Panics unless `src.len() >= (taps.len() - 1) · stride + dst.len()`.
#[inline]
pub fn conv_taps(dst: &mut [f32], src: &[f32], stride: usize, taps: &[f32], norm: f32) {
    assert!(
        taps.is_empty() || src.len() >= (taps.len() - 1) * stride + dst.len(),
        "conv_taps source too short: {} < ({} - 1) * {stride} + {}",
        src.len(),
        taps.len(),
        dst.len()
    );
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected;
            // the bound above guarantees every lane's loads are in range.
            Isa::Avx2 => unsafe { x86::conv_taps_avx2(dst, src, stride, taps, norm) },
            Isa::Scalar => scalar::conv_taps(dst, src, stride, taps, norm),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::conv_taps(dst, src, stride, taps, norm);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (h % 2003) as f32 / 500.0 - 2.0
            })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn bits2<const MRR: usize>(acc: &[[f32; NR]; MRR]) -> Vec<u32> {
        acc.iter().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn select_isa_prefers_widest_and_honours_force_scalar() {
        assert_eq!(select_isa(false, true), Isa::Avx2);
        assert_eq!(select_isa(false, false), Isa::Scalar);
        assert_eq!(select_isa(true, true), Isa::Scalar);
        assert_eq!(select_isa(true, false), Isa::Scalar);
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
    }

    /// The AVX2 gemm tile must equal the scalar reference bit-for-bit.
    /// Kernels are called directly (not via the global selector) so
    /// parallel tests never race on it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_micro_variants_match_scalar_bitwise() {
        fn run<const MRR: usize>(kc: usize, acs: usize, seed: u64) {
            let av = fill(seed, MRR * 4 + kc * acs.max(1) + 8);
            let panel = fill(seed ^ 99, kc * NR);
            let start: [usize; MRR] = std::array::from_fn(|r| r);
            let mut acc_ref = [[0.5f32; NR]; MRR];
            let mut idx = start;
            scalar::gemm_micro(&mut acc_ref, &av, &mut idx, acs, &panel);

            if std::arch::is_x86_feature_detected!("avx2") {
                let mut acc = [[0.5f32; NR]; MRR];
                let mut idx = start;
                // SAFETY: guarded by the avx2 feature check above.
                unsafe { x86::gemm_micro_avx2(&mut acc, &av, &mut idx, acs, &panel) };
                assert_eq!(bits2(&acc), bits2(&acc_ref), "avx2 MRR={MRR} kc={kc}");
            }
        }
        for (kc, acs, seed) in [(1, 1, 3), (7, 1, 5), (64, 3, 7), (256, 1, 11), (33, 2, 13)] {
            run::<1>(kc, acs, seed);
            run::<2>(kc, acs, seed);
            run::<4>(kc, acs, seed);
            run::<5>(kc, acs, seed);
            run::<8>(kc, acs, seed);
        }
    }

    /// The AVX2 in-place convolution tile must equal the scalar
    /// reference bit-for-bit: tiles sharing one `B` base, tiles with a
    /// base per row, `B` rows at overlapping one-element shifts (a
    /// fold's taps along one map row), and zero-padded border lanes of
    /// either sign, as a padded band holds them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn conv_micro_variants_match_scalar_bitwise() {
        fn run<const MRR: usize>(steps: usize, acs: usize, shared: bool, seed: u64) {
            let w = 13;
            let mut src = fill(seed, MRR * NR + steps * w + 3 * NR);
            // Zero-padded border lanes, as a padded band holds them.
            for (i, v) in src.iter_mut().enumerate() {
                if i % 11 < 2 {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let av = fill(seed ^ 5, MRR * 9 + steps * acs + 1);
            // Steps walk the map row by row with one-element shifts, so
            // consecutive `B` rows overlap.
            let offs: Vec<usize> = (0..steps).map(|t| t / 3 * w + t % 3).collect();
            let aidx: [usize; MRR] = std::array::from_fn(|r| r * 9);
            // Per-row bases that overlap and repeat (first equals last
            // at odd heights), so only an all-equal test may share a row.
            let bidx: [usize; MRR] =
                std::array::from_fn(|r| if shared { 2 } else { 1 + r % 2 * 3 });
            let start: [[f32; NR]; MRR] = std::array::from_fn(|r| {
                std::array::from_fn(|l| if (r + l) % 3 == 0 { 0.0 } else { 0.25 })
            });
            let mut want = start;
            scalar::conv_micro(&mut want, &av, &aidx, acs, &src, &bidx, &offs);
            let want = bits2(&want);

            if std::arch::is_x86_feature_detected!("avx2") {
                let mut acc = start;
                // SAFETY: guarded by the avx2 feature check above.
                unsafe { x86::conv_micro_avx2(&mut acc, &av, &aidx, acs, &src, &bidx, &offs) };
                assert_eq!(
                    bits2(&acc),
                    want,
                    "avx2 MRR={MRR} steps={steps} shared={shared}"
                );
            }
        }
        for (steps, acs, seed) in [(1, 1, 3), (9, 1, 5), (36, 4, 7), (100, 9, 11)] {
            for shared in [true, false] {
                run::<1>(steps, acs, shared, seed);
                run::<3>(steps, acs, shared, seed);
                run::<4>(steps, acs, shared, seed);
                run::<8>(steps, acs, shared, seed);
            }
        }
    }

    /// The AVX2 fold tile must equal the scalar reference bit-for-bit:
    /// channel tiles (one shared `B` base) and strip tiles (a base per
    /// row), partial lane masks (a border), skipped border taps (absent
    /// from the list), an all-masked tap, and a source holding `±0.0`
    /// and NaN in lanes both inside and outside the masks.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_micro_variants_match_scalar_bitwise() {
        fn run<const MRR: usize>(c_src: usize, strips: bool, seed: u64) {
            let (kk, c_out) = (9, MRR.max(3));
            let plane = 3 * 40;
            let mut map = fill(seed, c_src * plane + 64);
            for (i, x) in map.iter_mut().enumerate() {
                match i % 13 {
                    0 => *x = 0.0,
                    1 => *x = -0.0,
                    2 if i % 3 == 0 => *x = f32::NAN,
                    _ => {}
                }
            }
            let offs: Vec<usize> = (0..c_src).map(|c| c * plane).collect();
            let src = FoldSrc::new(&map, &offs);
            let av = fill(seed ^ 5, c_src * c_out * kk);
            // Taps 0 and 3 are skipped, as border taps outside the map
            // are; tap 7 is fully masked.
            let taps: Vec<FoldTap> = [1usize, 2, 4, 5, 6, 7, 8]
                .iter()
                .map(|&t| FoldTap {
                    a: t,
                    base: 40 + t,
                    mask: match t {
                        2 => 0b0111_1110,
                        5 => 0x0f,
                        7 => 0,
                        _ => u8::MAX,
                    },
                })
                .collect();
            let (aidx, bidx): ([usize; MRR], [usize; MRR]) = if strips {
                ([2 * kk; MRR], std::array::from_fn(|r| r * NR))
            } else {
                (std::array::from_fn(|r| r * kk), [0; MRR])
            };
            let acs = c_out * kk;
            let start: [[f32; NR]; MRR] = std::array::from_fn(|r| {
                std::array::from_fn(|l| [0.0, -0.0, 0.5, f32::NAN][(r + l) % 4])
            });
            let mut want = start;
            scalar::fold_micro(&mut want, &av, &aidx, acs, src, &bidx, &taps);
            // A fully masked tap leaves every lane's bits alone.
            let mut alone = start;
            scalar::fold_micro(&mut alone, &av, &aidx, acs, src, &bidx, &taps[5..6]);
            assert_eq!(bits2(&alone), bits2(&start), "masked tap moved a lane");
            let want = bits2(&want);

            if std::arch::is_x86_feature_detected!("avx2") {
                let mut acc = start;
                // SAFETY: guarded by the avx2 feature check above.
                unsafe { x86::fold_micro_avx2(&mut acc, &av, &aidx, acs, src, &bidx, &taps) };
                assert_eq!(
                    bits2(&acc),
                    want,
                    "avx2 MRR={MRR} c={c_src} strips={strips}"
                );
            }
        }
        for (c_src, seed) in [(1, 3), (4, 5), (12, 7), (24, 11)] {
            for strips in [false, true] {
                run::<1>(c_src, strips, seed);
                run::<3>(c_src, strips, seed);
                run::<4>(c_src, strips, seed);
                run::<8>(c_src, strips, seed);
            }
        }
    }

    /// The `LeakyRelu` mask kernels equal the scalar reference bit for
    /// bit — outputs and mask words — at lengths around one 64-value
    /// word, with NaN, `±0.0`, subnormal and infinite values.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn leaky_relu_variants_match_scalar_bitwise() {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for len in [1usize, 7, 63, 64, 65, 200] {
            let mut x = fill(len as u64, len);
            let g = fill(len as u64 ^ 9, len);
            for (i, v) in x.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = specials[i / 3 % specials.len()];
                }
            }
            let words = len.div_ceil(64);
            let alpha = 0.01;
            let mut want_y = vec![0.0f32; len];
            let mut want_bits = vec![u64::MAX; words];
            scalar::leaky_relu_pack(&mut want_y, &x, alpha, &mut want_bits);
            for (i, &v) in x.iter().enumerate() {
                assert_eq!(want_bits[i / 64] >> (i % 64) & 1 == 1, v > 0.0, "bit {i}");
            }
            let mut want_g = vec![0.0f32; len];
            scalar::leaky_relu_unpack(&mut want_g, &g, alpha, &want_bits);
            let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            if avx2 {
                let mut y = vec![0.0f32; len];
                let mut mask = vec![u64::MAX; words];
                // SAFETY: AVX2 was detected above; the lengths match the
                // dispatcher's contract.
                unsafe { x86::leaky_relu_pack_avx2(&mut y, &x, alpha, &mut mask) };
                assert_eq!(bits(&y), bits(&want_y), "avx2 pack len={len}");
                assert_eq!(mask, want_bits, "avx2 mask len={len}");
                let mut dg = vec![0.0f32; len];
                // SAFETY: as above.
                unsafe { x86::leaky_relu_unpack_avx2(&mut dg, &g, alpha, &mask) };
                assert_eq!(bits(&dg), bits(&want_g), "avx2 unpack len={len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn conv_taps_variants_match_scalar_bitwise() {
        for (len, stride, ntaps, seed) in [
            (1usize, 1usize, 1usize, 1u64),
            (17, 1, 13, 2),
            (40, 19, 7, 3),
            (8, 1, 25, 4),
        ] {
            let src = fill(seed, (ntaps - 1) * stride + len);
            let taps = fill(seed ^ 7, ntaps);
            let norm: f32 = taps.iter().sum();
            let mut want = vec![0.0f32; len];
            scalar::conv_taps(&mut want, &src, stride, &taps, norm);
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

            if std::arch::is_x86_feature_detected!("avx2") {
                let mut got = vec![0.0f32; len];
                // SAFETY: guarded by the avx2 feature check above.
                unsafe { x86::conv_taps_avx2(&mut got, &src, stride, &taps, norm) };
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "avx2 len={len} stride={stride} taps={ntaps}");
            }
        }
    }

    #[test]
    fn gemm_mr_is_a_supported_tile_height() {
        // Whatever the host selects, the driver must have a micro-kernel
        // arm for it.
        assert!(matches!(gemm_mr(), 4 | 8));
    }
}
