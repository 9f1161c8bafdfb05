//! SIMD micro-kernels behind a single runtime ISA selector.
//!
//! Every vectorised inner loop in the workspace lives here (plus the
//! litho aerial convolution, which calls back into this module): the
//! weight gradients' register tile, panel packing and lane-batch
//! product, the in-place convolution run (also the fully-connected
//! products' run), the fold run, RoI pooling's window maxima, the
//! in-place `LeakyRelu` mask pack and unpack, and the
//! separable-convolution interior kernel.
//! The lint rule L13 enforces that `core::arch` intrinsics and
//! `#[target_feature]` appear nowhere else.
//!
//! # Dispatch
//!
//! [`isa`] detects the instruction set once (honouring the
//! `RHSD_FORCE_SCALAR=1` environment variable) and caches it; all
//! kernels dispatch through that single selector. There are three
//! tiers: AVX-512 (F and VL) where the CPU has it, AVX2 where it has
//! that, and the scalar kernels in [`scalar`] everywhere else. The
//! AVX-512 tier widens the convolution and fold runs and the weight
//! gradients' kernels to 16 lanes, from the same bodies as their AVX2
//! kernels; every other kernel runs its AVX2 body there. The scalar
//! kernels are the reference implementations — they are the exact
//! loops the pre-SIMD code ran, and every SIMD kernel on either tier is
//! **bit-identical** to them:
//!
//! - the convolution run issues one `mul` and one `add` per lane per
//!   step (no FMA contraction, on either tier), matching the scalar
//!   `a += v · b` chain rounding-for-rounding, and adds a bias with one
//!   `add` as the scalar store does;
//! - the weight tile ([`weight_tile`]) runs one chain per lane the same
//!   way. A 16-lane vector holds two `NR` strips of output channels, or
//!   `16 / g` channels times `g` adjacent taps `(kx..kx + g)`, whose
//!   map values lie side by side at any stride, so one broadcast load
//!   (`g` values repeated) feeds every lane its own tap. A lane's chain
//!   is the same at any layout: its pixels in ascending order from
//!   `+0.0`, one `mul` then one `add` per pixel, padding a literal
//!   `0.0` term; a tap past the kernel's row is computed and never
//!   stored;
//! - the panel packing ([`pack_panel`]) moves bits and adds each packed
//!   value to its lane's bias chain, in pixel order from `-0.0`, as
//!   `Iterator::sum` does;
//! - the lane-batch product ([`lane_product`]) runs, in each lane, one
//!   map's chain of a `[C, H, W, N]` batch: the input's lane vector at
//!   the tap times the gradient's at the pixel, pixels ascending from
//!   `+0.0` — the chain the map alone runs on the weight tile;
//! - the fold run runs each tap's chain the same way from `+0.0`, then
//!   adds it in exactly the selected lanes and leaves the others' bits
//!   untouched;
//! - the window maxima scan each output's taps in order with the same
//!   ordered `>` compare, keeping the first maximum and its index;
//! - the `LeakyRelu` kernels select `x` or one `alpha · x` rounding per
//!   lane, by the same ordered `> 0` test (false for NaN) the scalar
//!   code runs;
//! - the interior convolution kernel vectorises across output pixels
//!   while each lane keeps the serial ascending-tap order.
//!
//! The ISA therefore changes speed, never results: an x86-64 CPU without
//! AVX2 runs the scalar reference, slower and to the same bits, and one
//! without AVX-512 the AVX2 runs.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub mod x86;

/// Register-tile width: the lanes of every tile (output columns of the
/// GEMM tile, pixels or vectors of the convolution tile).
pub const NR: usize = 8;

/// The instruction sets the dispatcher can select, in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The reference scalar kernels (any architecture).
    Scalar,
    /// 256-bit AVX2 lanes.
    Avx2,
    /// 512-bit AVX-512F lanes (with AVX-512VL's masked 256-bit forms)
    /// for the convolution and fold runs and the weight gradients: the
    /// weight tile holds two output-channel strips, or a strip's
    /// channels times two to sixteen adjacent taps, per `zmm`, and the
    /// lane-batch product sixteen maps. Each lane keeps the chain the
    /// scalar reference runs, so results do not change. Every other
    /// kernel runs its AVX2 body.
    Avx512,
}

impl Isa {
    /// Stable lowercase tag recorded in bench records and manifests.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// Pure selection logic, split out so tests can exercise every branch
/// without touching the process-global state: `force_scalar` is the
/// `RHSD_FORCE_SCALAR=1` override, `has_avx2` and `has_avx512` the
/// detected CPU features (`has_avx512`: AVX-512F and AVX-512VL). The
/// AVX-512 tier also runs the AVX2 kernels, so it needs both.
pub fn select_isa(force_scalar: bool, has_avx2: bool, has_avx512: bool) -> Isa {
    match (force_scalar, has_avx2, has_avx512) {
        (false, true, true) => Isa::Avx512,
        (false, true, false) => Isa::Avx2,
        _ => Isa::Scalar,
    }
}

/// Sentinel meaning "not yet detected".
const ISA_UNSET: u8 = u8::MAX;

static ACTIVE_ISA: AtomicU8 = AtomicU8::new(ISA_UNSET);

fn encode(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => 0,
        Isa::Avx2 => 1,
        Isa::Avx512 => 2,
    }
}

fn decode(v: u8) -> Isa {
    match v {
        1 => Isa::Avx2,
        2 => Isa::Avx512,
        _ => Isa::Scalar,
    }
}

fn detect() -> Isa {
    let force_scalar = std::env::var_os("RHSD_FORCE_SCALAR").is_some_and(|v| v == "1");
    #[cfg(target_arch = "x86_64")]
    {
        select_isa(
            force_scalar,
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        select_isa(force_scalar, false, false)
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

/// Overrides the active instruction set, process-wide, with the best
/// detected tier that is not above `requested`, and returns it.
///
/// Intended for the microbench harness (timing one kernel on several
/// tiers) and for dispatch tests; production code never calls this —
/// it relies on [`isa`]'s one-time detection. Under
/// `RHSD_FORCE_SCALAR=1` every request grants the scalar reference.
pub fn set_isa(requested: Isa) -> Isa {
    let granted = requested.min(detect());
    ACTIVE_ISA.store(encode(granted), Ordering::Relaxed);
    granted
}

/// The active ISA's stable name (for records and manifests).
pub fn isa_name() -> &'static str {
    isa().name()
}

/// Register-tile height for the active ISA: the rows of the
/// convolution and fold runs, the weight-gradient tile and the
/// lane-batch product. The SIMD tiers keep eight rows of accumulators
/// in registers (enough independent add chains to saturate the FP
/// ports); the scalar reference keeps the committed MR = 4. The height
/// never affects results — each output element's chain is the same at
/// any tiling — so this is a pure scheduling choice.
pub fn gemm_mr() -> usize {
    match isa() {
        Isa::Avx2 | Isa::Avx512 => 8,
        Isa::Scalar => 4,
    }
}

/// The widest vector of the active ISA's weight-gradient kernels, in
/// lanes: 16 on AVX-512, else one `NR` strip. The scalar reference
/// takes the AVX2 layouts, so both plan one way.
pub fn weight_lanes() -> usize {
    match isa() {
        Isa::Avx512 => 2 * NR,
        Isa::Avx2 | Isa::Scalar => NR,
    }
}

/// Where the steps of a weight-gradient chain read the map: step `s`
/// lies `(s / run) · row + (s % run) · col` past its row's index — `run`
/// output pixels to an output row, `col` apart, output rows `row` apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walk {
    /// Steps per output row.
    pub run: usize,
    /// Distance between two steps of an output row.
    pub col: usize,
    /// Distance between two output rows.
    pub row: usize,
}

impl Walk {
    /// The offset of step `s`.
    pub fn at(self, s: usize) -> usize {
        s / self.run * self.row + s % self.run * self.col
    }

    /// The offset of the last of `steps` steps, if there is one.
    ///
    /// # Panics
    ///
    /// Panics unless `steps` is a whole number of runs.
    fn last(self, steps: usize) -> Option<usize> {
        let last = steps.checked_sub(1)?;
        assert!(
            self.run > 0 && steps.is_multiple_of(self.run),
            "walk: steps must be whole runs"
        );
        Some(self.at(last))
    }
}

/// The weight gradients' register tile (`conv::weight_product`):
/// `MRR` rows of `v` lanes (`acc[r · v + l]`), each lane one chain of
/// `acc += a · b` continued over the panel's `panel.len() / v` steps.
/// Lane `l` of row `r` reads `a` at `aidx[r] + walk.at(s) + l % g` —
/// the row's `g` taps lie side by side in the map — and `b` at
/// `panel[s · v + l]`. `v` is 8 (one `ymm`) or 16 (one `zmm` on
/// AVX-512), `g` a power of two dividing it.
///
/// Every dispatch target performs, per lane, exactly `acc += a · b`
/// with separate mul and add roundings — bit-identical to
/// [`scalar::weight_tile`].
///
/// # Panics
///
/// Panics if `acc` is not `MRR` rows of `v`, the panel not whole runs
/// of steps, `g` not a power of two dividing `v`, or a row's last read
/// falls outside `av`.
#[inline]
pub fn weight_tile<const MRR: usize>(
    acc: &mut [f32],
    (av, aidx): (&[f32], &[usize; MRR]),
    walk: Walk,
    panel: &[f32],
    (v, g): (usize, usize),
) {
    assert!(
        g.is_power_of_two() && v.is_multiple_of(g) && acc.len() == MRR * v,
        "weight_tile: {MRR} rows of {v} lanes in groups of {g}"
    );
    assert!(panel.len().is_multiple_of(v), "weight_tile: whole steps");
    if let Some(last) = walk.last(panel.len() / v) {
        for &i in aidx {
            assert!(
                i + last + g <= av.len(),
                "weight_tile: A index out of range"
            );
        }
    }
    let a = (av, aidx);
    #[cfg(target_arch = "x86_64")]
    {
        match (isa(), v) {
            // SAFETY: Isa::Avx512 is only selected when AVX-512F and
            // AVX-512VL are detected; every read was bounded above.
            (Isa::Avx512, 16) => unsafe { x86::weight_tile_avx512(acc, a, walk, panel, g) },
            // SAFETY: both SIMD tiers are only selected when AVX2 is
            // detected; every read was bounded above.
            (Isa::Avx2 | Isa::Avx512, 8) => unsafe {
                x86::weight_tile_avx2(acc, a, walk, panel, g)
            },
            _ => scalar::weight_tile(acc, a, walk, panel, (v, g)),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::weight_tile(acc, a, walk, panel, (v, g));
}

/// Packs the weight-gradient tile's panel: for each pixel `p` of `px`,
/// `v` values at `panel[(p − px.start) · v..]`, lane `l` holding row
/// `l / g` of `rows` (`rows.len() / pixels` rows of `pixels` values) at
/// `p`, or `0.0` past the last row. With `sums`, each packed value is
/// also added to its lane's sum, in pixel order: the bias gradients'
/// chains, continued from the values `sums` holds.
///
/// Moves bits only, plus one add per lane per pixel — bit-identical to
/// [`scalar::pack_panel`] on every tier.
///
/// # Panics
///
/// Panics unless `rows` holds whole rows, at least one and at most
/// `v / g`, `px` lies inside them, `panel` holds every pixel's lanes
/// and `sums` (when given) one value per lane.
#[inline]
pub fn pack_panel(
    panel: &mut [f32],
    rows: &[f32],
    pixels: usize,
    px: Range<usize>,
    (v, g): (usize, usize),
    sums: Option<&mut [f32]>,
) {
    assert!(
        pixels > 0 && rows.len().is_multiple_of(pixels),
        "pack_panel: whole rows"
    );
    let cs = rows.len() / pixels;
    assert!(
        g.is_power_of_two() && v.is_multiple_of(g) && (1..=v / g).contains(&cs),
        "pack_panel: {cs} rows in {v} lanes of groups of {g}"
    );
    assert!(
        px.start <= px.end && px.end <= pixels && panel.len() >= px.len() * v,
        "pack_panel: pixels out of range"
    );
    assert!(
        sums.as_ref().is_none_or(|s| s.len() == v),
        "pack_panel: one sum per lane"
    );
    #[cfg(target_arch = "x86_64")]
    {
        match (isa(), v) {
            // SAFETY: Isa::Avx512 is only selected when AVX-512F and
            // AVX-512VL are detected; the bounds were checked above.
            (Isa::Avx512, 16) => unsafe {
                x86::pack_panel_avx512(panel, rows, pixels, px, g, sums)
            },
            // SAFETY: both SIMD tiers are only selected when AVX2 is
            // detected; the bounds were checked above.
            (Isa::Avx2 | Isa::Avx512, 8) => unsafe {
                x86::pack_panel_avx2(panel, rows, pixels, px, g, sums)
            },
            _ => scalar::pack_panel(panel, rows, pixels, px, (v, g), sums),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::pack_panel(panel, rows, pixels, px, (v, g), sums);
}

/// The lane-batch weight-gradient product (`conv::weight_grads` on a
/// `[C, H, W, N]` batch, the maps in the lanes): `MRR` rows of `v`
/// lanes written over `out[r · ostride..]`, each lane the chain from `+0.0`
/// of `acc += x · y` over `steps` steps — step `s` of row `r` reads
/// `v` lanes of `x` at `xo[r] + walk.at(s)` and of `y`, which every
/// row shares, at `yo + s · ystep`. `v` is 8 or 16, as for
/// [`weight_tile`].
///
/// Every dispatch target performs, per lane, exactly `acc += x · y`
/// with separate mul and add roundings — bit-identical to
/// [`scalar::lane_product`].
///
/// # Panics
///
/// Panics if `out` does not hold `MRR` rows of `v` lanes `ostride`
/// apart, the steps are not whole runs, or a row's last read falls
/// outside `x` or `y`.
#[inline]
pub fn lane_product<const MRR: usize>(
    (out, ostride): (&mut [f32], usize),
    (xv, xo): (&[f32], &[usize; MRR]),
    (yv, yo): (&[f32], usize),
    (walk, ystep, steps): (Walk, usize, usize),
    v: usize,
) {
    assert!(
        ostride >= v && out.len() >= (MRR - 1) * ostride + v,
        "lane_product: {MRR} rows of {v} lanes"
    );
    if let Some(last) = walk.last(steps) {
        assert!(
            xo.iter().all(|&x| x + last + v <= xv.len())
                && yo + (steps - 1) * ystep + v <= yv.len(),
            "lane_product: a read out of range"
        );
    }
    let (x, y, st) = ((xv, xo), (yv, yo), (walk, ystep, steps));
    #[cfg(target_arch = "x86_64")]
    {
        match (isa(), v) {
            // SAFETY: Isa::Avx512 is only selected when AVX-512F and
            // AVX-512VL are detected; every read was bounded above.
            (Isa::Avx512, 16) => unsafe { x86::lane_product_avx512((out, ostride), x, y, st) },
            // SAFETY: both SIMD tiers are only selected when AVX2 is
            // detected; every read and row was bounded above.
            (Isa::Avx2 | Isa::Avx512, 8) => unsafe {
                x86::lane_product_avx2((out, ostride), x, y, st)
            },
            _ => scalar::lane_product((out, ostride), x, y, st, v),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::lane_product((out, ostride), x, y, st, v);
}

/// Where a run's `B` rows lie: step `s` of a row based at `base` reads
/// `v[base + offs[s]..][..NR]`. The span is computed once, when the
/// steps are listed, so a kernel call proves its loads in bounds
/// without scanning them.
#[derive(Clone, Copy)]
pub struct Src<'a> {
    v: &'a [f32],
    offs: &'a [usize],
    /// One past the furthest value a `B` row at `base` 0 reads.
    span: usize,
}

impl<'a> Src<'a> {
    /// The steps at `offs`, bound to no values yet: [`Src::on`] binds
    /// them.
    pub fn new(offs: &'a [usize]) -> Self {
        let span = offs.iter().max().map_or(0, |&o| o + NR);
        Src { v: &[], offs, span }
    }

    /// The same steps in `v`, their span kept.
    pub fn on<'b>(self, v: &'b [f32]) -> Src<'b>
    where
        'a: 'b,
    {
        Src { v, ..self }
    }
}

/// The strips of a run: `⌈len / NR⌉` of every output row.
///
/// # Panics
///
/// Panics unless every row has the same number of strips.
fn run_strips<const MRR: usize>(out: &[&mut [f32]; MRR]) -> usize {
    let strips = out.first().map_or(0, |o| o.len().div_ceil(NR));
    assert!(
        out.iter().all(|o| o.len().div_ceil(NR) == strips),
        "run rows must have one strip count"
    );
    strips
}

/// The run kernel of the in-place convolutions (`ops::direct`) and the
/// matrix–vector products: every strip of `MRR` output rows in one
/// call, with `a` the `A` operand `(av, aidx, acs)`. Strip `j` of row
/// `r` is `out[r][j · NR..]`, its last strip the row's last `len % NR`
/// values when they are not a whole strip. The rows share one `B`
/// base, and each has its own `A` index: a run is a block of output
/// channels over one stretch of a row, or of outputs over one batch.
/// Each lane runs one chain from `init` over `src`'s steps — step `s`
/// multiplies `A` at `aidx[r] + s · acs` by the `NR` values at
/// `src.v[base + j · NR + src.offs[s]..]` — then adds `bias[r]` when
/// there is a bias, and only the lanes inside `out[r]` are stored.
/// Lanes past a row's end read whatever lies there and are never
/// written.
///
/// Every dispatch target performs, per lane, exactly `acc += a · b`
/// with separate mul and add roundings, then one add of the bias —
/// bit-identical to [`scalar::conv_micro`]. Without a bias the chain is
/// stored as it is: `x + 0.0` is not `x` when `x` is `-0.0`.
///
/// # Panics
///
/// Panics if the rows' strip counts differ, or an `A` index or a `B`
/// row falls outside its slice.
#[inline]
pub fn conv_micro<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    base: usize,
    init: f32,
    bias: Option<[f32; MRR]>,
) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx512 is only selected when AVX-512F and
            // AVX-512VL are detected.
            Isa::Avx512 => unsafe { x86::conv_micro_avx512(out, a, src, base, init, bias) },
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected.
            Isa::Avx2 => unsafe { x86::conv_micro_avx2(out, a, src, base, init, bias) },
            Isa::Scalar => scalar::conv_micro(out, a, src, base, init, bias),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::conv_micro(out, a, src, base, init, bias);
}

/// One tap of a [`fold_micro`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldTap {
    /// Offset of the tap's weights from each run row's `A` index.
    pub a: usize,
    /// Where the tap's `B` rows start in the source, for strip 0.
    pub base: usize,
    /// The lanes the tap adds to (bit `l` is lane `l`), in every strip.
    pub mask: u8,
}

/// The run kernel of the in-place fold (`ops::direct`): every strip of
/// `MRR` output rows in one call, laid out as in [`conv_micro`], the
/// rows a block of output channels over one stretch of a row. Each
/// lane starts at `+0.0`; for each tap in order, row `r` runs a fresh
/// `+0.0` chain over the source channels — step `s` of strip `j`
/// multiplies `A` at `aidx[r] + tap.a + s · acs` by the `NR` values at
/// `src.v[tap.base + j · NR + src.offs[s]..]` — and adds that partial
/// to the lane when the tap's mask holds it. Lanes outside the mask
/// keep their bits exactly; they may have read anything. Then the bias
/// is added, when there is one, and the lanes inside `out[r]` are
/// stored.
///
/// Every dispatch target performs, per lane, exactly the chain
/// `part += a · b` with separate mul and add roundings, then one add
/// `acc + part` per tap, then one add of the bias — bit-identical to
/// [`scalar::fold_micro`].
///
/// # Panics
///
/// Panics if the rows' strip counts differ, or an `A` index or a `B`
/// row falls outside its slice.
#[inline]
pub fn fold_micro<const MRR: usize>(
    out: [&mut [f32]; MRR],
    a: (&[f32], &[usize; MRR], usize),
    src: Src,
    taps: &[FoldTap],
    bias: Option<[f32; MRR]>,
) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: Isa::Avx512 is only selected when AVX-512F and
            // AVX-512VL are detected.
            Isa::Avx512 => unsafe { x86::fold_micro_avx512(out, a, src, taps, bias) },
            // SAFETY: Isa::Avx2 is only selected when AVX2 is detected.
            Isa::Avx2 => unsafe { x86::fold_micro_avx2(out, a, src, taps, bias) },
            Isa::Scalar => scalar::fold_micro(out, a, src, taps, bias),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::fold_micro(out, a, src, taps, bias);
}

/// The window maxima of RoI pooling (`ops::pool`): for every plane `ci`
/// of `src` (`plane` values each) and every output `o` of a plane,
/// `dst[ci · m + o]` is the first maximum — strict `>` from `-inf` — of
/// the plane's values at `o`'s taps in `idx`, in tap order, and
/// `at[ci · m + o]`, when given, that value's offset in `src`,
/// `ci · plane + index` (tap 0's when no value beats `-inf`). A plane's `m` outputs come in groups of
/// `lanes`: tap `t` of output `g · lanes + r` is
/// `idx[(g · taps + t) · lanes + r]`.
///
/// Every dispatch target runs, per output, exactly that ordered scan
/// with the same compare (false for NaN) — bit-identical to
/// [`scalar::window_max`]. The AVX2 kernel gathers `NR` lanes of a
/// group at a time and stores them whole.
///
/// # Panics
///
/// Panics unless `taps` and `lanes` are positive, `idx` holds whole
/// groups of `taps · lanes` indices, `dst` (and `at`) whole planes of
/// outputs, `src` at least as many planes, every index is below `plane`
/// and every offset fits an `i32`.
#[inline]
pub fn window_max(
    dst: &mut [f32],
    at: Option<&mut [u32]>,
    src: &[f32],
    plane: usize,
    idx: &[u32],
    (taps, lanes): (usize, usize),
) {
    assert!(taps > 0 && lanes > 0, "window_max needs taps and lanes");
    assert_eq!(idx.len() % (taps * lanes), 0, "window_max: whole groups");
    let m = idx.len() / taps;
    if m == 0 {
        assert!(dst.is_empty(), "window_max: outputs without taps");
        return;
    }
    assert_eq!(dst.len() % m, 0, "window_max: whole planes of outputs");
    assert!(
        at.as_ref().is_none_or(|a| a.len() == dst.len()),
        "window_max: one index per output"
    );
    let planes = dst.len() / m;
    assert!(src.len() >= planes * plane, "window_max: source planes");
    assert!(
        i32::try_from(planes * plane).is_ok() && idx.iter().all(|&i| (i as usize) < plane),
        "window_max: an index outside its plane"
    );
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: both SIMD tiers are only selected when AVX2 is
            // detected; the checks above bound every gathered index and
            // store.
            Isa::Avx2 | Isa::Avx512 => unsafe {
                x86::window_max_avx2(dst, at, src, plane, idx, (taps, lanes))
            },
            Isa::Scalar => scalar::window_max(dst, at, src, plane, idx, (taps, lanes)),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::window_max(dst, at, src, plane, idx, (taps, lanes));
}

/// Checks that a `LeakyRelu` mask kernel has one word per 64 values.
fn check_leaky_words(len: usize, words: usize) {
    assert_eq!(
        words,
        len.div_ceil(64),
        "leaky_relu kernel needs one mask word per 64 values"
    );
}

/// The `LeakyRelu` forward in place: `x[i]` stays where `x[i] > 0`,
/// else becomes `alpha · x[i]`, and bit `i % 64` of `bits[i / 64]` is
/// set exactly where `x[i] > 0` (a NaN compares false). Every mask word
/// is overwritten. Bit-identical to [`scalar::leaky_relu_pack`] on
/// every ISA: each value is `x` or one `alpha · x` rounding.
///
/// # Panics
///
/// Panics unless `bits` has one word per 64 values.
#[inline]
pub fn leaky_relu_pack(x: &mut [f32], alpha: f32, bits: &mut [u64]) {
    check_leaky_words(x.len(), bits.len());
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: both SIMD tiers are only selected when AVX2 is
            // detected; the mask length was checked above.
            Isa::Avx2 | Isa::Avx512 => unsafe { x86::leaky_relu_pack_avx2(x, alpha, bits) },
            Isa::Scalar => scalar::leaky_relu_pack(x, alpha, bits),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::leaky_relu_pack(x, alpha, bits);
}

/// The `LeakyRelu` backward in place through a [`leaky_relu_pack`]
/// mask: `g[i]` stays where bit `i` is set, else becomes
/// `alpha · g[i]`. Bit-identical to [`scalar::leaky_relu_unpack`] on
/// every ISA.
///
/// # Panics
///
/// Panics unless `bits` has one word per 64 values.
#[inline]
pub fn leaky_relu_unpack(g: &mut [f32], alpha: f32, bits: &[u64]) {
    check_leaky_words(g.len(), bits.len());
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: both SIMD tiers are only selected when AVX2 is
            // detected; the mask length was checked above.
            Isa::Avx2 | Isa::Avx512 => unsafe { x86::leaky_relu_unpack_avx2(g, alpha, bits) },
            Isa::Scalar => scalar::leaky_relu_unpack(g, alpha, bits),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::leaky_relu_unpack(g, alpha, bits);
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
            // SAFETY: both SIMD tiers are only selected when AVX2 is
            // detected; the bound above guarantees every lane's loads are
            // in range.
            Isa::Avx2 | Isa::Avx512 => unsafe { x86::conv_taps_avx2(dst, src, stride, taps, norm) },
            Isa::Scalar => scalar::conv_taps(dst, src, stride, taps, norm),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar::conv_taps(dst, src, stride, taps, norm);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (h % 2003) as f32 / 500.0 - 2.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `v` with `-0.0`, `+0.0`, ±Inf and NaN spread through it. The NaN
    /// is x86's default NaN, the one `Inf · 0` and `Inf − Inf` give, so
    /// every NaN a chain can hold has one bit pattern, whichever operand
    /// order the compiler picks for a scalar `*` or `+` (a sum of two
    /// NaNs keeps one operand's payload).
    fn specials(mut v: Vec<f32>, seed: usize) -> Vec<f32> {
        let special = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN];
        for (i, x) in v.iter_mut().enumerate() {
            if (i + seed).is_multiple_of(7) {
                *x = special[(i / 7 + seed) % special.len()];
            }
        }
        v
    }

    #[test]
    fn select_isa_prefers_widest_and_honours_force_scalar() {
        // (force_scalar, avx2, avx512) → the granted tier.
        let cases = [
            ((false, true, true), Isa::Avx512),
            ((false, true, false), Isa::Avx2),
            // AVX-512 alone is no tier: its other kernels are AVX2's.
            ((false, false, true), Isa::Scalar),
            ((false, false, false), Isa::Scalar),
            ((true, true, true), Isa::Scalar),
            ((true, true, false), Isa::Scalar),
            ((true, false, true), Isa::Scalar),
            ((true, false, false), Isa::Scalar),
        ];
        for ((force, avx2, avx512), want) in cases {
            assert_eq!(
                select_isa(force, avx2, avx512),
                want,
                "{force} {avx2} {avx512}"
            );
        }
        assert!(Isa::Scalar < Isa::Avx2 && Isa::Avx2 < Isa::Avx512);
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Avx512.name(), "avx512");
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            assert_eq!(decode(encode(isa)), isa);
        }
    }

    /// Serialises the tests that move the process-wide selector. Every
    /// other test may run under any tier meanwhile, which changes no
    /// bit.
    static TIERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` under every tier this CPU grants, each made active in
    /// turn through [`set_isa`]; the detected tier is active again
    /// afterwards. Returns the tiers run.
    pub(crate) fn each_tier(mut f: impl FnMut(Isa)) -> Vec<Isa> {
        let _serial = TIERS.lock().unwrap_or_else(|e| e.into_inner());
        let mut tiers: Vec<Isa> = Vec::new();
        for want in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            let got = set_isa(want);
            assert!(got <= want, "set_isa granted {got:?} above {want:?}");
            if tiers.last() != Some(&got) {
                assert_eq!(isa(), got);
                f(got);
                tiers.push(got);
            }
        }
        set_isa(Isa::Avx512);
        assert_eq!(isa(), detect());
        assert_eq!(tiers.last(), Some(&detect()), "every granted tier ran");
        tiers
    }

    /// A value past a run row's end: a NaN whose payload no kernel
    /// produces, so a store that reaches it shows.
    const GUARD: u32 = 0x7fc0_dead;

    /// Run rows of `lens` values, each followed by two strips of guard
    /// values, which a 16-lane store past the end would reach.
    fn guarded(lens: &[usize]) -> Vec<Vec<f32>> {
        lens.iter()
            .map(|&l| vec![f32::from_bits(GUARD); l + 2 * NR])
            .collect()
    }

    /// The run rows of `bufs`: the first `lens[r]` values of each.
    fn run_rows<'b, const MRR: usize>(
        bufs: &'b mut [Vec<f32>],
        lens: &[usize; MRR],
    ) -> [&'b mut [f32]; MRR] {
        let mut rows = bufs.iter_mut().zip(lens);
        std::array::from_fn(|_| {
            let (b, &l) = rows.next().unwrap();
            &mut b[..l]
        })
    }

    /// The bits of every row of `bufs`, guards included, after
    /// checking that no guard moved.
    fn run_bits(bufs: &[Vec<f32>], lens: &[usize], what: &str) -> Vec<u32> {
        for (b, &l) in bufs.iter().zip(lens) {
            assert!(
                b[l..].iter().all(|v| v.to_bits() == GUARD),
                "{what}: a store passed the row's end"
            );
        }
        bufs.iter().flatten().map(|v| v.to_bits()).collect()
    }

    /// The lengths of a run's `MRR` rows: `strips` strips, the last one
    /// `tail` lanes wide (`0`: whole).
    fn run_lens<const MRR: usize>(strips: usize, tail: usize) -> [usize; MRR] {
        [(strips - 1) * NR + if tail == 0 { NR } else { tail }; MRR]
    }

    /// Per-row biases with a `-0.0` and a NaN among them.
    fn run_biases<const MRR: usize>() -> [Option<[f32; MRR]>; 2] {
        let b = std::array::from_fn(|r| [0.25, -0.0, f32::NAN, -1.5][r % 4]);
        [None, Some(b)]
    }

    /// Run shapes: strip counts odd and even (a 16-lane vector holds
    /// two strips, so an odd count ends in a half vector), each with a
    /// last strip of every width.
    fn run_shapes() -> impl Iterator<Item = (usize, usize)> {
        [1, 2, 3, 4, 7, 15, 16, 17]
            .into_iter()
            .flat_map(|strips| (0..NR).map(move |tail| (strips, tail)))
    }

    /// Calls `run::<MRR>(args)` for every run height `MRR` in 1..=8.
    macro_rules! every_height {
        ($run:ident ( $($arg:expr),* )) => {{
            $run::<1>($($arg),*);
            $run::<2>($($arg),*);
            $run::<3>($($arg),*);
            $run::<4>($($arg),*);
            $run::<5>($($arg),*);
            $run::<6>($($arg),*);
            $run::<7>($($arg),*);
            $run::<8>($($arg),*);
        }};
    }

    /// The convolution run equals the scalar reference bit-for-bit under
    /// every tier the CPU grants, dispatched as production code is: run
    /// heights 1..=8, 1–17 strips with a last strip of every width,
    /// chains from `±0.0`, with and without a bias (`-0.0` and NaN
    /// included), and zero-padded border lanes of either sign, as a
    /// padded band holds them. The values past each row's end come back
    /// unchanged: the last strip's store is masked.
    #[test]
    fn conv_micro_matches_scalar_bitwise_on_every_tier() {
        fn run<const MRR: usize>(strips: usize, tail: usize) {
            let w = 13;
            for (steps, acs, seed) in [(0, 1, 2), (1, 1, 3), (9, 1, 5), (36, 4, 7), (100, 9, 11)] {
                let mut v = fill(seed, 4 + strips * NR + steps * w + 3 * NR);
                // Zero-padded border lanes, as a padded band holds them.
                for (i, x) in v.iter_mut().enumerate() {
                    if i % 11 < 2 {
                        *x = if i % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                // Steps walk the map row by row with one-element shifts,
                // so consecutive `B` rows overlap.
                let offs: Vec<usize> = (0..steps).map(|t| t / 3 * w + t % 3).collect();
                let src = Src::new(&offs).on(&v);
                let av = fill(seed ^ 5, MRR * 9 + steps * acs + 1);
                let aidx: [usize; MRR] = std::array::from_fn(|r| r * 9);
                let lens = run_lens::<MRR>(strips, tail);
                for init in [0.0, -0.0] {
                    for bias in run_biases::<MRR>() {
                        let what = format!(
                            "{:?} MRR={MRR} strips={strips} tail={tail} steps={steps} \
                             init={init} bias={}",
                            isa(),
                            bias.is_some()
                        );
                        let a = (&av[..], &aidx, acs);
                        let mut want = guarded(&lens);
                        scalar::conv_micro(run_rows(&mut want, &lens), a, src, 2, init, bias);
                        let want = run_bits(&want, &lens, &what);
                        let mut got = guarded(&lens);
                        conv_micro(run_rows(&mut got, &lens), a, src, 2, init, bias);
                        assert_eq!(run_bits(&got, &lens, &what), want, "{what}");
                    }
                }
            }
        }
        let tiers = each_tier(|_| {
            for (strips, tail) in run_shapes() {
                every_height!(run(strips, tail));
            }
        });
        assert_eq!(tiers[0], Isa::Scalar);
    }

    /// A run's rows must have one strip count: the last strip of each
    /// row is the same strip.
    #[test]
    #[should_panic(expected = "run rows must have one strip count")]
    fn conv_micro_rejects_ragged_runs() {
        let (mut a, mut b) = ([0.0f32; NR], [0.0f32; 2 * NR]);
        let offs = [0usize];
        let v = [0.0f32; 3 * NR];
        let out = [&mut a[..], &mut b[..]];
        conv_micro(
            out,
            (&[1.0; 2], &[0, 1], 1),
            Src::new(&offs).on(&v),
            0,
            0.0,
            None,
        );
    }

    /// The fold run equals the scalar reference bit-for-bit under every
    /// tier the CPU grants, dispatched as production code is: run
    /// heights 1..=8, 1–17 strips with a last strip of every width,
    /// with and without a bias (`-0.0` and NaN included), partial lane
    /// masks (a border), skipped border taps (absent from the list), an
    /// all-masked tap, and a source holding `±0.0` and NaN in lanes both
    /// inside and outside the masks. The values past each row's end
    /// come back unchanged: the last strip's store is masked.
    #[test]
    fn fold_micro_matches_scalar_bitwise_on_every_tier() {
        fn run<const MRR: usize>(strips: usize, tail: usize) {
            let (kk, c_out) = (9, MRR.max(3));
            let w = strips * NR + 2 * NR + 9;
            let plane = 3 * w;
            for (c_src, seed) in [(1, 3), (4, 5), (12, 7), (24, 11)] {
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
                let src = Src::new(&offs).on(&map);
                let av = fill(seed ^ 5, c_src * c_out * kk);
                // Taps 0 and 3 are skipped, as border taps outside the
                // map are; tap 7 is fully masked.
                let taps: Vec<FoldTap> = [1usize, 2, 4, 5, 6, 7, 8]
                    .iter()
                    .map(|&t| FoldTap {
                        a: t,
                        base: w + t,
                        mask: match t {
                            2 => 0b0111_1110,
                            5 => 0x0f,
                            6 => 0b1000_0001,
                            7 => 0,
                            _ => u8::MAX,
                        },
                    })
                    .collect();
                let aidx: [usize; MRR] = std::array::from_fn(|r| r * kk);
                let a = (&av[..], &aidx, c_out * kk);
                let lens = run_lens::<MRR>(strips, tail);
                // A fully masked tap alone leaves the `+0.0` start.
                let mut alone = guarded(&lens);
                fold_micro(run_rows(&mut alone, &lens), a, src, &taps[5..6], None);
                let alone = run_bits(&alone, &lens, "masked tap");
                assert!(
                    alone.iter().all(|&b| b == 0 || b == GUARD),
                    "masked tap moved a lane"
                );
                for bias in run_biases::<MRR>() {
                    let what = format!(
                        "{:?} MRR={MRR} strips={strips} tail={tail} c={c_src} bias={}",
                        isa(),
                        bias.is_some()
                    );
                    let mut want = guarded(&lens);
                    scalar::fold_micro(run_rows(&mut want, &lens), a, src, &taps, bias);
                    let want = run_bits(&want, &lens, &what);
                    let mut got = guarded(&lens);
                    fold_micro(run_rows(&mut got, &lens), a, src, &taps, bias);
                    assert_eq!(run_bits(&got, &lens, &what), want, "{what}");
                }
            }
        }
        let tiers = each_tier(|_| {
            for (strips, tail) in run_shapes() {
                every_height!(run(strips, tail));
            }
        });
        assert_eq!(tiers[0], Isa::Scalar);
    }

    /// The in-place `LeakyRelu` mask kernels equal the scalar reference
    /// bit for bit — values and mask words — at lengths around one
    /// 64-value word (and none), with NaN, `±0.0`, subnormal and infinite
    /// values; and the reference keeps `x` where `x > 0` and takes one
    /// `alpha · x` rounding elsewhere.
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
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for len in [0usize, 1, 7, 63, 64, 65, 200] {
            let mut x = fill(len as u64, len);
            let mut g = fill(len as u64 ^ 9, len);
            for (i, (x, g)) in x.iter_mut().zip(&mut g).enumerate() {
                if i % 3 == 0 {
                    *x = specials[i / 3 % specials.len()];
                    *g = specials[(i / 3 + 2) % specials.len()];
                }
            }
            let words = len.div_ceil(64);
            let alpha = 0.01;
            let mut want_y = x.clone();
            let mut want_bits = vec![u64::MAX; words];
            scalar::leaky_relu_pack(&mut want_y, alpha, &mut want_bits);
            for (i, (&v, &y)) in x.iter().zip(&want_y).enumerate() {
                assert_eq!(want_bits[i / 64] >> (i % 64) & 1 == 1, v > 0.0, "bit {i}");
                let want = if v > 0.0 { v } else { alpha * v };
                assert_eq!(y.to_bits(), want.to_bits(), "value {i}");
            }
            let mut want_g = g.clone();
            scalar::leaky_relu_unpack(&mut want_g, alpha, &want_bits);
            for (i, (&v, &d)) in g.iter().zip(&want_g).enumerate() {
                let pos = want_bits[i / 64] >> (i % 64) & 1 == 1;
                let want = if pos { v } else { alpha * v };
                assert_eq!(d.to_bits(), want.to_bits(), "gradient {i}");
            }
            let mut y = x.clone();
            let mut mask = vec![u64::MAX; words];
            leaky_relu_pack(&mut y, alpha, &mut mask);
            assert_eq!(bits(&y), bits(&want_y), "dispatched pack len={len}");
            assert_eq!(mask, want_bits, "dispatched mask len={len}");
            let mut dg = g.clone();
            leaky_relu_unpack(&mut dg, alpha, &mask);
            assert_eq!(bits(&dg), bits(&want_g), "dispatched unpack len={len}");
            if avx2 {
                let mut y = x.clone();
                let mut mask = vec![u64::MAX; words];
                // SAFETY: AVX2 was detected above; the mask length
                // matches the dispatcher's contract.
                unsafe { x86::leaky_relu_pack_avx2(&mut y, alpha, &mut mask) };
                assert_eq!(bits(&y), bits(&want_y), "avx2 pack len={len}");
                assert_eq!(mask, want_bits, "avx2 mask len={len}");
                let mut dg = g.clone();
                // SAFETY: as above.
                unsafe { x86::leaky_relu_unpack_avx2(&mut dg, alpha, &mask) };
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

    /// The AVX2 window maxima equal the scalar reference, values and
    /// indices: lane groups of whole strips and with tails, one tap and
    /// several, windows of NaNs, ties of signed zeros and ±inf.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn window_max_variants_match_scalar_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let plane = 23;
        let mut src = fill(5, 3 * plane);
        for (i, v) in src.iter_mut().enumerate() {
            match i % 7 {
                1 => *v = f32::NAN,
                2 => *v = -0.0,
                3 => *v = 0.0,
                5 if i % 2 == 0 => *v = f32::INFINITY,
                6 if i % 3 == 0 => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
        for (taps, lanes, groups) in [(1, 8, 2), (4, 12, 3), (9, 40, 2), (2, 3, 5), (4, 17, 1)] {
            let idx: Vec<u32> = (0..groups * taps * lanes)
                .map(|i| ((i * 7 + i / 5) % plane) as u32)
                .collect();
            let m = groups * lanes;
            let (mut want, mut want_at) = (vec![0.0; 3 * m], vec![0; 3 * m]);
            scalar::window_max(
                &mut want,
                Some(&mut want_at),
                &src,
                plane,
                &idx,
                (taps, lanes),
            );
            let (mut got, mut got_at) = (vec![0.0; 3 * m], vec![0; 3 * m]);
            // SAFETY: guarded by the avx2 feature check above; every
            // index is below `plane`.
            unsafe {
                x86::window_max_avx2(
                    &mut got,
                    Some(&mut got_at),
                    &src,
                    plane,
                    &idx,
                    (taps, lanes),
                )
            };
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let what = format!("{taps} taps, {lanes} lanes");
            assert_eq!(bits(&got), bits(&want), "{what}");
            assert_eq!(got_at, want_at, "{what}");
            let mut values = vec![0.0; 3 * m];
            // SAFETY: as above.
            unsafe { x86::window_max_avx2(&mut values, None, &src, plane, &idx, (taps, lanes)) };
            assert_eq!(bits(&values), bits(&want), "{what}, values alone");
        }
    }

    #[test]
    fn gemm_mr_is_a_supported_tile_height() {
        // Whatever the host selects, the drivers must have a kernel arm
        // for it.
        assert!(matches!(gemm_mr(), 4 | 8));
        assert!(matches!(weight_lanes(), 8 | 16));
    }

    /// Every `(v, g)` layout of the weight-gradient kernels: 8 and 16
    /// lanes in tap groups of every power of two that divides them.
    fn layouts() -> impl Iterator<Item = (usize, usize)> {
        [NR, 2 * NR].into_iter().flat_map(|v| {
            (0..5)
                .map(|e| 1 << e)
                .filter(move |&g| g <= v)
                .map(move |g| (v, g))
        })
    }

    /// The weight-gradient tile equals the scalar reference bit for bit
    /// under every tier the CPU grants, dispatched as production code
    /// is, and the reference is its definition: tile heights 1..=8, one
    /// lane strip and two (a 16-lane strip pair), tap groups of 1–16
    /// (tap pairs and quads whose last taps are never stored, as a
    /// 3-tap row's fourth), runs at strides 1–3 over one and several
    /// output rows, odd step counts, accumulators carried in, and
    /// `-0.0`, ±Inf and NaN operands on either side.
    #[test]
    fn weight_tile_matches_scalar_bitwise_on_every_tier() {
        fn run<const MRR: usize>((v, g): (usize, usize), walk: Walk, steps: usize) {
            let seed = (v * 31 + g * 7 + walk.col * 3 + steps) as u64;
            let reach = walk.last(steps).unwrap_or(0) + g + 3 * MRR;
            let av = specials(fill(seed, reach), MRR);
            let panel = specials(fill(seed ^ 9, steps * v), 3);
            let aidx: [usize; MRR] = std::array::from_fn(|r| 3 * r);
            let start = specials(fill(seed ^ 5, MRR * v), 1);
            // The definition, lane by lane.
            let mut want = start.clone();
            for (r, acc) in want.chunks_exact_mut(v).enumerate() {
                for s in 0..steps {
                    for (l, acc) in acc.iter_mut().enumerate() {
                        *acc += av[aidx[r] + walk.at(s) + l % g] * panel[s * v + l];
                    }
                }
            }
            let what = format!("{:?} MRR={MRR} v={v} g={g} {walk:?} steps={steps}", isa());
            let mut reference = start.clone();
            scalar::weight_tile(&mut reference, (&av, &aidx), walk, &panel, (v, g));
            assert_eq!(bits(&reference), bits(&want), "reference: {what}");
            let mut got = start;
            weight_tile(&mut got, (&av, &aidx), walk, &panel, (v, g));
            assert_eq!(bits(&got), bits(&want), "{what}");
        }
        let walks = [
            (1, 1, 1, 1),
            (5, 1, 9, 15),
            (4, 2, 11, 12),
            (3, 3, 20, 9),
            (7, 1, 7, 0),
        ];
        let tiers = each_tier(|_| {
            for (v, g) in layouts() {
                for (run_len, col, row, steps) in walks {
                    let walk = Walk {
                        run: run_len,
                        col,
                        row,
                    };
                    every_height!(run((v, g), walk, steps));
                }
            }
        });
        assert_eq!(tiers[0], Isa::Scalar);
    }

    /// The weight tile refuses a read past the end of `A`, on every tier.
    #[test]
    #[should_panic(expected = "weight_tile: A index out of range")]
    fn weight_tile_rejects_reads_past_a() {
        let walk = Walk {
            run: 2,
            col: 1,
            row: 2,
        };
        let mut acc = [0.0f32; 2 * NR];
        // Step 3 reads `A` at 3..5 for a pair: one past the end.
        weight_tile::<1>(
            &mut acc,
            (&[1.0; 4], &[0]),
            walk,
            &[1.0; 8 * NR],
            (2 * NR, 2),
        );
    }

    /// The panel packing equals the scalar reference bit for bit under
    /// every tier the CPU grants, and the reference is its definition:
    /// every layout with one row up to its lane count (partial last
    /// strips), pixel ranges starting off a strip and ending in a tail
    /// of every length short of eight, and the lane sums continued from
    /// what they hold, over `-0.0`, ±Inf and NaN.
    #[test]
    fn pack_panel_matches_scalar_bitwise_on_every_tier() {
        let tiers = each_tier(|_| {
            for (v, g) in layouts() {
                for cs in 1..=v / g {
                    for (pixels, px) in [(8, 0..8), (30, 3..30), (40, 0..33), (21, 5..5), (9, 0..9)]
                    {
                        let rows = specials(fill((cs * 13 + pixels) as u64, cs * pixels), cs);
                        let n = px.len();
                        let mut want = vec![f32::from_bits(0x7fc0_dead); n * v];
                        let mut want_sums = specials(fill(cs as u64, v), 2);
                        for (p, d) in px.clone().zip(want.chunks_exact_mut(v)) {
                            for (l, d) in d.iter_mut().enumerate() {
                                *d = if l / g < cs {
                                    rows[l / g * pixels + p]
                                } else {
                                    0.0
                                };
                                want_sums[l] += *d;
                            }
                        }
                        let what = format!("{:?} v={v} g={g} rows={cs} {px:?}", isa());
                        let mut reference = vec![0.0; n * v];
                        let mut sums = specials(fill(cs as u64, v), 2);
                        scalar::pack_panel(
                            &mut reference,
                            &rows,
                            pixels,
                            px.clone(),
                            (v, g),
                            Some(&mut sums),
                        );
                        assert_eq!(bits(&reference), bits(&want), "reference: {what}");
                        assert_eq!(bits(&sums), bits(&want_sums), "reference sums: {what}");
                        let mut got = vec![0.0; n * v];
                        let mut sums = specials(fill(cs as u64, v), 2);
                        pack_panel(&mut got, &rows, pixels, px.clone(), (v, g), Some(&mut sums));
                        assert_eq!(bits(&got), bits(&want), "{what}");
                        assert_eq!(bits(&sums), bits(&want_sums), "sums: {what}");
                        let mut alone = vec![0.0; n * v];
                        pack_panel(&mut alone, &rows, pixels, px.clone(), (v, g), None);
                        assert_eq!(bits(&alone), bits(&want), "without sums: {what}");
                    }
                }
            }
        });
        assert_eq!(tiers[0], Isa::Scalar);
    }

    /// The lane-batch product equals the scalar reference bit for bit
    /// under every tier the CPU grants, and the reference is its
    /// definition: tile heights 1..=8, 8 and 16 lanes, strided walks
    /// over several output rows, no steps at all (a `+0.0` row), and
    /// `-0.0`, ±Inf and NaN operands on either side.
    #[test]
    fn lane_product_matches_scalar_bitwise_on_every_tier() {
        fn run<const MRR: usize>(v: usize, walk: Walk, steps: usize) {
            let seed = (v * 3 + walk.col + steps) as u64;
            let xv = specials(fill(seed, walk.last(steps).unwrap_or(0) + v + 5 * MRR), 4);
            let yv = specials(fill(seed ^ 3, (steps + 1) * (v + 2) + 2 * MRR), 6);
            let xo: [usize; MRR] = std::array::from_fn(|r| 5 * r);
            let yo = MRR;
            let mut want = vec![0.0f32; MRR * v];
            for (r, acc) in want.chunks_exact_mut(v).enumerate() {
                for s in 0..steps {
                    for (l, acc) in acc.iter_mut().enumerate() {
                        *acc += xv[xo[r] + walk.at(s) + l] * yv[yo + s * (v + 2) + l];
                    }
                }
            }
            let what = format!("{:?} MRR={MRR} v={v} {walk:?} steps={steps}", isa());
            let st = (walk, v + 2, steps);
            // Rows a strip apart, and the values between them untouched.
            let rows = |out: &[f32]| -> Vec<u32> {
                let (rows, gaps): (Vec<_>, Vec<_>) = out
                    .chunks(v + NR)
                    .map(|row| row.split_at(v.min(row.len())))
                    .unzip();
                assert!(
                    gaps.concat().iter().all(|g| g.to_bits() == GUARD),
                    "{what}: gap"
                );
                bits(&rows.concat())
            };
            let guard = vec![f32::from_bits(GUARD); MRR * (v + NR)];
            let mut reference = guard.clone();
            scalar::lane_product((&mut reference, v + NR), (&xv, &xo), (&yv, yo), st, v);
            assert_eq!(rows(&reference), bits(&want), "reference: {what}");
            let mut got = guard;
            lane_product((&mut got, v + NR), (&xv, &xo), (&yv, yo), st, v);
            assert_eq!(rows(&got), bits(&want), "{what}");
        }
        let tiers = each_tier(|_| {
            for v in [NR, 2 * NR] {
                for (run_len, col, row, steps) in [(1, 1, 1, 0), (4, 16, 100, 16), (7, 8, 60, 49)] {
                    let walk = Walk {
                        run: run_len,
                        col,
                        row,
                    };
                    every_height!(run(v, walk, steps));
                }
            }
        });
        assert_eq!(tiers[0], Isa::Scalar);
    }
}
