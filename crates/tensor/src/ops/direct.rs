//! In-place convolution kernels: the forward convolution and the fold
//! of a transposed convolution, both reading `[C, H, W]` maps where
//! they lie, with no column matrix.
//!
//! Both run register tiles over `NR`-pixel strips of an output row:
//! `MRR` output channels × one strip, or — when the last channel block
//! is a single channel — that channel × up to `MRR` adjacent strips.
//! Each tile row reads its `B` rows straight from the map at per-step
//! offsets. A tap that leaves the map, or any tap at stride > 1,
//! gathers its `B` rows lane by lane into a small per-task panel
//! instead, once for all the strip's channel blocks.
//!
//! * **Forward** ([`conv_into`], [`kernels::conv_micro`] tiles): one
//!   chain per output element over the taps `(ci, ky, kx)` in ascending
//!   order, starting at `+0.0`. Gathered padding lanes hold a literal
//!   `0.0` that is multiplied and added like any other term. This is
//!   exactly the chain of `W · im2col(x)` through the GEMM, element by
//!   element.
//! * **Fold** ([`fold_into`], [`kernels::fold_micro`] tiles): the
//!   adjoint, `col2im(Wᵀ · g)`. A strip first lists its taps `(ky, kx)`
//!   in ascending order, each read in place or gathered, with the lane
//!   mask of the pixels whose source lies inside the map. Each tile
//!   then keeps its accumulators in registers across the whole list:
//!   per tap a fresh `+0.0` chain over the source channels — one
//!   element of the column matrix `Wᵀ · g` — added in the tap's lanes.
//!   Masked lanes keep their accumulator bits, just as `col2im` never
//!   adds them; a masked lane may have read anything. These are
//!   `col2im`'s two levels of rounding in its order: ascending taps per
//!   output pixel, each tap one `Wᵀ · g` element.
//!
//! Both take a batch of `n` maps and run it map by map. Tasks own whole
//! bands of output rows, at least `NC` pixels each, across every
//! channel; maps smaller than `NC` pixels (the refinement head's RoI
//! maps) go whole, as many to a task as make `NC` pixels. The split
//! depends only on the shape. Every element's arithmetic is fixed by
//! the above, so results are bit-identical at any thread count, ISA and
//! batch size. No workspace scratch is taken.

use std::ops::Range;

use super::conv::ConvSpec;
use super::kernels::{self, FoldSrc, FoldTap, NR};

/// Minimum output pixels per parallel task: the GEMM's column-block
/// width, so a task is never smaller than the GEMM's.
const NC: usize = 2048;

/// Every lane of a tile row.
const ALL_LANES: u8 = u8::MAX;

/// A batch of `n` row-major `[c, h, w]` maps, stored `[n, c, h, w]`.
#[derive(Clone, Copy)]
pub(crate) struct Map<'a> {
    pub(crate) v: &'a [f32],
    pub(crate) n: usize,
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
}

impl<'a> Map<'a> {
    /// Map `i` of the batch, as a batch of one.
    fn image(self, i: usize) -> Map<'a> {
        let len = self.c * self.h * self.w;
        Map {
            v: &self.v[i * len..][..len],
            n: 1,
            ..self
        }
    }
}

/// Dispatches a tile method on its runtime row count.
macro_rules! tile {
    ($rows:expr, $op:ident . $f:ident ( $($arg:expr),* )) => {
        match $rows {
            1 => $op.$f::<1>($($arg),*),
            2 => $op.$f::<2>($($arg),*),
            3 => $op.$f::<3>($($arg),*),
            4 => $op.$f::<4>($($arg),*),
            5 => $op.$f::<5>($($arg),*),
            6 => $op.$f::<6>($($arg),*),
            7 => $op.$f::<7>($($arg),*),
            8 => $op.$f::<8>($($arg),*),
            _ => unreachable!("register tiles have 1..=8 rows"),
        }
    };
}
pub(crate) use tile;

/// Splits `out` (`[c, oh, ow]`) into tasks of whole output-row bands of
/// at least `NC` pixels and runs `f(y0, y1, planes)` on each, where
/// `planes[ch]` is rows `y0..y1` of channel `ch`.
fn for_each_band(
    out: &mut [f32],
    c: usize,
    oh: usize,
    ow: usize,
    work_per_px: usize,
    f: impl Fn(usize, usize, &mut [&mut [f32]]) + Sync,
) {
    let plane = oh * ow;
    if plane == 0 || c == 0 {
        return;
    }
    let band = NC.div_ceil(ow).min(oh);
    let bands = rhsd_par::chunk_units(oh.div_ceil(band), work_per_px * band * ow);
    let task_rows = (bands * band).min(oh);
    let mut segs: Vec<&mut [f32]> = Vec::with_capacity(c * oh.div_ceil(task_rows));
    let mut rest: Vec<&mut [f32]> = out.chunks_mut(plane).collect();
    for y0 in (0..oh).step_by(task_rows) {
        for p in rest.iter_mut() {
            let (seg, tail) = std::mem::take(p).split_at_mut(task_rows.min(oh - y0) * ow);
            *p = tail;
            segs.push(seg);
        }
    }
    rhsd_par::for_each_mut(&mut segs, c, |ti, planes| {
        let y0 = ti * task_rows;
        f(y0, (y0 + task_rows).min(oh), planes);
    });
}

/// Runs `f(i, y0, y1, planes)` over the batch `out` (`[n, c, oh, ow]`),
/// where `planes[ch]` is rows `y0..y1` of channel `ch` of map `i`. A
/// map of at least `NC` pixels is split into bands by
/// [`for_each_band`]; smaller maps go whole, as many to a task as make
/// `NC` pixels.
fn for_each_map_band(
    out: &mut [f32],
    (n, c, oh, ow): (usize, usize, usize, usize),
    work_per_px: usize,
    f: impl Fn(usize, usize, usize, &mut [&mut [f32]]) + Sync,
) {
    let plane = oh * ow;
    if out.is_empty() {
        return;
    }
    if plane >= NC {
        for (i, map) in out.chunks_mut(c * plane).enumerate() {
            for_each_band(map, c, oh, ow, work_per_px, |y0, y1, planes| {
                f(i, y0, y1, planes)
            });
        }
        return;
    }
    let group = NC.div_ceil(plane).min(n);
    let groups = rhsd_par::chunk_units(n.div_ceil(group), work_per_px * plane * group);
    let maps = (groups * group).min(n);
    rhsd_par::for_each_mut(out, maps * c * plane, |ti, task| {
        let mut planes = Vec::with_capacity(c);
        for (i, map) in task.chunks_mut(c * plane).enumerate() {
            planes.clear();
            planes.extend(map.chunks_mut(plane));
            f(ti * maps + i, 0, oh, &mut planes);
        }
    });
}

/// The whole `NR`-pixel strips starting in `group` that a single-channel
/// block tiles several at a time: all of them when the last channel
/// block of `c` channels in tiles of height `mr` is one channel, else
/// none.
fn single_channel_group(c: usize, mr: usize, group: Range<usize>) -> Range<usize> {
    if c % mr == 1 {
        group
    } else {
        0..0
    }
}

/// The output channel and strip start of each tile row: `MRR` channels
/// on one strip, or (`strips`) one channel on `MRR` adjacent strips.
fn tile_rows<const MRR: usize>(c0: usize, x0: usize, strips: bool) -> ([usize; MRR], [usize; MRR]) {
    if strips {
        ([c0; MRR], std::array::from_fn(|r| x0 + r * NR))
    } else {
        (std::array::from_fn(|r| c0 + r), [x0; MRR])
    }
}

/// Writes a finished tile to output row `row` (an offset into each
/// channel's band), adding the channel's bias.
fn store<const MRR: usize>(
    planes: &mut [&mut [f32]],
    row: usize,
    (ch, xs): ([usize; MRR], [usize; MRR]),
    acc: &[[f32; NR]; MRR],
    ow: usize,
    bias: Option<&[f32]>,
) {
    for r in 0..MRR {
        let lanes = NR.min(ow - xs[r]);
        let dst = &mut planes[ch[r]][row + xs[r]..][..lanes];
        match bias {
            Some(b) => {
                for (d, &a) in dst.iter_mut().zip(&acc[r]) {
                    *d = a + b[ch[r]];
                }
            }
            None => dst.copy_from_slice(&acc[r][..lanes]),
        }
    }
}

/// The low `n` lane bits.
fn low_lanes(n: usize) -> u8 {
    if n >= NR {
        ALL_LANES
    } else {
        (1u8 << n) - 1
    }
}

/// Where a strip's `B` rows lie: step `t` of a tile row whose strip
/// starts `dx` pixels after the first reads `src[base + dx + offs[t]..]`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    src: &'a [f32],
    base: usize,
    offs: &'a [usize],
}

/// A forward convolution: `x` ⊛ `wt` (`[c_out, x.c, k, k]`).
struct Forward<'a> {
    x: Map<'a>,
    wt: &'a [f32],
    spec: ConvSpec,
    ow: usize,
    /// `x.c · k²`: the chain length.
    ckk: usize,
    /// Map offset of tap `(ci, ky, kx)` from the tap `(0, 0, 0)` of a
    /// pixel, in step order.
    offs: &'a [usize],
    /// Offsets of the rows of a gathered panel.
    seq: &'a [usize],
    bias: Option<&'a [f32]>,
}

impl Forward<'_> {
    /// The map index of tap `(0, 0, 0)` of output pixel `(oy, x0)` when
    /// the stride is 1 and every tap of the `width` pixels from `x0`
    /// reads inside the map (and each `B` row inside the slice).
    fn direct(&self, oy: usize, x0: usize, width: usize) -> Option<usize> {
        let ConvSpec {
            kernel: k,
            stride,
            padding: p,
        } = self.spec;
        let (y, x) = (oy.checked_sub(p)?, x0.checked_sub(p)?);
        if stride != 1 || y + k > self.x.h || x + width + k - 1 > self.x.w {
            return None;
        }
        let base = self.base(oy, x0);
        let end = base + self.offs.last().copied().unwrap_or(0) + width.next_multiple_of(NR);
        (end <= self.x.v.len()).then_some(base)
    }

    /// The map index of tap `(0, 0, 0)` of output pixel `(oy, x0)` at
    /// stride 1, which must lie inside the map.
    fn base(&self, oy: usize, x0: usize) -> usize {
        let p = self.spec.padding;
        (oy - p) * self.x.w + x0 - p
    }

    /// Start pixels of the whole strips of row `oy` that read only
    /// inside the map: [`Forward::direct`] holds for any run of them.
    fn group(&self, oy: usize) -> Range<usize> {
        let ConvSpec {
            kernel: k,
            stride,
            padding: p,
        } = self.spec;
        if stride != 1 || oy < p || oy - p + k > self.x.h {
            return 0..0;
        }
        let lo = p.next_multiple_of(NR);
        let hi = self.ow.min((self.x.w + p + 1).saturating_sub(k)) / NR * NR;
        lo..hi.max(lo)
    }

    /// Gathers every step of the strip at `(oy, x0)` into `panel`: per
    /// lane the im2col entry, `0.0` in the padding. Lanes past the
    /// output row read whatever their coordinates give; they are never
    /// stored.
    fn gather(&self, oy: usize, x0: usize, panel: &mut [f32]) {
        let ConvSpec {
            kernel: k,
            stride: s,
            padding: p,
        } = self.spec;
        let Map { v, c, h, w, .. } = self.x;
        for ci in 0..c {
            for ky in 0..k {
                // Coordinates in the padding wrap to huge values, which
                // the bounds tests reject.
                let iy = (oy * s + ky).wrapping_sub(p);
                let row = (iy < h).then(|| &v[(ci * h + iy) * w..][..w]);
                for kx in 0..k {
                    let dst = &mut panel[((ci * k + ky) * k + kx) * NR..][..NR];
                    let Some(row) = row else {
                        dst.fill(0.0);
                        continue;
                    };
                    let ix0 = (x0 * s + kx).wrapping_sub(p);
                    if s == 1 && ix0 < w && ix0 + NR <= w {
                        dst.copy_from_slice(&row[ix0..ix0 + NR]);
                        continue;
                    }
                    for (l, d) in dst.iter_mut().enumerate() {
                        let ix = ((x0 + l) * s + kx).wrapping_sub(p);
                        *d = if ix < w { row[ix] } else { 0.0 };
                    }
                }
            }
        }
    }

    /// One register tile of output row `row` (an offset into the band):
    /// the whole chain of every element, from `b`.
    fn tile<const MRR: usize>(
        &self,
        planes: &mut [&mut [f32]],
        row: usize,
        c0: usize,
        x0: usize,
        strips: bool,
        b: Rows,
    ) {
        let (ch, xs) = tile_rows::<MRR>(c0, x0, strips);
        let mut acc = [[0.0f32; NR]; MRR];
        let aidx = ch.map(|c| c * self.ckk);
        let bidx = xs.map(|x| b.base + x - x0);
        kernels::conv_micro(&mut acc, self.wt, &aidx, 1, b.src, &bidx, b.offs);
        store(planes, row, (ch, xs), &acc, self.ow, self.bias);
    }
}

/// Forward convolution into `out` (`[x.n, c_out, H', W']`, every
/// element overwritten): `out = wt ⊛ x (+ bias)` per map, with `wt` as
/// `[c_out, x.c, K, K]`.
pub(crate) fn conv_into(
    out: &mut [f32],
    x: Map,
    wt: &[f32],
    c_out: usize,
    spec: ConvSpec,
    bias: Option<&[f32]>,
) {
    let (oh, ow) = (spec.out_size(x.h), spec.out_size(x.w));
    let k = spec.kernel;
    let ckk = x.c * k * k;
    debug_assert_eq!(out.len(), x.n * c_out * oh * ow, "conv output length");
    debug_assert_eq!(wt.len(), c_out * ckk, "conv weight length");
    let offs: Vec<usize> = (0..ckk)
        .map(|t| (t / (k * k) * x.h + t / k % k) * x.w + t % k)
        .collect();
    let seq: Vec<usize> = (0..ckk).map(|t| t * NR).collect();
    let op = Forward {
        x,
        wt,
        spec,
        ow,
        ckk,
        offs: &offs,
        seq: &seq,
        bias,
    };
    let mr = kernels::gemm_mr();
    let work = 2 * ckk * c_out;
    for_each_map_band(out, (x.n, c_out, oh, ow), work, |i, y0, y1, planes| {
        let op = Forward {
            x: x.image(i),
            ..op
        };
        let mut panel = vec![0.0f32; ckk * NR];
        for oy in y0..y1 {
            let row = (oy - y0) * ow;
            let group = single_channel_group(c_out, mr, op.group(oy));
            for x0 in (0..ow).step_by(NR) {
                let lanes = NR.min(ow - x0);
                // One gather serves every channel block of the strip.
                let b = match op.direct(oy, x0, lanes) {
                    Some(base) => Rows {
                        src: op.x.v,
                        base,
                        offs: op.offs,
                    },
                    None => {
                        op.gather(oy, x0, &mut panel);
                        Rows {
                            src: &panel,
                            base: 0,
                            offs: op.seq,
                        }
                    }
                };
                for c0 in (0..c_out).step_by(mr) {
                    let rows = mr.min(c_out - c0);
                    // A grouped strip leaves its single last channel to
                    // the strip tiles below.
                    if rows > 1 || !group.contains(&x0) {
                        tile!(rows, op.tile(planes, row, c0, x0, false, b));
                    }
                }
            }
            for x0 in group.clone().step_by(mr * NR) {
                let n = ((group.end - x0) / NR).min(mr);
                debug_assert!(
                    op.direct(oy, x0, n * NR).is_some(),
                    "grouped strips read in place"
                );
                let b = Rows {
                    src: op.x.v,
                    base: op.base(oy, x0),
                    offs: op.offs,
                };
                tile!(n, op.tile(planes, row, c_out - 1, x0, true, b));
            }
        }
    });
}

/// A fold: `col2im(Wᵀ · g)` onto a `[c_out, oh, ow]` map, with `wt` as
/// `[g.c, c_out, K, K]`.
struct Fold<'a> {
    g: Map<'a>,
    wt: &'a [f32],
    c_out: usize,
    spec: ConvSpec,
    ow: usize,
    /// Map offset of source channel `c` from channel 0.
    offs: &'a [usize],
    /// Offsets of the rows of a gathered tap in the panel.
    seq: &'a [usize],
    bias: Option<&'a [f32]>,
}

/// The [`FoldSrc`] index of taps read in place from the source map.
const MAP: usize = 0;
/// The [`FoldSrc`] index of taps gathered into the panel.
const PANEL: usize = 1;

impl Fold<'_> {
    /// The source index `(v + p − kv) / s` that output coordinate `v`
    /// reads under tap `kv`, when it is exact and below `n`.
    fn src(&self, v: usize, kv: usize, n: usize) -> Option<usize> {
        let q = (v + self.spec.padding).checked_sub(kv)?;
        let i = match self.spec.stride {
            1 => q,
            s if q % s == 0 => q / s,
            _ => return None,
        };
        (i < n).then_some(i)
    }

    /// The map index and lane mask of tap column `kx` for the pixels
    /// from `x0` in source row `gy`, read in place: at stride 1, when
    /// the first pixel's source column is inside the map and each `B`
    /// row (`span` values) ends inside the slice. Lanes whose source
    /// column passes the row end are masked.
    fn direct(&self, gy: usize, x0: usize, kx: usize, span: usize) -> Option<(usize, u8)> {
        let gx = (x0 + self.spec.padding).checked_sub(kx)?;
        if self.spec.stride != 1 || gx >= self.g.w {
            return None;
        }
        let base = gy * self.g.w + gx;
        let end = base + self.offs.last().copied().unwrap_or(0) + span;
        (end <= self.g.v.len()).then_some((base, low_lanes(self.g.w - gx)))
    }

    /// Start pixels of the whole strips whose every tap reads inside
    /// the source row: [`Fold::direct`] holds with every lane for any
    /// run of them.
    fn group(&self) -> Range<usize> {
        let ConvSpec {
            kernel: k,
            stride,
            padding: p,
        } = self.spec;
        if stride != 1 {
            return 0..0;
        }
        let lo = (k - 1).saturating_sub(p).next_multiple_of(NR);
        let hi = self.ow.min(self.g.w.saturating_sub(p)) / NR * NR;
        lo..hi.max(lo)
    }

    /// Gathers tap column `kx` of source row `gy` for the strip at `x0`
    /// (`lanes` pixels) into `panel`, one row per source channel, `0.0`
    /// in lanes the tap maps outside the source row; returns the mask
    /// of the lanes inside.
    fn gather(&self, gy: usize, x0: usize, kx: usize, lanes: usize, panel: &mut [f32]) -> u8 {
        let Map { v, h, w, .. } = self.g;
        let cols: [Option<usize>; NR] = std::array::from_fn(|l| {
            if l < lanes {
                self.src(x0 + l, kx, w)
            } else {
                None
            }
        });
        for (c, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let row = &v[(c * h + gy) * w..][..w];
            for (d, col) in dst.iter_mut().zip(cols) {
                *d = col.map_or(0.0, |x| row[x]);
            }
        }
        cols.iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .fold(0, |m, (l, _)| m | 1 << l)
    }

    /// The taps of the strip at `x0` of output row `y`, in ascending
    /// `(ky, kx)` order, into `taps`: read in place where
    /// [`Fold::direct`] holds, else gathered into the tap's slot of
    /// `panel`. Taps outside the source map add to no lane and are left
    /// out.
    fn strip_taps(&self, y: usize, x0: usize, panel: &mut [f32], taps: &mut Vec<FoldTap>) {
        let k = self.spec.kernel;
        let lanes = NR.min(self.ow - x0);
        let slot = self.g.c * NR;
        taps.clear();
        for ky in 0..k {
            let Some(gy) = self.src(y, ky, self.g.h) else {
                continue;
            };
            for kx in 0..k {
                let a = ky * k + kx;
                let tap = match self.direct(gy, x0, kx, NR) {
                    Some((base, mask)) => FoldTap {
                        a,
                        src: MAP,
                        base,
                        mask,
                    },
                    None => {
                        let base = a * slot;
                        let mask = self.gather(gy, x0, kx, lanes, &mut panel[base..][..slot]);
                        if mask == 0 {
                            continue;
                        }
                        FoldTap {
                            a,
                            src: PANEL,
                            base,
                            mask,
                        }
                    }
                };
                taps.push(tap);
            }
        }
    }

    /// One register tile of output row `row` (an offset into the band):
    /// `MRR` channels from `c0` on the strip at `x0`, or (`strips`)
    /// channel `c0` on `MRR` strips from `x0`, over every tap of `taps`.
    fn tile<const MRR: usize>(
        &self,
        planes: &mut [&mut [f32]],
        row: usize,
        c0: usize,
        x0: usize,
        strips: bool,
        (srcs, taps): (&[FoldSrc], &[FoldTap]),
    ) {
        let (ch, xs) = tile_rows::<MRR>(c0, x0, strips);
        let kk = self.spec.kernel * self.spec.kernel;
        // Weight `(c, o, ky, kx)` sits at `c · acs + o · k² + tap`.
        let aidx = ch.map(|o| o * kk);
        let bidx = xs.map(|x| x - x0);
        let mut acc = [[0.0f32; NR]; MRR];
        kernels::fold_micro(&mut acc, self.wt, &aidx, self.c_out * kk, srcs, &bidx, taps);
        store(planes, row, (ch, xs), &acc, self.ow, self.bias);
    }
}

/// Fold into `out` (`[g.n, c_out, oh, ow]`, every element
/// overwritten): `out = col2im(wtᵀ · g) (+ bias)` per map, with `wt` as
/// `[g.c, c_out, K, K]` and `g` the `[g.n, g.c, spec.out_size(oh),
/// spec.out_size(ow)]` batch. This is `conv2d`'s input gradient (`g`
/// the output gradient) and `conv_transpose2d`'s forward pass (`g` its
/// input).
pub(crate) fn fold_into(
    out: &mut [f32],
    (c_out, oh, ow): (usize, usize, usize),
    g: Map,
    wt: &[f32],
    spec: ConvSpec,
    bias: Option<&[f32]>,
) {
    let k = spec.kernel;
    debug_assert_eq!(out.len(), g.n * c_out * oh * ow, "fold output length");
    debug_assert_eq!(
        (g.h, g.w),
        (spec.out_size(oh), spec.out_size(ow)),
        "fold source geometry"
    );
    debug_assert_eq!(wt.len(), g.c * c_out * k * k, "fold weight length");
    let offs: Vec<usize> = (0..g.c).map(|c| c * g.h * g.w).collect();
    let seq: Vec<usize> = (0..g.c).map(|c| c * NR).collect();
    let op = Fold {
        g,
        wt,
        c_out,
        spec,
        ow,
        offs: &offs,
        seq: &seq,
        bias,
    };
    let mr = kernels::gemm_mr();
    let group = single_channel_group(c_out, mr, op.group());
    let work = 2 * g.c * k * k * c_out;
    for_each_map_band(out, (g.n, c_out, oh, ow), work, |i, y0, y1, planes| {
        let op = Fold {
            g: g.image(i),
            ..op
        };
        // Every tap of a strip may be gathered: one panel slot per tap.
        let mut panel = vec![0.0f32; k * k * g.c * NR];
        let mut taps = Vec::with_capacity(k * k);
        let map = FoldSrc::new(op.g.v, op.offs);
        for y in y0..y1 {
            let row = (y - y0) * ow;
            for x0 in (0..ow).step_by(NR) {
                // A grouped strip leaves its single last channel to the
                // strip tiles below.
                let c = if group.contains(&x0) {
                    c_out - 1
                } else {
                    c_out
                };
                if c == 0 {
                    continue;
                }
                op.strip_taps(y, x0, &mut panel, &mut taps);
                let srcs = [map, FoldSrc::new(&panel, op.seq)];
                for c0 in (0..c).step_by(mr) {
                    let rows = mr.min(c - c0);
                    tile!(rows, op.tile(planes, row, c0, x0, false, (&srcs, &taps)));
                }
            }
            for x0 in group.clone().step_by(mr * NR) {
                let n = ((group.end - x0) / NR).min(mr);
                // Every tap of a grouped strip reads in place, in all
                // lanes of all `n` strips.
                op.strip_taps(y, x0, &mut panel, &mut taps);
                debug_assert!(
                    taps.iter().all(|t| t.src == MAP && t.mask == ALL_LANES),
                    "grouped strips read in place"
                );
                tile!(
                    n,
                    op.tile(planes, row, c_out - 1, x0, true, (&[map], &taps))
                );
            }
        }
    });
}
