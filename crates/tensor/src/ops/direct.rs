//! In-place convolution kernels: the forward convolution and the fold
//! of a transposed convolution, both over `[C, H, W]` maps, with no
//! column matrix.
//!
//! Both run *runs*: one kernel call per output row and block of `MRR`
//! output channels covers every `NR`-pixel strip of the row, each
//! strip's chains in registers from start to store, the bias added in
//! registers and the row's last partial strip stored under a lane mask.
//! The kernel takes a run's strips several at a time, more of them the
//! fewer rows it has, so a block of one channel still keeps several
//! independent chains in flight. Each run row reads
//! its `B` rows at constant per-step offsets from a band of the source
//! map copied into `workspace` scratch: per task, the rows its band of
//! output rows reads, refilled band by band, with `NR` slack values
//! after the last row for the lanes past a row's end, which are never
//! stored. No strip gathers its inputs lane by lane.
//!
//! * **Forward** ([`conv_into`], [`kernels::conv_micro`] runs): one
//!   chain per output element over the taps `(ci, ky, kx)` in ascending
//!   order, starting at `+0.0`. The band is zero-padded: `p` zero
//!   columns on each side of every row and zero rows above and below
//!   the map, so padding lanes read a literal `0.0` that is multiplied
//!   and added like any other term. This is exactly the chain of
//!   the plain product `W · im2col(x)`, element by element. At stride
//!   `s > 1` each padded row is stored as its `s` column phases, so tap
//!   `kx` of output `x` reads phase `kx % s` at `x + kx / s`, contiguous
//!   too. An unpadded stride-1 map is its own padded band, and is read
//!   where it lies whenever its last strip's `B` rows end inside the
//!   batch.
//! * **Fold** ([`fold_into`], [`kernels::fold_micro`] runs): the
//!   adjoint, `col2im(Wᵀ · g)`. The band stores source column `gx` at
//!   `lead + s · gx` of its row, so at every stride each tap's lanes
//!   are contiguous. A strip first lists its taps `(ky, kx)` in
//!   ascending order with the lane mask of the pixels whose source lies
//!   inside the map at a whole stride; the interior strips of a row
//!   share one list and run as one. Each strip keeps its accumulators
//!   in registers across the whole list: per tap a fresh `+0.0` chain
//!   over the source channels — one element of the column matrix
//!   `Wᵀ · g` — added in the tap's lanes. Masked lanes keep their
//!   accumulator bits, just as `col2im` never adds them; a masked lane
//!   may have read anything, the band's zeros included. These are
//!   `col2im`'s two levels of rounding in its order: ascending taps per
//!   output pixel, each tap one `Wᵀ · g` element.
//!
//! Both take a batch in the lane layout `[C, H, W, N]`: every pixel
//! holds `N` lanes, one per map of the batch (the refinement head's
//! RoIs), and a single `[C, H, W]` map is the batch of one lane. All of
//! the above runs on the batch as on one map whose pixels are `N`
//! values wide: an output row is one run of `W'·N` values, tap
//! `(ky, kx)` sits at the constant offset `ky · row + kx · N` of the
//! padded band, the stride-`s` phases are split pixel by pixel, and a
//! fold's lane masks hold the lanes of the pixels a tap reaches. Every
//! lane runs exactly the chain its map alone would run. Tasks own whole
//! bands of output rows, at least `NC` values each, across every
//! channel. The split depends only on the shape. Every element's
//! arithmetic is fixed by the above, so results are bit-identical at
//! any thread count, ISA and batch size.

use std::ops::Range;

use super::conv::ConvSpec;
use super::kernels::{self, FoldTap, Src, NR};
use crate::workspace;

/// Minimum output pixels per parallel task, and per band of a task's
/// padded copy.
const NC: usize = 2048;

/// Every lane of a strip.
const ALL_LANES: u8 = u8::MAX;

/// A row-major `[c, h, w, n]` batch: `c` channels of `h × w` pixels of
/// `n` lanes each (`n = 1` for a single map).
#[derive(Clone, Copy)]
pub(crate) struct Map<'a> {
    pub(crate) v: &'a [f32],
    pub(crate) n: usize,
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
}

/// Dispatches a tile or run method on its runtime row count.
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

/// Output rows per band of `oh` rows of `row` values: at least `NC`
/// values, at most the whole map.
fn band_rows(oh: usize, row: usize) -> usize {
    NC.div_ceil(row.max(1)).min(oh).max(1)
}

/// Splits `out` (`c` planes of `oh` rows of `row` values) into tasks
/// of whole output-row bands of at least `NC` values and runs
/// `f(y0, y1, planes, scratch)` on each, where `planes[ch]` is rows
/// `y0..y1` of channel `ch` and `scratch` a task's `scratch_len`
/// workspace values.
fn for_each_band(
    out: &mut [f32],
    (c, oh, row): (usize, usize, usize),
    work_per_value: usize,
    scratch_len: usize,
    f: impl Fn(usize, usize, &mut [&mut [f32]], &mut [f32]) + Sync,
) {
    let plane = oh * row;
    if plane == 0 || c == 0 {
        return;
    }
    let band = band_rows(oh, row);
    let bands = rhsd_par::chunk_units(oh.div_ceil(band), work_per_value * band * row);
    let task_rows = (bands * band).min(oh);
    let mut segs: Vec<&mut [f32]> = Vec::with_capacity(c * oh.div_ceil(task_rows));
    let mut rest: Vec<&mut [f32]> = out.chunks_mut(plane).collect();
    for y0 in (0..oh).step_by(task_rows) {
        for p in rest.iter_mut() {
            let (seg, tail) = std::mem::take(p).split_at_mut(task_rows.min(oh - y0) * row);
            *p = tail;
            segs.push(seg);
        }
    }
    rhsd_par::for_each_mut(&mut segs, c, |ti, planes| {
        let y0 = ti * task_rows;
        let mut ws = (scratch_len > 0).then(|| workspace::take(scratch_len));
        let ws = ws.as_deref_mut().unwrap_or_default();
        f(y0, (y0 + task_rows).min(oh), planes, ws);
    });
}

/// The values a run covers along one output row: `len` values from
/// `x0` in each of the run's channels from `c`.
#[derive(Clone, Copy)]
struct Pixels {
    c: usize,
    x0: usize,
    len: usize,
}

impl Pixels {
    /// A run's destination rows in output row `row` (an offset into each
    /// channel's band), with each row's output channel.
    fn rows<'p, const MRR: usize>(
        self,
        planes: &'p mut [&mut [f32]],
        row: usize,
    ) -> ([&'p mut [f32]; MRR], [usize; MRR]) {
        let Pixels { c, x0, len } = self;
        let mut planes = planes[c..].iter_mut();
        let dst = std::array::from_fn(|_| match planes.next() {
            Some(p) => &mut p[row + x0..][..len],
            None => unreachable!("a run has a plane per row"),
        });
        (dst, std::array::from_fn(|r| c + r))
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

/// Offsets of the taps `(ci, ky, kx)` of output pixel `0` of a band's
/// first row, in step order, in a source of `c` channels of `rows`
/// rows, each row stored as `s` column phases of `wh` pixels of `n`
/// lanes.
fn tap_offsets(c: usize, k: usize, s: usize, (rows, wh): (usize, usize), n: usize) -> Vec<usize> {
    (0..c * k * k)
        .map(|t| {
            let (ci, ky, kx) = (t / (k * k), t / k % k, t % k);
            (((ci * rows + ky) * s + kx % s) * wh + kx / s) * n
        })
        .collect()
}

/// Where a band's `B` rows lie: step `t` of the strip at `x0` reads
/// `src.v[base + x0 + src.offs[t]..][..NR]`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    src: Src<'a>,
    base: usize,
}

/// A forward convolution: `x` ⊛ `wt` (`[c_out, x.c, k, k]`).
struct Forward<'a> {
    x: Map<'a>,
    wt: &'a [f32],
    spec: ConvSpec,
    /// `ow · x.n`: the values of an output row.
    row: usize,
    /// `x.c · k²`: the chain length.
    ckk: usize,
    bias: Option<&'a [f32]>,
}

impl Forward<'_> {
    /// Copies the rows that output rows `y0..y0 + n` read into `copy`:
    /// per channel `rows` rows of `s` phases of `wh` pixels, where phase
    /// `ph` of padded row `r` holds padded columns `ph, ph + s, …` of
    /// map row `y0 · s + r − p`, each pixel all its lanes. Rows in the
    /// padding are zeroed, as an earlier band may have filled them; the
    /// padding columns are never written and keep the workspace's
    /// zeros.
    fn pad_band(&self, copy: &mut [f32], y0: usize, n: usize, (rows, wh): (usize, usize)) {
        let ConvSpec {
            kernel: k,
            stride: s,
            padding: p,
        } = self.spec;
        let Map {
            v,
            n: lanes,
            c,
            h,
            w,
        } = self.x;
        let prow = s * wh * lanes;
        for (ci, dst) in copy.chunks_exact_mut(rows * prow).take(c).enumerate() {
            let used = (n - 1) * s + k;
            for (r, drow) in dst.chunks_exact_mut(prow).take(used).enumerate() {
                // Rows in the padding wrap to huge values.
                let iy = (y0 * s + r).wrapping_sub(p);
                if iy >= h {
                    drow.fill(0.0);
                    continue;
                }
                let src = &v[(ci * h + iy) * w * lanes..][..w * lanes];
                if s == 1 {
                    drow[p * lanes..(p + w) * lanes].copy_from_slice(src);
                    continue;
                }
                for (ph, d) in drow.chunks_exact_mut(wh * lanes).enumerate() {
                    // Phase pixel `j` holds map column `j · s + ph − p`.
                    let j0 = p.saturating_sub(ph).div_ceil(s);
                    let ix0 = j0 * s + ph - p;
                    if lanes == 1 {
                        for (d, &x) in d.iter_mut().skip(j0).zip(src.iter().skip(ix0).step_by(s)) {
                            *d = x;
                        }
                        continue;
                    }
                    let pixels = src.chunks_exact(lanes).skip(ix0).step_by(s);
                    for (d, x) in d.chunks_exact_mut(lanes).skip(j0).zip(pixels) {
                        d.copy_from_slice(x);
                    }
                }
            }
        }
    }

    /// One run of output row `row` (an offset into the band): the whole
    /// chain of every element of `px`, from `b`.
    fn run<const MRR: usize>(&self, planes: &mut [&mut [f32]], row: usize, px: Pixels, b: Rows) {
        let (dst, ch) = px.rows::<MRR>(planes, row);
        let aidx = ch.map(|c| c * self.ckk);
        let bias = self.bias.map(|v| ch.map(|c| v[c]));
        kernels::conv_micro(dst, (self.wt, &aidx, 1), b.src, b.base + px.x0, 0.0, bias);
    }

    /// Every run of output row `row` (an offset into the band), its `B`
    /// rows in `b`: one per channel block across the whole row.
    fn row(&self, planes: &mut [&mut [f32]], row: usize, c_out: usize, b: Rows) {
        let mr = kernels::gemm_mr();
        for c0 in (0..c_out).step_by(mr) {
            let px = Pixels {
                c: c0,
                x0: 0,
                len: self.row,
            };
            tile!(mr.min(c_out - c0), self.run(planes, row, px, b));
        }
    }
}

/// Forward convolution into `out` (`[c_out, H', W', x.n]`, every
/// element overwritten): `out = wt ⊛ x (+ bias)` lane by lane, with
/// `wt` as `[c_out, x.c, K, K]`.
pub(crate) fn conv_into(
    out: &mut [f32],
    x: Map,
    wt: &[f32],
    c_out: usize,
    spec: ConvSpec,
    bias: Option<&[f32]>,
) {
    let ConvSpec {
        kernel: k,
        stride: s,
        padding: p,
    } = spec;
    let (oh, ow) = (spec.out_size(x.h), spec.out_size(x.w));
    let (n, row) = (x.n, ow * x.n);
    let ckk = x.c * k * k;
    debug_assert_eq!(out.len(), c_out * oh * row, "conv output length");
    debug_assert_eq!(wt.len(), c_out * ckk, "conv weight length");
    let band = band_rows(oh, row);
    // A band's padded copy: per channel `rows` rows of `s` phases of
    // `wh` pixels, then `NR` slack values.
    let (rows, wh) = ((band - 1) * s + k, (x.w + 2 * p).div_ceil(s));
    let copied = tap_offsets(x.c, k, s, (rows, wh), n);
    let copied = Src::new(&copied);
    // An unpadded stride-1 map is read in place when its rows fill
    // whole strips: then its last strip's `B` rows end inside it.
    let in_place = p == 0 && s == 1 && row % NR == 0;
    let mapped = tap_offsets(x.c, k, 1, (x.h, x.w), n);
    let mapped = Src::new(&mapped).on(x.v);
    let copy_len = if in_place {
        0
    } else {
        x.c * rows * s * wh * n + NR
    };
    let op = Forward {
        x,
        wt,
        spec,
        row,
        ckk,
        bias,
    };
    let work = 2 * ckk * c_out;
    for_each_band(
        out,
        (c_out, oh, row),
        work,
        copy_len,
        |y0, y1, planes, copy| {
            if in_place {
                for oy in y0..y1 {
                    let b = Rows {
                        src: mapped,
                        base: oy * x.w * n,
                    };
                    op.row(planes, (oy - y0) * row, c_out, b);
                }
                return;
            }
            for yb in (y0..y1).step_by(band) {
                let ye = (yb + band).min(y1);
                op.pad_band(copy, yb, ye - yb, (rows, wh));
                let src = copied.on(copy);
                for oy in yb..ye {
                    let b = Rows {
                        src,
                        base: (oy - yb) * s * s * wh * n,
                    };
                    op.row(planes, (oy - y0) * row, c_out, b);
                }
            }
        },
    );
}

/// A fold: `col2im(Wᵀ · g)` onto a `[c_out, oh, ow, g.n]` batch, with
/// `wt` as `[g.c, c_out, K, K]`.
struct Fold<'a> {
    g: Map<'a>,
    wt: &'a [f32],
    c_out: usize,
    spec: ConvSpec,
    /// `ow · g.n`: the values of an output row.
    row: usize,
    /// Per residue `r` below `s · g.n`, the lanes `l` with
    /// `(r + l) mod (s · g.n) < g.n`: those whose pixel lies a whole
    /// stride from a pixel at residue `r`.
    phases: &'a [u8],
    bias: Option<&'a [f32]>,
}

/// A fold's source band: per channel `rows` source rows from `lo`,
/// each stored from pixel `lead` with source column `gx` at pixel
/// `lead + s · gx`, `width` values a row; every other value is `0.0`.
#[derive(Clone, Copy)]
struct FoldBand {
    lo: usize,
    rows: usize,
    lead: usize,
    width: usize,
}

impl Fold<'_> {
    /// The source row `(y + p − ky) / s` that output row `y` reads
    /// under tap `ky`, when it is exact and inside the map.
    fn source_row(&self, y: usize, ky: usize) -> Option<usize> {
        let q = (y + self.spec.padding).checked_sub(ky)?;
        let s = self.spec.stride;
        (q % s == 0 && q / s < self.g.h).then_some(q / s)
    }

    /// Copies source rows `band.lo..hi` of every channel into `copy`,
    /// as [`FoldBand`] lays them out; the values between and around
    /// the source columns are never written, so they keep the
    /// workspace's zeros.
    fn pad_band(&self, copy: &mut [f32], band: FoldBand, hi: usize) {
        let Map { v, n, c, h, w } = self.g;
        let s = self.spec.stride;
        for (ci, dst) in copy
            .chunks_exact_mut(band.rows * band.width)
            .take(c)
            .enumerate()
        {
            for (gy, drow) in (band.lo..hi).zip(dst.chunks_exact_mut(band.width)) {
                let src = &v[(ci * h + gy) * w * n..][..w * n];
                let cols = &mut drow[band.lead * n..];
                if s == 1 {
                    let m = src.len().min(cols.len());
                    cols[..m].copy_from_slice(&src[..m]);
                } else {
                    for (d, x) in cols.chunks_mut(s * n).zip(src.chunks_exact(n)) {
                        for (d, &x) in d.iter_mut().zip(x) {
                            *d = x;
                        }
                    }
                }
            }
        }
    }

    /// The taps of the strip at value `x0` of output row `y`, in
    /// ascending `(ky, kx)` order, into `taps`: each reads the source
    /// `band`, masked to the lanes whose pixel's source column lies
    /// inside the map at a whole stride. Taps that reach no lane add to
    /// none and are left out.
    fn taps(&self, y: usize, x0: usize, band: FoldBand, taps: &mut Vec<FoldTap>) {
        let ConvSpec {
            kernel: k,
            stride: s,
            padding: p,
        } = self.spec;
        let n = self.g.n;
        // Lane `l` of tap `kx` reads source column `⌊(x + l) / n − kx⌋ / s`.
        let x = x0 + p * n;
        taps.clear();
        for ky in 0..k {
            let Some(gy) = self.source_row(y, ky) else {
                continue;
            };
            for kx in 0..k {
                let first = (kx * n).saturating_sub(x);
                let end = ((s * self.g.w + kx) * n).saturating_sub(x).min(NR);
                let phase = self.phases[(x + (s * k - kx) * n) % (s * n)];
                let mask = low_lanes(end) & !low_lanes(first) & phase;
                if mask == 0 {
                    continue;
                }
                taps.push(FoldTap {
                    a: ky * k + kx,
                    base: (gy - band.lo) * band.width + x + band.lead * n - kx * n,
                    mask,
                });
            }
        }
    }

    /// Start values of the interior strips, whose every tap reads every
    /// lane (stride 1 only): [`Fold::taps`] gives every lane of any run
    /// of them, and the same list for each, shifted by its start.
    fn interior(&self) -> Range<usize> {
        let ConvSpec {
            kernel: k,
            stride,
            padding: p,
        } = self.spec;
        if stride != 1 {
            return 0..0;
        }
        let n = self.g.n;
        let lo = ((k - 1).saturating_sub(p) * n).next_multiple_of(NR);
        let hi = self.row.min(self.g.w.saturating_sub(p) * n) / NR * NR;
        lo..hi.max(lo)
    }

    /// One run of output row `row` (an offset into the band) over
    /// `px`, over every tap of `taps`, which lists the taps of its
    /// first strip.
    fn run<const MRR: usize>(
        &self,
        planes: &mut [&mut [f32]],
        row: usize,
        px: Pixels,
        (src, taps): (Src, &[FoldTap]),
    ) {
        let (dst, ch) = px.rows::<MRR>(planes, row);
        let kk = self.spec.kernel * self.spec.kernel;
        // Weight `(c, o, ky, kx)` sits at `c · acs + o · k² + tap`.
        let aidx = ch.map(|o| o * kk);
        let bias = self.bias.map(|v| ch.map(|c| v[c]));
        let a = (self.wt, &aidx, self.c_out * kk);
        kernels::fold_micro(dst, a, src, taps, bias);
    }
}

/// Fold into `out` (`[c_out, oh, ow, g.n]`, every element overwritten):
/// `out = col2im(wtᵀ · g) (+ bias)` lane by lane, with `wt` as
/// `[g.c, c_out, K, K]` and `g` the `[g.c, spec.out_size(oh),
/// spec.out_size(ow), g.n]` batch. This is `conv2d`'s input gradient
/// (`g` the output gradient) and `conv_transpose2d`'s forward pass (`g`
/// its input).
pub(crate) fn fold_into(
    out: &mut [f32],
    (c_out, oh, ow): (usize, usize, usize),
    g: Map,
    wt: &[f32],
    spec: ConvSpec,
    bias: Option<&[f32]>,
) {
    let ConvSpec {
        kernel: k,
        stride: s,
        padding: p,
    } = spec;
    let (n, row) = (g.n, ow * g.n);
    debug_assert_eq!(out.len(), c_out * oh * row, "fold output length");
    debug_assert_eq!(
        (g.h, g.w),
        (spec.out_size(oh), spec.out_size(ow)),
        "fold source geometry"
    );
    debug_assert_eq!(wt.len(), g.c * c_out * k * k, "fold weight length");
    let band = band_rows(oh, row);
    // A band of output rows reads at most `band + k − 1` source rows.
    // Lane `l` of tap `kx` of the strip at `x0` sits at
    // `x0 + l + (p + lead − kx) · n ≥ 0` in its row; `NR` slack values
    // follow the last row.
    let lead = (k - 1).saturating_sub(p);
    let (rows, width) = (band + k - 1, (ow + p + lead) * n);
    let offs: Vec<usize> = (0..g.c).map(|c| c * rows * width).collect();
    let offs = Src::new(&offs);
    let phases: Vec<u8> = (0..s * n)
        .map(|r| {
            (0..NR)
                .filter(|l| (r + l) % (s * n) < n)
                .fold(0, |m, l| m | 1 << l)
        })
        .collect();
    let op = Fold {
        g,
        wt,
        c_out,
        spec,
        row,
        phases: &phases,
        bias,
    };
    let mr = kernels::gemm_mr();
    let interior = op.interior();
    let work = 2 * g.c * k * k * c_out;
    let copy_len = g.c * rows * width + NR;
    for_each_band(
        out,
        (c_out, oh, row),
        work,
        copy_len,
        |y0, y1, planes, copy| {
            let mut taps = Vec::with_capacity(k * k);
            for yb in (y0..y1).step_by(band) {
                let ye = (yb + band).min(y1);
                let band = FoldBand {
                    lo: (yb + p).saturating_sub(k - 1).div_ceil(s),
                    rows,
                    lead,
                    width,
                };
                op.pad_band(copy, band, ((ye - 1 + p) / s + 1).min(g.h));
                let src = offs.on(copy);
                for y in yb..ye {
                    let out_row = (y - y0) * row;
                    let mut x0 = 0;
                    while x0 < row {
                        // The interior strips share one list, based at the
                        // first, and run as one.
                        let inside = x0 == interior.start && !interior.is_empty();
                        let len = if inside {
                            interior.len()
                        } else {
                            NR.min(row - x0)
                        };
                        op.taps(y, x0, band, &mut taps);
                        debug_assert!(
                            !inside || taps.iter().all(|t| t.mask == ALL_LANES),
                            "interior strips read every lane"
                        );
                        for c0 in (0..c_out).step_by(mr) {
                            let px = Pixels { c: c0, x0, len };
                            let t = (src, &taps[..]);
                            tile!(mr.min(c_out - c0), op.run(planes, out_row, px, t));
                        }
                        x0 += len;
                    }
                }
            }
        },
    );
}
