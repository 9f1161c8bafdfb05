//! Dense matrix multiplication — a packed, cache-blocked GEMM core.
//!
//! # Kernel architecture
//!
//! All rank-2 products ([`matmul`], the transpose-fused [`matmul_tn`] /
//! [`matmul_nt`]) run through one blocked driver. (The convolutions and
//! their gradients read their maps in place with their own tiles, in
//! `ops::direct`, and the weight gradients drive this module's
//! register tile directly, from `ops::conv`.)
//!
//! * **Tasks** — a product is cut into parallel tasks by a shape-only
//!   rule that never goes below one register tile. A short-wide product
//!   (more than `NC` columns) splits over whole `NC`-wide column
//!   blocks, each task covering every row. A narrow product (at most
//!   `NC` columns) splits over bands of at least `MC` rows, whole tiles
//!   each; most narrow products are a single task.
//! * **Packing** — each task packs only the part of the right operand it
//!   consumes, one `KC × NC` block at a time, into `NR = 8`-wide column
//!   strips: strip `s` stores, for ascending `p`, the eight values
//!   `B[p][8s..8s+8]` contiguously (zero-padded at the right edge). The
//!   block buffer is [`crate::workspace`] scratch on the task's thread.
//!   The packing pass reads `B` through a `BSource`: a row-major
//!   matrix or a transposed one (the packing step *is* the transpose).
//! * **Register tiles** — each `MR`-row tile of the task walks the
//!   packed block strip by strip, streaming its output rows in order
//!   while the block stays L2-resident. The micro-kernel keeps an
//!   `MR × 8` accumulator array in registers; its inner loop is the
//!   ISA-dispatched [`super::kernels::gemm_micro`] (scalar reference or
//!   AVX2 — bit-identical), and the tile height comes from
//!   [`super::kernels::gemm_mr`] (4 on the scalar path, 8 on AVX2 where
//!   sixteen ymm registers fit the taller tile).
//!
//! # Determinism
//!
//! Every output element accumulates its `k` products in ascending-`p`
//! order, one chain per element: `KC` blocks load the partial sum back
//! from `C` and continue the same chain (an `f32` store/load round-trip
//! is exact), and packing changes only *where* operands live. Tasks own
//! disjoint output rectangles and the split depends only on the shape,
//! so results are bit-identical at any thread count, any ISA, and to
//! a naive i-k-j loop, even one that skips `a = 0.0` terms: adding a
//! `±0.0` term leaves a finite partial sum bit-unchanged (a chain that
//! starts at `+0.0` never reaches `-0.0`).

use super::kernels;
use super::kernels::NR;
use crate::{workspace, Tensor};

/// k-block depth: a packed strip holds at most `KC × NR` values.
const KC: usize = 256;
/// Column-block width: one `KC × NC` packed block stays L2-resident, and
/// products wider than this split over such blocks.
const NC: usize = 2048;
/// Row-task granule: the tallest register tile ([`kernels::gemm_mr`]
/// is 4 or 8), so no split ever cuts a tile on any ISA.
const MR_MAX: usize = 8;
/// Minimum rows of a row-split task: each such task packs the whole
/// right operand, which this many rows amortise.
const MC: usize = 64;

/// Where the packing pass reads the right operand `B` (`[k, n]`) from.
#[derive(Clone, Copy)]
enum BSource<'a> {
    /// `B` stored `[k, n]` row-major.
    Rows(&'a [f32]),
    /// `B` stored `[n, k]` row-major; packing gathers `Bᵀ`.
    Transposed(&'a [f32]),
}

impl BSource<'_> {
    /// Packs rows `p0..p1` × columns `j0..j1` of the `[k, n]` operand
    /// into `dst` as `NR`-wide strips of `(p1 − p0) · NR` values each,
    /// zero-padding lanes past `j1`. `j1` is `n` or a multiple of `NR`
    /// past `j0`.
    #[allow(clippy::too_many_arguments)]
    fn pack(self, k: usize, n: usize, p0: usize, p1: usize, j0: usize, j1: usize, dst: &mut [f32]) {
        let kc = p1 - p0;
        match self {
            BSource::Rows(bv) => {
                for (s, strip) in dst.chunks_exact_mut(kc * NR).enumerate() {
                    let j = j0 + s * NR;
                    let w = NR.min(j1 - j);
                    for (p, dstp) in (p0..p1).zip(strip.chunks_exact_mut(NR)) {
                        dstp[..w].copy_from_slice(&bv[p * n + j..p * n + j + w]);
                        dstp[w..].fill(0.0);
                    }
                }
            }
            BSource::Transposed(bv) => {
                // A strided gather with no contiguous runs to vectorise.
                for (s, strip) in dst.chunks_exact_mut(kc * NR).enumerate() {
                    let j = j0 + s * NR;
                    let w = NR.min(j1 - j);
                    for l in 0..NR {
                        if l < w {
                            let row = &bv[(j + l) * k + p0..(j + l) * k + p1];
                            for (dstp, &v) in strip.chunks_exact_mut(NR).zip(row) {
                                dstp[l] = v;
                            }
                        } else {
                            for dstp in strip.chunks_exact_mut(NR) {
                                dstp[l] = 0.0;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The `MRR × NR` register micro-kernel over one packed strip.
///
/// Loads the current partial sums of output rows `il..il+MRR`, columns
/// `jl..jl+w` of the task's row segments, accumulates `panel.len()/NR`
/// ascending-`p` terms, and stores back — continuing each element's
/// single accumulation chain exactly (f32 round-trips are lossless).
/// `A` elements are addressed as `av[row · ars + p · acs]`, which serves
/// both the normal (`ars = k, acs = 1`) and transposed
/// (`ars = 1, acs = m`) left operand without a separate kernel. The
/// accumulation loop itself is [`kernels::gemm_micro`], dispatched once
/// per process to the widest bit-identical ISA variant.
#[inline(always)]
// `r` indexes two parallel register arrays plus the output rows; the
// explicit range keeps the unroll obvious.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn micro<const MRR: usize>(
    rows: &mut [&mut [f32]],
    il: usize,
    jl: usize,
    w: usize,
    av: &[f32],
    i_abs: usize,
    ars: usize,
    acs: usize,
    p0: usize,
    panel: &[f32],
) {
    let mut acc = [[0.0f32; NR]; MRR];
    for r in 0..MRR {
        acc[r][..w].copy_from_slice(&rows[il + r][jl..jl + w]);
    }
    let mut aidx = [0usize; MRR];
    for r in 0..MRR {
        aidx[r] = (i_abs + r) * ars + p0 * acs;
    }
    kernels::gemm_micro(&mut acc, av, &mut aidx, acs, panel);
    for r in 0..MRR {
        rows[il + r][jl..jl + w].copy_from_slice(&acc[r][..w]);
    }
}

/// One parallel task: every blocked update of the output rectangle whose
/// rows are `rows` (output rows `i0..`, columns `j0..j0 + width`).
#[allow(clippy::too_many_arguments)]
fn gemm_task(
    rows: &mut [&mut [f32]],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    av: &[f32],
    ars: usize,
    acs: usize,
    b: BSource,
) {
    let m_t = rows.len();
    let width = rows[0].len();
    // Row-tile height for the active ISA (4 scalar, 8 AVX2): pure
    // scheduling — per-element accumulation chains are identical at any
    // tiling, so this never affects results.
    let mr_tile = kernels::gemm_mr();
    let mut block = workspace::take(k.min(KC) * width.min(NC).next_multiple_of(NR));
    for jb in (0..width).step_by(NC) {
        let nb = NC.min(width - jb);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let packed = &mut block[..kc * nb.next_multiple_of(NR)];
            b.pack(k, n, p0, p0 + kc, j0 + jb, j0 + jb + nb, packed);
            for il in (0..m_t).step_by(mr_tile) {
                let i_abs = i0 + il;
                for (s, strip) in packed.chunks_exact(kc * NR).enumerate() {
                    let jl = jb + s * NR;
                    let w = NR.min(width - jl);
                    match mr_tile.min(m_t - il) {
                        8 => micro::<8>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        7 => micro::<7>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        6 => micro::<6>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        5 => micro::<5>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        4 => micro::<4>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        3 => micro::<3>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        2 => micro::<2>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        1 => micro::<1>(rows, il, jl, w, av, i_abs, ars, acs, p0, strip),
                        _ => {}
                    }
                }
            }
        }
    }
}

/// The shape-only task split: `(rows, columns)` of every task's output
/// rectangle. At least one of the two is the full extent.
fn task_shape(m: usize, k: usize, n: usize) -> (usize, usize) {
    if n > NC {
        // Short-wide: whole NC column blocks, each task over every row.
        let blocks = rhsd_par::chunk_units(n.div_ceil(NC), 2 * m * k * NC);
        (m, (blocks * NC).min(n))
    } else {
        // Narrow: bands of whole tiles, at least MC rows each.
        let rows = rhsd_par::chunk_units(m, 2 * k * n).next_multiple_of(MR_MAX);
        (rows.max(MC).min(m), n)
    }
}

/// The blocked GEMM driver over raw slices: `out += op(A) · B` with
/// `out` pre-zeroed (or holding partial sums to continue).
#[allow(clippy::too_many_arguments)]
fn gemm(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    av: &[f32],
    ars: usize,
    acs: usize,
    b: BSource,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (task_rows, task_cols) = task_shape(m, k, n);
    // Each task's output row segments, contiguous per task: a row split
    // hands out whole rows, a column split cuts every row into blocks.
    let mut segs: Vec<&mut [f32]> = Vec::with_capacity(m * n.div_ceil(task_cols));
    let mut rest: Vec<&mut [f32]> = out.chunks_mut(n).collect();
    for j0 in (0..n).step_by(task_cols) {
        for row in rest.iter_mut() {
            let (seg, tail) = std::mem::take(row).split_at_mut(task_cols.min(n - j0));
            *row = tail;
            segs.push(seg);
        }
    }
    rhsd_par::for_each_mut(&mut segs, task_rows, |ti, rows| {
        // Row split: tasks are bands of `task_rows`; column split: every
        // task has all `m` rows and the `ti`-th column block.
        let (i0, j0) = if task_cols == n {
            (ti * task_rows, 0)
        } else {
            (0, ti * task_cols)
        };
        gemm_task(rows, i0, j0, k, n, av, ars, acs, b);
    });
}

/// `out = a · B` over raw slices with `a` stored `[m, k]` row-major and
/// `B` read through `b`; `out` must be zeroed, length `m · n`.
fn gemm_into(out: &mut [f32], av: &[f32], m: usize, k: usize, n: usize, b: BSource) {
    gemm(out, m, k, n, av, k, 1, b);
}

/// Multiplies two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
///
/// Runs the packed cache-blocked GEMM kernel (see the module docs);
/// results are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2, got {}", b.shape());
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    gemm_into(&mut out, a.as_slice(), m, k, n, BSource::Rows(b.as_slice()));
    let out = Tensor::from_parts([m, n], out);
    crate::invariants::check_finite("matmul", &out);
    out
}

/// Transpose-fused product `aᵀ · b`: `[k, m]ᵀ × [k, n] → [m, n]`.
///
/// Bit-identical to `matmul(&transpose(a), b)` without materialising
/// the transpose — the micro-kernel addresses `a` column-wise.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the leading dimensions
/// disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.rank(),
        2,
        "matmul_tn lhs must be rank 2, got {}",
        a.shape()
    );
    assert_eq!(
        b.rank(),
        2,
        "matmul_tn rhs must be rank 2, got {}",
        b.shape()
    );
    let (k, m) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    assert_eq!(
        k,
        b.dim(0),
        "matmul_tn inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    gemm(
        &mut out,
        m,
        k,
        n,
        a.as_slice(),
        1,
        m,
        BSource::Rows(b.as_slice()),
    );
    let out = Tensor::from_parts([m, n], out);
    crate::invariants::check_finite("matmul_tn", &out);
    out
}

/// Transpose-fused product `a · bᵀ`: `[m, k] × [n, k]ᵀ → [m, n]`.
///
/// Bit-identical to `matmul(a, &transpose(b))`; the transpose happens
/// inside the GEMM's packing pass instead of as a fresh tensor.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the trailing dimensions
/// disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.rank(),
        2,
        "matmul_nt lhs must be rank 2, got {}",
        a.shape()
    );
    assert_eq!(
        b.rank(),
        2,
        "matmul_nt rhs must be rank 2, got {}",
        b.shape()
    );
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(0);
    assert_eq!(
        k,
        b.dim(1),
        "matmul_nt inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    gemm_into(
        &mut out,
        a.as_slice(),
        m,
        k,
        n,
        BSource::Transposed(b.as_slice()),
    );
    let out = Tensor::from_parts([m, n], out);
    crate::invariants::check_finite("matmul_nt", &out);
    out
}

/// Transposes a rank-2 tensor.
///
/// Parallelised over contiguous output rows; element moves are pure
/// copies, so the result is trivially identical at any thread count.
///
/// # Panics
///
/// Panics if the input is not rank 2.
pub fn transpose(a: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "transpose expects rank 2, got {}", a.shape());
    let (m, n) = (a.dim(0), a.dim(1));
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    if m > 0 && n > 0 {
        let rows_per_task = rhsd_par::chunk_units(n, m);
        rhsd_par::for_each_mut(&mut out, rows_per_task * m, |ci, rows| {
            let j0 = ci * rows_per_task;
            for (dj, orow) in rows.chunks_mut(m).enumerate() {
                let j = j0 + dj;
                for (i, o) in orow.iter_mut().enumerate() {
                    *o = av[i * n + j];
                }
            }
        });
    }
    Tensor::from_parts([n, m], out)
}

/// Checks a matrix–vector operand: `x` is one vector `[k]` or a batch
/// of row vectors `[n, k]` with `k == a_cols`. Returns `n`.
fn vectors(op: &str, a: &Tensor, x: &Tensor, a_cols: usize) -> usize {
    assert_eq!(a.rank(), 2, "{op} lhs must be rank 2, got {}", a.shape());
    assert!(
        x.rank() == 1 || x.rank() == 2,
        "{op} rhs must be [k] or [n, k], got {}",
        x.shape()
    );
    let (n, k) = match x.rank() {
        1 => (1, x.dim(0)),
        _ => (x.dim(0), x.dim(1)),
    };
    assert_eq!(
        k,
        a_cols,
        "{op} dimension mismatch: {} vs {}",
        a.shape(),
        x.shape()
    );
    n
}

/// The output shape for `n` vectors of `m` values: `[m]` for a single
/// rank-1 input, `[n, m]` for a batch.
fn vector_shape(x: &Tensor, n: usize, m: usize) -> Vec<usize> {
    if x.rank() == 1 {
        vec![m]
    } else {
        vec![n, m]
    }
}

/// Matrix–vector product: `[m, k] × [k] → [m]`, or for a batch of row
/// vectors `[n, k]`, each row's product: `→ [n, m]`.
///
/// Each output element is one ascending chain over `k` that starts at
/// `-0.0` — the fold `Iterator::sum` runs over the products — so a
/// batched row is bit for bit the product of that row alone. The
/// register tiles run `a · xᵀ`: the lanes of a tile hold `NR` different
/// vectors of the batch, which share every broadcast value of `a`. The
/// vectors are transposed into a plain buffer; no workspace scratch is
/// taken, so inference stays off the pool.
///
/// # Panics
///
/// Panics if `a` is not rank 2, `x` not rank 1 or 2, or dimensions
/// disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = vectors("matvec", a, x, k);
    let mut out = vec![0.0f32; n * m];
    if m > 0 && n > 0 {
        // `xᵀ` padded to whole strips: row `p` holds element `p` of
        // every vector.
        let np = n.next_multiple_of(NR);
        let mut xt = vec![0.0f32; k * np];
        for (r, xr) in x.as_slice().chunks_exact(k.max(1)).enumerate() {
            for (p, &v) in xr.iter().enumerate() {
                xt[p * np + r] = v;
            }
        }
        let offs: Vec<usize> = (0..k).map(|p| p * np).collect();
        let av = a.as_slice();
        let mr = kernels::gemm_mr();
        let strips = rhsd_par::chunk_units(np / NR, 2 * k * m * NR);
        rhsd_par::for_each_mut(&mut out, strips * NR * m, |ti, out| {
            for r0 in (0..out.len() / m).step_by(NR) {
                let lanes = NR.min(out.len() / m - r0);
                let strip = (ti * strips * NR + r0, lanes);
                for o0 in (0..m).step_by(mr) {
                    let tile = (o0, &mut out[r0 * m..]);
                    match mr.min(m - o0) {
                        8 => matvec_tile::<8>(tile, av, (m, k), strip, &xt, &offs),
                        7 => matvec_tile::<7>(tile, av, (m, k), strip, &xt, &offs),
                        6 => matvec_tile::<6>(tile, av, (m, k), strip, &xt, &offs),
                        5 => matvec_tile::<5>(tile, av, (m, k), strip, &xt, &offs),
                        4 => matvec_tile::<4>(tile, av, (m, k), strip, &xt, &offs),
                        3 => matvec_tile::<3>(tile, av, (m, k), strip, &xt, &offs),
                        2 => matvec_tile::<2>(tile, av, (m, k), strip, &xt, &offs),
                        _ => matvec_tile::<1>(tile, av, (m, k), strip, &xt, &offs),
                    }
                }
            }
        });
    }
    Tensor::from_parts(vector_shape(x, n, m), out)
}

/// One [`matvec`] register tile: outputs `o0..o0 + MRR` of the `lanes`
/// vectors from `r0`, each lane's chain from `-0.0` over `xt`'s rows,
/// stored into `out` (rows of `m` from vector `r0`).
fn matvec_tile<const MRR: usize>(
    (o0, out): (usize, &mut [f32]),
    av: &[f32],
    (m, k): (usize, usize),
    (r0, lanes): (usize, usize),
    xt: &[f32],
    offs: &[usize],
) {
    let mut acc = [[-0.0f32; NR]; MRR];
    let aidx: [usize; MRR] = std::array::from_fn(|r| (o0 + r) * k);
    kernels::conv_micro(&mut acc, av, &aidx, 1, xt, &[r0; MRR], offs);
    for (r, a) in acc.iter().enumerate() {
        for (l, &v) in a[..lanes].iter().enumerate() {
            out[l * m + o0 + r] = v;
        }
    }
}

/// Transpose-fused matrix–vector product `aᵀ · x`: `[k, m]ᵀ × [k] → [m]`,
/// or for a batch of row vectors `[n, k]`, each row's product:
/// `→ [n, m]`.
///
/// Bit-identical to `matvec(&transpose(a), x)` without materialising
/// the transpose, up to the sign of an all-zero chain: each output
/// element accumulates its `k` terms in ascending order from `+0.0`.
///
/// # Panics
///
/// Panics if `a` is not rank 2, `x` not rank 1 or 2, or `a.dim(0)`
/// differs from the vectors' length.
pub fn matvec_t(a: &Tensor, x: &Tensor) -> Tensor {
    let (k, m) = (a.dim(0), a.dim(1));
    let n = vectors("matvec_t", a, x, k);
    let mut out = vec![0.0f32; n * m];
    gemm_into(&mut out, x.as_slice(), n, k, m, BSource::Rows(a.as_slice()));
    Tensor::from_parts(vector_shape(x, n, m), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-blocking reference kernel (serial i-k-j with the
    /// zero-skip branch) — the bit-exact oracle the packed GEMM must
    /// reproduce.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let aval = av[i * k + p];
                if aval == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += aval * bv[p * n + j];
                }
            }
        }
        Tensor::from_parts([m, n], out)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn noisy(shape: [usize; 2], seed: u64, zero_every: usize) -> Tensor {
        Tensor::from_fn(shape, |c| {
            let h = (seed ^ (c[0] as u64) << 32 ^ c[1] as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if zero_every > 0 && h.is_multiple_of(zero_every as u64) {
                0.0
            } else {
                (h % 1999) as f32 / 500.0 - 2.0
            }
        })
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec([2, 2], vec![3., 1., -2., 4.]).unwrap();
        let i = Tensor::from_fn([2, 2], |c| if c[0] == c[1] { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    fn matmul_skips_zero_rows_correctly() {
        // zero rows contribute nothing
        let a = Tensor::from_vec([2, 3], vec![0., 0., 0., 1., 0., 2.]).unwrap();
        let b = Tensor::from_vec([3, 1], vec![5., 7., 11.]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[0., 27.]);
    }

    #[test]
    fn matmul_matches_naive_reference_bitwise() {
        // Edge-heavy shapes: odd strips (n % 8), odd row blocks
        // (m % 4), k crossing the KC=256 boundary, both task splits,
        // and zero-heavy inputs the reference skips through.
        for (m, k, n, zero_every) in [
            (1usize, 1usize, 1usize, 0usize),
            (5, 7, 9, 0),
            (12, 72, 64, 0),  // the TCAD'18 conv1 GEMM shape
            (20, 108, 16, 0), // the TCAD'18 conv2 GEMM shape
            (4, 300, 17, 0),  // crosses the KC block boundary
            (9, 33, 40, 2),   // ~50% zeros
            (8, 40, 24, 1),   // all zeros
            (13, 21, 8, 3),
            (3, 20, 2100, 0), // column split, ragged last block
            (130, 10, 40, 0), // row split into MC-row bands
        ] {
            let a = noisy([m, k], 11 + m as u64, zero_every);
            let b = noisy([k, n], 23 + n as u64, 0);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            assert_eq!(
                bits(&fast),
                bits(&slow),
                "matmul {m}x{k}x{n} (zero_every={zero_every}) diverged from reference"
            );
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose_bitwise() {
        for (k, m, n) in [(7usize, 5usize, 9usize), (72, 12, 64), (300, 6, 17)] {
            let a = noisy([k, m], 3, 0);
            let b = noisy([k, n], 5, 0);
            let fused = matmul_tn(&a, &b);
            let explicit = matmul(&transpose(&a), &b);
            assert_eq!(bits(&fused), bits(&explicit), "tn {k}x{m}x{n}");
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose_bitwise() {
        for (m, k, n) in [(5usize, 7usize, 9usize), (12, 64, 72), (6, 300, 17)] {
            let a = noisy([m, k], 7, 0);
            let b = noisy([n, k], 13, 0);
            let fused = matmul_nt(&a, &b);
            let explicit = matmul(&a, &transpose(&b));
            assert_eq!(bits(&fused), bits(&explicit), "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn matvec_t_matches_explicit_transpose_bitwise() {
        for (k, m) in [(3usize, 5usize), (32, 320), (61, 19)] {
            let a = noisy([k, m], 17, 0);
            let x = noisy([k, 1], 19, 0).with_shape([k]);
            let fused = matvec_t(&a, &x);
            let explicit = matvec(&transpose(&a), &x);
            assert_eq!(bits(&fused), bits(&explicit), "matvec_t {k}x{m}");
        }
    }

    #[test]
    fn matvec_rows_are_plain_dot_products_bit_for_bit() {
        // The reference is the per-output `Iterator::sum` dot product;
        // `k` crosses the KC block and one row is all zeros, so its
        // chains of `-0.0` products keep their sign.
        for (m, k, n) in [
            (48usize, 320usize, 40usize),
            (2, 48, 1),
            (5, 7, 9),
            (9, 300, 3),
        ] {
            let a = noisy([m, k], 29, 0);
            let mut x = noisy([n, k], 31, 4);
            x.as_mut_slice()[..k].fill(0.0);
            let a_neg = a.map(|v| -v.abs());
            for a in [&a, &a_neg] {
                let batch = matvec(a, &x);
                assert_eq!(batch.dims(), &[n, m]);
                for r in 0..n {
                    let row = Tensor::from_vec([k], x.as_slice()[r * k..][..k].to_vec()).unwrap();
                    let plain: Vec<u32> = (0..m)
                        .map(|o| {
                            let dot: f32 = a.as_slice()[o * k..][..k]
                                .iter()
                                .zip(row.as_slice())
                                .map(|(&p, &q)| p * q)
                                .sum();
                            dot.to_bits()
                        })
                        .collect();
                    assert_eq!(bits(&matvec(a, &row)), plain, "matvec {m}x{k} row {r}");
                    assert_eq!(
                        &bits(&batch)[r * m..][..m],
                        &plain[..],
                        "batched matvec {m}x{k}x{n} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_matvec_t_rows_equal_single_rows() {
        for (k, m, n) in [(48usize, 320usize, 40usize), (4, 2, 3), (300, 17, 2)] {
            let a = noisy([k, m], 37, 0);
            let x = noisy([n, k], 41, 3);
            let batch = matvec_t(&a, &x);
            assert_eq!(batch.dims(), &[n, m]);
            for r in 0..n {
                let row = Tensor::from_vec([k], x.as_slice()[r * k..][..k].to_vec()).unwrap();
                let mut plain = vec![0.0f32; m];
                for (i, &xi) in row.as_slice().iter().enumerate() {
                    for (o, &av) in plain.iter_mut().zip(&a.as_slice()[i * m..][..m]) {
                        *o += xi * av;
                    }
                }
                let plain: Vec<u32> = plain.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits(&matvec_t(&a, &row)), plain, "matvec_t {k}x{m} row {r}");
                assert_eq!(&bits(&batch)[r * m..][..m], &plain[..], "batched row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_dims() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([2, 3]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let at = transpose(&a);
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(transpose(&at), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let x = Tensor::from_vec([3], vec![1., 0., -1.]).unwrap();
        let y = matvec(&a, &x);
        assert_eq!(y.as_slice(), &[-2., -2.]);
    }

    #[test]
    fn matmul_transpose_identity_property() {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let a = Tensor::from_fn([3, 4], |c| (c[0] * 4 + c[1]) as f32 * 0.5 - 2.0);
        let b = Tensor::from_fn([4, 2], |c| (c[0] as f32) - (c[1] as f32) * 1.5);
        let lhs = transpose(&matmul(&a, &b));
        let rhs = matmul(&transpose(&b), &transpose(&a));
        assert!(lhs.approx_eq(&rhs, 1e-5));
    }
}
