//! Matrix–vector products: the fully-connected layers' forward pass
//! and input gradient.
//!
//! [`matvec`] is `Linear`'s forward pass and [`matvec_t`] its input
//! gradient. Both run one loop on the in-place convolution's run kernel
//! ([`kernels::conv_micro`]). A batch of vectors comes as `[k, n]`, the
//! lane layout of the refinement head: row `p` holds element `p` of
//! every vector, so a run's rows are output elements and its lanes are
//! `NR` vectors of the batch, which share every broadcast value of `A`.
//! The batch is read in place when its rows fill whole strips, and
//! otherwise from a copy whose rows are padded to whole strips. One
//! call covers every vector for a block of outputs, straight into the
//! `[m, n]` result. The two products differ only in how the run reads
//! `A` (row-wise or column-wise) and in the value their chains start
//! from.
//!
//! # Determinism
//!
//! Every output element is one chain over ascending `p`, one mul and one
//! add per step, from a fixed start value. Tasks own whole blocks of
//! outputs and the split depends only on the shape, so a batched vector
//! is bit for bit the product of that vector alone, at any thread count
//! and on any ISA.

use super::direct::tile;
use super::kernels::{self, Src, NR};
use crate::Tensor;

/// Checks a matrix–vector operand: `x` is one vector `[k]` or a batch
/// of vectors `[k, n]` with `k == a_cols`. Returns `n`.
fn vectors(op: &str, a: &Tensor, x: &Tensor, a_cols: usize) -> usize {
    assert_eq!(a.rank(), 2, "{op} lhs must be rank 2, got {}", a.shape());
    assert!(
        x.rank() == 1 || x.rank() == 2,
        "{op} rhs must be [k] or [k, n], got {}",
        x.shape()
    );
    assert_eq!(
        x.dim(0),
        a_cols,
        "{op} dimension mismatch: {} vs {}",
        a.shape(),
        x.shape()
    );
    x.dims().get(1).copied().unwrap_or(1)
}

/// `x`'s shape with its leading `k` axis replaced by `m`: `[m]` for a
/// single vector, `[m, n]` for a batch.
fn with_rows(x: &Tensor, m: usize) -> Vec<usize> {
    let mut dims = x.dims().to_vec();
    dims[0] = m;
    dims
}

/// Matrix–vector product: `[m, k] × [k] → [m]`, or for a batch of
/// vectors `[k, n]`, each vector's product: `→ [m, n]`.
///
/// Each output element is one ascending chain over `k` that starts at
/// `-0.0` — the fold `Iterator::sum` runs over the products. No
/// workspace scratch is taken, so inference stays off the pool.
///
/// # Panics
///
/// Panics if `a` is not rank 2, `x` not rank 1 or 2, or dimensions
/// disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = vectors("matvec", a, x, k);
    let out = products(a.as_slice(), (m, k), (k, 1), -0.0, x.as_slice(), n);
    Tensor::from_parts(with_rows(x, m), out)
}

/// Transposed matrix–vector product `aᵀ · x`: `[k, m]ᵀ × [k] → [m]`,
/// or for a batch of vectors `[k, n]`, each vector's product:
/// `→ [m, n]`.
///
/// Each output element is one ascending chain over `k` that starts at
/// `+0.0`, so an all-zero chain is `+0.0` (where [`matvec`] of the
/// explicit transpose gives `-0.0`). The run reads `a` column-wise; no
/// transpose is materialised.
///
/// # Panics
///
/// Panics if `a` is not rank 2, `x` not rank 1 or 2, or `a.dim(0)`
/// differs from the vectors' length.
pub fn matvec_t(a: &Tensor, x: &Tensor) -> Tensor {
    let (k, m) = (a.dim(0), a.dim(1));
    let n = vectors("matvec_t", a, x, k);
    let out = products(a.as_slice(), (m, k), (1, m), 0.0, x.as_slice(), n);
    Tensor::from_parts(with_rows(x, m), out)
}

/// The products of the `n` vectors of `x` (`[k, n]`) with an `m × k`
/// matrix whose element `(o, p)` is `av[o · ars + p · acs]`, as
/// `[m, n]`: one chain per element from `init` over ascending `p`.
fn products(
    av: &[f32],
    (m, k): (usize, usize),
    (ars, acs): (usize, usize),
    init: f32,
    x: &[f32],
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    // A run's last strip reads `NR` values at every step, so rows that
    // do not fill whole strips are read from a copy padded to them.
    let np = n.next_multiple_of(NR);
    let padded: Vec<f32>;
    let xs = if np == n {
        x
    } else {
        let mut xp = vec![0.0f32; k * np];
        for (d, s) in xp.chunks_exact_mut(np).zip(x.chunks_exact(n)) {
            d[..n].copy_from_slice(s);
        }
        padded = xp;
        &padded
    };
    let offs: Vec<usize> = (0..k).map(|p| p * np).collect();
    let op = Products {
        av,
        ars,
        acs,
        init,
        src: Src::new(&offs).on(xs),
    };
    // Row `o` holds output `o` of every vector, one run per block of
    // outputs. There are no more tasks than `chunk_units` makes of the
    // vectors' strips, so a product of one strip runs inline.
    let mr = kernels::gemm_mr();
    let strips = np / NR;
    let tasks = strips.div_ceil(rhsd_par::chunk_units(strips, 2 * k * m * NR));
    let blocks = m.div_ceil(mr).div_ceil(tasks);
    rhsd_par::for_each_mut(&mut out, blocks * mr * n, |ti, rows| {
        let o0 = ti * blocks * mr;
        let mut rows = rows.chunks_mut(n);
        let outputs = rows.len();
        for b0 in (0..outputs).step_by(mr) {
            tile!(mr.min(outputs - b0), op.run(o0 + b0, &mut rows));
        }
    });
    out
}

/// The runs of [`products`]: element `(o, p)` of the matrix is
/// `av[o · ars + p · acs]`, and every chain starts at `init` and runs
/// over `src`'s rows.
#[derive(Clone, Copy)]
struct Products<'p> {
    av: &'p [f32],
    ars: usize,
    acs: usize,
    init: f32,
    src: Src<'p>,
}

impl Products<'_> {
    /// Outputs `o0..o0 + MRR` of every vector, into the next `MRR` rows
    /// of `rows`.
    fn run<'r, const MRR: usize>(self, o0: usize, rows: &mut impl Iterator<Item = &'r mut [f32]>) {
        let dst = std::array::from_fn(|_| match rows.next() {
            Some(row) => row,
            None => unreachable!("a run has an output per row"),
        });
        let aidx: [usize; MRR] = std::array::from_fn(|r| (o0 + r) * self.ars);
        let a = (self.av, &aidx, self.acs);
        kernels::conv_micro(dst, a, self.src, 0, self.init, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Vector `r` of a `[k, n]` batch.
    fn column(x: &Tensor, r: usize) -> Vec<f32> {
        x.as_slice()
            .iter()
            .skip(r)
            .step_by(x.dim(1))
            .copied()
            .collect()
    }

    /// A pseudo-random fill; with `zero_every > 0`, about one value in
    /// `zero_every` is a zero, of either sign.
    fn noisy(shape: [usize; 2], seed: u64, zero_every: usize) -> Tensor {
        Tensor::from_fn(shape, |c| {
            let h = (seed ^ (c[0] as u64) << 32 ^ c[1] as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if zero_every > 0 && h.is_multiple_of(zero_every as u64) {
                if h >> 40 & 1 == 1 {
                    -0.0
                } else {
                    0.0
                }
            } else {
                (h % 1999) as f32 / 500.0 - 2.0
            }
        })
    }

    #[test]
    fn matvec_small_known_result() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let x = Tensor::from_vec([3], vec![1., 0., -1.]).unwrap();
        let y = matvec(&a, &x);
        assert_eq!(y.as_slice(), &[-2., -2.]);
    }

    #[test]
    fn matvec_rows_are_plain_dot_products_bit_for_bit() {
        // The reference is the per-output `Iterator::sum` dot product;
        // `k` runs past 256 steps and one row is all zeros, so its
        // chains of `-0.0` products keep their sign.
        for (m, k, n) in [
            (48usize, 320usize, 40usize),
            (2, 48, 1),
            (5, 7, 9),
            (9, 300, 3),
        ] {
            let a = noisy([m, k], 29, 0);
            let mut x = noisy([k, n], 31, 4);
            for v in x.as_mut_slice().iter_mut().step_by(n) {
                *v = 0.0;
            }
            let a_neg = a.map(|v| -v.abs());
            for a in [&a, &a_neg] {
                let batch = matvec(a, &x);
                assert_eq!(batch.dims(), &[m, n]);
                for r in 0..n {
                    let row = Tensor::from_vec([k], column(&x, r)).unwrap();
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
                        bits(&batch)
                            .into_iter()
                            .skip(r)
                            .step_by(n)
                            .collect::<Vec<_>>(),
                        plain,
                        "batched matvec {m}x{k}x{n} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_t_equals_the_reference_product_bit_for_bit() {
        // Batches around one lane strip (1, 7, 8, 9 vectors) and the
        // head's 40 RoIs; `k = 300` runs a chain past 256 steps. About
        // a quarter of the vector entries are zeros of either sign.
        for (k, m) in [(48usize, 320usize), (300, 17), (3, 5), (61, 19)] {
            let a = noisy([k, m], 37, 0);
            for n in [1usize, 7, 8, 9, 40] {
                let x = noisy([k, n], 41 + n as u64, 4);
                let want = bits(&reference::matmul(&reference::transpose(&a), &x));
                assert_eq!(
                    bits(&matvec_t(&a, &x)),
                    want,
                    "matvec_t {k}x{m}, {n} vectors"
                );
                let row = Tensor::from_vec([k], column(&x, 0)).unwrap();
                let want0: Vec<u32> = want.into_iter().step_by(n).collect();
                assert_eq!(bits(&matvec_t(&a, &row)), want0, "matvec_t {k}x{m} row 0");
            }
        }
    }

    #[test]
    fn an_all_zero_matvec_t_chain_is_positive_zero() {
        // Every product is `-0.0`: `matvec_t`'s chains start at `+0.0`
        // and stay there, while `matvec` of the explicit transpose
        // starts at `-0.0` and keeps the sign. An empty chain is `+0.0`.
        let a = Tensor::full([300, 9], -1.5);
        let x = Tensor::zeros([300, 3]);
        assert!(bits(&matvec_t(&a, &x)).iter().all(|&b| b == 0));
        let explicit = matvec(&reference::transpose(&a), &x);
        assert!(bits(&explicit).iter().all(|&b| b == (-0.0f32).to_bits()));
        let empty = matvec_t(&Tensor::zeros([0, 4]), &Tensor::zeros([0, 2]));
        assert_eq!(empty.dims(), &[4, 2]);
        assert!(bits(&empty).iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "matvec_t dimension mismatch")]
    fn matvec_t_rejects_bad_dims() {
        matvec_t(&Tensor::zeros([2, 3]), &Tensor::zeros([3, 4]));
    }
}
