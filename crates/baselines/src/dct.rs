//! Block discrete-cosine-transform feature tensors — the manual,
//! frequency-domain front end of the TCAD'18 detector [Yang et al.].
//!
//! The clip raster is divided into `B×B` blocks; each block is transformed
//! with a 2-D DCT-II and the lowest-frequency coefficients (zig-zag order)
//! are kept, producing a `[k, H/B, W/B]` feature tensor. The paper under
//! reproduction replaces this manual pipeline with its learned
//! encoder–decoder (§3.1) and cites DCT's runtime as a drawback — which
//! the Table 1 timing comparison exercises.

use rhsd_tensor::{workspace, Tensor};

/// Orthonormal DCT scaling factor for frequency index `k` at size `n`.
fn norm(n: usize, k: usize) -> f32 {
    if k == 0 {
        (1.0 / n as f32).sqrt()
    } else {
        (2.0 / n as f32).sqrt()
    }
}

/// Precomputes the `n×n` DCT cosine table `basis[k·n + y] =
/// cos(π·(2y+1)·k / 2n)` — the exact expression the naive kernels
/// evaluated per element, now evaluated once per `(k, y)` pair. `cos`
/// maps equal input bits to equal output bits, so transforms built on
/// the table are bit-identical to the recomputing ones.
fn cos_basis(n: usize) -> workspace::WsGuard {
    let mut basis = workspace::take(n * n);
    for k in 0..n {
        for (y, b) in basis[k * n..(k + 1) * n].iter_mut().enumerate() {
            *b =
                (std::f32::consts::PI * (2.0 * y as f32 + 1.0) * k as f32 / (2.0 * n as f32)).cos();
        }
    }
    basis
}

/// [`dct2`] over raw slices with a prebuilt [`cos_basis`] table — the
/// hot path of [`feature_tensor`], which amortises the table over every
/// block of a clip. Accumulation order (`y` outer, `x` inner, products
/// applied `block·cy·cx`) matches the naive kernel exactly.
fn dct2_with_basis(bv: &[f32], n: usize, basis: &[f32], out: &mut [f32]) {
    for u in 0..n {
        let by = &basis[u * n..(u + 1) * n];
        for v in 0..n {
            let bx = &basis[v * n..(v + 1) * n];
            let mut acc = 0.0f32;
            for (y, &cy) in by.iter().enumerate() {
                let row = &bv[y * n..(y + 1) * n];
                for (&val, &cx) in row.iter().zip(bx) {
                    acc += val * cy * cx;
                }
            }
            out[u * n + v] = norm(n, u) * norm(n, v) * acc;
        }
    }
}

/// 2-D DCT-II of a square block (orthonormal scaling).
///
/// # Panics
///
/// Panics if `block` is not square rank 2.
pub fn dct2(block: &Tensor) -> Tensor {
    assert_eq!(block.rank(), 2, "dct2 expects [B,B], got {}", block.shape());
    let n = block.dim(0);
    assert_eq!(n, block.dim(1), "dct2 expects a square block");
    let basis = cos_basis(n);
    let mut out = vec![0.0f32; n * n];
    dct2_with_basis(block.as_slice(), n, &basis, &mut out);
    Tensor::from_parts([n, n], out)
}

/// Inverse 2-D DCT-II (i.e. DCT-III with orthonormal scaling).
///
/// # Panics
///
/// Panics if `coeffs` is not square rank 2.
pub fn idct2(coeffs: &Tensor) -> Tensor {
    assert_eq!(
        coeffs.rank(),
        2,
        "idct2 expects [B,B], got {}",
        coeffs.shape()
    );
    let n = coeffs.dim(0);
    let cv = coeffs.as_slice();
    let basis = cos_basis(n);
    let mut out = vec![0.0f32; n * n];
    for y in 0..n {
        for x in 0..n {
            let mut acc = 0.0f32;
            for u in 0..n {
                let cy = basis[u * n + y];
                let nu = norm(n, u);
                for v in 0..n {
                    let cx = basis[v * n + x];
                    acc += nu * norm(n, v) * cv[u * n + v] * cy * cx;
                }
            }
            out[y * n + x] = acc;
        }
    }
    Tensor::from_parts([n, n], out)
}

/// Zig-zag scan order of an `n×n` matrix (JPEG-style).
pub fn zigzag_order(n: usize) -> Vec<(usize, usize)> {
    let mut order = Vec::with_capacity(n * n);
    for s in 0..(2 * n - 1) {
        if s % 2 == 0 {
            // up-right
            let start_y = s.min(n - 1);
            let start_x = s - start_y;
            let (mut y, mut x) = (start_y as isize, start_x as isize);
            while y >= 0 && (x as usize) < n {
                order.push((y as usize, x as usize));
                y -= 1;
                x += 1;
            }
        } else {
            let start_x = s.min(n - 1);
            let start_y = s - start_x;
            let (mut y, mut x) = (start_y as isize, start_x as isize);
            while x >= 0 && (y as usize) < n {
                order.push((y as usize, x as usize));
                y += 1;
                x -= 1;
            }
        }
    }
    order
}

/// Builds the TCAD'18 feature tensor: `[k, H/B, W/B]` of the first `k`
/// zig-zag DCT coefficients of each `B×B` block.
///
/// # Panics
///
/// Panics if the image is not `[1, H, W]`, `H`/`W` are not multiples of
/// `block`, or `k > block²`.
pub fn feature_tensor(image: &Tensor, block: usize, k: usize) -> Tensor {
    assert_eq!(image.rank(), 3, "expects [1,H,W], got {}", image.shape());
    assert_eq!(image.dim(0), 1, "expects single channel");
    let (h, w) = (image.dim(1), image.dim(2));
    assert!(
        block > 0 && h % block == 0 && w % block == 0,
        "image {h}×{w} not divisible into {block}×{block} blocks"
    );
    assert!(
        k <= block * block,
        "k={k} exceeds block capacity {}",
        block * block
    );
    let (bh, bw) = (h / block, w / block);
    let order = zigzag_order(block);
    // One cosine table and one pair of scratch buffers serve every
    // block of the clip (and, via the workspace pool, every clip on
    // this thread) — the naive path re-evaluated `cos` per element and
    // allocated two tensors per block.
    let basis = cos_basis(block);
    let mut blk = workspace::take(block * block);
    let mut coeffs = workspace::take(block * block);
    let iv = image.as_slice();
    let mut out = Tensor::zeros([k, bh, bw]);
    for by in 0..bh {
        for bx in 0..bw {
            for c0 in 0..block {
                let src = (by * block + c0) * w + bx * block;
                blk[c0 * block..(c0 + 1) * block].copy_from_slice(&iv[src..src + block]);
            }
            dct2_with_basis(&blk, block, &basis, &mut coeffs);
            for (ci, &(u, v)) in order.iter().take(k).enumerate() {
                out.set(&[ci, by, bx], coeffs[u * block + v]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let block = Tensor::full([4, 4], 2.0);
        let c = dct2(&block);
        // DC = 2 * sqrt(1/4)*sqrt(1/4)*16 = 8
        assert!((c.get(&[0, 0]) - 8.0).abs() < 1e-4);
        for i in 0..4 {
            for j in 0..4 {
                if i + j > 0 {
                    assert!(c.get(&[i, j]).abs() < 1e-4, "AC({i},{j}) not ~0");
                }
            }
        }
    }

    #[test]
    fn dct_idct_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let block = Tensor::rand_uniform([8, 8], 0.0, 1.0, &mut rng);
        let back = idct2(&dct2(&block));
        assert!(back.approx_eq(&block, 1e-4));
    }

    #[test]
    fn dct_preserves_energy() {
        // Parseval: orthonormal DCT preserves the squared norm.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let block = Tensor::rand_uniform([6, 6], -1.0, 1.0, &mut rng);
        let c = dct2(&block);
        assert!((c.sq_norm() - block.sq_norm()).abs() < 1e-3);
    }

    #[test]
    fn zigzag_visits_every_cell_once() {
        for n in [1usize, 2, 4, 8] {
            let order = zigzag_order(n);
            assert_eq!(order.len(), n * n);
            let set: std::collections::BTreeSet<_> = order.iter().collect();
            assert_eq!(set.len(), n * n);
            assert_eq!(order[0], (0, 0));
        }
    }

    #[test]
    fn zigzag_prefix_is_low_frequency() {
        let order = zigzag_order(8);
        // the first 10 entries all lie in the low-frequency corner
        for &(u, v) in order.iter().take(10) {
            assert!(u + v <= 3, "({u},{v}) not low-frequency");
        }
    }

    #[test]
    fn feature_tensor_shape_and_dc() {
        let img = Tensor::full([1, 16, 16], 0.5);
        let f = feature_tensor(&img, 4, 6);
        assert_eq!(f.dims(), &[6, 4, 4]);
        // DC plane is constant, AC planes ~0
        let dc = f.get(&[0, 0, 0]);
        for by in 0..4 {
            for bx in 0..4 {
                assert!((f.get(&[0, by, bx]) - dc).abs() < 1e-5);
                assert!(f.get(&[1, by, bx]).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn feature_tensor_rejects_bad_block() {
        feature_tensor(&Tensor::zeros([1, 10, 10]), 4, 2);
    }
}
