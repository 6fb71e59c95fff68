//! Property suite for the packed level-3 kernels: GEMM/SYRK/TRSM must agree with a
//! naive per-element reference over randomized shapes, all four transpose
//! combinations, offset output blocks, BLAS `beta == 0` overwrite semantics, and
//! tail sizes that are not multiples of the micro-kernel tiles (MR = 8, NR = 8) or of
//! the KC = 256 inner blocking.

use bsr_linalg::blas3::{
    gemm_into_block, syrk_lower_into_block, trsm_into_block, Diag, Side, Trans, UpLo,
};
use bsr_linalg::generate::random_matrix;
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::Element;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn op_get(a: &Matrix, trans: Trans, i: usize, j: usize) -> f64 {
    match trans {
        Trans::No => a.get(i, j),
        Trans::Yes => a.get(j, i),
    }
}

/// Naive triple loop over `op(A) * op(B)` — the reference the packed core must match.
fn naive_gemm_op(a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, m: usize, n: usize, k: usize) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        let mut s = 0.0;
        for l in 0..k {
            s += op_get(a, ta, i, l) * op_get(b, tb, l, j);
        }
        s
    })
}

fn trans_of(flag: bool) -> Trans {
    if flag {
        Trans::Yes
    } else {
        Trans::No
    }
}

/// An `(m, k, n)` that crosses `E`'s compiled blocking with ragged tails: `k` spans
/// three `KC` chunks (the last one partial) and `m` two `MC` blocks (the last one not a
/// multiple of `MR`).
fn production_blocking_shape<E: Element>(n: usize) -> (usize, usize, usize) {
    (E::DEFAULT_MC + E::MR / 2 + 1, 2 * E::DEFAULT_KC + 7, n)
}

/// Store an `m × k` op-operand: when `trans` the stored matrix is the transpose.
fn stored_operand(rng: &mut ChaCha8Rng, trans: Trans, rows: usize, cols: usize) -> Matrix {
    match trans {
        Trans::No => random_matrix(rng, rows, cols),
        Trans::Yes => random_matrix(rng, cols, rows),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Shapes span tile tails (MR = 8 / NR = 8 non-multiples) and k crosses the KC = 256
    // packing boundary; one case in eight crosses several KC and MC blocks at once. The
    // output lands in an offset block of a larger C whose surroundings must stay
    // untouched.
    #[test]
    fn gemm_matches_naive_reference(
        (m, k, n) in (0u8..8, 1usize..34, 1usize..300, 1usize..30).prop_map(|(pick, m, k, n)| {
            if pick == 0 { production_blocking_shape::<f64>(n) } else { (m, k, n) }
        }),
        (ta_flag, tb_flag) in (any::<bool>(), any::<bool>()),
        (row_off, col_off) in (0usize..5, 0usize..5),
        seed in any::<u64>(),
        beta_sel in 0u8..3,
        alpha in -2.0f64..2.0,
    ) {
        let (ta, tb) = (trans_of(ta_flag), trans_of(tb_flag));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = stored_operand(&mut rng, ta, m, k);
        let b = stored_operand(&mut rng, tb, k, n);
        let beta = [0.0, 1.0, 0.37][beta_sel as usize];
        let cb = Block::new(row_off, col_off, m, n);
        // beta == 0 must overwrite: poison the block with NaN, keep the frame finite.
        let mut c = Matrix::from_fn(row_off + m + 2, col_off + n + 3, |i, j| {
            let inside = i >= row_off && i < row_off + m && j >= col_off && j < col_off + n;
            if inside && beta == 0.0 { f64::NAN } else { (i * 31 + j) as f64 * 0.01 }
        });
        let orig = c.clone();

        gemm_into_block(alpha, &a, ta, &b, tb, beta, &mut c, cb);

        let reference = naive_gemm_op(&a, ta, &b, tb, m, n, k);
        let tol = 1e-10 * (k as f64).max(1.0);
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                let inside = i >= row_off && i < row_off + m && j >= col_off && j < col_off + n;
                if inside {
                    let old = if beta == 0.0 { 0.0 } else { beta * orig.get(i, j) };
                    let expect = alpha * reference.get(i - row_off, j - col_off) + old;
                    let got = c.get(i, j);
                    prop_assert!(
                        (got - expect).abs() <= tol,
                        "gemm mismatch at ({i},{j}): got {got}, expected {expect} \
                         (m={m} k={k} n={n} ta={ta_flag} tb={tb_flag} beta={beta})"
                    );
                } else {
                    prop_assert_eq!(c.get(i, j), orig.get(i, j));
                }
            }
        }
    }

    // SYRK: lower triangle matches alpha·A·Aᵀ + beta·C, strict upper stays untouched
    // even when tiles cross the diagonal.
    #[test]
    fn syrk_matches_naive_reference(
        (order, k) in (1usize..40, 1usize..28),
        (off, beta_sel) in (0usize..4, 0u8..3),
        seed in any::<u64>(),
        alpha in -2.0f64..2.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, order, k);
        let beta = [0.0, 1.0, -0.5][beta_sel as usize];
        let cb = Block::new(off, off, order, order);
        let mut c = Matrix::from_fn(off + order + 1, off + order + 2, |i, j| {
            let in_lower = i >= off && i < off + order && j >= off && j <= i;
            if in_lower && beta == 0.0 { f64::NAN } else { (i + 3 * j) as f64 * 0.1 }
        });
        let orig = c.clone();

        syrk_lower_into_block(alpha, &a, beta, &mut c, cb);

        let reference = naive_gemm_op(&a, Trans::No, &a, Trans::Yes, order, order, k);
        let tol = 1e-10 * (k as f64).max(1.0);
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                let in_lower = i >= off && i < off + order && j >= off && j < off + order
                    && (i - off) >= (j - off);
                if in_lower {
                    let old = if beta == 0.0 { 0.0 } else { beta * orig.get(i, j) };
                    let expect = alpha * reference.get(i - off, j - off) + old;
                    prop_assert!(
                        (c.get(i, j) - expect).abs() <= tol,
                        "syrk mismatch at ({i},{j}) (order={order} k={k} beta={beta})"
                    );
                } else {
                    prop_assert_eq!(
                        c.get(i, j), orig.get(i, j),
                        "syrk touched outside the lower triangle at ({i},{j})"
                    );
                }
            }
        }
    }

    // TRSM round trip: build B = op(A) · X (or X · op(A)) with the packed GEMM, solve,
    // and recover X for every side/uplo/trans/diag combination and offset blocks.
    // n > 64 cases exercise the blocked diagonal sweep.
    #[test]
    fn trsm_recovers_known_solution(
        (n, nrhs) in (1usize..80, 1usize..12),
        (left, lower, tr, unit) in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        (row_off, col_off) in (0usize..3, 0usize..3),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (side, uplo) = (
            if left { Side::Left } else { Side::Right },
            if lower { UpLo::Lower } else { UpLo::Upper },
        );
        let (transa, diag) = (
            trans_of(tr),
            if unit { Diag::Unit } else { Diag::NonUnit },
        );
        // Well-conditioned triangular matrix: dominant diagonal (exactly 1.0 when the
        // solve assumes an implicit unit diagonal).
        let mut amat = random_matrix(&mut rng, n, n);
        amat = match uplo {
            UpLo::Lower => amat.lower_triangular(),
            UpLo::Upper => amat.upper_triangular(),
        };
        for i in 0..n {
            amat.set(i, i, if unit { 1.0 } else { 2.0 + (n + i) as f64 });
        }

        let (xr, xc) = match side {
            Side::Left => (n, nrhs),
            Side::Right => (nrhs, n),
        };
        let x_true = random_matrix(&mut rng, xr, xc);
        let rhs = match side {
            Side::Left => naive_gemm_op(&amat, transa, &x_true, Trans::No, n, xc, n),
            Side::Right => naive_gemm_op(&x_true, Trans::No, &amat, transa, xr, n, n),
        };

        let bb = Block::new(row_off, col_off, xr, xc);
        let mut bmat = Matrix::from_fn(row_off + xr + 1, col_off + xc + 2, |i, j| (i + j) as f64);
        let orig = bmat.clone();
        bmat.set_block(bb, &rhs);

        trsm_into_block(side, uplo, transa, diag, 1.0, &amat, &mut bmat, bb);

        let solved = bmat.copy_block(bb);
        let scale = x_true.max_abs().max(1.0);
        prop_assert!(
            solved.approx_eq(&x_true, 1e-7 * scale),
            "trsm failed to recover X (n={n} nrhs={nrhs} left={left} lower={lower} \
             trans={tr} unit={unit}, err={})",
            solved.sub(&x_true).max_abs()
        );
        // Outside the block nothing changed.
        for i in 0..bmat.rows() {
            for j in 0..bmat.cols() {
                let inside = i >= row_off && i < row_off + xr && j >= col_off && j < col_off + xc;
                if !inside {
                    prop_assert_eq!(bmat.get(i, j), orig.get(i, j));
                }
            }
        }
    }
}
