//! Triangular-solve front-ends shared by the f64 engine and the mixed-precision path.
//!
//! Both solvers are generic over the kernel [`Element`]: the f64 engine solves against
//! f64 factors, and the mixed-precision refinement loop re-solves each residual
//! correction against the *f32* factors at f32 cost. Wide right-hand sides route
//! through the blocked [`crate::blas3::trsm_into_block`] (rank-`TRSM_NB` updates on
//! the packed GEMM core); at `SUBST_MAX_RHS` columns or fewer the solves run by
//! plain column-oriented substitution instead — packing the whole factor costs as
//! much memory traffic as the product itself and cannot amortize over a handful of
//! output columns, and the refinement loop solves against a single column per sweep.

use crate::elem::Element;
use crate::matrix::{Block, Matrix};
use crate::{Diag, Side, Trans, UpLo};

/// Solve `A X = B` from packed LU factors and a pivot vector (LAPACK `getrs`).
///
/// `lu` holds unit-lower `L` below the diagonal and `U` on/above it, as produced by
/// the blocked/tiled/DAG LU drivers; `pivots[i]` is the row swapped with row `i`
/// during factorization (0-based `ipiv`). `B` may carry any number of right-hand
/// sides; the solution overwrites a copy, leaving `B` untouched.
pub fn lu_solve<E: Element>(lu: &Matrix<E>, pivots: &[usize], b: &Matrix<E>) -> Matrix<E> {
    assert!(lu.is_square(), "lu_solve: factors must be square");
    assert_eq!(lu.rows(), b.rows(), "lu_solve: dimension mismatch");
    assert_eq!(pivots.len(), lu.rows(), "lu_solve: one pivot per column");
    let n = lu.rows();
    let mut x = b.clone();
    // P B: replay the row interchanges in factorization order.
    let rhs = x.cols();
    for (i, &p) in pivots.iter().enumerate() {
        if p != i {
            x.swap_rows(i, p, 0, rhs);
        }
    }
    let full = Block::full(n, x.cols());
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, lu, &mut x, full);
    trsm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, lu, &mut x, full);
    x
}

/// Solve `A X = B` from a lower Cholesky factor (LAPACK `potrs`): `L L^T X = B`.
///
/// Only the lower triangle of `l` is referenced. `B` may carry any number of
/// right-hand sides; the solution overwrites a copy, leaving `B` untouched.
pub fn cholesky_solve<E: Element>(l: &Matrix<E>, b: &Matrix<E>) -> Matrix<E> {
    assert!(l.is_square(), "cholesky_solve: factor must be square");
    assert_eq!(l.rows(), b.rows(), "cholesky_solve: dimension mismatch");
    let n = l.rows();
    let mut x = b.clone();
    let full = Block::full(n, x.cols());
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, l, &mut x, full);
    trsm(Side::Left, UpLo::Lower, Trans::Yes, Diag::NonUnit, l, &mut x, full);
    x
}

/// Right-hand-side width at or below which the solves substitute instead of calling
/// the blocked TRSM.
const SUBST_MAX_RHS: usize = 4;

fn trsm<E: Element>(
    side: Side,
    uplo: UpLo,
    transa: Trans,
    diag: Diag,
    a: &Matrix<E>,
    b: &mut Matrix<E>,
    bb: Block,
) {
    if side == Side::Left && bb.cols <= SUBST_MAX_RHS {
        trsv_columns(uplo, transa, diag, a, b, bb);
        return;
    }
    crate::blas3::trsm_into_block(side, uplo, transa, diag, 1.0, a, b, bb);
}

/// Column-oriented substitution for `op(A) X = B[bb]`, in place, one right-hand side
/// at a time. Column-major storage makes every inner loop a contiguous slice of the
/// factor: the no-trans sweeps are axpy updates down a column, the transposed sweeps
/// are dot products over one.
fn trsv_columns<E: Element>(
    uplo: UpLo,
    transa: Trans,
    diag: Diag,
    a: &Matrix<E>,
    b: &mut Matrix<E>,
    bb: Block,
) {
    let n = a.rows();
    debug_assert_eq!(bb.rows, n, "trsv: solve must span the factor");
    let ad = a.data();
    let acol = |j: usize| &ad[j * n..][..n];
    crate::blas3::with_block_cols(b, bb, |cols| {
        for x in cols.iter_mut() {
            match (uplo, transa) {
                // L x = b: forward, axpy form.
                (UpLo::Lower, Trans::No) => {
                    for j in 0..n {
                        let col = acol(j);
                        if diag == Diag::NonUnit {
                            x[j] /= col[j];
                        }
                        let xj = x[j];
                        if xj != E::ZERO {
                            for (xi, &lij) in x[j + 1..].iter_mut().zip(&col[j + 1..]) {
                                *xi -= lij * xj;
                            }
                        }
                    }
                }
                // U x = b: backward, axpy form.
                (UpLo::Upper, Trans::No) => {
                    for j in (0..n).rev() {
                        let col = acol(j);
                        if diag == Diag::NonUnit {
                            x[j] /= col[j];
                        }
                        let xj = x[j];
                        if xj != E::ZERO {
                            for (xi, &uij) in x[..j].iter_mut().zip(&col[..j]) {
                                *xi -= uij * xj;
                            }
                        }
                    }
                }
                // Lᵀ x = b: backward, dot form over L's columns.
                (UpLo::Lower, Trans::Yes) => {
                    for i in (0..n).rev() {
                        let col = acol(i);
                        let mut s = E::ZERO;
                        for (&lki, &xk) in col[i + 1..].iter().zip(&x[i + 1..]) {
                            s += lki * xk;
                        }
                        let mut xi = x[i] - s;
                        if diag == Diag::NonUnit {
                            xi /= col[i];
                        }
                        x[i] = xi;
                    }
                }
                // Uᵀ x = b: forward, dot form over U's columns.
                (UpLo::Upper, Trans::Yes) => {
                    for i in 0..n {
                        let col = acol(i);
                        let mut s = E::ZERO;
                        for (&uki, &xk) in col[..i].iter().zip(&x[..i]) {
                            s += uki * xk;
                        }
                        let mut xi = x[i] - s;
                        if diag == Diag::NonUnit {
                            xi /= col[i];
                        }
                        x[i] = xi;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::generate::{random_matrix, random_spd_matrix};
    use crate::lu::lu_blocked;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn lu_solve_recovers_known_solution() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 37;
        let a = crate::generate::random_diag_dominant_matrix(&mut rng, n);
        let x_true = random_matrix(&mut rng, n, 3);
        let b = gemm(&a, Trans::No, &x_true, Trans::No);
        let f = lu_blocked(&a, 8).unwrap();
        let x = lu_solve(&f.lu, &f.pivots, &b);
        assert!(x.approx_eq(&x_true, 1e-8), "LU solve drifted from the true solution");
    }

    #[test]
    fn wide_rhs_routes_through_blocked_trsm() {
        // nrhs above `SUBST_MAX_RHS`: keeps the packed-TRSM route of the solves
        // under test next to the substitution route the narrow tests hit.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 70;
        let a = crate::generate::random_diag_dominant_matrix(&mut rng, n);
        let x_true = random_matrix(&mut rng, n, SUBST_MAX_RHS + 3);
        let b = gemm(&a, Trans::No, &x_true, Trans::No);
        let f = lu_blocked(&a, 16).unwrap();
        let x = lu_solve(&f.lu, &f.pivots, &b);
        assert!(x.approx_eq(&x_true, 1e-7), "wide-RHS LU solve drifted");
    }

    #[test]
    fn narrow_and_wide_solves_agree() {
        // The same right-hand side solved alone (substitution) and as a column of a
        // wide block (packed TRSM) must agree to rounding.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let n = 48;
        let a = random_spd_matrix(&mut rng, n);
        let mut l = a.clone();
        crate::cholesky::cholesky_blocked(&mut l, 8).unwrap();
        let b_wide = random_matrix(&mut rng, n, SUBST_MAX_RHS + 2);
        let x_wide = cholesky_solve(&l, &b_wide);
        for j in 0..b_wide.cols() {
            let bj = Matrix::from_fn(n, 1, |i, _| b_wide.get(i, j));
            let xj = cholesky_solve(&l, &bj);
            for i in 0..n {
                assert!(
                    (xj.get(i, 0) - x_wide.get(i, j)).abs() <= 1e-10,
                    "substitution and blocked TRSM disagree at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn narrow_solves_substitute_column_by_column() {
        // Right-hand sides of at most `SUBST_MAX_RHS` columns (the refinement's n × 1
        // solves among them) never reach the packed GEMM core: each column goes
        // through `trsv_columns` on its own, bit for bit.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 150;
        let a = random_spd_matrix(&mut rng, n);
        let mut l = a.clone();
        crate::cholesky::cholesky_blocked(&mut l, 32).unwrap();
        let f = lu_blocked(&random_matrix(&mut rng, n, n), 32).unwrap();
        for w in [1, SUBST_MAX_RHS] {
            let b = random_matrix(&mut rng, n, w);
            let (chol, lu) = (cholesky_solve(&l, &b), lu_solve(&f.lu, &f.pivots, &b));
            for j in 0..w {
                let col = |m: &Matrix| Matrix::from_fn(n, 1, |i, _| m.get(i, j));
                let one = Block::full(n, 1);
                let mut x = col(&b);
                trsv_columns(UpLo::Lower, Trans::No, Diag::NonUnit, &l, &mut x, one);
                trsv_columns(UpLo::Lower, Trans::Yes, Diag::NonUnit, &l, &mut x, one);
                assert_eq!(
                    x.data(),
                    col(&chol).data(),
                    "Cholesky, {w} columns, column {j}"
                );
                let mut x = f.apply_permutation(&col(&b));
                trsv_columns(UpLo::Lower, Trans::No, Diag::Unit, &f.lu, &mut x, one);
                trsv_columns(UpLo::Upper, Trans::No, Diag::NonUnit, &f.lu, &mut x, one);
                assert_eq!(x.data(), col(&lu).data(), "LU, {w} columns, column {j}");
            }
        }
    }

    #[test]
    fn cholesky_solve_recovers_known_solution() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let n = 33;
        let a = random_spd_matrix(&mut rng, n);
        let x_true = random_matrix(&mut rng, n, 2);
        let b = gemm(&a, Trans::No, &x_true, Trans::No);
        let mut l = a.clone();
        crate::cholesky::cholesky_blocked(&mut l, 8).unwrap();
        let x = cholesky_solve(&l, &b);
        assert!(x.approx_eq(&x_true, 1e-7), "Cholesky solve drifted from the true solution");
    }
}
