//! Test-matrix generators.
//!
//! The paper evaluates the decompositions on dense random inputs (up to 30720 × 30720).
//! These helpers generate reproducible random general and symmetric-positive-definite
//! matrices for the numeric-mode experiments and the test suites.
//!
//! Both run at memory speed without changing a bit of what they return: entries come
//! from the generator's bulk keystream ([`Uniform::fill`]) straight into the
//! column-major buffer, in the order (and to the generator state) of element-wise
//! draws; an SPD input `B·Bᵀ + n·I` computes only its lower triangle with SYRK and
//! mirrors it, which is bit-identical to the full GEMM (see [`random_spd_matrix`]).

use crate::blas3::syrk_lower_into_block;
use crate::matrix::{Block, Matrix};
use rand::distributions::Uniform;
use rand::Rng;

/// Dense matrix with entries uniform in `[-1, 1)`, drawn in column-major order.
pub fn random_matrix<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    Uniform::new(-1.0, 1.0).fill(rng, m.data_mut());
    m
}

/// Random symmetric positive definite matrix of order `n`.
///
/// Built as `B Bᵀ + n·I`, which is symmetric and strictly diagonally dominant enough to be
/// safely positive definite for Cholesky. Only the lower triangle of `B Bᵀ` is
/// computed ([`syrk_lower_into_block`], half the flops of the GEMM) and then mirrored
/// into the upper one. The result is bit-identical to `gemm(B, No, B, Yes)`: each
/// lower element is the same FMA chain over `k` the GEMM runs, and the GEMM's upper
/// element `(i, j)` is the chain of `(j, i)` with each product's factors commuted.
pub fn random_spd_matrix<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Matrix {
    let b = random_matrix(rng, n, n);
    let mut a = Matrix::zeros(n, n);
    syrk_lower_into_block(1.0, &b, 0.0, &mut a, Block::full(n, n));
    mirror_lower(&mut a);
    for i in 0..n {
        a.add_assign(i, i, n as f64);
    }
    a
}

/// Copy the strictly-lower triangle of square `a` onto the strictly-upper one, in
/// `T × T` tiles so the strided side of the transpose stays in L1.
fn mirror_lower(a: &mut Matrix) {
    const T: usize = 32;
    let n = a.rows();
    let data = a.data_mut();
    for j0 in (0..n).step_by(T) {
        for i0 in (0..=j0).step_by(T) {
            // Upper tile rows i0.., columns j0..: read the lower tile at (j0, i0) down
            // its columns, write across the upper tile's columns.
            for i in i0..(i0 + T).min(n) {
                for j in j0.max(i + 1)..(j0 + T).min(n) {
                    data[j * n + i] = data[i * n + j];
                }
            }
        }
    }
}

/// Random diagonally dominant matrix of order `n` (well conditioned for LU with partial
/// pivoting and for checksum round-trips).
pub fn random_diag_dominant_matrix<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Matrix {
    let mut a = random_matrix(rng, n, n);
    for i in 0..n {
        let v = a.get(i, i);
        a.set(i, i, v + n as f64);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_matrix_is_reproducible() {
        let a = random_matrix(&mut ChaCha8Rng::seed_from_u64(7), 4, 3);
        let b = random_matrix(&mut ChaCha8Rng::seed_from_u64(7), 4, 3);
        assert!(a.approx_eq(&b, 0.0));
        assert!(a.max_abs() <= 1.0);
    }

    #[test]
    fn spd_matrix_is_symmetric_with_positive_diagonal() {
        // 70 crosses two mirror tiles with a ragged edge.
        for n in [8, 70] {
            let a = random_spd_matrix(&mut ChaCha8Rng::seed_from_u64(1), n);
            for i in 0..n {
                assert!(a.get(i, i) > 0.0);
                for j in 0..n {
                    assert_eq!(a.get(i, j).to_bits(), a.get(j, i).to_bits());
                }
            }
        }
    }

    #[test]
    fn diag_dominant_has_large_diagonal() {
        let n = 6;
        let a = random_diag_dominant_matrix(&mut ChaCha8Rng::seed_from_u64(2), n);
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
            assert!(a.get(i, i).abs() > off - 1.0);
        }
    }
}
