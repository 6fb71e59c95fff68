//! Residual-based verification of factorizations.
//!
//! Every numeric job ends here: the engine in `bsr-core` accepts a factorization —
//! fault-free, corrected in place, recomputed or replayed — only when its relative
//! residual against the original input is below [`CORRECTNESS_THRESHOLD`]. The check is
//! the last safety net behind ABFT and sits on the critical path of every job, so the
//! three residuals exploit the triangular structure of the factors instead of forming
//! dense `2n³` products:
//!
//! | residual | formulation | flops (square, order `n`) |
//! |---|---|---|
//! | `‖A − L·Lᵀ‖` | forward sweep of lower-masked panel products over shrinking trailing blocks | `2n³ → n³/3` |
//! | `‖P·A − L·U‖` | reverse right-looking sweep of (unit-lower trapezoid) × (upper trapezoid) panel products | `2n³ → 2n³/3` |
//! | `‖A − Q·R‖` | block reflectors applied backward, each only to columns right of its first reflector ([`QrFactors::apply_q_upper`]) | `2n³ → 4n³/3` |
//!
//! Each is still the **full-matrix relative Frobenius norm** — no sampling, no skipped
//! triangle. The difference is accumulated into one `n × n` workspace by the packed GEMM
//! core reading the factor storage in place (only the `PANEL × PANEL` diagonal blocks,
//! where `L`/`U` share storage with garbage or each other, are copied out), and both
//! norms are reduced in a fixed order that does not depend on the thread count, so a
//! residual is bit-identical at any `RAYON_NUM_THREADS`.
//!
//! **Lower-triangle contract:** [`cholesky_residual`] reads only the lower triangle of
//! `l` (whatever the factorization left above the diagonal is ignored), so callers pass
//! factor storage directly. The strict upper triangle of `A − L·Lᵀ` is accounted from
//! the transpose — `L·Lᵀ` is symmetric — against the upper triangle of `A` itself, so an
//! asymmetric `A` still shows.
//!
//! **Non-finite factors:** a NaN or ±Inf in a factor element that is read propagates
//! through the products into the norm, the residual comes out non-finite, and
//! `residual < CORRECTNESS_THRESHOLD` is `false`.

use crate::blas3::{gemm_block, syrk_lower_into_block, Operand, Trans};
use crate::lu::LuFactors;
use crate::matrix::{Block, Matrix};
use crate::qr::QrFactors;

/// Panel width of the Cholesky and LU sweeps: the inner dimension of every panel
/// product and the order of the diagonal blocks copied out of the factor storage.
const PANEL: usize = 128;

/// Tile order of the transposing pass in [`cholesky_residual`].
const TILE: usize = 32;

/// Number of interleaved partial sums in the norm reductions: element `i` goes to lane
/// `i % LANES`, the lanes are folded pairwise at the end. The order is fixed by the
/// data layout alone, and independent lanes let the compiler vectorize a reduction
/// that a single running sum would serialize on the add latency.
const LANES: usize = 8;

/// Relative Cholesky residual `‖A − L Lᵀ‖_F / ‖A‖_F`. Only the lower triangle of `l` is
/// read.
pub fn cholesky_residual(a: &Matrix, l: &Matrix) -> f64 {
    let n = a.rows();
    assert!(a.is_square() && l.is_square() && l.rows() == n, "cholesky_residual: shape mismatch");
    // Lower triangle of A − L Lᵀ, accumulated panel by panel into a copy of A: panel K
    // of L contributes L[k0.., K]·L[k0.., K]ᵀ to the trailing block at (k0, k0).
    let mut w = a.clone();
    for k0 in (0..n).step_by(PANEL) {
        let kw = PANEL.min(n - k0);
        let k1 = k0 + kw;
        let below = n - k1;
        let diag = l.copy_block(Block::new(k0, k0, kw, kw)).lower_triangular();
        let panel = Operand::at(l, Trans::No, k1, k0);
        syrk_lower_into_block(-1.0, &diag, 1.0, &mut w, Block::new(k0, k0, kw, kw));
        let diag_t = Operand::whole(&diag, Trans::Yes);
        gemm_block(-1.0, panel, diag_t, kw, 1.0, &mut w, Block::new(k1, k0, below, kw), false);
        let panel_t = Operand::at(l, Trans::Yes, k0, k1);
        gemm_block(-1.0, panel, panel_t, kw, 1.0, &mut w, Block::new(k1, k1, below, below), true);
    }
    relative(symmetric_diff_sq(a, &w), sum_sq(a.data()))
}

/// `‖D‖_F²` of the full difference `D = A − S` for a symmetric `S`, given only the lower
/// triangle of `D` (in `w`): above the diagonal `D[j, i] = D[i, j] + (A[j, i] − A[i, j])`,
/// which is exactly `D[i, j]` when `A` is symmetric. The upper triangle of `A` is
/// transposed tile by tile so every access stays within a cache-resident tile.
fn symmetric_diff_sq(a: &Matrix, w: &Matrix) -> f64 {
    let n = a.rows();
    let mut sum = 0.0;
    let mut upper_t = [0.0_f64; TILE * TILE];
    for j0 in (0..n).step_by(TILE) {
        let jw = TILE.min(n - j0);
        for i0 in (j0..n).step_by(TILE) {
            let iw = TILE.min(n - i0);
            // upper_t[jj][ii] = A[j0 + jj, i0 + ii]
            for ii in 0..iw {
                for (jj, &x) in a.col_range(i0 + ii, j0, j0 + jw).iter().enumerate() {
                    upper_t[jj * TILE + ii] = x;
                }
            }
            for jj in 0..jw {
                let j = j0 + jj;
                let lo = i0.max(j + 1);
                let hi = i0 + iw;
                if lo >= hi {
                    continue;
                }
                let d = w.col_range(j, lo, hi);
                let lower = a.col_range(j, lo, hi);
                let upper = &upper_t[jj * TILE + (lo - i0)..jj * TILE + iw];
                let mut s = 0.0;
                for ((&d, &al), &au) in d.iter().zip(lower).zip(upper) {
                    let du = d + (au - al);
                    s += d * d + du * du;
                }
                sum += s;
            }
        }
        for j in j0..j0 + jw {
            let d = w.get(j, j);
            sum += d * d;
        }
    }
    sum
}

/// Relative LU residual `‖P A − L U‖_F / ‖A‖_F`.
pub fn lu_residual(a: &Matrix, f: &LuFactors) -> f64 {
    let n = a.rows();
    let lu = &f.lu;
    assert!(a.is_square() && lu.is_square() && lu.rows() == n, "lu_residual: shape mismatch");
    // P A − L U accumulated into P A, last panel first: panel K contributes
    // L[k0.., K]·U[K, k0..] to the trailing block at (k0, k0). The diagonal block holds
    // both triangles, so each is copied out with the other masked.
    let mut w = f.apply_permutation(a);
    let denom_sq = sum_sq(w.data());
    for k0 in (0..n).step_by(PANEL).rev() {
        let kw = PANEL.min(n - k0);
        let k1 = k0 + kw;
        let rest = n - k1;
        let diag = lu.copy_block(Block::new(k0, k0, kw, kw));
        let (l_diag, u_diag) = (diag.unit_lower_triangular(), diag.upper_triangular());
        let (l_diag, u_diag) =
            (Operand::whole(&l_diag, Trans::No), Operand::whole(&u_diag, Trans::No));
        let l_below = Operand::at(lu, Trans::No, k1, k0);
        let u_right = Operand::at(lu, Trans::No, k0, k1);
        let mut subtract = |l, u, cb| gemm_block(-1.0, l, u, kw, 1.0, &mut w, cb, false);
        subtract(l_diag, u_diag, Block::new(k0, k0, kw, kw));
        subtract(l_diag, u_right, Block::new(k0, k1, kw, rest));
        subtract(l_below, u_diag, Block::new(k1, k0, rest, kw));
        subtract(l_below, u_right, Block::new(k1, k1, rest, rest));
    }
    relative(sum_sq(w.data()), denom_sq)
}

/// Relative QR residual `‖A − Q R‖_F / ‖A‖_F`.
pub fn qr_residual(a: &Matrix, f: &QrFactors) -> f64 {
    let mut qr = f.r();
    f.apply_q_upper(&mut qr);
    relative_residual(a, &qr)
}

/// `‖expected − actual‖_F / ‖expected‖_F` (returns the absolute norm if `expected` is 0),
/// in one pass over both matrices without forming the difference.
pub fn relative_residual(expected: &Matrix, actual: &Matrix) -> f64 {
    assert_eq!(expected.rows(), actual.rows());
    assert_eq!(expected.cols(), actual.cols());
    let mut diff = [0.0_f64; LANES];
    let mut denom = [0.0_f64; LANES];
    let mut add = |lane: usize, e: f64, x: f64| {
        let d = e - x;
        diff[lane] += d * d;
        denom[lane] += e * e;
    };
    let mut es = expected.data().chunks_exact(LANES);
    let mut xs = actual.data().chunks_exact(LANES);
    for (e, x) in (&mut es).zip(&mut xs) {
        for lane in 0..LANES {
            add(lane, e[lane], x[lane]);
        }
    }
    for (lane, (&e, &x)) in es.remainder().iter().zip(xs.remainder()).enumerate() {
        add(lane, e, x);
    }
    relative(fold_lanes(diff), fold_lanes(denom))
}

fn fold_lanes(l: [f64; LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `Σ x²` in the fixed [`LANES`] order.
fn sum_sq(xs: &[f64]) -> f64 {
    let mut lanes = [0.0_f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for lane in 0..LANES {
            lanes[lane] += c[lane] * c[lane];
        }
    }
    for (lane, &x) in chunks.remainder().iter().enumerate() {
        lanes[lane] += x * x;
    }
    fold_lanes(lanes)
}

/// `sqrt(diff_sq / denom_sq)`, or the absolute `sqrt(diff_sq)` when the reference is 0.
fn relative(diff_sq: f64, denom_sq: f64) -> f64 {
    if denom_sq == 0.0 {
        diff_sq.sqrt()
    } else {
        diff_sq.sqrt() / denom_sq.sqrt()
    }
}

/// A factorization is accepted as correct when its relative residual is below this bound.
/// The bound is generous relative to machine epsilon because injected-and-corrected runs
/// accumulate one extra rounding from the checksum correction.
pub const CORRECTNESS_THRESHOLD: f64 = 1e-8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::cholesky::cholesky_blocked;
    use crate::generate::{random_matrix, random_spd_matrix};
    use crate::lu::lu_blocked;
    use crate::qr::qr_blocked;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The dense-GEMM formulation the structured sweeps replaced, kept as the oracle:
    /// explicit triangular factors, a full `2n³` product, an explicit difference.
    fn dense_relative(expected: &Matrix, actual: &Matrix) -> f64 {
        let denom = expected.frobenius_norm();
        let diff = expected.sub(actual).frobenius_norm();
        if denom == 0.0 {
            diff
        } else {
            diff / denom
        }
    }

    fn dense_cholesky(a: &Matrix, l: &Matrix) -> f64 {
        let l = l.lower_triangular();
        dense_relative(a, &gemm(&l, Trans::No, &l, Trans::Yes))
    }

    fn dense_lu(a: &Matrix, f: &LuFactors) -> f64 {
        dense_relative(&f.apply_permutation(a), &gemm(&f.l(), Trans::No, &f.u(), Trans::No))
    }

    fn dense_qr(a: &Matrix, f: &QrFactors) -> f64 {
        let mut qr = f.r();
        f.apply_q(&mut qr);
        dense_relative(a, &qr)
    }

    #[test]
    fn residuals_are_small_for_correct_factorizations() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let n = 32;
        let spd = random_spd_matrix(&mut rng, n);
        let mut chol = spd.clone();
        cholesky_blocked(&mut chol, 8).unwrap();
        assert!(cholesky_residual(&spd, &chol) < CORRECTNESS_THRESHOLD);

        let a = random_matrix(&mut rng, n, n);
        let lu = lu_blocked(&a, 8).unwrap();
        assert!(lu_residual(&a, &lu) < CORRECTNESS_THRESHOLD);

        let qr = qr_blocked(&a, 8);
        assert!(qr_residual(&a, &qr) < CORRECTNESS_THRESHOLD);
    }

    #[test]
    fn structured_residuals_match_the_dense_oracle() {
        // Orders below, at, and across the panel width, with ragged tails; a corrupted
        // factor must read the same on both formulations (to rounding of the norm).
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        for n in [1, 7, 96, PANEL, PANEL + 1, 2 * PANEL + 37] {
            let spd = random_spd_matrix(&mut rng, n);
            let mut chol = spd.clone();
            cholesky_blocked(&mut chol, 32).unwrap();
            let a = random_matrix(&mut rng, n, n);
            let mut lu = lu_blocked(&a, 32).unwrap();
            let mut qr = qr_blocked(&a, 32);
            for corrupt in [false, true] {
                if corrupt {
                    let (i, j) = (n - 1, n / 2);
                    chol.add_assign(i, j, 1e-3);
                    lu.lu.add_assign(j, i, 1e-3);
                    qr.qr.add_assign(i, j, 1e-3);
                }
                for (name, fast, dense) in [
                    ("cholesky", cholesky_residual(&spd, &chol), dense_cholesky(&spd, &chol)),
                    ("lu", lu_residual(&a, &lu), dense_lu(&a, &lu)),
                    ("qr", qr_residual(&a, &qr), dense_qr(&a, &qr)),
                ] {
                    assert!(
                        (fast - dense).abs() <= 1e-14 + 1e-9 * dense,
                        "{name} n={n} corrupt={corrupt}: structured {fast:e} vs dense {dense:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn cholesky_residual_sees_an_asymmetric_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let n = 70;
        let spd = random_spd_matrix(&mut rng, n);
        let mut chol = spd.clone();
        cholesky_blocked(&mut chol, 16).unwrap();
        let mut skewed = spd.clone();
        skewed.add_assign(3, 60, 0.5); // strictly upper: never read by the factorization
        let fast = cholesky_residual(&skewed, &chol);
        let dense = dense_cholesky(&skewed, &chol);
        assert!(fast > CORRECTNESS_THRESHOLD);
        assert!((fast - dense).abs() <= 1e-12 * dense, "{fast:e} vs {dense:e}");
    }

    #[test]
    fn residual_detects_corruption() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 16;
        let a = random_matrix(&mut rng, n, n);
        let mut lu = lu_blocked(&a, 4).unwrap();
        // Corrupt one element of U significantly.
        let v = lu.lu.get(2, 10);
        lu.lu.set(2, 10, v + 10.0);
        assert!(lu_residual(&a, &lu) > CORRECTNESS_THRESHOLD);
    }

    #[test]
    fn relative_residual_handles_zero_expected() {
        let z = Matrix::zeros(2, 2);
        let a = Matrix::identity(2);
        assert!((relative_residual(&z, &a) - 2.0_f64.sqrt()).abs() < 1e-12);
    }
}
