//! Property suite for the structure-exploiting residual checks of `bsr_linalg::verify`.
//!
//! The production residuals sweep the triangular factors panel by panel on the packed
//! core; the **oracle** here is the formulation they replaced — explicit `L`, `U`, `R`
//! copies, a dense `2n³` product, an explicit difference matrix. Every job's
//! `numerically_correct` verdict hangs on these functions, so the properties pin:
//!
//! 1. structured == oracle (to rounding of the norm) over orders below, at and across
//!    the sweep widths, ragged tails included, and — for QR — tall and wide shapes;
//! 2. a single corrupted element anywhere in `L` / `U` / `R` / `V`, at any magnitude,
//!    lands on the same side of `CORRECTNESS_THRESHOLD` as the oracle says;
//! 3. the Cholesky lower-triangle contract: garbage above the diagonal of `l` changes
//!    nothing, while an upper-triangle perturbation of `A` still moves the residual;
//! 4. NaN / ±Inf in a factor yields a non-finite residual, which fails the threshold;
//! 5. a residual is bit-identical at `RAYON_NUM_THREADS ∈ {1, 2, 4}`;
//! 6. the column-restricted `apply_q_upper` equals the full `apply_q` on an
//!    upper-trapezoidal operand.

use bsr_linalg::blas3::{gemm, Trans};
use bsr_linalg::cholesky::cholesky_blocked;
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::lu::{lu_blocked, LuFactors};
use bsr_linalg::qr::{qr_blocked, QrFactors};
use bsr_linalg::verify::{
    cholesky_residual, lu_residual, qr_residual, CORRECTNESS_THRESHOLD,
};
use bsr_linalg::Matrix;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::ThreadCountGuard;

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

/// The two formulations round differently, so "equal" means: within rounding noise of
/// a clean factorization in absolute terms, or to nine digits of a large residual.
fn agrees(structured: f64, dense: f64) -> bool {
    (structured - dense).abs() <= 1e-13 + 1e-9 * dense
}

/// `residual < CORRECTNESS_THRESHOLD`, unless the oracle sits on the knife edge.
fn same_verdict(structured: f64, dense: f64) -> bool {
    (dense / CORRECTNESS_THRESHOLD - 1.0).abs() < 1e-3
        || (structured < CORRECTNESS_THRESHOLD) == (dense < CORRECTNESS_THRESHOLD)
}

struct Factored {
    spd: Matrix,
    chol: Matrix,
    a: Matrix,
    lu: LuFactors,
}

fn factor_square(n: usize, block: usize, seed: u64) -> Factored {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let spd = random_spd_matrix(&mut rng, n);
    let mut chol = spd.clone();
    cholesky_blocked(&mut chol, block).unwrap();
    let a = random_matrix(&mut rng, n, n);
    let lu = lu_blocked(&a, block).unwrap();
    Factored { spd, chol, a, lu }
}

/// `10^e` for a uniformly drawn exponent: corruption magnitudes on both sides of what
/// the threshold can see.
fn magnitude() -> impl Strategy<Value = f64> {
    (-13.0_f64..3.0).prop_map(|e| 10f64.powf(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn square_residuals_match_the_dense_oracle((n, block, seed) in (1usize..=200, 1usize..48, any::<u64>())) {
        let f = factor_square(n, block, seed);
        let (c, cd) = (cholesky_residual(&f.spd, &f.chol), dense_cholesky(&f.spd, &f.chol));
        prop_assert!(agrees(c, cd), "cholesky n={} structured {:e} dense {:e}", n, c, cd);
        prop_assert!(c < CORRECTNESS_THRESHOLD);
        let (l, ld) = (lu_residual(&f.a, &f.lu), dense_lu(&f.a, &f.lu));
        prop_assert!(agrees(l, ld), "lu n={} structured {:e} dense {:e}", n, l, ld);
        prop_assert!(l < CORRECTNESS_THRESHOLD);
    }

    #[test]
    fn qr_residual_matches_the_dense_oracle_on_any_shape((m, n, block, seed) in (1usize..=200, 1usize..=200, 1usize..48, any::<u64>())) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        let f = qr_blocked(&a, block);
        let (q, qd) = (qr_residual(&a, &f), dense_qr(&a, &f));
        prop_assert!(agrees(q, qd), "qr {}x{} structured {:e} dense {:e}", m, n, q, qd);
        prop_assert!(q < CORRECTNESS_THRESHOLD);
    }

    #[test]
    fn one_corrupted_element_gets_the_oracles_verdict(
        (n, seed, pick, mag) in (2usize..=200, any::<u64>(), (0.0_f64..1.0, 0.0_f64..1.0), magnitude())
    ) {
        let mut f = factor_square(n, 32, seed);
        let mut qr = qr_blocked(&f.a, 32);
        let at = |p: f64| ((p * n as f64) as usize).min(n - 1);
        let (i, j) = (at(pick.0), at(pick.1));
        // Anywhere in LU storage (L or U) and in QR storage (V or R); for Cholesky the
        // pick is folded into the lower triangle, the only part that is a factor.
        f.lu.lu.add_assign(i, j, mag);
        qr.qr.add_assign(i, j, mag);
        f.chol.add_assign(i.max(j), i.min(j), mag);
        let (c, cd) = (cholesky_residual(&f.spd, &f.chol), dense_cholesky(&f.spd, &f.chol));
        let (l, ld) = (lu_residual(&f.a, &f.lu), dense_lu(&f.a, &f.lu));
        let (q, qd) = (qr_residual(&f.a, &qr), dense_qr(&f.a, &qr));
        for (name, s, d) in [("cholesky", c, cd), ("lu", l, ld), ("qr", q, qd)] {
            prop_assert!(agrees(s, d), "{} n={} ({},{}) +{:e}: {:e} vs {:e}", name, n, i, j, mag, s, d);
            prop_assert!(same_verdict(s, d), "{} n={} ({},{}) +{:e}: {:e} vs {:e}", name, n, i, j, mag, s, d);
        }
    }

    #[test]
    fn cholesky_reads_only_the_lower_triangle_of_l_but_all_of_a(
        (n, seed, pick, mag) in (2usize..=160, any::<u64>(), (0.0_f64..1.0, 0.0_f64..1.0), magnitude())
    ) {
        let f = factor_square(n, 32, seed);
        let clean = cholesky_residual(&f.spd, &f.chol);
        // A strictly-upper position: row < col.
        let row = ((pick.0 * (n - 1) as f64) as usize).min(n - 2);
        let col = (row + 1 + (pick.1 * (n - 1 - row) as f64) as usize).min(n - 1);
        let mut garbage = f.chol.clone();
        garbage.set(row, col, f64::NAN);
        prop_assert_eq!(clean.to_bits(), cholesky_residual(&f.spd, &garbage).to_bits());
        let mut skewed = f.spd.clone();
        skewed.add_assign(row, col, mag);
        let (s, d) = (cholesky_residual(&skewed, &f.chol), dense_cholesky(&skewed, &f.chol));
        prop_assert!(agrees(s, d), "n={} A[{},{}] +{:e}: {:e} vs {:e}", n, row, col, mag, s, d);
        prop_assert!(same_verdict(s, d));
        // The perturbation is invisible to the factorization; only the residual can see it.
        prop_assert!(mag < 1e-9 || s > clean, "residual did not move: {:e} -> {:e}", clean, s);
    }

    #[test]
    fn non_finite_factors_fail_the_threshold(
        (n, seed, pick, which) in (1usize..=160, any::<u64>(), (0.0_f64..1.0, 0.0_f64..1.0), 0usize..3)
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let mut f = factor_square(n, 32, seed);
        let mut qr = qr_blocked(&f.a, 32);
        let at = |p: f64| ((p * n as f64) as usize).min(n - 1);
        let (i, j) = (at(pick.0), at(pick.1));
        f.lu.lu.set(i, j, bad);
        qr.qr.set(i, j, bad);
        f.chol.set(i.max(j), i.min(j), bad);
        for (name, r) in [
            ("cholesky", cholesky_residual(&f.spd, &f.chol)),
            ("lu", lu_residual(&f.a, &f.lu)),
            ("qr", qr_residual(&f.a, &qr)),
        ] {
            prop_assert!(!r.is_finite(), "{} n={} ({},{}) = {}: residual {:e}", name, n, i, j, bad, r);
            let numerically_correct = r < CORRECTNESS_THRESHOLD;
            prop_assert!(!numerically_correct);
        }
    }

    #[test]
    fn residuals_are_bit_identical_across_thread_counts((n, seed) in (100usize..=200, any::<u64>())) {
        // Orders where the panel products cross the pool's dispatch threshold.
        let f = factor_square(n, 32, seed);
        let qr = qr_blocked(&f.a, 32);
        let run = |t: usize| {
            let _guard = ThreadCountGuard::set(t);
            [
                cholesky_residual(&f.spd, &f.chol).to_bits(),
                lu_residual(&f.a, &f.lu).to_bits(),
                qr_residual(&f.a, &qr).to_bits(),
            ]
        };
        let base = run(1);
        for t in [2, 4] {
            prop_assert_eq!(base, run(t), "n={} threads={}", n, t);
        }
    }

    #[test]
    fn column_restricted_q_equals_full_q_on_upper_operands((m, n, block, seed) in (1usize..=200, 1usize..=200, 1usize..48, any::<u64>())) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let f = qr_blocked(&random_matrix(&mut rng, m, n), block);
        // Any upper-trapezoidal operand with the factor's row count, not just its own R.
        let cols = 1 + (seed as usize) % 220;
        let c = random_matrix(&mut rng, m, cols).upper_triangular();
        let (mut full, mut restricted) = (c.clone(), c);
        f.apply_q(&mut full);
        f.apply_q_upper(&mut restricted);
        prop_assert!(
            full.approx_eq(&restricted, 1e-13),
            "{}x{} applied to {} columns: max diff {:e}", m, n, cols, full.sub(&restricted).max_abs()
        );
    }
}
