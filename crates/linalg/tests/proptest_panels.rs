//! Property suite for the panel kernels and the blocked `Q` application.
//!
//! The panel factorizations (LU/Cholesky/QR PD kernels) and `apply_q[_transpose]` were
//! rewritten from element-at-a-time `Matrix::get`/`set` loops onto `blas1` slice
//! operations, recursion and compact-WY GEMM. Each scalar original is kept verbatim here
//! as the reference the rewrite must match, over random shapes, block sizes, panel
//! offsets and tail panels (mirroring `proptest_blas3.rs` for the level-3 layer). The
//! compact-WY `T` of [`qr::form_t`] is held to its contracts: upper triangular, an
//! orthogonal `I − V T Vᵀ` equal to the product of the panel's reflectors, and bit for
//! bit the `T` the QR drivers apply.

use bsr_linalg::blas1::iamax;
use bsr_linalg::blas3::{gemm, Trans};
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::qr::qr_blocked;
use bsr_linalg::{cholesky, lu, qr};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

// ---------------------------------------------------------------------------------------
// Scalar reference implementations (the pre-rewrite element-at-a-time kernels, verbatim).
// ---------------------------------------------------------------------------------------

/// Reference LU panel: scalar pivot search / swap / scale / rank-1 update.
fn lu_panel_reference(a: &mut Matrix, j0: usize, nb: usize, pivots: &mut Vec<usize>) {
    let n = a.rows();
    for j in j0..j0 + nb {
        let col = a.col(j);
        let rel = iamax(&col[j..n]);
        let piv = j + rel;
        assert!(a.get(piv, j) != 0.0, "reference panel hit a singular pivot");
        pivots.push(piv);
        if piv != j {
            for c in 0..a.cols() {
                let x = a.get(j, c);
                let y = a.get(piv, c);
                a.set(j, c, y);
                a.set(piv, c, x);
            }
        }
        let d = a.get(j, j);
        for i in j + 1..n {
            let v = a.get(i, j) / d;
            a.set(i, j, v);
        }
        for c in j + 1..j0 + nb {
            let ujc = a.get(j, c);
            if ujc == 0.0 {
                continue;
            }
            for i in j + 1..n {
                let lij = a.get(i, j);
                a.add_assign(i, c, -lij * ujc);
            }
        }
    }
}

/// Reference Cholesky panel (scalar `potf2`).
fn potf2_reference(a: &mut Matrix, j0: usize, nb: usize) {
    for j in j0..j0 + nb {
        let mut d = a.get(j, j);
        for k in j0..j {
            let v = a.get(j, k);
            d -= v * v;
        }
        assert!(d > 0.0, "reference panel lost positive definiteness");
        let d = d.sqrt();
        a.set(j, j, d);
        for i in j + 1..j0 + nb {
            let mut s = a.get(i, j);
            for k in j0..j {
                s -= a.get(i, k) * a.get(j, k);
            }
            a.set(i, j, s / d);
        }
    }
}

/// Reference scalar Householder generation (LAPACK `dlarfg`).
fn householder_reference(x: &mut [f64]) -> (f64, f64) {
    let alpha = x[0];
    let xnorm = x[1..].iter().map(|v| v * v).sum::<f64>().sqrt();
    if xnorm == 0.0 {
        return (alpha, 0.0);
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in x[1..].iter_mut() {
        *v *= scale;
    }
    (beta, tau)
}

/// Reference QR panel: scalar reflector generation + per-column scalar application.
fn qr_panel_reference(a: &mut Matrix, j0: usize, nb: usize, taus: &mut Vec<f64>) {
    let m = a.rows();
    for jj in 0..nb {
        let j = j0 + jj;
        let mut x: Vec<f64> = (j..m).map(|i| a.get(i, j)).collect();
        let (beta, tau) = householder_reference(&mut x);
        a.set(j, j, beta);
        for (off, &v) in x.iter().enumerate().skip(1) {
            a.set(j + off, j, v);
        }
        taus.push(tau);
        if tau == 0.0 {
            continue;
        }
        for c in j + 1..j0 + nb {
            let mut w = a.get(j, c);
            for i in j + 1..m {
                w += a.get(i, j) * a.get(i, c);
            }
            let w = tau * w;
            a.add_assign(j, c, -w);
            for i in j + 1..m {
                let vij = a.get(i, j);
                a.add_assign(i, c, -w * vij);
            }
        }
    }
}

/// The explicit unit lower-trapezoidal reflectors of the panel at `(j0, j0)`, rows `j0..`.
fn reflectors(a: &Matrix, j0: usize, nb: usize) -> Matrix {
    Matrix::from_fn(a.rows() - j0, nb, |i, k| match i.cmp(&k) {
        std::cmp::Ordering::Less => 0.0,
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => a.get(j0 + i, j0 + k),
    })
}

/// Reference per-reflector application of `H_j = I − τ v vᵀ` to all columns of `c`.
fn apply_householder_reference(v_store: &Matrix, j: usize, tau: f64, c: &mut Matrix) {
    let m = v_store.rows();
    for col in 0..c.cols() {
        let mut w = c.get(j, col);
        for i in j + 1..m {
            w += v_store.get(i, j) * c.get(i, col);
        }
        let w = tau * w;
        c.add_assign(j, col, -w);
        for i in j + 1..m {
            c.add_assign(i, col, -w * v_store.get(i, j));
        }
    }
}

fn apply_q_reference(f: &qr::QrFactors, c: &mut Matrix) {
    for (j, &tau) in f.taus.iter().enumerate().rev() {
        if tau != 0.0 {
            apply_householder_reference(&f.qr, j, tau, c);
        }
    }
}

fn apply_q_transpose_reference(f: &qr::QrFactors, c: &mut Matrix) {
    for (j, &tau) in f.taus.iter().enumerate() {
        if tau != 0.0 {
            apply_householder_reference(&f.qr, j, tau, c);
        }
    }
}

// ---------------------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------------------

/// `(n, j0, nb)`: matrix order, panel start and panel width, covering full-width panels,
/// interior panels and short tail panels. `nb` ranges past the LU recursion threshold
/// (`PANEL_BASE` = 16) so both the slice base case and the recursive
/// TRSM/GEMM/batched-swap path are exercised.
fn panel_dims() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (2usize..48, 0usize..40, 1usize..44, any::<u64>()).prop_map(|(n, j0, nb, seed)| {
        let j0 = j0 % n;
        let nb = nb.min(n - j0);
        (n, j0, nb.max(1), seed)
    })
}

/// `(n, j0, nb)` for the QR panel: widths up to 130, past the 64-, 96- and 128-column
/// blocks the benchmark factors with, so the recursive panel splits several levels deep.
fn qr_panel_dims() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (2usize..170, 0usize..40, 1usize..131, any::<u64>()).prop_map(|(n, j0, nb, seed)| {
        let j0 = j0 % n;
        (n, j0, nb.min(n - j0), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lu_panel_matches_scalar_reference((n, j0, nb, seed) in panel_dims()) {
        // Diagonally-shifted input so every panel of the raw matrix is factorizable
        // without first running the preceding iterations.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let raw = random_matrix(&mut rng, n, n);
        let a0 = Matrix::from_fn(n, n, |i, j| raw.get(i, j) + if i == j { 3.0 } else { 0.0 });

        let mut a_slice = a0.clone();
        let mut piv_slice = Vec::new();
        lu::panel_factor(&mut a_slice, j0, nb, &mut piv_slice).unwrap();

        let mut a_ref = a0.clone();
        let mut piv_ref = Vec::new();
        lu_panel_reference(&mut a_ref, j0, nb, &mut piv_ref);

        prop_assert_eq!(piv_slice, piv_ref, "pivot sequences differ (n={} j0={} nb={})", n, j0, nb);
        prop_assert!(
            a_slice.approx_eq(&a_ref, 1e-11),
            "LU panel mismatch (n={} j0={} nb={}), err={}",
            n, j0, nb, a_slice.sub(&a_ref).max_abs()
        );
    }

    #[test]
    fn cholesky_panel_matches_scalar_reference((n, j0, nb, seed) in panel_dims()) {
        let a0 = random_spd_matrix(&mut ChaCha8Rng::seed_from_u64(seed), n);

        let mut a_slice = a0.clone();
        cholesky::potf2(&mut a_slice, j0, nb).unwrap();

        let mut a_ref = a0.clone();
        potf2_reference(&mut a_ref, j0, nb);

        prop_assert!(
            a_slice.approx_eq(&a_ref, 1e-10),
            "Cholesky panel mismatch (n={} j0={} nb={}), err={}",
            n, j0, nb, a_slice.sub(&a_ref).max_abs()
        );
    }

    #[test]
    fn qr_panel_matches_scalar_reference(
        (n, j0, nb, seed) in qr_panel_dims(),
        extra_rows in 0usize..20,
    ) {
        // Tall panels too: m ≥ n exercises the trapezoidal reflector tails.
        let m = n + extra_rows;
        let a0 = random_matrix(&mut ChaCha8Rng::seed_from_u64(seed), m, n);

        let mut a_slice = a0.clone();
        let mut tau_slice = Vec::new();
        qr::panel_factor(&mut a_slice, j0, nb, &mut tau_slice);

        let mut a_ref = a0.clone();
        let mut tau_ref = Vec::new();
        qr_panel_reference(&mut a_ref, j0, nb, &mut tau_ref);

        prop_assert_eq!(tau_slice.len(), tau_ref.len());
        for (ts, tr) in tau_slice.iter().zip(&tau_ref) {
            prop_assert!((ts - tr).abs() <= 1e-12, "tau mismatch: {ts} vs {tr}");
        }
        prop_assert!(
            a_slice.approx_eq(&a_ref, 1e-10),
            "QR panel mismatch (m={} n={} j0={} nb={}), err={}",
            m, n, j0, nb, a_slice.sub(&a_ref).max_abs()
        );
    }

    // Round trip through the blocked application: Q (Qᵀ x) == x.
    #[test]
    fn blocked_q_roundtrip(
        (n, b, nrhs) in (2usize..48, 1usize..14, 1usize..5),
        seed in any::<u64>(),
    ) {
        let b = b.min(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);
        let f = qr_blocked(&a, b);
        let x = random_matrix(&mut rng, n, nrhs);
        let mut y = x.clone();
        f.apply_q_transpose(&mut y);
        f.apply_q(&mut y);
        prop_assert!(y.approx_eq(&x, 1e-9 * x.max_abs().max(1.0)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `form_t` on a factored panel: upper triangular with the taus on its diagonal, and
    // `I − V T Vᵀ` is orthogonal and equal to the product of the panel's reflectors.
    #[test]
    fn form_t_is_an_orthogonal_compact_wy_factor(
        (n, j0, nb, seed) in qr_panel_dims(),
        extra_rows in 0usize..300,
    ) {
        let m = n + extra_rows;
        let mut a = random_matrix(&mut ChaCha8Rng::seed_from_u64(seed), m, n);
        // `form_t` reads the panel's taus at `taus[j0..]`; `panel_factor` appends.
        let mut taus = vec![f64::NAN; j0];
        qr::panel_factor(&mut a, j0, nb, &mut taus);
        prop_assert_eq!(taus.len(), j0 + nb);
        let t = qr::form_t(&a, j0, nb, &taus);
        for j in 0..nb {
            let shape = format!("m={m} j0={j0} nb={nb}");
            prop_assert_eq!(t.get(j, j), taus[j0 + j], "T[{j},{j}] is not tau ({shape})");
            for i in j + 1..nb {
                prop_assert!(t.get(i, j) == 0.0, "T[{i},{j}] below the diagonal ({shape})");
            }
        }
        let rows = m - j0;
        let v = reflectors(&a, j0, nb);
        let vt = gemm(&v, Trans::No, &t, Trans::No);
        let q = Matrix::identity(rows).sub(&gemm(&vt, Trans::No, &v, Trans::Yes));
        let qtq = gemm(&q, Trans::Yes, &q, Trans::No);
        let tol = 1e-13 * rows as f64;
        prop_assert!(
            qtq.approx_eq(&Matrix::identity(rows), tol),
            "I − V T Vᵀ not orthogonal (m={m} j0={j0} nb={nb}), err={}",
            qtq.sub(&Matrix::identity(rows)).max_abs()
        );
        // Q = H₁ H₂ ⋯ H_nb, applied reflector by reflector to the identity.
        let mut q_ref = Matrix::identity(m);
        for j in (0..nb).rev() {
            apply_householder_reference(&a, j0 + j, taus[j0 + j], &mut q_ref);
        }
        let q_ref = q_ref.copy_block(Block::new(j0, j0, rows, rows));
        prop_assert!(
            q.approx_eq(&q_ref, tol),
            "I − V T Vᵀ is not the reflectors' product (m={m} j0={j0} nb={nb}), err={}",
            q.sub(&q_ref).max_abs()
        );
    }

    // The T the drivers apply is `form_t`'s, bit for bit: the blocked driver equals the
    // serial `panel_factor` + `form_t` + `apply_block_reflector` loop (the shape of the
    // engine's frozen reference) on every bit of the factors. Tall inputs put more rows
    // under a panel than the packed core sums in one inner-dimension block.
    #[test]
    fn drivers_apply_form_t_bit_for_bit(
        (m, n, b, seed) in (1usize..700, 1usize..200, 1usize..140, any::<u64>()),
    ) {
        let a = random_matrix(&mut ChaCha8Rng::seed_from_u64(seed), m, n);
        let mut qr_ref = a.clone();
        let mut taus = Vec::new();
        let mut j0 = 0;
        while j0 < m.min(n) {
            let nb = b.min(m.min(n) - j0);
            qr::panel_factor(&mut qr_ref, j0, nb, &mut taus);
            if j0 + nb < n {
                let t = qr::form_t(&qr_ref, j0, nb, &taus);
                qr::apply_block_reflector(&mut qr_ref, j0, nb, &t, j0 + nb, n);
            }
            j0 += nb;
        }
        let f = qr_blocked(&a, b);
        prop_assert!(f.taus == taus, "taus differ (m={m} n={n} b={b})");
        prop_assert!(f.qr == qr_ref, "factors differ (m={m} n={n} b={b})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Blocked compact-WY apply_q / apply_q_transpose against the per-reflector scalar
    // loops, over orders past the APPLY_BLOCK = 96 regrouping boundary (so reflectors
    // are applied in several groups), factorization block sizes and rectangular
    // right-hand sides.
    #[test]
    fn blocked_q_application_matches_per_reflector_reference(
        (m_extra, n, b, nrhs) in (0usize..16, 2usize..200, 1usize..40, 1usize..6),
        seed in any::<u64>(),
        transpose in any::<bool>(),
    ) {
        let m = n + m_extra;
        let b = b.min(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        let f = qr_blocked(&a, b);
        let c0 = random_matrix(&mut rng, m, nrhs);

        let mut c_blocked = c0.clone();
        let mut c_ref = c0.clone();
        if transpose {
            f.apply_q_transpose(&mut c_blocked);
            apply_q_transpose_reference(&f, &mut c_ref);
        } else {
            f.apply_q(&mut c_blocked);
            apply_q_reference(&f, &mut c_ref);
        }
        let scale = c_ref.max_abs().max(1.0);
        prop_assert!(
            c_blocked.approx_eq(&c_ref, 1e-10 * scale),
            "apply_q{} mismatch (m={} n={} b={} nrhs={}), err={}",
            if transpose { "_transpose" } else { "" },
            m, n, b, nrhs, c_blocked.sub(&c_ref).max_abs()
        );
    }
}
