//! Property suite for the stepped task-parallel factorizations with panel lookahead:
//! each factorization's task graph run one iteration at a time
//! (`LuTiledStepper` / `CholeskyTiledStepper` / `QrTiledStepper`).
//!
//! Two invariants, checked together over random shapes, block sizes and tail panels:
//!
//! 1. **Stepped == synchronous, bitwise.** The stepped drivers must reproduce the
//!    PR 3 synchronous drivers (`lu_blocked` / `cholesky_blocked` / `qr_blocked`)
//!    *exactly* — same pivots/taus, same bits in every matrix element. The stepped
//!    drivers decompose the trailing updates into per-tile-column tasks and defer
//!    LU's out-of-panel row swaps, but per-element floating-point summation order
//!    depends only on the `k` dimension, so no tolerance is needed.
//! 2. **Thread-count invariance.** The same results must come out under
//!    `RAYON_NUM_THREADS ∈ {1, 2, 3, 4, 8}`: the tile decomposition is fixed by the block
//!    size (never by the thread count), and tasks write disjoint column groups, so
//!    the schedule cannot influence a single bit.
//!
//! Bitwise equality is deliberate: it is what makes the lookahead execution model
//! safe to adopt everywhere — any downstream consumer (ABFT checksums, residual
//! tests, the bsr-core drivers) sees values indistinguishable from the fork-join
//! path's.

use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::Matrix;
use bsr_linalg::{cholesky, lu, qr};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Thread counts every property sweeps. 1 exercises the inline path, the rest the
/// persistent pool — including an odd worker count (3) and oversubscription (8) on
/// small CI hosts, which is exactly when task interleavings get adversarial.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

// The shared guard serializes the thread-count-sensitive sections across the
// concurrently running properties (the thread budget is a process global) and
// restores the previous value even if a property body panics — without it the
// advertised `{1, 2, 3, 4, 8}` sweep would not be guaranteed to execute at those counts.
use rayon::ThreadCountGuard;

/// The stepped LU driver: the prologue, then one task graph per iteration.
fn lu_stepped(a: &Matrix, block: usize) -> Result<lu::LuFactors, lu::LuError> {
    let mut stepper = lu::LuTiledStepper::new(a, block)?;
    for k in 0..stepper.iterations() {
        stepper.step(k, &())?;
    }
    Ok(stepper.into_factors())
}

/// The stepped Cholesky driver, in place on `a`.
fn cholesky_stepped(a: &mut Matrix, block: usize) -> Result<(), cholesky::CholeskyError> {
    let mut stepper = cholesky::CholeskyTiledStepper::new(a.clone(), block)?;
    for k in 0..stepper.iterations() {
        stepper.step(k, &())?;
    }
    *a = stepper.into_matrix();
    Ok(())
}

/// The stepped QR driver.
fn qr_stepped(a: &Matrix, block: usize) -> qr::QrFactors {
    let mut stepper = qr::QrTiledStepper::new(a, block);
    for k in 0..stepper.iterations() {
        stepper.step(k, &());
    }
    stepper.into_factors()
}

/// `(n, block, seed)`: order, block size (including > n, = n, and tail-producing
/// values), RNG seed.
fn square_dims() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..44, 1usize..20, 0usize..3, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(28))]

    #[test]
    fn stepped_lu_matches_sync_at_all_thread_counts((n, block, extra, seed) in square_dims()) {
        // `extra` occasionally pushes the block past n to hit the single-panel path.
        let block = block + extra * n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);
        let sync = lu::lu_blocked(&a, block).unwrap();
        for t in THREADS {
            let _guard = ThreadCountGuard::set(t);
            let tiled = lu_stepped(&a, block).unwrap();
            prop_assert_eq!(
                &sync.pivots, &tiled.pivots,
                "pivots differ (n={} block={} threads={})", n, block, t
            );
            prop_assert!(
                sync.lu == tiled.lu,
                "LU factors not bit-identical (n={} block={} threads={})", n, block, t
            );
        }
    }

    #[test]
    fn stepped_cholesky_matches_sync_at_all_thread_counts((n, block, extra, seed) in square_dims()) {
        let block = block + extra * n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a0 = random_spd_matrix(&mut rng, n);
        let mut sync = a0.clone();
        cholesky::cholesky_blocked(&mut sync, block).unwrap();
        for t in THREADS {
            let _guard = ThreadCountGuard::set(t);
            let mut tiled = a0.clone();
            cholesky_stepped(&mut tiled, block).unwrap();
            prop_assert!(
                sync == tiled,
                "Cholesky factors not bit-identical (n={} block={} threads={})", n, block, t
            );
        }
    }

    #[test]
    fn stepped_qr_matches_sync_at_all_thread_counts((m, n, block, seed) in (1usize..40, 1usize..40, 1usize..20, any::<u64>())) {
        // Independent m and n cover square, tall (panel-limited by columns) and wide
        // (trailing columns outliving the panels) shapes.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        let sync = qr::qr_blocked(&a, block);
        for t in THREADS {
            let _guard = ThreadCountGuard::set(t);
            let tiled = qr_stepped(&a, block);
            prop_assert_eq!(
                &sync.taus, &tiled.taus,
                "taus differ (m={} n={} block={} threads={})", m, n, block, t
            );
            prop_assert!(
                sync.qr == tiled.qr,
                "QR factors not bit-identical (m={} n={} block={} threads={})", m, n, block, t
            );
        }
    }

    #[test]
    fn stepped_lu_singularity_agrees_with_sync((n, block, seed) in (2usize..24, 1usize..10, any::<u64>())) {
        // Zero out a column so both paths must hit the same singular pivot.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = random_matrix(&mut rng, n, n);
        let dead = (seed as usize) % n;
        for i in 0..n {
            a.set(i, dead, 0.0);
        }
        let sync = lu::lu_blocked(&a, block);
        for t in THREADS {
            let _guard = ThreadCountGuard::set(t);
            let tiled = lu_stepped(&a, block);
            match (&sync, &tiled) {
                (Err(lu::LuError::Singular(js)), Err(lu::LuError::Singular(jt))) => {
                    prop_assert_eq!(js, jt, "singular column differs (n={} block={})", n, block);
                }
                other => prop_assert!(false, "expected Singular from both paths, got {:?}", other),
            }
        }
    }
}

/// Larger smoke shapes (beyond the proptest size budget) where several iterations of
/// lookahead chain together and the recursive LU panel's GEMM path engages.
#[test]
fn stepped_matches_sync_on_larger_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(2025);
    for t in THREADS {
        let _guard = ThreadCountGuard::set(t);
        let a = random_matrix(&mut rng, 96, 96);
        let sync = lu::lu_blocked(&a, 24).unwrap();
        let tiled = lu_stepped(&a, 24).unwrap();
        assert_eq!(sync.pivots, tiled.pivots);
        assert_eq!(sync.lu, tiled.lu);

        let spd = random_spd_matrix(&mut rng, 96);
        let mut sync = spd.clone();
        cholesky::cholesky_blocked(&mut sync, 24).unwrap();
        let mut tiled = spd.clone();
        cholesky_stepped(&mut tiled, 24).unwrap();
        assert_eq!(sync, tiled);

        let a = random_matrix(&mut rng, 96, 96);
        let sync = qr::qr_blocked(&a, 24);
        let tiled = qr_stepped(&a, 24);
        assert_eq!(sync.taus, tiled.taus);
        assert_eq!(sync.qr, tiled.qr);
    }
}
