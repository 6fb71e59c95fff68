//! The mixed-precision names of the unified checksum hooks.
//!
//! There is no separate mixed-precision hook: [`FusedTileChecksums`] implements
//! `TrailingHook<E>` for every element type and keeps the *protection* in f64 — at
//! `E = f32` it promotes each tile, screens it for f32 accumulation blowups, encodes,
//! strikes, verifies/corrects and demotes it back (see [`crate::fused`]), with the
//! same recovery ladder and fault targets an f64 run has. These aliases are kept only
//! because the frozen `benchmark/` crate imports the names.

use crate::fused::{FusedTileChecksums, PerIterationChecksums};

/// [`FusedTileChecksums`] (alias kept for `benchmark/`).
pub type MixedChecksums = FusedTileChecksums;

/// [`PerIterationChecksums`] (alias kept for `benchmark/`).
pub type MixedPerIterationChecksums = PerIterationChecksums;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::ChecksumScheme;
    use crate::fused::PlannedFault;
    use bsr_linalg::generate::{random_diag_dominant_matrix, random_spd_matrix};
    use bsr_linalg::lowprec::{cholesky_blocked_f32, lu_blocked_f32};
    use bsr_linalg::solve::lu_solve;
    use bsr_linalg::{blas3, Matrix, Trans};
    use hetero_sim::sdc::ErrorPattern;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn clean_mixed_run_verifies_clean_and_costs_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let a = random_diag_dominant_matrix(&mut rng, 48).demote();
        let hook = MixedChecksums::new(ChecksumScheme::Full, 8);
        let plain = lu_blocked_f32(&a, 8, &()).unwrap();
        let fused = lu_blocked_f32(&a, 8, &hook).unwrap();
        // Promote/demote round-trips exactly on clean data, so factors are identical.
        assert_eq!(fused.lu, plain.lu, "clean mixed protection changed the factors");
        let out = hook.outcome();
        assert!(out.is_clean_or_corrected());
        assert_eq!(out.total_corrected(), 0);
        assert_eq!(hook.nonfinite_screened(), 0);
        assert!(hook.checksum_seconds() > 0.0);
    }

    #[test]
    fn injected_fault_is_corrected_to_residual_accuracy() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let n = 48;
        let b = 8;
        let a = random_diag_dominant_matrix(&mut rng, n).demote();
        // Strike iteration 0's first trailing tile (rows/cols [b, 2b)), then its U12
        // band tile (rows [0, b): final U entries the old f32 drivers never offered).
        for row in [b, 0] {
            let faults = vec![PlannedFault::tile(row, b, ErrorPattern::ZeroD, 5)];
            let hook = MixedChecksums::with_faults(ChecksumScheme::Full, b, faults);
            let struck = lu_blocked_f32(&a, b, &hook).unwrap();
            assert_eq!(hook.faults_injected(), 1);
            let out = hook.outcome();
            assert!(out.total_corrected() >= 1, "the strike must be corrected");
            assert_eq!(out.uncorrectable, 0);
            // Correction is rounded through f32, so judge at the solve level: the struck
            // factors must still solve A x = b to f32-factorization accuracy.
            let bvec = Matrix::<f32>::from_fn(n, 1, |i, _| (i as f32 / n as f32) - 0.4);
            let x = lu_solve(&struck.lu, &struck.pivots, &bvec);
            let ax = blas3::gemm(&a, Trans::No, &x, Trans::No);
            assert!(ax.approx_eq(&bvec, 1e-2), "corrected factors must still solve");
        }
    }

    #[test]
    fn promotion_screen_catches_f32_blowups() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut a = random_spd_matrix(&mut rng, 24).demote();
        // Poison one trailing entry so the first trailing update propagates a
        // non-finite value into the tile the hook inspects.
        a.set(20, 20, f32::INFINITY);
        let hook = MixedChecksums::new(ChecksumScheme::Full, 8);
        // The factorization may or may not fail outright; the screen must trip
        // either way if a trailing tile ever held a non-finite value.
        let _ = cholesky_blocked_f32(&mut a, 8, &hook);
        assert!(
            hook.nonfinite_screened() > 0 || hook.outcome().uncorrectable > 0,
            "a blown-up f32 tile must be screened or tallied"
        );
    }
}
