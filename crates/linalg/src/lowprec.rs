//! The f32 entry points of the mixed-precision path.
//!
//! There is no separate low-precision driver: the mixed-precision pipeline factors in
//! f32 — the packed kernel core packs twice the rows per vector register
//! ([`crate::elem`]) — on the *same* `Element`-generic DAG drivers every f64 run uses
//! ([`lu_dag_with`], [`cholesky_dag_with`]), with the same [`TrailingHook`] call sites,
//! and then recovers f64 accuracy with iterative refinement against the f32 factors
//! ([`crate::solve`]). This module only names the `E = f32` instantiations; the names
//! are kept because the frozen `benchmark/` crate imports them.

use crate::cholesky::{cholesky_dag_with, CholeskyError};
use crate::dag::{DagExecution, DagTiming};
use crate::lu::{lu_dag_with, LuError, LuFactors};
use crate::matrix::Matrix;
use crate::task::TrailingHook;

/// f32 LU factors: [`LuFactors`] at `E = f32` (alias kept for `benchmark/`).
pub type LuFactorsF32 = LuFactors<f32>;

/// [`lu_dag_with`] at `E = f32` on the pool (name kept for `benchmark/`; "blocked"
/// is historical — this is the tile-task DAG driver).
pub fn lu_blocked_f32(
    a: &Matrix<f32>,
    block: usize,
    hook: &dyn TrailingHook<f32>,
) -> Result<LuFactorsF32, LuError> {
    lu_dag_with(a, block, hook, DagExecution::Pool).map(|(f, _)| f)
}

/// [`cholesky_dag_with`] at `E = f32` on the pool, in place on `a` (name kept for
/// `benchmark/`; "blocked" is historical — this is the tile-task DAG driver).
pub fn cholesky_blocked_f32(
    a: &mut Matrix<f32>,
    block: usize,
    hook: &dyn TrailingHook<f32>,
) -> Result<DagTiming, CholeskyError> {
    cholesky_dag_with(a, block, hook, DagExecution::Pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm, Trans};
    use crate::generate::{random_diag_dominant_matrix, random_spd_matrix};
    use crate::solve::{cholesky_solve, lu_solve};
    use crate::task::TileVerdict;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingHook(AtomicUsize);
    impl TrailingHook<f32> for CountingHook {
        fn after_tile_update(
            &self,
            _: usize,
            _: usize,
            _: usize,
            cols: &mut [&mut [f32]],
        ) -> TileVerdict {
            assert!(!cols.is_empty() && !cols[0].is_empty());
            self.0.fetch_add(1, Ordering::Relaxed);
            TileVerdict::Accept
        }
    }

    #[test]
    fn f32_lu_reconstructs_permuted_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a64 = random_diag_dominant_matrix(&mut rng, 45);
        let a = a64.demote();
        let f = lu_blocked_f32(&a, 8, &()).unwrap();
        let pa = {
            let mut m = a.clone();
            for (i, &p) in f.pivots.iter().enumerate() {
                if p != i {
                    m.swap_rows(i, p, 0, m.cols());
                }
            }
            m
        };
        let rec = gemm(
            &f.lu.unit_lower_triangular(),
            Trans::No,
            &f.lu.upper_triangular(),
            Trans::No,
        );
        assert!(rec.approx_eq(&pa, 1e-3), "L*U must reconstruct P*A to f32 accuracy");
    }

    #[test]
    fn f32_cholesky_reconstructs_input_and_solves() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let a64 = random_spd_matrix(&mut rng, 40);
        let a = a64.demote();
        let mut l = a.clone();
        let hook = CountingHook(AtomicUsize::new(0));
        cholesky_blocked_f32(&mut l, 8, &hook).unwrap();
        assert!(hook.0.load(Ordering::Relaxed) > 0, "hook must see trailing tiles");
        let lt = l.lower_triangular();
        let rec = gemm(&lt, Trans::No, &lt, Trans::Yes);
        assert!(rec.approx_eq(&a, 1e-2), "L*L^T must reconstruct A to f32 accuracy");
        let b = Matrix::<f32>::from_fn(40, 2, |i, j| (i + j) as f32 / 40.0);
        let x = cholesky_solve(&lt, &b);
        let bx = gemm(&a, Trans::No, &x, Trans::No);
        assert!(bx.approx_eq(&b, 1e-2));
    }

    #[test]
    fn f32_lu_solve_pairs_with_refinement_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let a64 = random_diag_dominant_matrix(&mut rng, 30);
        let a = a64.demote();
        let f = lu_blocked_f32(&a, 6, &()).unwrap();
        let b = Matrix::<f32>::from_fn(30, 1, |i, _| (i as f32).sin());
        let x = lu_solve(&f.lu, &f.pivots, &b);
        let ax = gemm(&a, Trans::No, &x, Trans::No);
        assert!(ax.approx_eq(&b, 1e-2));
    }

    #[test]
    fn f32_lu_rejects_singular() {
        let a = Matrix::<f32>::zeros(4, 4);
        assert!(matches!(lu_blocked_f32(&a, 2, &()), Err(LuError::Singular(0))));
    }
}
